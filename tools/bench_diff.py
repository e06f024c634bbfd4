#!/usr/bin/env python3
"""Diffs two BENCH_*.json records row by row.

    python3 tools/bench_diff.py BEFORE.json AFTER.json [--band 0.10]

Both files are what the bench binaries write with --json: an object whose
"rows" list holds one object per measurement, keyed by "name". Rows are
matched by name. For every numeric field two matched rows share, one line
prints before, after and after/before; a `*` marks a ratio outside the
noise band, 1 +- band (default 0.10). Whether up or down is the good
direction depends on the field (wall_ms vs gmadds_per_s), so the script
only flags. Text fields that differ print as before -> after. Rows found in
only one file are listed at the end. The exit status is 0 unless a file
cannot be read: this is a report, not a gate.
"""
import argparse
import json
import sys


def load_rows(path):
    with open(path) as f:
        doc = json.load(f)
    rows = doc["rows"] if isinstance(doc, dict) else doc
    out = {}
    for row in rows:
        out[row["name"]] = row
    return out


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def fmt(v):
    return f"{v:.6g}"


def diff(before, after, band):
    """The report's lines for two {name: row} maps."""
    lines, flagged = [], 0
    shared = [name for name in before if name in after]
    width = max([len(n) for n in shared] + [3])
    fw = max([len(f) for n in shared for f in before[n]] + [5])
    lines.append(f"{'row':<{width}}  {'field':<{fw}} {'before':>12} "
                 f"{'after':>12} {'ratio':>8}")
    for name in shared:
        a, b = before[name], after[name]
        for field in a:
            if field == "name" or field not in b:
                continue
            x, y = a[field], b[field]
            if is_number(x) and is_number(y):
                if x != 0:
                    ratio = y / x
                    out = abs(ratio - 1.0) > band
                    rtext = f"{ratio:8.3f}"
                else:
                    out = y != 0
                    rtext = f"{'n/a':>8}"
                flagged += out
                lines.append(f"{name:<{width}}  {field:<{fw}} {fmt(x):>12} "
                             f"{fmt(y):>12} {rtext}{' *' if out else ''}")
            elif x != y:
                lines.append(f"{name:<{width}}  {field:<{fw}} {x} -> {y}")
    only_before = [n for n in before if n not in after]
    only_after = [n for n in after if n not in before]
    for label, names in (("only in before", only_before),
                         ("only in after", only_after)):
        for n in names:
            lines.append(f"{label}: {n}")
    lines.append(f"{len(shared)} shared rows, {flagged} fields outside "
                 f"+-{band:.0%}, {len(only_before)} only in before, "
                 f"{len(only_after)} only in after")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("before")
    ap.add_argument("after")
    ap.add_argument("--band", type=float, default=0.10,
                    help="noise band as a fraction (default 0.10)")
    args = ap.parse_args()
    try:
        before, after = load_rows(args.before), load_rows(args.after)
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"bench_diff: {e}", file=sys.stderr)
        return 2
    print("\n".join(diff(before, after, args.band)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
