// Same-process A/B of two trees' engines: the "change" side is this tree,
// the "parent" side the tree CMake's ALF_AB_PARENT names (built under
// -Dalf=alf_parent; see tools/ab/side.cpp). Each pair runs every fixture
// plan once per side, in alternating order, on the same images; a pair's
// ratio is change ms / parent ms, and the round is the four models'
// summed time. Separate processes drift apart by more than a kernel
// change on a shared VM; two sides alternated in one process see the
// same host. Logits are compared byte for byte on every call.
//
// The two sides are not neutral (code placement, which pool spins up
// first), so a small ratio is only meaningful next to the same-code
// control: this tree against itself (ALF_AB_PARENT=<this tree>).
//
//   ab [--pairs N] [--batch B] [--rows R] [--threads T] [--seed S]
//
// Defaults: 100 pairs of batch 32 on 4 threads; plans compile for batch B
// images and every call runs R of them (default B). Prints one row per
// model and one for the round: each side's median ms, the median pair
// ratio and its quartiles, pairs the change won, and whether every logit
// matched.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

extern "C" {
int change_init(int threads, size_t batch);
void change_run(int m, const float* x, size_t n, float* out);
const char* change_name(int m);
size_t change_classes(int m);
size_t change_chunks(int m);
int parent_init(int threads, size_t batch);
void parent_run(int m, const float* x, size_t n, float* out);
const char* parent_name(int m);
size_t parent_classes(int m);
size_t parent_chunks(int m);
}

namespace {

constexpr size_t kImageFloats = 3 * 32 * 32;

/// The q-quantile of v (nearest rank on a sorted copy).
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto at = static_cast<size_t>(q * static_cast<double>(v.size() - 1) +
                                      0.5);
  return v[std::min(at, v.size() - 1)];
}

struct Series {
  std::vector<double> parent_ms, change_ms, ratio;
  bool identical = true;
};

void print_row(const std::string& name, const std::string& chunks,
               const Series& s) {
  size_t won = 0;
  for (const double r : s.ratio) won += r < 1.0 ? 1 : 0;
  std::printf("%-18s %-7s %9.3f %9.3f %8.3f  %.3f-%.3f %5zu/%-4zu %s\n",
              name.c_str(), chunks.c_str(), quantile(s.parent_ms, 0.5),
              quantile(s.change_ms, 0.5), quantile(s.ratio, 0.5),
              quantile(s.ratio, 0.25), quantile(s.ratio, 0.75), won,
              s.ratio.size(), s.identical ? "yes" : "NO");
}

}  // namespace

int main(int argc, char** argv) {
  size_t pairs = 100, batch = 32, rows = 0;
  int threads = 4;
  uint64_t seed = 1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const unsigned long long v = std::strtoull(argv[i + 1], nullptr, 10);
    if (flag == "--pairs") {
      pairs = v;
    } else if (flag == "--batch") {
      batch = v;
    } else if (flag == "--rows") {
      rows = v;
    } else if (flag == "--threads") {
      threads = static_cast<int>(v);
    } else if (flag == "--seed") {
      seed = v;
    } else {
      std::fprintf(stderr, "ab: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (rows == 0) rows = batch;
  if (pairs < 1 || batch < 1 || threads < 1 || rows > batch) {
    std::fprintf(stderr,
                 "ab: --pairs, --batch and --threads must be >= 1, "
                 "--rows <= --batch\n");
    return 2;
  }
  const int models = parent_init(threads, batch);
  if (change_init(threads, batch) != models) {
    std::fprintf(stderr, "ab: the two sides build different fixtures\n");
    return 2;
  }
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> uni(-1.0f, 1.0f);
  std::vector<float> x(batch * kImageFloats);
  for (float& v : x) v = uni(rng);

  using Clock = std::chrono::steady_clock;
  const auto timed = [&](void (*run)(int, const float*, size_t, float*),
                         int m, float* out) {
    const Clock::time_point t0 = Clock::now();
    run(m, x.data(), rows, out);
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
  };
  std::vector<Series> per(static_cast<size_t>(models));
  Series round;
  for (size_t p = 0; p < pairs + 2; ++p) {  // the first two pairs warm up
    double pr = 0.0, cr = 0.0;
    for (int m = 0; m < models; ++m) {
      const size_t classes = change_classes(m);
      std::vector<float> lp(rows * classes), lc(rows * classes);
      double pm, cm;
      if (p % 2 == 0) {
        pm = timed(&parent_run, m, lp.data());
        cm = timed(&change_run, m, lc.data());
      } else {
        cm = timed(&change_run, m, lc.data());
        pm = timed(&parent_run, m, lp.data());
      }
      Series& s = per[static_cast<size_t>(m)];
      const bool same = parent_classes(m) == classes &&
                        std::memcmp(lp.data(), lc.data(),
                                    lc.size() * sizeof(float)) == 0;
      s.identical = s.identical && same;
      round.identical = round.identical && same;
      if (p < 2) continue;
      s.parent_ms.push_back(pm);
      s.change_ms.push_back(cm);
      s.ratio.push_back(cm / pm);
      pr += pm;
      cr += cm;
    }
    if (p < 2) continue;
    round.parent_ms.push_back(pr);
    round.change_ms.push_back(cr);
    round.ratio.push_back(cr / pr);
  }
  std::printf("A/B: %zu pairs, %zu of batch %zu, %d threads (ratio = "
              "change / parent)\n",
              pairs, rows, batch, threads);
  std::printf("%-18s %-7s %9s %9s %8s  %-11s %-10s %s\n", "model", "chunks",
              "parent", "change", "ratio", "IQR", "won", "identical");
  for (int m = 0; m < models; ++m)
    print_row(change_name(m),
              std::to_string(parent_chunks(m)) + "/" +
                  std::to_string(change_chunks(m)),
              per[static_cast<size_t>(m)]);
  print_row("round", "", round);
  return round.identical ? 0 : 1;
}
