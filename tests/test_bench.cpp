// Benchmark-reporting infrastructure: signed delta cells (both directions),
// JSON string escaping end-to-end through BenchJson::write, and the shared
// nearest-rank percentile helper.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/check.hpp"

namespace alf::bench {
namespace {

TEST(BenchCells, ParamsCellSignsBothDirections) {
  // Compression: 0.30M vs a 1.00M baseline is -70%.
  EXPECT_EQ(params_cell(300000, 1000000), "0.30M (-70%)");
  // Growth past the baseline must read (+12%), not (--12%).
  EXPECT_EQ(params_cell(1120000, 1000000), "1.12M (+12%)");
  EXPECT_EQ(params_cell(1000000, 1000000), "1.00M");  // equal: no suffix
  EXPECT_EQ(params_cell(1000000, 0), "1.00M");        // no baseline
}

TEST(BenchCells, OpsCellSignsBothDirections) {
  EXPECT_EQ(ops_cell(39000000, 100000000), "39.0 (-61%)");
  EXPECT_EQ(ops_cell(150000000, 100000000), "150.0 (+50%)");
  EXPECT_EQ(ops_cell(100000000, 100000000), "100.0");
}

TEST(JsonEscape, QuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain name_123"), "plain name_123");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string("nul\x01") + "x"), "nul\\u0001x");
  EXPECT_EQ(json_escape("\r\b\f"), "\\r\\b\\f");
}

/// Minimal JSON well-formedness scan: every '"' inside a string must be
/// escaped, strings terminate, and braces/brackets balance outside strings.
bool json_well_formed(const std::string& s) {
  bool in_string = false, escaped = false;
  long depth = 0;
  for (const char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character inside a string
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    if (depth < 0) return false;
  }
  return !in_string && !escaped && depth == 0;
}

TEST(BenchJson, WriteEscapesEveryStringField) {
  BenchJson json("bench\"quoted", "scale\\back");
  BenchRow& row = json.row("resnet/policy=\"batch=32\"\nline2");
  row.wall_ms = 1.5;
  row.extra["images\"per\"s"] = 42.0;
  row.extra_str["qgemm_backend"] = "int8-vnni";
  row.extra_str["cpu\"mask"] = "avx2\\fma";  // both key and value escaped
  BenchRow& plain = json.row("plain_row");
  plain.accuracy = 0.75;

  const std::string path = "test_bench_json_tmp.json";
  ASSERT_TRUE(json.write(path));
  std::string content;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
      content.append(buf, got);
    std::fclose(f);
  }
  std::remove(path.c_str());

  EXPECT_TRUE(json_well_formed(content)) << content;
  EXPECT_NE(content.find("\"bench\": \"bench\\\"quoted\""), std::string::npos)
      << content;
  EXPECT_NE(content.find("\"scale\": \"scale\\\\back\""), std::string::npos);
  EXPECT_NE(content.find("policy=\\\"batch=32\\\"\\nline2"),
            std::string::npos);
  EXPECT_NE(content.find("\"images\\\"per\\\"s\": 42"), std::string::npos);
  // String-valued extras come out quoted AND escaped.
  EXPECT_NE(content.find("\"qgemm_backend\": \"int8-vnni\""),
            std::string::npos);
  EXPECT_NE(content.find("\"cpu\\\"mask\": \"avx2\\\\fma\""),
            std::string::npos);
  EXPECT_NE(content.find("\"name\": \"plain_row\", \"accuracy\": 0.75"),
            std::string::npos);
}

TEST(Percentile, NearestRankIsUnbiased) {
  // 1..100: the nearest-rank p-th percentile of n=100 is element ceil(p*n).
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT_DOUBLE_EQ(percentile(v, 0.50), 50.0);  // the biased p*n gave 51
  EXPECT_DOUBLE_EQ(percentile(v, 0.95), 95.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 100.0);

  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.5), 7.0);
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0}, 0.5), 1.0);   // ceil(1.0) = rank 1
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0}, 0.51), 3.0);  // ceil(1.02) = rank 2
}

TEST(Percentile, RejectsEmptySamplesAndBadP) {
  EXPECT_THROW(percentile({}, 0.5), CheckError);
  EXPECT_THROW(percentile({1.0}, -0.1), CheckError);
  EXPECT_THROW(percentile({1.0}, 1.1), CheckError);
}

TEST(Percentile, P999CollapsesToP99OnSmallSamples) {
  // Nearest rank: ceil(0.99 n) == ceil(0.999 n) for every n <= 99, so a
  // small latency sample CANNOT resolve p99.9 — it merely repeats p99.
  // Guard the identity so reporting both on small runs (serve) stays
  // honest rather than silently fabricating a tail.
  std::vector<double> v;
  for (int n = 1; n <= 99; ++n) {
    v.push_back(n);  // v = 1..n
    EXPECT_DOUBLE_EQ(percentile(v, 0.99), percentile(v, 0.999)) << "n=" << n;
  }
  // n = 100 is the first sample size where the two ranks separate:
  // ceil(99.0) = 99 but ceil(99.9) = 100.
  v.push_back(100.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.999), 100.0);
  // And with n = 1000 they are a full order of tail apart.
  std::vector<double> big;
  for (int i = 1; i <= 1000; ++i) big.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(big, 0.99), 990.0);
  EXPECT_DOUBLE_EQ(percentile(big, 0.999), 999.0);
}

}  // namespace
}  // namespace alf::bench
