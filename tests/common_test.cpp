// Unit tests for geomap_common: RNG determinism and distribution sanity,
// statistics, dense matrices, parallel_for semantics, table rendering and
// the CLI parser.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <sstream>

#include "common/cli.h"
#include "common/dense_matrix.h"
#include "common/error.h"
#include "common/json_writer.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace geomap {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    stats.add(u);
  }
  EXPECT_NEAR(stats.mean(), 0.5, 0.02);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.01);
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng rng(11);
  std::vector<int> hist(7, 0);
  const int draws = 70000;
  for (int i = 0; i < draws; ++i) ++hist[rng.uniform_index(7)];
  for (const int count : hist) {
    EXPECT_NEAR(static_cast<double>(count), draws / 7.0, draws * 0.01);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(5);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  rng.shuffle(v);
  std::set<int> unique(v.begin(), v.end());
  EXPECT_EQ(unique.size(), 50u);
  EXPECT_NE(v[0] * 100 + v[1], 0 * 100 + 1);  // virtually surely moved
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(9);
  Rng b = a.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 5);
}

TEST(RunningStats, MatchesHandComputedValues) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stderr_mean(), s.stddev() / std::sqrt(8.0), 1e-12);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
  EXPECT_DOUBLE_EQ(percentile(v, 10), 1.4);
}

TEST(Stats, PercentileRejectsBadInput) {
  // The contract (common/stats.h): empty samples and pct outside [0, 100]
  // throw InvalidArgument — never a silent clamp or an out-of-bounds read.
  EXPECT_THROW(percentile({}, 50), InvalidArgument);
  EXPECT_THROW(percentile({}, 0), InvalidArgument);
  EXPECT_THROW(percentile({1.0}, 101), InvalidArgument);
  EXPECT_THROW(percentile({1.0}, 100.0000001), InvalidArgument);
  EXPECT_THROW(percentile({1.0}, -0.5), InvalidArgument);
  EXPECT_THROW(percentile({1.0}, std::nan("")), InvalidArgument);
  // Boundary percentiles remain valid on a single-element sample.
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 100), 7.0);
}

TEST(EmpiricalCdf, AtAndQuantileAreConsistent) {
  EmpiricalCdf cdf({4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(10.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 2.5);
}

TEST(DenseMatrix, StoresAndRetrieves) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(DenseMatrix, BoundsChecked) {
  Matrix m = Matrix::square(2);
  EXPECT_THROW(m(2, 0), Error);
  EXPECT_THROW(m(0, 2), Error);
}

TEST(ParallelFor, ComputesSameSumAsSerial) {
  const std::size_t n = 10000;
  std::vector<double> values(n);
  parallel_for(0, n, [&](std::size_t i) {
    values[i] = std::sin(static_cast<double>(i));
  });
  double expected = 0;
  for (std::size_t i = 0; i < n; ++i) expected += std::sin(static_cast<double>(i));
  double actual = std::accumulate(values.begin(), values.end(), 0.0);
  EXPECT_NEAR(actual, expected, 1e-9);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  const std::size_t n = 5000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(0, n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(parallel_for(0, 100,
                            [](std::size_t i) {
                              if (i == 42) throw Error("boom");
                            }),
               Error);
}

TEST(ParallelFor, RespectsWorkerOverride) {
  set_parallel_workers(3);
  EXPECT_EQ(parallel_workers(), 3u);
  set_parallel_workers(0);
  EXPECT_GE(parallel_workers(), 1u);
}

TEST(Table, RendersAlignedRowsAndCsv) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(1.5, 1);
  t.row().cell("b,eta").cell(20LL);
  std::ostringstream text;
  t.print(text);
  EXPECT_NE(text.str().find("| alpha | 1.5"), std::string::npos);
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_NE(csv.str().find("\"b,eta\",20"), std::string::npos);
}

TEST(Table, RejectsMisshapenRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Cli, ParsesAllValueForms) {
  CliParser cli("test");
  cli.add_int("count", 1, "");
  cli.add_double("ratio", 0.5, "");
  cli.add_string("name", "x", "");
  cli.add_bool("flag", false, "");
  const char* argv[] = {"prog", "--count=7", "--ratio", "0.25", "--flag",
                        "--name=hello"};
  ASSERT_TRUE(cli.parse(6, const_cast<char**>(argv)));
  EXPECT_EQ(cli.get_int("count"), 7);
  EXPECT_DOUBLE_EQ(cli.get_double("ratio"), 0.25);
  EXPECT_EQ(cli.get_string("name"), "hello");
  EXPECT_TRUE(cli.get_bool("flag"));
}

// Usage errors print the message and the usage to stderr and exit 2.
TEST(Cli, RejectsUnknownFlagAndBadValue) {
  CliParser cli("test");
  cli.add_int("count", 1, "");
  cli.add_bool("flag", false, "");
  const char* bad_flag[] = {"prog", "--nope=1"};
  EXPECT_EXIT(cli.parse(2, const_cast<char**>(bad_flag)),
              ::testing::ExitedWithCode(2), "unknown flag --nope.*Usage:");
  const char* bad_value[] = {"prog", "--count=abc"};
  EXPECT_EXIT(cli.parse(2, const_cast<char**>(bad_value)),
              ::testing::ExitedWithCode(2),
              "bad value 'abc' for flag --count.*Usage:");
  const char* bad_bool[] = {"prog", "--flag=maybe"};
  EXPECT_EXIT(cli.parse(2, const_cast<char**>(bad_bool)),
              ::testing::ExitedWithCode(2), "bad value 'maybe' for flag --flag");
  const char* positional[] = {"prog", "stray"};
  EXPECT_EXIT(cli.parse(2, const_cast<char**>(positional)),
              ::testing::ExitedWithCode(2), "unexpected argument: stray");
}

TEST(Cli, MissingValueExitsTwoWithUsage) {
  CliParser cli("test");
  cli.add_int("soak", 0, "cases to run");
  const char* argv[] = {"prog", "--soak"};
  EXPECT_EXIT(cli.parse(2, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2),
              "flag --soak needs a value.*Usage:.*--soak");
}

TEST(Cli, HelpReturnsFalse) {
  CliParser cli("test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, const_cast<char**>(argv)));
}

TEST(Checks, MacrosThrowWithContext) {
  try {
    GEOMAP_CHECK_MSG(1 == 2, "context " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

TEST(JsonWriter, EmitsNestedStructuresCompact) {
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/false);
  w.begin_object();
  w.field("name", "geo");
  w.field("count", 3);
  w.field("ok", true);
  w.key("costs").begin_array();
  w.value(1.5).value(static_cast<std::int64_t>(-2)).null();
  w.end_array();
  w.key("nested").begin_object().field("x", 1).end_object();
  w.end_object();
  EXPECT_TRUE(w.done());
  EXPECT_EQ(os.str(),
            "{\"name\":\"geo\",\"count\":3,\"ok\":true,"
            "\"costs\":[1.5,-2,null],\"nested\":{\"x\":1}}");
}

TEST(JsonWriter, EscapesStringsAndHandlesNonFinite) {
  EXPECT_EQ(JsonWriter::escape("a\"b\\c\n\t\x01"),
            "a\\\"b\\\\c\\n\\t\\u0001");
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/false);
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::nan(""));
  w.end_array();
  EXPECT_EQ(os.str(), "[null,null]");  // non-finite is not JSON
}

TEST(JsonWriter, DoubleFormattingRoundTrips) {
  for (const double v : {0.1, 1.0 / 3.0, 1e-300, 12345.6789, 2.0, -0.0}) {
    const std::string s = JsonWriter::format_double(v);
    EXPECT_EQ(std::stod(s), v) << s;
  }
  // Integer-valued doubles read back as JSON numbers, not strings.
  EXPECT_EQ(JsonWriter::format_double(3.0), "3.0");
}

TEST(JsonWriter, RejectsMalformedSequences) {
  {
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_object();
    EXPECT_THROW(w.value(1.0), Error);  // member value without a key
  }
  {
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_array();
    EXPECT_THROW(w.end_object(), Error);  // mismatched close
  }
  {
    std::ostringstream os;
    JsonWriter w(os);
    w.value(1.0);
    EXPECT_THROW(w.value(2.0), Error);  // two top-level values
  }
}

}  // namespace
}  // namespace geomap
