// Support-library tests: deterministic RNG, statistics, table/CSV, CLI.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace topomap {
namespace {

TEST(Rng, DeterministicBySeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
  bool any_diff = false;
  Rng a2(123);
  for (int i = 0; i < 100; ++i) any_diff |= (a2() != c());
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformBoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
    const auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.uniform_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
  EXPECT_THROW(rng.uniform(0), precondition_error);
  EXPECT_THROW(rng.uniform_int(3, 2), precondition_error);
}

TEST(Rng, UniformIsRoughlyUniform) {
  Rng rng(99);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform(10)];
  for (int c : counts) EXPECT_NEAR(c, n / 10, n / 100);
}

TEST(Rng, PermutationIsBijection) {
  Rng rng(5);
  const auto p = rng.permutation(200);
  std::vector<char> seen(200, 0);
  for (int v : p) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 200);
    EXPECT_FALSE(seen[v]);
    seen[v] = 1;
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(1);
  Rng child = parent.split();
  EXPECT_NE(parent(), child());
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeEqualsCombinedStream) {
  Rng rng(3);
  RunningStats a, b, all;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform_double(-3, 9);
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(SampleStats, Percentiles) {
  SampleStats s;
  for (int i = 100; i >= 1; --i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
  EXPECT_NEAR(s.percentile(0.5), 50.5, 1e-9);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_THROW(s.percentile(1.5), precondition_error);
}

TEST(Table, PrintsAlignedAndWritesCsv) {
  Table t("demo", {"name", "count", "ratio"}, 2);
  t.add_row({std::string("alpha"), std::int64_t{42}, 1.234});
  t.add_row({std::string("b,\"x\""), std::int64_t{7}, 0.5});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("demo"), std::string::npos);
  EXPECT_NE(os.str().find("alpha"), std::string::npos);
  EXPECT_NE(os.str().find("1.23"), std::string::npos);

  const auto path = std::filesystem::temp_directory_path() / "topomap_t.csv";
  ASSERT_TRUE(t.write_csv(path.string()));
  std::ifstream in(path);
  std::string header, row1, row2;
  std::getline(in, header);
  std::getline(in, row1);
  std::getline(in, row2);
  EXPECT_EQ(header, "name,count,ratio");
  EXPECT_EQ(row1, "alpha,42,1.23");
  EXPECT_EQ(row2, "\"b,\"\"x\"\"\",7,0.50");
  std::filesystem::remove(path);
}

TEST(Table, RejectsMismatchedRows) {
  Table t("demo", {"a", "b"});
  EXPECT_THROW(t.add_row({std::int64_t{1}}), precondition_error);
}

TEST(Cli, ParsesFlagsOptionsAndLists) {
  CliParser cli("test");
  cli.add_flag("fast", "run fast");
  cli.add_option("iters", "iterations", "100");
  cli.add_option("sizes", "sweep sizes", "1,2,3");
  cli.add_option("bw", "bandwidth", "2.5");
  const char* argv[] = {"prog", "--fast", "--iters=250", "--bw", "7.5"};
  ASSERT_TRUE(cli.parse(5, argv));
  EXPECT_TRUE(cli.flag("fast"));
  EXPECT_EQ(cli.integer("iters"), 250);
  EXPECT_DOUBLE_EQ(cli.real("bw"), 7.5);
  EXPECT_EQ(cli.int_list("sizes"), (std::vector<std::int64_t>{1, 2, 3}));
}

TEST(Cli, RejectsUnknownAndMalformed) {
  // A malformed command line is a usage mistake (exit 1), never a silent
  // "parsed nothing" that a caller could mistake for --help.
  const auto parse = [](std::vector<const char*> args) {
    CliParser cli("test");
    cli.add_option("iters", "iterations", "100");
    cli.add_flag("fast", "run fast");
    args.insert(args.begin(), "prog");
    return cli.parse(static_cast<int>(args.size()), args.data());
  };
  EXPECT_THROW(parse({"--nope=1"}), usage_error);
  EXPECT_THROW(parse({"positional"}), usage_error);
  EXPECT_THROW(parse({"--iters"}), usage_error);       // needs a value
  EXPECT_THROW(parse({"--fast=yes"}), usage_error);    // flag with a value
  EXPECT_FALSE(parse({"--help"}));                      // help is no error
  EXPECT_TRUE(parse({"--iters", "5", "--fast"}));
}

/// The precondition_error message `read` throws on a parser given `arg`.
std::string numeric_error(const char* arg,
                          void (*read)(const CliParser& cli)) {
  CliParser cli("test");
  cli.add_option("seed", "seed", "1");
  cli.add_option("bw", "bandwidth", "2.5");
  cli.add_option("sizes", "sweep sizes", "1,2,3");
  cli.add_option("rates", "rates", "0.5,1");
  const char* argv[] = {"prog", arg};
  EXPECT_TRUE(cli.parse(2, argv));
  try {
    read(cli);
  } catch (const precondition_error& e) {
    return e.what();
  }
  return "no precondition_error";
}

TEST(Cli, NumericValuesFailAsPreconditionsNamingTheOption) {
  const auto seed = [](const CliParser& cli) { (void)cli.integer("seed"); };
  const auto bw = [](const CliParser& cli) { (void)cli.real("bw"); };
  EXPECT_EQ(numeric_error("--seed=abc", seed),
            "option --seed is not an integer: 'abc'");
  EXPECT_EQ(numeric_error("--seed=1x", seed),
            "option --seed is not an integer: '1x'");
  EXPECT_EQ(numeric_error("--seed=99999999999999999999", seed),
            "option --seed is out of range: '99999999999999999999'");
  EXPECT_EQ(numeric_error("--bw=fast", bw),
            "option --bw is not a number: 'fast'");
  EXPECT_EQ(numeric_error("--bw=1e999", bw),
            "option --bw is out of range: '1e999'");
  EXPECT_EQ(numeric_error("--sizes=1,x,3",
                          [](const CliParser& cli) {
                            (void)cli.int_list("sizes");
                          }),
            "option --sizes is not an integer: 'x'");
  EXPECT_EQ(numeric_error("--rates=0.5,?",
                          [](const CliParser& cli) {
                            (void)cli.real_list("rates");
                          }),
            "option --rates is not a number: '?'");
  EXPECT_EQ(parse_integer("-7", "n"), -7);
  EXPECT_DOUBLE_EQ(parse_real("0.25", "r"), 0.25);
  EXPECT_THROW((void)parse_integer("", "n"), precondition_error);
}

TEST(Cli, RunMainMapsTheErrorTaxonomyOntoExitCodes) {
  const auto rc = [](int (*body)(int, char**)) {
    return run_main(0, nullptr, body);
  };
  EXPECT_EQ(rc([](int, char**) { return 0; }), 0);
  EXPECT_EQ(rc([](int, char**) -> int { throw usage_error("u"); }), 1);
  EXPECT_EQ(rc([](int, char**) -> int { throw precondition_error("p"); }), 2);
  EXPECT_EQ(rc([](int, char**) -> int { throw invariant_error("i"); }), 3);
  EXPECT_EQ(rc([](int, char**) -> int { throw io_error("o"); }), 4);
  EXPECT_EQ(rc([](int, char**) -> int { throw std::runtime_error("x"); }), 1);
}

}  // namespace
}  // namespace topomap
