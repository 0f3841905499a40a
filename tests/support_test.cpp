// Tests for the support runtime: rng, stats, table, cli, thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "support/check.h"
#include "support/cli.h"
#include "support/parallel_for.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/table.h"
#include "support/thread_pool.h"
#include "support/timer.h"

namespace fdlsp {
namespace {

TEST(Check, RequireThrowsContractError) {
  EXPECT_THROW(FDLSP_REQUIRE(false, "boom"), contract_error);
  EXPECT_NO_THROW(FDLSP_REQUIRE(true, "fine"));
}

TEST(Check, MessageIncludesContext) {
  try {
    FDLSP_REQUIRE(1 == 2, "custom detail");
    FAIL() << "expected throw";
  } catch (const contract_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("custom detail"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 4);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const auto x = rng.next_below(13);
    EXPECT_LT(x, 13u);
  }
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1'000; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextIntInclusiveRange) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5'000; ++i) {
    const auto x = rng.next_int(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    saw_lo |= (x == -3);
    saw_hi |= (x == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextDoubleMeanNearHalf) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(9);
  std::vector<int> values{1, 2, 3, 4, 5, 6, 7, 8};
  auto copy = values;
  rng.shuffle(copy);
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, values);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(1);
  Rng child = parent.split();
  // Child diverges from parent's continued stream.
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (parent() == child()) ++equal;
  EXPECT_LT(equal, 4);
}

TEST(Summary, MeanAndExtremes) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(Summary, VarianceMatchesTextbook) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(Summary, EmptyThrowsOnMean) {
  Summary s;
  EXPECT_THROW(s.mean(), contract_error);
}

TEST(Summary, MergeWithEmptySides) {
  Summary a, b;
  a.add(3.0);
  a.merge(b);  // empty right side: no-op
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);
  Summary c;
  c.merge(a);  // empty left side: copies
  EXPECT_EQ(c.count(), 1u);
  EXPECT_DOUBLE_EQ(c.mean(), 3.0);
}

TEST(Summary, MergeEqualsSequential) {
  Summary a, b, all;
  Rng rng(21);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.next_double() * 10;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(TextTable, AlignedRendering) {
  TextTable table({"name", "value"});
  table.add_row({"x", "1"});
  table.add_row({"long-name", "2"});
  std::ostringstream os;
  table.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("| name"), std::string::npos);
  EXPECT_NE(text.find("long-name"), std::string::npos);
}

TEST(TextTable, RowWidthMismatchThrows) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), contract_error);
}

TEST(TextTable, CsvQuotesSpecialCells) {
  TextTable table({"a"});
  table.add_row({"x,y"});
  std::ostringstream os;
  table.print_csv(os);
  EXPECT_NE(os.str().find("\"x,y\""), std::string::npos);
}

TEST(FmtDouble, TrimsTrailingZeros) {
  EXPECT_EQ(fmt_double(2.50), "2.5");
  EXPECT_EQ(fmt_double(3.00), "3");
  EXPECT_EQ(fmt_double(1.26, 1), "1.3");
}

TEST(CliArgs, ParsesFlagsAndValues) {
  const char* argv[] = {"prog", "--n=42", "--verbose", "--rate=1.5"};
  CliArgs args(4, argv);
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_FALSE(args.has("quiet"));
  EXPECT_EQ(args.get_int("n", 0), 42);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 1.5);
  EXPECT_EQ(args.get_int("missing", 7), 7);
}

TEST(CliArgs, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "oops"};
  EXPECT_THROW(CliArgs(2, argv), contract_error);
}

/// The contract_error message `body` raises, or "" when it does not throw.
template <typename Body>
std::string contract_message(Body body) {
  try {
    body();
  } catch (const contract_error& error) {
    return error.what();
  }
  return "";
}

TEST(CliArgs, RejectsPartialNumericParses) {
  const char* argv[] = {"prog", "--shards=2x", "--rate=1.5x", "--n=",
                        "--seed=-3", "--ok=12"};
  const CliArgs args(6, argv);
  EXPECT_NE(contract_message([&] { args.get_int("shards", 0); })
                .find("--shards"),
            std::string::npos);
  EXPECT_NE(contract_message([&] { args.get_double("rate", 0.0); })
                .find("--rate"),
            std::string::npos);
  EXPECT_THROW(args.get_int("n", 0), contract_error);
  EXPECT_EQ(args.get_int("seed", 0), -3);
  EXPECT_EQ(args.get_count("ok", 0), 12u);
  EXPECT_DOUBLE_EQ(args.get_double("ok", 0.0), 12.0);
}

TEST(CliArgs, GetCountRejectsNegativeValues) {
  const char* argv[] = {"prog", "--shards=-1"};
  const CliArgs args(2, argv);
  EXPECT_NE(contract_message([&] { args.get_count("shards", 0); })
                .find("--shards"),
            std::string::npos);
  EXPECT_EQ(args.get_count("absent", 4), 4u);
}

TEST(CliArgs, RequireKnownNamesTheFirstUnknownFlag) {
  const char* argv[] = {"prog", "--n=3", "--shard=4"};
  const CliArgs args(3, argv);
  constexpr std::string_view known[] = {"n", "shards"};
  EXPECT_NE(contract_message([&] { args.require_known(known); })
                .find("--shard"),
            std::string::npos);
  constexpr std::string_view wider[] = {"n", "shard"};
  EXPECT_NO_THROW(args.require_known(wider));
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
}

TEST(ParallelFor, CoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ParallelForSeeded, DeterministicAcrossThreadCounts) {
  std::vector<std::uint64_t> once(64), twice(64);
  {
    ThreadPool pool(1);
    parallel_for_seeded(pool, once.size(), 99,
                        [&](std::size_t i, Rng& rng) { once[i] = rng(); });
  }
  {
    ThreadPool pool(8);
    parallel_for_seeded(pool, twice.size(), 99,
                        [&](std::size_t i, Rng& rng) { twice[i] = rng(); });
  }
  EXPECT_EQ(once, twice);
}

TEST(Timer, MeasuresNonNegativeTime) {
  Timer timer;
  EXPECT_GE(timer.seconds(), 0.0);
  timer.reset();
  EXPECT_GE(timer.millis(), 0.0);
}

}  // namespace
}  // namespace fdlsp
