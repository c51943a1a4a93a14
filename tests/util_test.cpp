// Tests for util: BitRow (the shift-kernel datatype), RNG, stats, CSV, table.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <span>
#include <sstream>
#include <vector>

#include "util/assert.hpp"
#include "util/bitrow.hpp"
#include "util/csv.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace qrm {
namespace {

TEST(BitRow, ConstructsZeroed) {
  const BitRow row(130);
  EXPECT_EQ(row.width(), 130u);
  EXPECT_EQ(row.count(), 0u);
  EXPECT_TRUE(row.none());
}

TEST(BitRow, SetAndTestAcrossWordBoundaries) {
  BitRow row(130);
  for (const std::uint32_t i : {0u, 63u, 64u, 65u, 127u, 128u, 129u}) {
    row.set(i);
    EXPECT_TRUE(row.test(i));
  }
  EXPECT_EQ(row.count(), 7u);
  row.clear(64);
  EXPECT_FALSE(row.test(64));
  EXPECT_EQ(row.count(), 6u);
}

TEST(BitRow, FromStringRoundTrip) {
  const std::string text = "0110010111";
  const BitRow row = BitRow::from_string(text);
  EXPECT_EQ(row.to_string(), text);
  EXPECT_EQ(row.count(), 6u);
  EXPECT_EQ(BitRow::from_string(".##.").to_string(), "0110");
}

TEST(BitRow, FromStringRejectsJunk) {
  EXPECT_THROW((void)BitRow::from_string("01x"), PreconditionError);
}

TEST(BitRow, BoundsChecked) {
  BitRow row(10);
  EXPECT_THROW((void)row.test(10), PreconditionError);
  EXPECT_THROW(row.set(10), PreconditionError);
}

TEST(BitRow, CountRange) {
  const BitRow row = BitRow::from_string("1101100111");
  EXPECT_EQ(row.count_range(0, 10), 7u);
  EXPECT_EQ(row.count_range(0, 0), 0u);
  EXPECT_EQ(row.count_range(2, 5), 2u);
  EXPECT_THROW((void)row.count_range(5, 2), PreconditionError);
}

TEST(BitRow, CountRangeWideRow) {
  BitRow row(200);
  for (std::uint32_t i = 0; i < 200; i += 3) row.set(i);
  std::uint32_t expected = 0;
  for (std::uint32_t i = 10; i < 190; ++i)
    if (i % 3 == 0) ++expected;
  EXPECT_EQ(row.count_range(10, 190), expected);
}

TEST(BitRow, ShiftTowardLsb) {
  BitRow row = BitRow::from_string("0011010001");
  row.shift_toward_lsb(2);
  EXPECT_EQ(row.to_string(), "1101000100");
  row.shift_toward_lsb(100);
  EXPECT_TRUE(row.none());
}

TEST(BitRow, ShiftsAcrossWordBoundary) {
  BitRow row(100);
  row.set(70);
  row.shift_toward_lsb(10);
  EXPECT_TRUE(row.test(60));
  EXPECT_EQ(row.count(), 1u);
}

TEST(BitRow, Reversed) {
  // assign_slice's reverse mode is the row reversal the quadrant mirrors run.
  const BitRow row = BitRow::from_string("1100101");
  BitRow reversed(row.width());
  reversed.assign_slice(row, 0, true);
  EXPECT_EQ(reversed.to_string(), "1010011");
  BitRow back(row.width());
  back.assign_slice(reversed, 0, true);
  EXPECT_EQ(back, row);
}

TEST(BitRow, SetPositionsAndForEach) {
  const BitRow row = BitRow::from_string("010010001");
  EXPECT_EQ(row.set_positions(), (std::vector<std::uint32_t>{1, 4, 8}));
  std::uint32_t sum = 0;
  row.for_each_set([&sum](std::uint32_t i) { sum += i; });
  EXPECT_EQ(sum, 13u);
}

TEST(BitRow, FillAndTailMasking) {
  BitRow row(70);
  row.fill();
  EXPECT_EQ(row.count(), 70u) << "bits must not survive beyond width";
}

TEST(BitRow, AssignWords) {
  // set_word is the one raw word writer: it masks the tail of the last word.
  BitRow row(70);
  row.set_word(0, ~0ULL);
  row.set_word(1, ~0ULL);
  EXPECT_EQ(row.count(), 70u) << "tail bits beyond width must be masked";
  EXPECT_EQ(row.words()[1], (1ULL << 6) - 1);
  EXPECT_THROW(row.set_word(2, 1ULL), PreconditionError);
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  Rng c(124);
  bool differs = false;
  Rng a2(123);
  for (int i = 0; i < 10; ++i) differs |= (a2.next_u64() != c.next_u64());
  EXPECT_TRUE(differs);
}

TEST(Rng, DeriveSeedSplitsIndependentStreams) {
  // Pure function of (master, stream) — no hidden state, no ordering.
  EXPECT_EQ(derive_seed(42, 7), derive_seed(42, 7));
  // Distinct streams and distinct masters must not collide (spot-check a
  // window; SplitMix64 mixing makes collisions here astronomically unlikely).
  std::set<std::uint64_t> seeds;
  for (std::uint64_t stream = 0; stream < 1000; ++stream) {
    seeds.insert(derive_seed(42, stream));
    seeds.insert(derive_seed(43, stream));
  }
  EXPECT_EQ(seeds.size(), 2000u);
  // Stream 0 is a real derived stream, not the master passed through.
  EXPECT_NE(derive_seed(42, 0), 42u);
  // Derived streams look independent: adjacent streams share no obvious
  // low-bit structure (xor of neighbours is not constant).
  EXPECT_NE(derive_seed(42, 1) ^ derive_seed(42, 2), derive_seed(42, 2) ^ derive_seed(42, 3));
}

TEST(Rng, UniformBelowInRangeAndRoughlyUniform) {
  Rng rng(7);
  std::array<int, 10> buckets{};
  for (int i = 0; i < 10000; ++i) {
    const std::uint32_t v = rng.uniform_below(10);
    ASSERT_LT(v, 10u);
    buckets[v]++;
  }
  for (const int b : buckets) EXPECT_NEAR(b, 1000, 250);
  EXPECT_EQ(rng.uniform_below(0), 0u);
  EXPECT_EQ(rng.uniform_below(1), 0u);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rng.normal(5.0, 2.0);
  EXPECT_NEAR(stats::mean(xs), 5.0, 0.1);
  EXPECT_NEAR(stats::stddev(xs), 2.0, 0.1);
}

TEST(Rng, PoissonMoments) {
  Rng rng(17);
  std::vector<double> small(20000);
  const PoissonRate three(3.0);
  for (auto& x : small) x = rng.poisson(three);
  EXPECT_NEAR(stats::mean(small), 3.0, 0.15);
  std::vector<double> large(20000);
  const PoissonRate two_hundred(200.0);
  for (auto& x : large) x = rng.poisson(two_hundred);
  EXPECT_NEAR(stats::mean(large), 200.0, 1.5);
  EXPECT_EQ(rng.poisson(PoissonRate(0.0)), 0u);
}

TEST(Rng, PoissonRateRejectsRatesWhoseCountCannotFit) {
  // Past 2^31 (or at NaN / infinity) the normal branch's count would
  // overflow its uint32_t cast; a negative rate has no distribution.
  EXPECT_THROW((void)PoissonRate(-1.0), PreconditionError);
  EXPECT_THROW((void)PoissonRate(std::numeric_limits<double>::quiet_NaN()), PreconditionError);
  EXPECT_THROW((void)PoissonRate(std::numeric_limits<double>::infinity()), PreconditionError);
  EXPECT_THROW((void)PoissonRate(2.0 * PoissonRate::kMax), PreconditionError);
  Rng rng(19);
  const PoissonRate largest(PoissonRate::kMax);
  for (int i = 0; i < 1000; ++i)
    EXPECT_NEAR(rng.poisson(largest), PoissonRate::kMax, 9.0 * std::sqrt(PoissonRate::kMax));
}

TEST(Fnv, HashTextMatchesTheMixingPrimitivesAndSeparatesInputs) {
  // hash_text is the one-shot form of mix_text over the offset basis —
  // shard assignment and cache keys both depend on this staying true.
  std::uint64_t manual = fnv::kOffset;
  fnv::mix_text(manual, "paper-fig7");
  EXPECT_EQ(fnv::hash_text("paper-fig7"), manual);

  EXPECT_EQ(fnv::hash_text("abc"), fnv::hash_text("abc"));
  EXPECT_NE(fnv::hash_text("abc"), fnv::hash_text("abd"));
  EXPECT_NE(fnv::hash_text(""), fnv::hash_text("a"));
  // Length prefixing keeps concatenation ambiguity out of the key space.
  EXPECT_NE(fnv::hash_text("ab"), fnv::hash_text("a"));
}

TEST(Stats, Basics) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(stats::mean(xs), 3.0);
  EXPECT_DOUBLE_EQ(stats::variance(xs), 2.5);
  EXPECT_DOUBLE_EQ(stats::stddev(xs), std::sqrt(2.5));
  EXPECT_EQ(stats::mean({}), 0.0);
  EXPECT_EQ(stats::variance({}), 0.0);
}

TEST(Stats, EmptySpanExtremaThrow) {
  // An empty sample has no extrema or percentiles; returning +/-infinity
  // would leak "inf" into CSV/bench summaries, so every query throws.
  const stats::SortedSample empty{std::span<const double>{}};
  EXPECT_TRUE(empty.empty());
  EXPECT_THROW((void)empty.min(), PreconditionError);
  EXPECT_THROW((void)empty.max(), PreconditionError);
  EXPECT_THROW((void)empty.percentile(50.0), PreconditionError);
}

TEST(Stats, SortedSampleMatchesFreeFunctions) {
  // Hand-computed: sorted {1, 3, 5, 7, 9}, percentile p at rank p/100 * 4,
  // linearly interpolated between neighbours.
  const std::vector<double> xs{9, 1, 7, 3, 5};
  const stats::SortedSample sample(xs);
  EXPECT_EQ(sample.size(), 5u);
  EXPECT_DOUBLE_EQ(sample.min(), 1.0);
  EXPECT_DOUBLE_EQ(sample.max(), 9.0);
  EXPECT_DOUBLE_EQ(sample.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(sample.percentile(12.5), 2.0);
  EXPECT_DOUBLE_EQ(sample.percentile(50.0), 5.0);
  EXPECT_NEAR(sample.percentile(90.0), 8.2, 1e-12);
  EXPECT_NEAR(sample.percentile(99.0), 8.92, 1e-12);
  EXPECT_DOUBLE_EQ(sample.percentile(100.0), 9.0);
  EXPECT_DOUBLE_EQ(sample.median(), 5.0);
  EXPECT_THROW((void)sample.percentile(100.5), PreconditionError);
}

TEST(Stats, LinearFitRecoversLine) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 20; ++i) {
    xs.push_back(i);
    ys.push_back(3.5 * i + 2.0);
  }
  const auto fit = stats::linear_fit(xs, ys);
  EXPECT_NEAR(fit.slope, 3.5, 1e-9);
  EXPECT_NEAR(fit.intercept, 2.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
}

TEST(Csv, WritesHeaderRowsAndEscapes) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.header({"a", "b"});
  csv.row(1, "plain");
  csv.row(2.5, "needs,quote");
  csv.row(3, "has\"quote");
  EXPECT_EQ(os.str(), "a,b\n1,plain\n2.5,\"needs,quote\"\n3,\"has\"\"quote\"\n");
  EXPECT_EQ(csv.rows_written(), 3u);
}

TEST(Csv, HeaderAfterRowsRejected) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.row(1);
  EXPECT_THROW(csv.header({"late"}), PreconditionError);
}

TEST(Table, RendersAligned) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name   value"), std::string::npos);
  EXPECT_NE(out.find("alpha  1"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one"}), PreconditionError);
}

TEST(Table, Formatters) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_time_us(0.5), "500 ns");
  EXPECT_EQ(fmt_time_us(12.345), "12.35 us");
  EXPECT_EQ(fmt_time_us(2500.0), "2.50 ms");
  EXPECT_EQ(fmt_speedup(54.21), "54.2x");
  EXPECT_EQ(fmt_speedup(300.4), "300x");
  EXPECT_EQ(fmt_percent(0.0631), "6.31%");
}

}  // namespace
}  // namespace qrm
