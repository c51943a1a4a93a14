// Differential suite for the word-parallel quadrant kernels and quadrant
// extraction.
//
// The references below are the per-line, per-row implementations the
// word-mask kernels replaced, kept verbatim as the executable specification:
// compact_pass and balance_pass must return the same assignments (line,
// sources, targets, in the same order) and the same BalanceReport, and
// extract_local the same grid as subgrid(region).flipped(flip), on every
// generated case. A failure names the case's parameters.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/quadrant_plan.hpp"
#include "lattice/quadrant.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace qrm {
namespace {

namespace reference {

std::vector<std::int32_t> line_atoms(const OccupancyGrid& local, Axis axis, std::int32_t line,
                                     std::int32_t sen_limit) {
  const BitRow bits = axis == Axis::Rows ? BitRow(local.row(line)) : local.column(line);
  std::vector<std::int32_t> out;
  out.reserve(bits.count());
  const auto& words = bits.words();
  for (std::size_t wi = 0; wi < words.size(); ++wi) {
    std::uint64_t w = words[wi];
    while (w != 0) {
      const auto bit = static_cast<std::uint32_t>(std::countr_zero(w));
      const auto p = static_cast<std::int32_t>(wi * BitRow::kWordBits + bit);
      if (sen_limit >= 0 && p >= sen_limit) return out;
      out.push_back(p);
      w &= w - 1;
    }
  }
  return out;
}

std::vector<LineAssignment> compact_pass(const OccupancyGrid& local, Axis axis,
                                         std::int32_t sen_limit) {
  const std::int32_t line_count = axis == Axis::Rows ? local.height() : local.width();
  std::vector<LineAssignment> out;
  for (std::int32_t line = 0; line < line_count; ++line) {
    std::vector<std::int32_t> sources = line_atoms(local, axis, line, sen_limit);
    if (sources.empty()) continue;
    std::vector<std::int32_t> targets(sources.size());
    for (std::size_t i = 0; i < sources.size(); ++i) targets[i] = static_cast<std::int32_t>(i);
    if (sources == targets) continue;  // already compact
    out.push_back({line, std::move(sources), std::move(targets)});
  }
  return out;
}

std::vector<LineAssignment> balance_pass(const OccupancyGrid& local, std::int32_t target_rows,
                                         std::int32_t target_cols, std::int32_t sen_limit,
                                         BalanceReport* report) {
  QRM_EXPECTS(target_rows > 0 && target_cols > 0);
  QRM_EXPECTS(target_rows <= local.height() && target_cols <= local.width());

  const std::int32_t height = local.height();
  const std::int32_t width = local.width();

  std::vector<std::vector<std::int32_t>> atoms(static_cast<std::size_t>(height));
  std::vector<std::int32_t> capacity(static_cast<std::size_t>(height), 0);
  for (std::int32_t r = 0; r < height; ++r) {
    atoms[static_cast<std::size_t>(r)] = line_atoms(local, Axis::Rows, r, sen_limit);
    capacity[static_cast<std::size_t>(r)] =
        static_cast<std::int32_t>(atoms[static_cast<std::size_t>(r)].size());
  }

  std::vector<std::vector<std::int32_t>> chosen(static_cast<std::size_t>(height));
  std::int32_t max_capacity = 0;
  for (const auto cap : capacity) max_capacity = std::max(max_capacity, cap);
  std::vector<std::vector<std::int32_t>> buckets(static_cast<std::size_t>(max_capacity) + 1);
  for (std::int32_t r = 0; r < height; ++r)
    buckets[static_cast<std::size_t>(capacity[static_cast<std::size_t>(r)])].push_back(r);

  BalanceReport rep;
  std::vector<std::pair<std::int32_t, std::int32_t>> picks;  // (row, old capacity)
  for (std::int32_t c = 0; c < target_cols; ++c) {
    picks.clear();
    std::int32_t granted = 0;
    for (std::int32_t cap = max_capacity; cap >= 1 && granted < target_rows; --cap) {
      auto& bucket = buckets[static_cast<std::size_t>(cap)];
      while (!bucket.empty() && granted < target_rows) {
        picks.emplace_back(bucket.back(), cap);
        bucket.pop_back();
        ++granted;
      }
    }
    for (const auto& [r, cap] : picks) {
      chosen[static_cast<std::size_t>(r)].push_back(c);
      buckets[static_cast<std::size_t>(cap - 1)].push_back(r);
    }
    if (granted < target_rows) {
      rep.feasible = false;
      rep.shortfall += target_rows - granted;
    }
  }

  std::vector<LineAssignment> out;
  std::vector<char> used(static_cast<std::size_t>(width));
  for (std::int32_t r = 0; r < height; ++r) {
    const auto& row_atoms = atoms[static_cast<std::size_t>(r)];
    if (row_atoms.empty()) continue;
    std::fill(used.begin(), used.end(), char{0});
    std::size_t placed = 0;
    for (const std::int32_t c : chosen[static_cast<std::size_t>(r)]) {
      used[static_cast<std::size_t>(c)] = 1;
      ++placed;
    }
    for (const std::int32_t a : row_atoms) {
      if (placed == row_atoms.size()) break;
      if (used[static_cast<std::size_t>(a)] == 0) {
        used[static_cast<std::size_t>(a)] = 1;
        ++placed;
      }
    }
    const std::int32_t park_end = sen_limit < 0 ? width : sen_limit;
    for (std::int32_t c = 0; c < park_end && placed < row_atoms.size(); ++c) {
      if (used[static_cast<std::size_t>(c)] == 0) {
        used[static_cast<std::size_t>(c)] = 1;
        ++placed;
      }
    }
    QRM_ENSURES_MSG(placed == row_atoms.size(),
                    "balance pass could not place every atom below the sen gate");
    std::vector<std::int32_t> targets;
    targets.reserve(row_atoms.size());
    for (std::int32_t c = 0; c < width; ++c) {
      if (used[static_cast<std::size_t>(c)] != 0) targets.push_back(c);
    }
    if (targets == row_atoms) continue;
    out.push_back({r, row_atoms, std::move(targets)});
  }

  if (report != nullptr) *report = rep;
  return out;
}

OccupancyGrid extract_local(const QuadrantGeometry& geometry, const OccupancyGrid& grid,
                            Quadrant q) {
  return grid.subgrid(geometry.global_region(q)).flipped(QuadrantGeometry::flip_of(q));
}

}  // namespace reference

/// Bernoulli(fill) grid, one 64-bit draw per cell.
OccupancyGrid random_grid(std::int32_t height, std::int32_t width, double fill, Rng& rng) {
  const auto threshold = static_cast<std::uint64_t>(fill * 0x1.0p64);
  OccupancyGrid grid(height, width);
  for (std::int32_t r = 0; r < height; ++r) {
    BitRow row(static_cast<std::uint32_t>(width));
    for (std::uint32_t wi = 0; wi < row.words().size(); ++wi) {
      const std::uint32_t bits = std::min(BitRow::kWordBits, row.width() - wi * BitRow::kWordBits);
      BitRow::Word word = 0;
      for (std::uint32_t b = 0; b < bits; ++b) word |= BitRow::Word{rng() < threshold} << b;
      row.set_word(wi, word);
    }
    grid.set_row(r, std::move(row));
  }
  return grid;
}

/// A sen gate for lines of `length` positions: off, inside [lo, length), or
/// at or beyond the line's end.
std::int32_t random_gate(std::int32_t lo, std::int32_t length, Rng& rng) {
  switch (rng.uniform_below(3)) {
    case 0: return -1;
    case 1:
      if (lo < length) {
        const auto span = static_cast<std::uint32_t>(length - lo);
        return lo + static_cast<std::int32_t>(rng.uniform_below(span));
      }
      [[fallthrough]];
    default: return length + static_cast<std::int32_t>(rng.uniform_below(3));
  }
}

/// Empty when two pass outputs are equal, else where they first differ.
std::string pass_mismatch(const std::vector<LineAssignment>& got,
                          const std::vector<LineAssignment>& want) {
  if (got.size() != want.size())
    return std::to_string(got.size()) + " assignments, reference " + std::to_string(want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].line != want[i].line || got[i].sources != want[i].sources ||
        got[i].targets != want[i].targets)
      return "assignment " + std::to_string(i) + " (line " + std::to_string(got[i].line) +
             ", reference line " + std::to_string(want[i].line) + ") differs";
  }
  return {};
}

/// A side length in [1, 140]: an eighth of the draws uniform over the whole
/// range, which holds lines of one, two and three words, the rest in
/// [1, 32] to keep the suite fast.
std::int32_t random_side(Rng& rng) {
  return 1 + static_cast<std::int32_t>(rng.uniform_below(rng.uniform_below(8) == 0 ? 140 : 32));
}

TEST(QuadrantKernels, MatchThePerLineReferenceOnGeneratedGrids) {
  constexpr int kCases = 20000;
  Rng rng(0x51DE0F5EEDULL);
  int infeasible = 0;
  int gated_mid_line = 0;
  int multi_word_lines = 0;
  for (int k = 0; k < kCases; ++k) {
    const std::int32_t height = random_side(rng);
    const std::int32_t width = random_side(rng);
    const double fill = 0.05 + 0.9 * rng.uniform01();
    const OccupancyGrid local = random_grid(height, width, fill, rng);
    if (height > 64 || width > 64) ++multi_word_lines;
    const auto where = [&] {
      return "case " + std::to_string(k) + " (" + std::to_string(height) + "x" +
             std::to_string(width) + ", fill " + std::to_string(fill) + ")";
    };

    const std::int32_t row_gate = random_gate(0, width, rng);
    const std::int32_t col_gate = random_gate(0, height, rng);
    std::string diff = pass_mismatch(compact_pass(local, Axis::Rows, row_gate),
                                     reference::compact_pass(local, Axis::Rows, row_gate));
    ASSERT_TRUE(diff.empty()) << where() << " compact rows, gate " << row_gate << ": " << diff;
    diff = pass_mismatch(compact_pass(local, Axis::Cols, col_gate),
                         reference::compact_pass(local, Axis::Cols, col_gate));
    ASSERT_TRUE(diff.empty()) << where() << " compact cols, gate " << col_gate << ": " << diff;

    // Balance: any demand, so many cases cannot be met; the gate stays at or
    // beyond the target quarter (balance_pass's precondition).
    const auto target_rows = 1 + static_cast<std::int32_t>(rng.uniform_below(
                                     static_cast<std::uint32_t>(height)));
    const auto target_cols = 1 + static_cast<std::int32_t>(rng.uniform_below(
                                     static_cast<std::uint32_t>(width)));
    const std::int32_t gate = random_gate(target_cols, width, rng);
    if (gate >= 0 && gate < width) ++gated_mid_line;
    BalanceReport got_report;
    BalanceReport want_report;
    diff = pass_mismatch(
        balance_pass(local, target_rows, target_cols, gate, &got_report),
        reference::balance_pass(local, target_rows, target_cols, gate, &want_report));
    if (diff.empty() && (got_report.feasible != want_report.feasible ||
                         got_report.shortfall != want_report.shortfall))
      diff = "reports differ";
    ASSERT_TRUE(diff.empty()) << where() << " balance " << target_rows << "x" << target_cols
                              << ", gate " << gate << ": " << diff;
    if (!got_report.feasible) ++infeasible;

    // Extraction: the grid's largest even-sized top-left part, as a global
    // grid, in all four quadrants.
    const std::int32_t even_h = height / 2 * 2;
    const std::int32_t even_w = width / 2 * 2;
    if (even_h > 0 && even_w > 0) {
      const OccupancyGrid global = local.subgrid({0, 0, even_h, even_w});
      const QuadrantGeometry geometry(even_h, even_w);
      for (const Quadrant q : kAllQuadrants) {
        ASSERT_EQ(geometry.extract_local(global, q), reference::extract_local(geometry, global, q))
            << where() << " extract " << to_string(q);
      }
    }
  }
  // The generator must reach the cases the suite exists for.
  EXPECT_GT(infeasible, kCases / 10);
  EXPECT_GT(gated_mid_line, kCases / 10);
  EXPECT_GT(multi_word_lines, kCases / 20);
}

}  // namespace
}  // namespace qrm
