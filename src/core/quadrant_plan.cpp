#include "core/quadrant_plan.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <span>
#include <utility>

#include "util/assert.hpp"

namespace qrm {

namespace {

using Word = BitRow::Word;
constexpr std::size_t kWordBits = BitRow::kWordBits;

[[nodiscard]] std::size_t words_for(std::int32_t bits) {
  return (static_cast<std::size_t>(bits) + kWordBits - 1) / kWordBits;
}

/// The positions of word `wi` that lie below the sen gate (a negative gate
/// admits all of them).
[[nodiscard]] Word gate_word(std::int32_t sen_limit, std::size_t wi) {
  if (sen_limit < 0) return ~Word{0};
  const std::size_t first = wi * kWordBits;
  const auto gate = static_cast<std::size_t>(sen_limit);
  if (gate <= first) return 0;
  return gate - first >= kWordBits ? ~Word{0} : (Word{1} << (gate - first)) - 1;
}

/// The lines of `local` along `axis` as flat word masks, `words` words per
/// line (line i at [i * words, (i + 1) * words)), bit p set when position p
/// of the line holds an atom below the sen gate. Rows are masked copies of
/// the row words; columns are built in one scan of the set bits of the rows
/// below the gate. This sits on the latency-critical CPU-analysis path.
[[nodiscard]] std::vector<Word> line_masks(const OccupancyGrid& local, Axis axis,
                                           std::int32_t sen_limit, std::size_t words) {
  if (axis == Axis::Rows) {
    std::vector<Word> masks(static_cast<std::size_t>(local.height()) * words);
    for (std::int32_t r = 0; r < local.height(); ++r) {
      const auto& row = local.row(r).words();
      for (std::size_t wi = 0; wi < words; ++wi)
        masks[static_cast<std::size_t>(r) * words + wi] = row[wi] & gate_word(sen_limit, wi);
    }
    return masks;
  }
  std::vector<Word> masks(static_cast<std::size_t>(local.width()) * words, 0);
  const std::int32_t rows = sen_limit < 0 ? local.height() : std::min(local.height(), sen_limit);
  for (std::int32_t r = 0; r < rows; ++r) {
    const auto rbit = static_cast<std::size_t>(r);
    const Word bit = Word{1} << (rbit % kWordBits);
    const auto& row = local.row(r).words();
    for (std::size_t cw = 0; cw < row.size(); ++cw) {
      for (Word w = row[cw]; w != 0; w &= w - 1) {
        const std::size_t c = cw * kWordBits + static_cast<std::size_t>(std::countr_zero(w));
        masks[c * words + rbit / kWordBits] |= bit;
      }
    }
  }
  return masks;
}

[[nodiscard]] std::uint32_t popcount(std::span<const Word> mask) {
  std::uint32_t n = 0;
  for (const Word w : mask) n += static_cast<std::uint32_t>(std::popcount(w));
  return n;
}

/// The `count` set bits of `mask` as ascending positions.
[[nodiscard]] std::vector<std::int32_t> set_positions(std::span<const Word> mask,
                                                      std::uint32_t count) {
  std::vector<std::int32_t> out;
  out.reserve(count);
  for (std::size_t wi = 0; wi < mask.size(); ++wi) {
    for (Word w = mask[wi]; w != 0; w &= w - 1)
      out.push_back(static_cast<std::int32_t>(wi * kWordBits) + std::countr_zero(w));
  }
  return out;
}

/// The lowest `k` set bits of `w`, or all of them when it has fewer.
[[nodiscard]] Word lowest_bits(Word w, std::uint32_t k) {
  if (static_cast<std::uint32_t>(std::popcount(w)) <= k) return w;
  Word out = 0;
  for (; k > 0; --k) {
    out |= w & (~w + 1);
    w &= w - 1;
  }
  return out;
}

}  // namespace

std::vector<LineAssignment> compact_pass(const OccupancyGrid& local, Axis axis,
                                         std::int32_t sen_limit) {
  const std::int32_t line_count = axis == Axis::Rows ? local.height() : local.width();
  const std::size_t words = words_for(axis == Axis::Rows ? local.width() : local.height());
  const std::vector<Word> masks = line_masks(local, axis, sen_limit, words);
  std::vector<LineAssignment> out;
  for (std::int32_t line = 0; line < line_count; ++line) {
    const std::span<const Word> mask(masks.data() + static_cast<std::size_t>(line) * words, words);
    // A line is compact when its n atoms are its low n bits, i.e. one past
    // its highest atom is n (an empty line included).
    std::uint32_t n = 0;
    std::size_t end = 0;
    for (std::size_t wi = 0; wi < words; ++wi) {
      if (mask[wi] == 0) continue;
      n += static_cast<std::uint32_t>(std::popcount(mask[wi]));
      end = (wi + 1) * kWordBits - static_cast<std::size_t>(std::countl_zero(mask[wi]));
    }
    if (end == n) continue;
    LineAssignment a{line, set_positions(mask, n), std::vector<std::int32_t>(n)};
    std::iota(a.targets.begin(), a.targets.end(), 0);
    out.push_back(std::move(a));
  }
  return out;
}

std::vector<LineAssignment> balance_pass(const OccupancyGrid& local, std::int32_t target_rows,
                                         std::int32_t target_cols, std::int32_t sen_limit,
                                         BalanceReport* report) {
  QRM_EXPECTS(target_rows > 0 && target_cols > 0);
  QRM_EXPECTS(target_rows <= local.height() && target_cols <= local.width());
  QRM_EXPECTS_MSG(sen_limit < 0 || sen_limit >= target_cols,
                  "balance pass needs the sen gate at or beyond the target quarter");

  const std::int32_t height = local.height();
  const std::size_t words = words_for(local.width());
  const auto row_of = [words](const std::vector<Word>& masks, std::int32_t r) {
    return std::span<const Word>(masks.data() + static_cast<std::size_t>(r) * words, words);
  };

  // Usable atoms per row (below the sen gate); a row's capacity is how many
  // more target columns it can serve.
  const std::vector<Word> atoms = line_masks(local, Axis::Rows, sen_limit, words);
  std::vector<std::int32_t> capacity(static_cast<std::size_t>(height));
  std::int32_t max_capacity = 0;
  for (std::int32_t r = 0; r < height; ++r) {
    capacity[static_cast<std::size_t>(r)] = static_cast<std::int32_t>(popcount(row_of(atoms, r)));
    max_capacity = std::max(max_capacity, capacity[static_cast<std::size_t>(r)]);
  }

  // Greedy demand assignment: each target column needs `target_rows` donors,
  // at most one per row. Serving each column with the rows of largest
  // remaining capacity maximises the total satisfiable demand. Rows wait in
  // one stack per remaining capacity (a head per capacity, a next per row),
  // so each column costs O(grants), not a sort. Ties go to the row stacked
  // last, and rows are first stacked in ascending order: that LIFO order
  // decides which rows donate, so it is part of the plan's identity.
  std::vector<std::int32_t> head(static_cast<std::size_t>(max_capacity) + 1, -1);
  std::vector<std::int32_t> next(static_cast<std::size_t>(height), -1);
  const auto push = [&](std::int32_t r) {
    std::int32_t& top = head[static_cast<std::size_t>(capacity[static_cast<std::size_t>(r)])];
    next[static_cast<std::size_t>(r)] = top;
    top = r;
  };
  for (std::int32_t r = 0; r < height; ++r) push(r);

  BalanceReport rep;
  std::vector<Word> chosen(static_cast<std::size_t>(height) * words, 0);
  std::vector<std::int32_t> picks;
  picks.reserve(static_cast<std::size_t>(target_rows));
  for (std::int32_t c = 0; c < target_cols; ++c) {
    picks.clear();
    for (std::int32_t cap = max_capacity;
         cap >= 1 && std::cmp_less(picks.size(), target_rows); --cap) {
      std::int32_t& top = head[static_cast<std::size_t>(cap)];
      while (top >= 0 && std::cmp_less(picks.size(), target_rows)) {
        picks.push_back(top);
        top = next[static_cast<std::size_t>(top)];
      }
    }
    // Apply grants after the scan so a row serves this column at most once.
    const auto col = static_cast<std::size_t>(c);
    for (const std::int32_t r : picks) {
      chosen[static_cast<std::size_t>(r) * words + col / kWordBits] |= Word{1} << (col % kWordBits);
      --capacity[static_cast<std::size_t>(r)];
      push(r);
    }
    const auto granted = static_cast<std::int32_t>(picks.size());
    if (granted < target_rows) {
      rep.feasible = false;
      rep.shortfall += target_rows - granted;
    }
  }

  // Final placements per row: the chosen target columns, plus the surplus
  // atoms kept at their own columns — the lowest `capacity` atoms off the
  // chosen columns. A row is granted at most one column per atom, so it has
  // that many, and no atom ever needs a parking spot elsewhere. Everything
  // stays below the sen gate (the precondition puts the target quarter
  // there), so gated atoms, fixed obstacles for the realizer, are never
  // passed.
  std::vector<LineAssignment> out;
  std::vector<Word> placed(words);
  for (std::int32_t r = 0; r < height; ++r) {
    const std::span<const Word> row_atoms = row_of(atoms, r);
    const std::span<const Word> row_chosen = row_of(chosen, r);
    auto keep = static_cast<std::uint32_t>(capacity[static_cast<std::size_t>(r)]);
    for (std::size_t wi = 0; wi < words; ++wi) {
      const Word kept = lowest_bits(row_atoms[wi] & ~row_chosen[wi], keep);
      keep -= static_cast<std::uint32_t>(std::popcount(kept));
      placed[wi] = row_chosen[wi] | kept;
    }
    QRM_ENSURES_MSG(keep == 0, "balance pass could not place every atom below the sen gate");
    if (std::equal(placed.begin(), placed.end(), row_atoms.begin())) continue;  // nothing moves
    const std::uint32_t n = popcount(row_atoms);
    out.push_back({r, set_positions(row_atoms, n), set_positions(placed, n)});
  }

  if (report != nullptr) *report = rep;
  return out;
}

}  // namespace qrm
