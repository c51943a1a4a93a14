#pragma once
/// \file bitref.hpp
/// Naive per-bit reference implementations of the BitRow primitives.
///
/// These are the executable specification of the word-parallel kernels in
/// bitrow.cpp: one bounds-checked bit at a time, written for obviousness
/// rather than speed. The differential suite (tests/bitops_test.cpp) pins
/// count_range, assign_slice (against slice and reversed) and paste
/// bit-for-bit against these, the shift-kernel tests check the hardware
/// hole map against compaction_displacements, and bench/planner_throughput
/// reports speedup relative to them. Never call these from production code.

#include <cstdint>
#include <vector>

#include "util/bitrow.hpp"

namespace qrm::ref {

[[nodiscard]] inline BitRow reversed(const BitRow& row) {
  BitRow out(row.width());
  for (std::uint32_t i = 0; i < row.width(); ++i)
    if (row.test(i)) out.set(row.width() - 1 - i);
  return out;
}

[[nodiscard]] inline std::uint32_t count_range(const BitRow& row, std::uint32_t lo,
                                               std::uint32_t hi) {
  std::uint32_t n = 0;
  for (std::uint32_t i = lo; i < hi; ++i)
    if (row.test(i)) ++n;
  return n;
}

[[nodiscard]] inline std::vector<std::uint32_t> compaction_displacements(const BitRow& row) {
  std::vector<std::uint32_t> out;
  std::uint32_t holes = 0;
  for (std::uint32_t i = 0; i < row.width(); ++i) {
    if (row.test(i)) {
      out.push_back(holes);
    } else {
      ++holes;
    }
  }
  return out;
}

[[nodiscard]] inline BitRow slice(const BitRow& row, std::uint32_t pos, std::uint32_t len) {
  BitRow out(len);
  for (std::uint32_t i = 0; i < len; ++i)
    if (row.test(pos + i)) out.set(i);
  return out;
}

[[nodiscard]] inline BitRow pasted(BitRow row, std::uint32_t pos, const BitRow& piece) {
  for (std::uint32_t i = 0; i < piece.width(); ++i) row.set(pos + i, piece.test(i));
  return row;
}

}  // namespace qrm::ref
