#pragma once
/// \file bitrow.hpp
/// A fixed-width dynamic bit vector used to represent one lattice row (or
/// column) of trap-occupancy data.
///
/// `BitRow` is the software analogue of the hardware row register in the
/// paper's Shift Kernel (Fig. 6): bit index 0 is the least-significant bit,
/// which after the QRM quadrant flips is the trap *closest to the array
/// centre*. The kernel inspects the LSB, shifts the row right, and records
/// shift commands; `BitRow` provides exactly those primitives plus the word
/// access needed by the 1024-bit AXI packing model.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/assert.hpp"

namespace qrm {

/// Fixed-width vector of bits with word-level storage (64-bit words,
/// little-endian bit order: bit i lives in word i/64 at position i%64).
///
/// Invariant: bits at positions >= width() are always zero ("canonical" tail).
/// Every mutator re-establishes this by masking the last word, so bulk
/// word-parallel algorithms may read whole words without per-bit bounds
/// checks; writers going through set_word() get the tail masked for them.
class BitRow {
 public:
  using Word = std::uint64_t;
  static constexpr std::uint32_t kWordBits = 64;

  /// Construct an all-zero row of `width` bits. Width may be zero.
  explicit BitRow(std::uint32_t width = 0);

  /// Parse from a string of '0'/'1' (optionally '.'/'#' art, '.'=0, '#'=1).
  /// Character 0 of the string is bit 0 (the centre-most trap).
  [[nodiscard]] static BitRow from_string(std::string_view text);

  /// Number of addressable bits.
  [[nodiscard]] std::uint32_t width() const noexcept { return width_; }
  [[nodiscard]] bool empty() const noexcept { return width_ == 0; }

  /// Read bit `i`. Precondition: i < width(). Defined inline: this is the
  /// innermost operation of every planner hot loop.
  [[nodiscard]] bool test(std::uint32_t i) const {
    QRM_EXPECTS(i < width_);
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1U;
  }
  /// Write bit `i`. Precondition: i < width().
  void set(std::uint32_t i, bool value = true) {
    QRM_EXPECTS(i < width_);
    const Word mask = Word{1} << (i % kWordBits);
    if (value) {
      words_[i / kWordBits] |= mask;
    } else {
      words_[i / kWordBits] &= ~mask;
    }
  }
  void clear(std::uint32_t i) { set(i, false); }
  /// Set every bit in [0, width()).
  void fill();
  /// Clear every bit.
  void reset() noexcept;

  /// Number of set bits (atoms in this line).
  [[nodiscard]] std::uint32_t count() const noexcept;
  /// Number of set bits in the half-open range [lo, hi). Preconditions:
  /// lo <= hi <= width().
  [[nodiscard]] std::uint32_t count_range(std::uint32_t lo, std::uint32_t hi) const;
  [[nodiscard]] bool any() const noexcept;
  [[nodiscard]] bool none() const noexcept { return !any(); }

  /// Logical shift toward bit 0 by `n` (the hardware "shift right" that the
  /// kernel performs each cycle to expose the next bit at the LSB).
  void shift_toward_lsb(std::uint32_t n);

  /// Positions of all set bits, ascending.
  [[nodiscard]] std::vector<std::uint32_t> set_positions() const;
  /// Call `fn(i)` for each set bit, ascending.
  void for_each_set(const std::function<void(std::uint32_t)>& fn) const;

  /// Overwrite this row in place with bits [pos, pos+width()) of `src`,
  /// bit order reversed when `reverse` is set (bit i = src bit
  /// pos+width()-1-i; the LDM flip primitive): one word blit per output
  /// word, no allocation. Precondition: pos + width() <= src.width().
  void assign_slice(const BitRow& src, std::uint32_t pos, bool reverse);
  /// Overwrite bits [pos, pos+piece.width()) from `piece`, leaving all other
  /// bits untouched. Precondition: pos + piece.width() <= width().
  void paste(std::uint32_t pos, const BitRow& piece);

  /// Raw word access for DMA packing. Word count = ceil(width/64).
  [[nodiscard]] const std::vector<Word>& words() const noexcept { return words_; }
  /// Overwrite word `wi`; tail bits beyond width() are masked off.
  /// Precondition: wi < words().size().
  void set_word(std::uint32_t wi, Word w);

  friend bool operator==(const BitRow& a, const BitRow& b) noexcept = default;

  /// "01101..."-style string, bit 0 first.
  [[nodiscard]] std::string to_string() const;

 private:
  void mask_tail() noexcept;
  [[nodiscard]] std::uint32_t word_count() const noexcept {
    return (width_ + kWordBits - 1) / kWordBits;
  }

  std::uint32_t width_ = 0;
  std::vector<Word> words_;
};

}  // namespace qrm
