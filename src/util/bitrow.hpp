#pragma once
/// \file bitrow.hpp
/// A fixed-width dynamic bit vector used to represent one lattice row (or
/// column) of trap-occupancy data, and a read-only view of such a row.
///
/// `BitRow` is the software analogue of the hardware row register in the
/// paper's Shift Kernel (Fig. 6): bit index 0 is the least-significant bit,
/// which after the QRM quadrant flips is the trap *closest to the array
/// centre*. The kernel inspects the LSB, shifts the row right, and records
/// shift commands; `BitRow` provides exactly those primitives plus the word
/// access needed by the 1024-bit AXI packing model. `RowView` reads a row in
/// place, such as one row of an OccupancyGrid's single word array.

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "util/assert.hpp"

namespace qrm {

/// Read-only view of one row of bits: its words (64-bit, little-endian bit
/// order, bits at positions >= width() zero) and its width. It does not own
/// the words; it is valid while their owner is alive and unchanged in size.
class RowView {
 public:
  using Word = std::uint64_t;
  static constexpr std::uint32_t kWordBits = 64;

  /// Precondition: words.size() == ceil(width / 64), and the bits past
  /// `width` are zero.
  RowView(std::span<const Word> words, std::uint32_t width) noexcept
      : words_(words), width_(width) {}

  [[nodiscard]] std::uint32_t width() const noexcept { return width_; }
  /// Read bit `i`. Precondition: i < width().
  [[nodiscard]] bool test(std::uint32_t i) const {
    QRM_EXPECTS(i < width_);
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1U;
  }
  /// Number of set bits.
  [[nodiscard]] std::uint32_t count() const noexcept;
  /// Number of set bits in the half-open range [lo, hi). Preconditions:
  /// lo <= hi <= width().
  [[nodiscard]] std::uint32_t count_range(std::uint32_t lo, std::uint32_t hi) const;
  /// The row's words, ceil(width/64) of them.
  [[nodiscard]] std::span<const Word> words() const noexcept { return words_; }

  friend bool operator==(RowView a, RowView b) noexcept;

 private:
  std::span<const Word> words_;
  std::uint32_t width_ = 0;
};

/// Overwrite `out`, the words of a row `width` bits wide, with bits
/// [pos, pos + width) of `src`, bit order reversed when `reverse` is set
/// (bit i = src bit pos + width - 1 - i; the LDM flip primitive): one word
/// blit per output word, tail bits cleared. Precondition: pos + width <=
/// src.width().
void slice_into(std::span<RowView::Word> out, std::uint32_t width, RowView src, std::uint32_t pos,
                bool reverse);
/// Overwrite bits [pos, pos + piece.width()) of `out`, the words of a row
/// `width` bits wide, from `piece`, leaving all other bits untouched.
/// Precondition: pos + piece.width() <= width.
void paste_into(std::span<RowView::Word> out, std::uint32_t width, std::uint32_t pos,
                RowView piece);

/// Fixed-width vector of bits with word-level storage (64-bit words,
/// little-endian bit order: bit i lives in word i/64 at position i%64).
///
/// Invariant: bits at positions >= width() are always zero ("canonical" tail).
/// Every mutator re-establishes this by masking the last word, so bulk
/// word-parallel algorithms may read whole words without per-bit bounds
/// checks; writers going through set_word() get the tail masked for them.
class BitRow {
 public:
  using Word = RowView::Word;
  static constexpr std::uint32_t kWordBits = RowView::kWordBits;

  /// Construct an all-zero row of `width` bits. Width may be zero.
  explicit BitRow(std::uint32_t width = 0);
  /// Copy a viewed row.
  explicit BitRow(RowView bits);

  /// Parse from a string of '0'/'1' (optionally '.'/'#' art, '.'=0, '#'=1).
  /// Character 0 of the string is bit 0 (the centre-most trap).
  [[nodiscard]] static BitRow from_string(std::string_view text);

  /// Number of addressable bits.
  [[nodiscard]] std::uint32_t width() const noexcept { return width_; }
  [[nodiscard]] bool empty() const noexcept { return width_ == 0; }

  /// Read bit `i`. Precondition: i < width(). Defined inline: this is the
  /// innermost operation of every planner hot loop.
  [[nodiscard]] bool test(std::uint32_t i) const { return view().test(i); }
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
  [[nodiscard]] std::uint32_t count() const noexcept { return view().count(); }
  /// Number of set bits in the half-open range [lo, hi). Preconditions:
  /// lo <= hi <= width().
  [[nodiscard]] std::uint32_t count_range(std::uint32_t lo, std::uint32_t hi) const {
    return view().count_range(lo, hi);
  }
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
  /// reversed when `reverse` is set (slice_into); no allocation.
  /// Precondition: pos + width() <= src.width().
  void assign_slice(RowView src, std::uint32_t pos, bool reverse) {
    slice_into(words_, width_, src, pos, reverse);
  }

  /// Raw word access for DMA packing. Word count = ceil(width/64).
  [[nodiscard]] const std::vector<Word>& words() const noexcept { return words_; }
  [[nodiscard]] RowView view() const noexcept { return {words_, width_}; }
  operator RowView() const noexcept { return view(); }  // NOLINT: a row views itself
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
