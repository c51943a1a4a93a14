#include "util/bitrow.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "util/assert.hpp"

namespace qrm {

namespace {

using Word = RowView::Word;
constexpr std::uint32_t kWordBits = RowView::kWordBits;

/// Bit-reversal of one byte, computed once at compile time.
constexpr std::array<std::uint8_t, 256> kByteReverse = [] {
  std::array<std::uint8_t, 256> table{};
  for (std::uint32_t v = 0; v < 256; ++v) {
    std::uint8_t r = 0;
    for (std::uint32_t b = 0; b < 8; ++b)
      if ((v >> b) & 1U) r = static_cast<std::uint8_t>(r | (1U << (7 - b)));
    table[v] = r;
  }
  return table;
}();

/// Reverse all 64 bits of a word: per-byte table lookup + byte swap.
[[nodiscard]] constexpr Word reverse_word(Word w) noexcept {
  Word out = 0;
  for (std::uint32_t byte = 0; byte < 8; ++byte) {
    out = (out << 8) | kByteReverse[w & 0xFFU];
    w >>= 8;
  }
  return out;
}

/// Mask with bits [0, n) set; n in [0, 64].
[[nodiscard]] constexpr Word low_mask(std::uint32_t n) noexcept {
  return n >= kWordBits ? ~Word{0} : (Word{1} << n) - 1;
}

}  // namespace

std::uint32_t RowView::count() const noexcept {
  std::uint32_t n = 0;
  for (const Word w : words_) n += static_cast<std::uint32_t>(std::popcount(w));
  return n;
}

std::uint32_t RowView::count_range(std::uint32_t lo, std::uint32_t hi) const {
  QRM_EXPECTS(lo <= hi && hi <= width_);
  if (lo == hi) return 0;
  // Mask the partial first and last words; every word in between contributes
  // its full popcount. No per-bit pre/post-amble.
  const std::uint32_t w0 = lo / kWordBits;
  const std::uint32_t w1 = (hi - 1) / kWordBits;
  const Word first = ~low_mask(lo % kWordBits);
  const Word last = low_mask((hi - 1) % kWordBits + 1);
  if (w0 == w1) return static_cast<std::uint32_t>(std::popcount(words_[w0] & first & last));
  std::uint32_t n = static_cast<std::uint32_t>(std::popcount(words_[w0] & first));
  for (std::uint32_t wi = w0 + 1; wi < w1; ++wi)
    n += static_cast<std::uint32_t>(std::popcount(words_[wi]));
  n += static_cast<std::uint32_t>(std::popcount(words_[w1] & last));
  return n;
}

bool operator==(RowView a, RowView b) noexcept {
  return a.width_ == b.width_ && std::ranges::equal(a.words_, b.words_);
}

void slice_into(std::span<Word> out, std::uint32_t width, RowView src, std::uint32_t pos,
                bool reverse) {
  QRM_EXPECTS(pos <= src.width() && width <= src.width() - pos);
  // Output word k is the 64 source bits starting at pos + 64k or, reversed,
  // the 64 ending at pos + width - 64k, bit-reversed. Both read every source
  // word at one fixed shift. Source bits that land beyond width are masked
  // off below.
  const std::span<const Word> in = src.words();
  const std::size_t nw = out.size();
  if (!reverse) {
    const std::size_t w0 = pos / kWordBits;
    const std::uint32_t shift = pos % kWordBits;
    for (std::size_t k = 0; k < nw; ++k) {
      const Word lo = in[w0 + k];
      const Word hi = w0 + k + 1 < in.size() ? in[w0 + k + 1] : 0;
      out[k] = shift == 0 ? lo : (lo >> shift) | (hi << (kWordBits - shift));
    }
  } else {
    // Output word k reads source words t and t + 1, t = top - 1 - k; t is -1
    // (all zero) at most for the last word, and t + 1 is in range whenever
    // the shift is non-zero.
    const std::uint32_t end = pos + width;
    const auto top = static_cast<std::ptrdiff_t>(end / kWordBits);
    const std::uint32_t shift = end % kWordBits;
    for (std::size_t k = 0; k < nw; ++k) {
      const std::ptrdiff_t t = top - 1 - static_cast<std::ptrdiff_t>(k);
      const Word lo = t >= 0 ? in[static_cast<std::size_t>(t)] : 0;
      const Word hi = shift == 0 ? 0 : in[static_cast<std::size_t>(t + 1)];
      out[k] = reverse_word(shift == 0 ? lo : (lo >> shift) | (hi << (kWordBits - shift)));
    }
  }
  if (width % kWordBits != 0) out[nw - 1] &= low_mask(width % kWordBits);
}

void paste_into(std::span<Word> out, std::uint32_t width, std::uint32_t pos, RowView piece) {
  QRM_EXPECTS(pos <= width && piece.width() <= width - pos);
  const std::span<const Word> in = piece.words();
  const std::uint32_t w0 = pos / kWordBits;
  const std::uint32_t shift = pos % kWordBits;
  for (std::size_t i = 0; i < in.size(); ++i) {
    // Valid bits of this source word (the piece's own tail must not clear
    // destination bits beyond the pasted range).
    const std::uint32_t remaining = piece.width() - static_cast<std::uint32_t>(i) * kWordBits;
    const Word mask = low_mask(remaining < kWordBits ? remaining : kWordBits);
    const Word bits = in[i] & mask;
    out[w0 + i] = (out[w0 + i] & ~(mask << shift)) | (bits << shift);
    if (shift != 0 && (mask >> (kWordBits - shift)) != 0) {
      out[w0 + i + 1] =
          (out[w0 + i + 1] & ~(mask >> (kWordBits - shift))) | (bits >> (kWordBits - shift));
    }
  }
}

BitRow::BitRow(std::uint32_t width) : width_(width), words_(word_count(), 0) {}

BitRow::BitRow(RowView bits)
    : width_(bits.width()), words_(bits.words().begin(), bits.words().end()) {}

BitRow BitRow::from_string(std::string_view text) {
  BitRow row(static_cast<std::uint32_t>(text.size()));
  for (std::uint32_t i = 0; i < row.width_; ++i) {
    const char c = text[i];
    QRM_EXPECTS_MSG(c == '0' || c == '1' || c == '.' || c == '#',
                    "BitRow::from_string accepts only 0/1/./#");
    if (c == '1' || c == '#') row.set(i);
  }
  return row;
}

void BitRow::fill() {
  for (auto& w : words_) w = ~Word{0};
  mask_tail();
}

void BitRow::reset() noexcept {
  for (auto& w : words_) w = 0;
}

bool BitRow::any() const noexcept {
  for (const Word w : words_)
    if (w != 0) return true;
  return false;
}

void BitRow::shift_toward_lsb(std::uint32_t n) {
  if (n >= width_) {
    reset();
    return;
  }
  const std::uint32_t word_shift = n / kWordBits;
  const std::uint32_t bit_shift = n % kWordBits;
  const std::size_t nw = words_.size();
  for (std::size_t i = 0; i < nw; ++i) {
    const std::size_t src = i + word_shift;
    Word lo = src < nw ? words_[src] : 0;
    Word hi = (src + 1) < nw ? words_[src + 1] : 0;
    words_[i] = bit_shift == 0 ? lo : ((lo >> bit_shift) | (hi << (kWordBits - bit_shift)));
  }
  mask_tail();
}

std::vector<std::uint32_t> BitRow::set_positions() const {
  std::vector<std::uint32_t> out;
  out.reserve(count());
  for_each_set([&out](std::uint32_t i) { out.push_back(i); });
  return out;
}

void BitRow::for_each_set(const std::function<void(std::uint32_t)>& fn) const {
  for (std::uint32_t wi = 0; wi < words_.size(); ++wi) {
    Word w = words_[wi];
    while (w != 0) {
      const auto bit = static_cast<std::uint32_t>(std::countr_zero(w));
      fn(wi * kWordBits + bit);
      w &= w - 1;
    }
  }
}

void BitRow::set_word(std::uint32_t wi, Word w) {
  QRM_EXPECTS(wi < words_.size());
  words_[wi] = w;
  if (wi + 1 == words_.size()) mask_tail();
}

std::string BitRow::to_string() const {
  std::string s;
  s.reserve(width_);
  for (std::uint32_t i = 0; i < width_; ++i) s.push_back(test(i) ? '1' : '0');
  return s;
}

void BitRow::mask_tail() noexcept {
  if (words_.empty()) return;
  const std::uint32_t used = width_ % kWordBits;
  if (used != 0) {
    words_.back() &= (Word{1} << used) - 1;
  }
}

}  // namespace qrm
