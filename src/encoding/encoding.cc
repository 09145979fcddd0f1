#include "encoding/encoding.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <utility>

namespace pmemolap::encoding {
namespace {

/// Code mask for a width (0..32 bits).
uint64_t MaskOf(int width) {
  return width == 0 ? 0 : (uint64_t{1} << width) - 1;
}

/// Conservative per-frame value maximum: ref + largest representable code.
int64_t FrameMax(int32_t ref, int width) {
  return static_cast<int64_t>(ref) + static_cast<int64_t>(MaskOf(width));
}

/// hi - lo as an unsigned distance (the full int32 span fits).
uint64_t Span(int32_t lo, int32_t hi) {
  return static_cast<uint64_t>(static_cast<int64_t>(hi) -
                               static_cast<int64_t>(lo));
}

/// Code width of a frame whose values span `range` (0 for a constant).
int WidthOf(uint64_t range) {
  return range == 0 ? 0 : std::bit_width(range);
}

/// Values in frame `frame` of an `n`-value array.
uint64_t FrameCountOf(uint64_t n, uint64_t frame) {
  return std::min<uint64_t>(kFrameValues, n - frame * kFrameValues);
}

/// Unpacks one full frame of `W`-bit codes. With the width a constant,
/// every word index and shift is one too, so the unrolled loop carries
/// no branch and no variable shift.
template <int W>
void UnpackFrame(const uint64_t* words, int32_t ref, int32_t* out) {
  constexpr uint64_t kMask = (uint64_t{1} << W) - 1;
#pragma GCC unroll 32
  for (uint64_t i = 0; i < kFrameValues; ++i) {
    const uint64_t bit = i * W;
    const int shift = static_cast<int>(bit % 64);
    uint64_t code = words[bit / 64] >> shift;
    if (shift + W > 64) code |= words[bit / 64 + 1] << (64 - shift);
    out[i] = static_cast<int32_t>(static_cast<int64_t>(ref) +
                                  static_cast<int64_t>(code & kMask));
  }
}

using Unpacker = void (*)(const uint64_t*, int32_t, int32_t*);

template <int... W>
constexpr std::array<Unpacker, sizeof...(W)> Unpackers(
    std::integer_sequence<int, W...>) {
  return {&UnpackFrame<W + 1>...};
}

/// kUnpackers[w - 1] unpacks a full frame of width w (1..32).
constexpr auto kUnpackers = Unpackers(std::make_integer_sequence<int, 32>());

/// Minimum and maximum of frame `frame` of values[0 .. n).
std::pair<int32_t, int32_t> FrameBounds(const int32_t* values, uint64_t n,
                                        uint64_t frame) {
  const int32_t* first = values + frame * kFrameValues;
  const uint64_t count = FrameCountOf(n, frame);
  int32_t lo = first[0];
  int32_t hi = first[0];
  for (uint64_t i = 1; i < count; ++i) {
    lo = std::min(lo, first[i]);
    hi = std::max(hi, first[i]);
  }
  return {lo, hi};
}

/// Bytes PackedArray::Pack lays out for one frame of `count` codes that
/// span `range`: the word-padded codes plus the frame's ref/width/offset
/// directory entry. PackedArray::Bytes() is the sum over the frames.
uint64_t PackedFrameBytes(uint64_t count, uint64_t range) {
  const uint64_t words =
      (count * static_cast<uint64_t>(WidthOf(range)) + 63) / 64;
  return words * sizeof(uint64_t) + sizeof(int32_t) + sizeof(uint8_t) +
         sizeof(uint32_t);
}

}  // namespace

/// Order-preserving rank over a column's distinct values: Rank(v) counts
/// the distinct values below v, which is v's code in the sorted
/// dictionary. When the column's span is at most 32 bits per value (the
/// bitmap is no larger than the column) the rank is a bitmap over
/// [lo, hi] with per-word prefix counts, O(1) per lookup; otherwise it is
/// a binary search in a sorted distinct copy.
class DistinctRank {
 public:
  /// `lo` and `hi` bound every value of `values`.
  DistinctRank(const std::vector<int32_t>& values, int32_t lo, int32_t hi)
      : lo_(lo) {
    const uint64_t span = Span(lo, hi);
    if (span / 32 >= values.size()) {
      sorted_ = values;
      std::sort(sorted_.begin(), sorted_.end());
      sorted_.erase(std::unique(sorted_.begin(), sorted_.end()),
                    sorted_.end());
      distinct_ = sorted_.size();
      return;
    }
    bits_.assign(span / 64 + 1, 0);
    for (int32_t value : values) {
      const uint64_t bit = Span(lo_, value);
      bits_[bit / 64] |= uint64_t{1} << (bit % 64);
    }
    // Set bits before a word count distinct int32 values below it: at
    // most 2^32 - 64, so uint32_t holds them.
    before_.resize(bits_.size());
    for (size_t word = 0; word < bits_.size(); ++word) {
      before_[word] = static_cast<uint32_t>(distinct_);
      distinct_ += static_cast<uint64_t>(std::popcount(bits_[word]));
    }
  }

  uint64_t distinct() const { return distinct_; }

  /// Rank of `value`, which must occur in the column.
  uint64_t Rank(int32_t value) const {
    if (bits_.empty()) {
      return static_cast<uint64_t>(
          std::lower_bound(sorted_.begin(), sorted_.end(), value) -
          sorted_.begin());
    }
    const uint64_t bit = Span(lo_, value);
    const uint64_t below =
        bits_[bit / 64] & ((uint64_t{1} << (bit % 64)) - 1);
    return before_[bit / 64] + static_cast<uint64_t>(std::popcount(below));
  }

  /// The distinct values in ascending order: the dictionary.
  std::vector<int32_t> Values() const {
    if (bits_.empty()) return sorted_;
    std::vector<int32_t> values;
    values.reserve(distinct_);
    for (size_t word = 0; word < bits_.size(); ++word) {
      for (uint64_t rest = bits_[word]; rest != 0; rest &= rest - 1) {
        values.push_back(static_cast<int32_t>(
            static_cast<int64_t>(lo_) +
            static_cast<int64_t>(word * 64 + std::countr_zero(rest))));
      }
    }
    return values;
  }

 private:
  int32_t lo_ = 0;
  uint64_t distinct_ = 0;
  std::vector<uint64_t> bits_;    ///< dense: bit v - lo set iff v occurs
  std::vector<uint32_t> before_;  ///< dense: set bits in earlier words
  std::vector<int32_t> sorted_;   ///< sparse: sorted distinct values
};

const char* SchemeName(Scheme scheme) {
  switch (scheme) {
    case Scheme::kRaw:
      return "raw";
    case Scheme::kForBitPack:
      return "for-bitpack";
    case Scheme::kDictionary:
      return "dictionary";
  }
  return "?";
}

// --- PackedArray ------------------------------------------------------------

PackedArray PackedArray::Pack(const int32_t* values, uint64_t n) {
  PackedArray packed;
  packed.size_ = n;
  const uint64_t frames = (n + kFrameValues - 1) / kFrameValues;
  packed.refs_.reserve(frames);
  packed.widths_.reserve(frames);
  packed.offsets_.reserve(frames);
  for (uint64_t frame = 0; frame < frames; ++frame) {
    const uint64_t begin = frame * kFrameValues;
    const uint64_t end = begin + FrameCountOf(n, frame);
    const auto [lo, hi] = FrameBounds(values, n, frame);
    const int width = WidthOf(Span(lo, hi));
    packed.refs_.push_back(lo);
    packed.widths_.push_back(static_cast<uint8_t>(width));
    packed.offsets_.push_back(static_cast<uint32_t>(packed.words_.size()));
    if (width == 0) continue;  // constant frame: directory only
    // Word-padded frame: codes packed LSB-first from a fresh 64-bit word.
    const uint64_t frame_words =
        ((end - begin) * static_cast<uint64_t>(width) + 63) / 64;
    const size_t base = packed.words_.size();
    packed.words_.resize(base + frame_words, 0);
    for (uint64_t i = begin; i < end; ++i) {
      const uint64_t code = static_cast<uint64_t>(
          static_cast<int64_t>(values[i]) - static_cast<int64_t>(lo));
      const uint64_t bit = (i - begin) * static_cast<uint64_t>(width);
      const size_t word = base + bit / 64;
      const int shift = static_cast<int>(bit % 64);
      packed.words_[word] |= code << shift;
      if (shift + width > 64) {
        packed.words_[word + 1] |= code >> (64 - shift);
      }
    }
  }
  return packed;
}

uint64_t PackedArray::FrameCount(uint64_t frame) const {
  return FrameCountOf(size_, frame);
}

int32_t PackedArray::Get(uint64_t index) const {
  const uint64_t frame = index / kFrameValues;
  const int width = widths_[frame];
  if (width == 0) return refs_[frame];
  const uint64_t bit = (index % kFrameValues) * static_cast<uint64_t>(width);
  const size_t word = offsets_[frame] + bit / 64;
  const int shift = static_cast<int>(bit % 64);
  uint64_t code = words_[word] >> shift;
  if (shift + width > 64) code |= words_[word + 1] << (64 - shift);
  code &= MaskOf(width);
  return static_cast<int32_t>(static_cast<int64_t>(refs_[frame]) +
                              static_cast<int64_t>(code));
}

uint64_t PackedArray::DecodeFrame(uint64_t frame, int32_t* out) const {
  const uint64_t count = FrameCount(frame);
  const int32_t ref = refs_[frame];
  const int width = widths_[frame];
  if (width == 0) {
    for (uint64_t i = 0; i < count; ++i) out[i] = ref;
    return count;
  }
  const uint64_t* words = words_.data() + offsets_[frame];
  if (count == kFrameValues) {
    // The tail frame's words end early, so only full frames take the
    // width's unrolled kernel, which reads all 32 codes' words.
    kUnpackers[width - 1](words, ref, out);
    return count;
  }
  const uint64_t mask = MaskOf(width);
  uint64_t bit = 0;
  for (uint64_t i = 0; i < count; ++i, bit += width) {
    const int shift = static_cast<int>(bit % 64);
    uint64_t code = words[bit / 64] >> shift;
    if (shift + width > 64) code |= words[bit / 64 + 1] << (64 - shift);
    out[i] = static_cast<int32_t>(static_cast<int64_t>(ref) +
                                  static_cast<int64_t>(code & mask));
  }
  return count;
}

void PackedArray::Decode(uint64_t begin, uint64_t end, int32_t* out) const {
  uint64_t at = begin;
  while (at < end) {
    const uint64_t frame = at / kFrameValues;
    const uint64_t frame_begin = frame * kFrameValues;
    const uint64_t count = FrameCount(frame);
    if (at == frame_begin && end - at >= count) {
      // Whole frame lands in the output: decode in place.
      at += DecodeFrame(frame, out + (at - begin));
      continue;
    }
    int32_t buffer[kFrameValues];
    DecodeFrame(frame, buffer);
    const uint64_t stop = std::min(end, frame_begin + count);
    for (uint64_t i = at; i < stop; ++i) {
      out[i - begin] = buffer[i - frame_begin];
    }
    at = stop;
  }
}

void PackedArray::AppendMatchingRange(int64_t lo, int64_t hi, uint64_t begin,
                                      uint64_t end,
                                      std::vector<uint64_t>* sel) const {
  if (begin >= end || lo > hi) return;
  const uint64_t first = begin / kFrameValues;
  const uint64_t last = (end - 1) / kFrameValues;
  int32_t buffer[kFrameValues];
  for (uint64_t frame = first; frame <= last; ++frame) {
    const uint64_t frame_begin = frame * kFrameValues;
    const uint64_t slice_begin = std::max(begin, frame_begin);
    const uint64_t slice_end =
        std::min(end, frame_begin + FrameCount(frame));
    const int32_t ref = refs_[frame];
    const int width = widths_[frame];
    const int64_t frame_hi = FrameMax(ref, width);
    // Frame-skip: the frame's conservative value bounds miss the range.
    if (frame_hi < lo || static_cast<int64_t>(ref) > hi) continue;
    if (static_cast<int64_t>(ref) >= lo && frame_hi <= hi) {
      // Frame entirely inside the range: qualify without decoding.
      for (uint64_t i = slice_begin; i < slice_end; ++i) sel->push_back(i);
      continue;
    }
    DecodeFrame(frame, buffer);
    for (uint64_t i = slice_begin; i < slice_end; ++i) {
      const int64_t value = buffer[i - frame_begin];
      if (value >= lo && value <= hi) sel->push_back(i);
    }
  }
}

uint64_t PackedArray::Bytes() const {
  return words_.size() * sizeof(uint64_t) + refs_.size() * sizeof(int32_t) +
         widths_.size() * sizeof(uint8_t) +
         offsets_.size() * sizeof(uint32_t);
}

// --- EncodedColumn ----------------------------------------------------------

EncodedColumn EncodedColumn::EncodeWith(Scheme scheme,
                                        const std::vector<int32_t>& values) {
  if (scheme == Scheme::kDictionary) {
    const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
    // An empty column has no bounds; any pair serves its empty rank.
    return Dictionary(values, values.empty()
                                  ? DistinctRank(values, 0, 0)
                                  : DistinctRank(values, *lo, *hi));
  }
  EncodedColumn column;
  column.size_ = values.size();
  column.scheme_ = scheme;
  if (scheme == Scheme::kRaw) {
    column.raw_ = values;
  } else {
    column.packed_ = PackedArray::Pack(values.data(), values.size());
  }
  return column;
}

EncodedColumn EncodedColumn::Dictionary(const std::vector<int32_t>& values,
                                        const DistinctRank& rank) {
  EncodedColumn column;
  column.size_ = values.size();
  column.scheme_ = Scheme::kDictionary;
  column.dict_ = rank.Values();
  std::vector<int32_t> codes(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    codes[i] = static_cast<int32_t>(rank.Rank(values[i]));
  }
  column.packed_ = PackedArray::Pack(codes.data(), codes.size());
  return column;
}

EncodedColumn EncodedColumn::Encode(const std::vector<int32_t>& values) {
  if (values.empty()) return EncodedColumn();
  const uint64_t n = values.size();
  // One pass for the frames' bounds; the column's follow from them.
  const uint64_t frames = (n + kFrameValues - 1) / kFrameValues;
  std::vector<std::pair<int32_t, int32_t>> bounds(frames);
  for (uint64_t frame = 0; frame < frames; ++frame) {
    bounds[frame] = FrameBounds(values.data(), n, frame);
  }
  int32_t lo = bounds[0].first;
  int32_t hi = bounds[0].second;
  for (const auto& [frame_lo, frame_hi] : bounds) {
    lo = std::min(lo, frame_lo);
    hi = std::max(hi, frame_hi);
  }
  const DistinctRank rank(values, lo, hi);
  // Price both encodings exactly, frame by frame, without building
  // either. A frame's FoR width follows from its value bounds; the rank
  // is order-preserving, so the same bounds' ranks are the frame's
  // smallest and largest dictionary codes.
  uint64_t for_bytes = 0;
  uint64_t dict_bytes = rank.distinct() * sizeof(int32_t);
  for (uint64_t frame = 0; frame < frames; ++frame) {
    const uint64_t count = FrameCountOf(n, frame);
    const auto [frame_lo, frame_hi] = bounds[frame];
    for_bytes += PackedFrameBytes(count, Span(frame_lo, frame_hi));
    dict_bytes +=
        PackedFrameBytes(count, rank.Rank(frame_hi) - rank.Rank(frame_lo));
  }
  const uint64_t raw_bytes = n * sizeof(int32_t);
  // Ties prefer FoR (cheapest decode), then dictionary, then raw.
  if (for_bytes <= dict_bytes && for_bytes <= raw_bytes) {
    return EncodeWith(Scheme::kForBitPack, values);
  }
  if (dict_bytes <= raw_bytes) return Dictionary(values, rank);
  return EncodeWith(Scheme::kRaw, values);
}

int32_t EncodedColumn::Get(uint64_t index) const {
  switch (scheme_) {
    case Scheme::kRaw:
      return raw_[index];
    case Scheme::kForBitPack:
      return packed_.Get(index);
    case Scheme::kDictionary:
      return dict_[static_cast<size_t>(packed_.Get(index))];
  }
  return 0;
}

void EncodedColumn::Decode(uint64_t begin, uint64_t end, int32_t* out) const {
  switch (scheme_) {
    case Scheme::kRaw:
      std::copy(raw_.begin() + static_cast<ptrdiff_t>(begin),
                raw_.begin() + static_cast<ptrdiff_t>(end), out);
      return;
    case Scheme::kForBitPack:
      packed_.Decode(begin, end, out);
      return;
    case Scheme::kDictionary:
      packed_.Decode(begin, end, out);
      for (uint64_t i = 0; i < end - begin; ++i) {
        out[i] = dict_[static_cast<size_t>(out[i])];
      }
      return;
  }
}

void EncodedColumn::GatherInto(const std::vector<uint64_t>& sel,
                               std::vector<int32_t>* out) const {
  out->resize(sel.size());
  if (scheme_ == Scheme::kRaw) {
    for (size_t i = 0; i < sel.size(); ++i) (*out)[i] = raw_[sel[i]];
    return;
  }
  // Selection vectors are ascending, so each touched frame is decoded
  // exactly once into the cache.
  int32_t buffer[kFrameValues];
  uint64_t cached = ~uint64_t{0};
  for (size_t i = 0; i < sel.size(); ++i) {
    const uint64_t frame = sel[i] / kFrameValues;
    if (frame != cached) {
      packed_.DecodeFrame(frame, buffer);
      cached = frame;
    }
    int32_t value = buffer[sel[i] % kFrameValues];
    if (scheme_ == Scheme::kDictionary) {
      value = dict_[static_cast<size_t>(value)];
    }
    (*out)[i] = value;
  }
}

void EncodedColumn::AppendMatchingRange(int32_t lo, int32_t hi,
                                        uint64_t begin, uint64_t end,
                                        std::vector<uint64_t>* sel) const {
  end = std::min(end, size_);
  switch (scheme_) {
    case Scheme::kRaw:
      for (uint64_t i = begin; i < end; ++i) {
        if (raw_[i] >= lo && raw_[i] <= hi) sel->push_back(i);
      }
      return;
    case Scheme::kForBitPack:
      packed_.AppendMatchingRange(lo, hi, begin, end, sel);
      return;
    case Scheme::kDictionary: {
      // The dictionary is sorted, so the value range [lo, hi] maps to the
      // contiguous code range of the entries it covers.
      const auto code_lo =
          std::lower_bound(dict_.begin(), dict_.end(), lo) - dict_.begin();
      const auto code_hi =
          std::upper_bound(dict_.begin(), dict_.end(), hi) - dict_.begin() -
          1;
      if (code_lo > code_hi) return;  // no dictionary entry in range
      packed_.AppendMatchingRange(code_lo, code_hi, begin, end, sel);
      return;
    }
  }
}

uint64_t EncodedColumn::EncodedBytes() const {
  switch (scheme_) {
    case Scheme::kRaw:
      return size_ * sizeof(int32_t);
    case Scheme::kForBitPack:
      return packed_.Bytes();
    case Scheme::kDictionary:
      return packed_.Bytes() + dict_.size() * sizeof(int32_t);
  }
  return 0;
}

double EncodedColumn::CompressionRatio() const {
  const uint64_t encoded = EncodedBytes();
  if (encoded == 0) return 1.0;
  return static_cast<double>(RawBytes()) / static_cast<double>(encoded);
}

}  // namespace pmemolap::encoding
