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

/// Packs one full frame of `W`-bit codes value - ref into
/// (kFrameValues * W + 63) / 64 words: the mirror of UnpackFrame<W>, with
/// every word index and shift a constant.
template <int W>
void PackFrame(const int32_t* values, int32_t ref, uint64_t* words) {
  constexpr uint64_t kWords = (kFrameValues * W + 63) / 64;
  uint64_t packed[kWords] = {};
#pragma GCC unroll 32
  for (uint64_t i = 0; i < kFrameValues; ++i) {
    // value - ref fits in W bits, so the 32-bit wrap-around is exact.
    const uint64_t code = static_cast<uint32_t>(values[i]) -
                          static_cast<uint32_t>(ref);
    const uint64_t bit = i * W;
    const int shift = static_cast<int>(bit % 64);
    packed[bit / 64] |= code << shift;
    if (shift + W > 64) packed[bit / 64 + 1] |= code >> (64 - shift);
  }
  std::copy(packed, packed + kWords, words);
}

using Packer = void (*)(const int32_t*, int32_t, uint64_t*);

template <int... W>
constexpr std::array<Packer, sizeof...(W)> Packers(
    std::integer_sequence<int, W...>) {
  return {&PackFrame<W + 1>...};
}

/// kPackers[w - 1] packs a full frame at width w (1..32).
constexpr auto kPackers = Packers(std::make_integer_sequence<int, 32>());

/// Packed words of one frame of `count` codes that span `range`.
uint64_t PackedFrameWords(uint64_t count, uint64_t range) {
  return (count * static_cast<uint64_t>(WidthOf(range)) + 63) / 64;
}

/// Bytes PackedArray lays out for one frame of `count` codes that span
/// `range`: the word-padded codes plus the frame's ref/width/offset
/// directory entry. PackedArray::Bytes() is the sum over the frames.
uint64_t PackedFrameBytes(uint64_t count, uint64_t range) {
  return PackedFrameWords(count, range) * sizeof(uint64_t) +
         sizeof(int32_t) + sizeof(uint8_t) + sizeof(uint32_t);
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
  /// `lo` and `hi` bound every value `image` holds.
  DistinctRank(const PackedArray& image, int32_t lo, int32_t hi)
      : lo_(lo) {
    const uint64_t span = Span(lo, hi);
    if (span / 32 >= image.size()) {
      sorted_.resize(image.size());
      image.Decode(0, image.size(), sorted_.data());
      std::sort(sorted_.begin(), sorted_.end());
      sorted_.erase(std::unique(sorted_.begin(), sorted_.end()),
                    sorted_.end());
      distinct_ = sorted_.size();
      return;
    }
    bits_.assign(span / 64 + 1, 0);
    int32_t values[kFrameValues];
    for (uint64_t frame = 0; frame < image.frames(); ++frame) {
      const uint64_t count = image.DecodeFrame(frame, values);
      for (uint64_t i = 0; i < count; ++i) {
        const uint64_t bit = Span(lo_, values[i]);
        bits_[bit / 64] |= uint64_t{1} << (bit % 64);
      }
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

PackedArray::PackedArray(uint64_t frames, uint64_t words) {
  words_.reserve(words);
  refs_.reserve(frames);
  widths_.reserve(frames);
  offsets_.reserve(frames);
}

void PackedArray::AppendFrame(const int32_t* values, uint64_t count,
                              int32_t lo, int32_t hi) {
  const int width = WidthOf(Span(lo, hi));
  size_ += count;
  refs_.push_back(lo);
  widths_.push_back(static_cast<uint8_t>(width));
  offsets_.push_back(static_cast<uint32_t>(words_.size()));
  if (width == 0) return;  // constant frame: directory only
  // A short last frame packs as a full one padded with code 0, and keeps
  // only the words its own codes reach.
  int32_t padded[kFrameValues];
  if (count < kFrameValues) {
    std::copy(values, values + count, padded);
    std::fill(padded + count, padded + kFrameValues, lo);
    values = padded;
  }
  uint64_t words[kFrameValues / 2];  // a full frame's words at 32 bits
  kPackers[width - 1](values, lo, words);
  words_.insert(words_.end(), words,
                words + PackedFrameWords(count, Span(lo, hi)));
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

namespace {

/// An encoder that has taken every frame of `values`.
ColumnEncoder EncoderOf(const std::vector<int32_t>& values) {
  ColumnEncoder encoder(values.size());
  for (uint64_t begin = 0; begin < values.size(); begin += kFrameValues) {
    encoder.AppendFrame(values.data() + begin,
                        FrameCountOf(values.size(), begin / kFrameValues));
  }
  return encoder;
}

}  // namespace

EncodedColumn EncodedColumn::Encode(const std::vector<int32_t>& values) {
  return EncoderOf(values).Finish();
}

EncodedColumn EncodedColumn::EncodeWith(Scheme scheme,
                                        const std::vector<int32_t>& values) {
  return EncoderOf(values).Finish(scheme);
}

// --- ColumnEncoder ----------------------------------------------------------

// The FoR image's words are reserved for 32-bit codes in every frame, so
// no append regrows them; a FoR result frees the spare capacity.
ColumnEncoder::ColumnEncoder(uint64_t n)
    : for_((n + kFrameValues - 1) / kFrameValues, (n + 1) / 2) {
  highs_.reserve((n + kFrameValues - 1) / kFrameValues);
}

void ColumnEncoder::AppendFrame(const int32_t* values, uint64_t count) {
  int32_t lo = values[0];
  int32_t hi = values[0];
  for (uint64_t i = 1; i < count; ++i) {
    lo = std::min(lo, values[i]);
    hi = std::max(hi, values[i]);
  }
  for_.AppendFrame(values, count, lo, hi);
  highs_.push_back(hi);
}

DistinctRank ColumnEncoder::Rank() const {
  // An empty column has no bounds; any pair serves its empty rank.
  if (for_.frames() == 0) return DistinctRank(for_, 0, 0);
  int32_t lo = for_.ref(0);
  int32_t hi = highs_[0];
  for (uint64_t frame = 1; frame < for_.frames(); ++frame) {
    lo = std::min(lo, for_.ref(frame));
    hi = std::max(hi, highs_[frame]);
  }
  return DistinctRank(for_, lo, hi);
}

EncodedColumn ColumnEncoder::Dictionary(const DistinctRank& rank) {
  EncodedColumn column;
  column.size_ = for_.size();
  column.scheme_ = Scheme::kDictionary;
  column.dict_ = rank.Values();
  // The rank preserves order, so a frame's codes span the ranks of its
  // bounds: the code image's words are known before it is packed.
  const uint64_t frames = for_.frames();
  uint64_t words = 0;
  for (uint64_t frame = 0; frame < frames; ++frame) {
    words += PackedFrameWords(
        FrameCountOf(for_.size(), frame),
        rank.Rank(highs_[frame]) - rank.Rank(for_.ref(frame)));
  }
  column.packed_ = PackedArray(frames, words);
  int32_t values[kFrameValues];
  int32_t codes[kFrameValues];
  for (uint64_t frame = 0; frame < frames; ++frame) {
    const uint64_t count = for_.DecodeFrame(frame, values);
    for (uint64_t i = 0; i < count; ++i) {
      codes[i] = static_cast<int32_t>(rank.Rank(values[i]));
    }
    column.packed_.AppendFrame(
        codes, count, static_cast<int32_t>(rank.Rank(for_.ref(frame))),
        static_cast<int32_t>(rank.Rank(highs_[frame])));
  }
  Release();
  return column;
}

EncodedColumn ColumnEncoder::Finish() {
  const uint64_t n = for_.size();
  if (n == 0) return EncodedColumn();
  const DistinctRank rank = Rank();
  // FoR's price is the image as built. The dictionary's follows frame by
  // frame from the rank: it is order-preserving, so a frame's bounds'
  // ranks are its smallest and largest dictionary codes.
  const uint64_t for_bytes = for_.Bytes();
  uint64_t dict_bytes = rank.distinct() * sizeof(int32_t);
  for (uint64_t frame = 0; frame < for_.frames(); ++frame) {
    dict_bytes += PackedFrameBytes(
        FrameCountOf(n, frame),
        rank.Rank(highs_[frame]) - rank.Rank(for_.ref(frame)));
  }
  const uint64_t raw_bytes = n * sizeof(int32_t);
  // Ties prefer FoR (cheapest decode), then dictionary, then raw.
  if (for_bytes <= dict_bytes && for_bytes <= raw_bytes) {
    return Finish(Scheme::kForBitPack);
  }
  if (dict_bytes <= raw_bytes) return Dictionary(rank);
  return Finish(Scheme::kRaw);
}

EncodedColumn ColumnEncoder::Finish(Scheme scheme) {
  if (scheme == Scheme::kDictionary) return Dictionary(Rank());
  EncodedColumn column;
  column.size_ = for_.size();
  column.scheme_ = scheme;
  if (scheme == Scheme::kRaw) {
    column.raw_.resize(for_.size());
    for_.Decode(0, for_.size(), column.raw_.data());
  } else {
    for_.ShrinkToFit();
    column.packed_ = std::move(for_);
  }
  Release();
  return column;
}

void ColumnEncoder::Release() {
  for_ = PackedArray();
  highs_ = std::vector<int32_t>();
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
