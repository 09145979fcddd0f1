// Encoded columnar storage — lightweight compression for scan-bound OLAP.
//
// The paper's thesis is that OLAP on PMEM is bandwidth-bound; every byte
// a scan does not move is effective bandwidth gained. This layer shrinks
// the int32 SSB columns with two classic light-weight encodings plus a
// pass-through:
//
//   kForBitPack  — frame-of-reference bit-packing: 32 values per frame,
//                  per-frame minimum (the reference) and code width; codes
//                  value - ref packed LSB-first into 64-bit words. Each
//                  frame starts on a fresh word ("lane-aligned"), so block
//                  decode is a branch-free shift/mask loop.
//   kDictionary  — sorted-dictionary encoding for low-cardinality columns:
//                  a value's code is its rank among the column's distinct
//                  values, packed with the same frame machinery. Code
//                  order equals value order, so range predicates map to
//                  code ranges.
//   kRaw         — pass-through for incompressible columns.
//
// EncodedColumn::Encode picks the scheme with the smallest encoded size
// at load time, and reads the values once. A ColumnEncoder takes the
// column 32 values at a time: it finds each frame's minimum and maximum
// and packs the frame into the FoR image at once, through an unrolled
// kernel per code width. FoR is then priced as built. The dictionary is
// priced from the ranks of the frames' bounds among the column's
// distinct values, plus 4 B per distinct value; the rank is built by
// decoding the compact FoR image. A dictionary or raw winner is derived
// from that image too, so no scheme reads the source again.
// ssb::EncodedColumnStore runs nine encoders over one sweep of the row
// image. EncodedBytes() reports the built size (words + frame directory
// + dictionary) for device-model placement and scan pricing.
//
// Predicate-on-encoded fast paths: a range predicate is evaluated against
// each frame's conservative value bounds [ref, ref + (2^width - 1)] first —
// frames entirely outside the range are skipped without decode, frames
// entirely inside append their indexes without decode. A dictionary
// column maps the range to a code range with two binary searches; a range
// that covers no entry (an absent point value) matches nothing without
// touching the codes.
#pragma once

#include <cstdint>
#include <vector>

namespace pmemolap::encoding {

/// Values per frame. One frame decodes into half a 256 B XPLine of int32s;
/// morsels sized in whole frames keep decode blocks boundary-aligned.
inline constexpr uint64_t kFrameValues = 32;

enum class Scheme {
  kRaw,
  kForBitPack,
  kDictionary,
};

const char* SchemeName(Scheme scheme);

/// Frame-packed code storage shared by the FoR and dictionary schemes:
/// per-frame reference + width directory over word-padded packed codes.
/// Engine code goes through EncodedColumn.
class PackedArray {
 public:
  PackedArray() = default;
  /// An empty array with room for `frames` frames and `words` packed
  /// words, so appending them never regrows the storage.
  PackedArray(uint64_t frames, uint64_t words);

  /// Appends the next frame: `count` values (kFrameValues, or fewer for
  /// the last frame) whose minimum is `lo` and maximum `hi`. The codes
  /// value - lo are packed at the width of hi - lo by that width's
  /// unrolled kernel.
  void AppendFrame(const int32_t* values, uint64_t count, int32_t lo,
                   int32_t hi);
  /// Frees the word capacity no frame used.
  void ShrinkToFit() { words_.shrink_to_fit(); }

  uint64_t size() const { return size_; }
  uint64_t frames() const { return refs_.size(); }
  /// The reference (minimum value) of `frame`.
  int32_t ref(uint64_t frame) const { return refs_[frame]; }

  int32_t Get(uint64_t index) const;
  /// Decodes values [begin, end) into out[0 .. end-begin).
  void Decode(uint64_t begin, uint64_t end, int32_t* out) const;

  /// Appends (in ascending order) every index in [begin, end) whose value
  /// lies in [lo, hi] — skipping frames whose conservative bounds miss the
  /// range and bulk-appending frames entirely inside it.
  void AppendMatchingRange(int64_t lo, int64_t hi, uint64_t begin,
                           uint64_t end, std::vector<uint64_t>* sel) const;

  /// Storage bytes: packed words plus the per-frame ref/width/offset
  /// directory. This is what a scan of the full array must read.
  uint64_t Bytes() const;

  /// Decodes one whole frame (kFrameValues values, short at the tail)
  /// into `out`; returns the number of values decoded.
  uint64_t DecodeFrame(uint64_t frame, int32_t* out) const;

 private:
  uint64_t size_ = 0;
  std::vector<uint64_t> words_;   ///< packed codes, frames word-padded
  std::vector<int32_t> refs_;     ///< per-frame reference (minimum)
  std::vector<uint8_t> widths_;   ///< per-frame code width in bits (0..32)
  std::vector<uint32_t> offsets_; ///< per-frame first index into words_

  /// Values in `frame` (kFrameValues except a short tail frame).
  uint64_t FrameCount(uint64_t frame) const;
};

class DistinctRank;  // encoding.cc: order-preserving rank of distinct values

/// One encoded column: scheme picked at load time by encoded size.
class EncodedColumn {
 public:
  EncodedColumn() = default;

  /// Encodes with the cheapest scheme (ties prefer FoR over dictionary
  /// over raw — cheaper decode at equal size) through one ColumnEncoder,
  /// so the result equals the smallest of the three EncodeWith builds.
  static EncodedColumn Encode(const std::vector<int32_t>& values);
  /// Forces a scheme, built the way Encode builds it.
  // lint:allow(test-only-api): scheme-choice oracle (the exhaustive trial)
  static EncodedColumn EncodeWith(Scheme scheme,
                                  const std::vector<int32_t>& values);

  uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Scheme scheme() const { return scheme_; }
  /// The sorted distinct values the codes index (empty unless
  /// kDictionary).
  const std::vector<int32_t>& dictionary() const { return dict_; }

  int32_t Get(uint64_t index) const;
  /// Block decode of values [begin, end) into out[0 .. end-begin).
  void Decode(uint64_t begin, uint64_t end, int32_t* out) const;
  /// out[i] = value at sel[i] (sel ascending). Decodes each touched frame
  /// once into a cached buffer — post-selection gather without full
  /// decode.
  void GatherInto(const std::vector<uint64_t>& sel,
                  std::vector<int32_t>* out) const;

  /// Range predicate on encoded data: appends every index in
  /// [begin, min(end, size())) with value in [lo, hi]; lo == hi is an
  /// equality test. FoR skips non-qualifying frames without decode;
  /// dictionary rewrites [lo, hi] to a code range first.
  void AppendMatchingRange(int32_t lo, int32_t hi, uint64_t begin,
                           uint64_t end, std::vector<uint64_t>* sel) const;

  /// Encoded storage bytes (packed words + frame directory + dictionary;
  /// raw scheme: 4 B per value). The scan-pricing size.
  uint64_t EncodedBytes() const;
  uint64_t RawBytes() const { return size_ * sizeof(int32_t); }
  double CompressionRatio() const;

 private:
  friend class ColumnEncoder;

  Scheme scheme_ = Scheme::kRaw;
  uint64_t size_ = 0;
  std::vector<int32_t> raw_;    ///< kRaw payload
  PackedArray packed_;          ///< kForBitPack values or kDictionary codes
  std::vector<int32_t> dict_;   ///< sorted distinct values (kDictionary)
};

/// Builds one EncodedColumn from one read of its values: each appended
/// frame is bounded and FoR-packed at once, and Finish derives whatever
/// scheme it returns from that FoR image.
class ColumnEncoder {
 public:
  /// Room for a column of `n` values.
  explicit ColumnEncoder(uint64_t n);

  /// Appends the column's next frame: `count` values, kFrameValues for
  /// every frame but a short last one.
  void AppendFrame(const int32_t* values, uint64_t count);

  /// The cheapest scheme, as EncodedColumn::Encode picks it. The encoder
  /// is spent afterwards.
  EncodedColumn Finish();
  /// The given scheme (EncodedColumn::EncodeWith). The encoder is spent
  /// afterwards.
  EncodedColumn Finish(Scheme scheme);

 private:
  /// The column's distinct-value rank, built from the FoR image.
  DistinctRank Rank() const;
  /// The dictionary scheme: entries and codes both come from `rank`.
  EncodedColumn Dictionary(const DistinctRank& rank);
  /// Frees the FoR image once a scheme is built from it.
  void Release();

  PackedArray for_;             ///< the FoR image, one frame per append
  std::vector<int32_t> highs_;  ///< per-frame maximum (refs are minima)
};

}  // namespace pmemolap::encoding
