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
// EncodedColumn::Encode picks the scheme with the smallest encoded size at
// load time, in linear time: one pass finds each frame's minimum and
// maximum, FoR is priced from those bounds' widths and the dictionary
// from the ranks of the same bounds plus 4 B per distinct value, and only
// the winner is built. EncodedBytes() reports the built size (words +
// frame directory + dictionary) for device-model placement and scan
// pricing.
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
/// Kept public for the encoding tests; engine code goes through
/// EncodedColumn.
class PackedArray {
 public:
  PackedArray() = default;

  /// Packs `n` values into 32-value frames (last frame may be short).
  static PackedArray Pack(const int32_t* values, uint64_t n);

  uint64_t size() const { return size_; }
  uint64_t frames() const { return refs_.size(); }

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
  /// over raw — cheaper decode at equal size). Both encodings are priced
  /// exactly from per-frame bounds and distinct-value ranks, without
  /// being built; only the winner is built, so the result equals the
  /// smallest of the three EncodeWith builds.
  static EncodedColumn Encode(const std::vector<int32_t>& values);
  /// Forces a scheme (tests and the bench's per-scheme comparisons).
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
  /// The one dictionary builder: entries and codes both come from `rank`.
  static EncodedColumn Dictionary(const std::vector<int32_t>& values,
                                  const DistinctRank& rank);

  Scheme scheme_ = Scheme::kRaw;
  uint64_t size_ = 0;
  std::vector<int32_t> raw_;    ///< kRaw payload
  PackedArray packed_;          ///< kForBitPack values or kDictionary codes
  std::vector<int32_t> dict_;   ///< sorted distinct values (kDictionary)
};

}  // namespace pmemolap::encoding
