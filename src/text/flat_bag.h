#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "text/bag_of_words.h"
#include "text/token_pool.h"

namespace somr {

/// One (token id, count) entry of a FlatBag.
struct FlatEntry {
  uint32_t id = 0;
  double count = 0.0;

  bool operator==(const FlatEntry&) const = default;
};

/// The compiled form of a BagOfWords: entries sorted ascending by
/// interned token id, with the total cached. Intersection-style kernels
/// (SumMin and friends) become branch-predictable merge-joins over two
/// sorted arrays instead of per-token string hash lookups, and per-id
/// side tables (IDF weights) are plain vector indexing.
///
/// A FlatBag is immutable after construction; counts are > 0 and totals
/// match the sum of entry counts exactly (counts come from unit-weight
/// token adds, so sums are exact integer arithmetic in doubles).
class FlatBag {
 public:
  FlatBag() = default;

  /// Compiles `bag`, interning every token into `pool`.
  static FlatBag FromBag(const BagOfWords& bag, TokenPool& pool);

  /// Builds a bag from unit-weight token occurrences (repeats allowed,
  /// any order) through this thread's FlatBagBuilder. Ids are pool ids:
  /// the builder's scratch grows to the largest id seen.
  static FlatBag FromTokenIds(const std::vector<uint32_t>& ids);

  /// Rebuilds a bag from previously compiled entries (snapshot restore).
  /// Entries must be strictly ascending by id with positive counts —
  /// exactly what entries() returned when the bag was saved; violations
  /// are rejected as ParseError by the snapshot loader before this runs.
  static FlatBag FromEntries(std::vector<FlatEntry> entries);

  /// Entries in ascending id order.
  const std::vector<FlatEntry>& entries() const { return entries_; }

  /// The token ids alone, ascending, in a contiguous array — the layout
  /// the SIMD galloping intersection kernels (sim/simd_intersect.h) scan
  /// four lanes at a time. Always entries().size() long and equal to the
  /// id column of entries().
  const std::vector<uint32_t>& ids() const { return ids_; }

  /// Sum of all counts (the multiset cardinality).
  double TotalCount() const { return total_; }

  /// Number of distinct tokens.
  size_t DistinctCount() const { return entries_.size(); }

  bool empty() const { return entries_.empty(); }

  /// Count for `id`, 0 if absent (binary search; kernels should
  /// merge-join instead).
  double Count(uint32_t id) const;

  /// Reconstructs the equivalent BagOfWords (tests / debugging).
  BagOfWords ToBag(const TokenPool& pool) const;

  bool operator==(const FlatBag&) const = default;

 private:
  friend class FlatBagBuilder;

  void BuildIdColumn();

  std::vector<FlatEntry> entries_;  // ascending by id
  std::vector<uint32_t> ids_;       // id column of entries_, contiguous
  double total_ = 0.0;
};

/// Compiles unit-weight token occurrences into a FlatBag. Occurrences are
/// counted in a scratch array indexed by id, so finishing a bag sorts only
/// its distinct ids, not every occurrence. The scratch (4 bytes per id up
/// to the largest id added) is zeroed again by Finish and reused for the
/// next bag; it allocates on first use. extract::BuildFlatBag and
/// FlatBag::FromTokenIds share one builder per thread (PerThread).
class FlatBagBuilder {
 public:
  /// Adds one occurrence of `id`.
  void Add(uint32_t id) {
    if (id >= counts_.size()) Widen(id);
    if (counts_[id]++ == 0) distinct_.push_back(id);
    ++total_;
  }

  /// The bag of every id added since the last Finish; resets the builder.
  FlatBag Finish();

  /// This thread's builder.
  static FlatBagBuilder& PerThread();

 private:
  void Widen(uint32_t id);

  std::vector<uint32_t> counts_;    // per id; all zero between bags
  std::vector<uint32_t> distinct_;  // ids of the current bag
  size_t total_ = 0;                // occurrences in the current bag
};

}  // namespace somr
