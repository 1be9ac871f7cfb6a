#include "text/flat_bag.h"

#include <algorithm>

namespace somr {

FlatBag FlatBag::FromBag(const BagOfWords& bag, TokenPool& pool) {
  FlatBag flat;
  flat.entries_.reserve(bag.DistinctCount());
  for (const auto& [token, count] : bag.counts()) {
    flat.entries_.push_back({pool.Intern(token), count});
  }
  std::sort(flat.entries_.begin(), flat.entries_.end(),
            [](const FlatEntry& a, const FlatEntry& b) { return a.id < b.id; });
  // Sum in sorted-id order so every FlatBag with the same content has the
  // same total bit-for-bit, regardless of the source map's hash order.
  for (const FlatEntry& e : flat.entries_) flat.total_ += e.count;
  flat.BuildIdColumn();
  return flat;
}

FlatBag FlatBag::FromTokenIds(const std::vector<uint32_t>& ids) {
  FlatBagBuilder& builder = FlatBagBuilder::PerThread();
  for (uint32_t id : ids) builder.Add(id);
  return builder.Finish();
}

FlatBag FlatBag::FromEntries(std::vector<FlatEntry> entries) {
  FlatBag flat;
  flat.entries_ = std::move(entries);
  // Sum in entry order, matching FromBag/FromTokenIds, so a restored bag
  // equals the saved one bit-for-bit (the totals feed similarity math).
  for (const FlatEntry& e : flat.entries_) flat.total_ += e.count;
  flat.BuildIdColumn();
  return flat;
}

void FlatBag::BuildIdColumn() {
  ids_.reserve(entries_.size());
  for (const FlatEntry& e : entries_) ids_.push_back(e.id);
}

double FlatBag::Count(uint32_t id) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), id,
      [](const FlatEntry& e, uint32_t key) { return e.id < key; });
  return it != entries_.end() && it->id == id ? it->count : 0.0;
}

BagOfWords FlatBag::ToBag(const TokenPool& pool) const {
  BagOfWords bag;
  for (const FlatEntry& e : entries_) bag.Add(pool.Spelling(e.id), e.count);
  return bag;
}

void FlatBagBuilder::Widen(uint32_t id) {
  counts_.resize(std::max<size_t>(size_t{id} + 1, counts_.size() * 2), 0);
}

FlatBag FlatBagBuilder::Finish() {
  FlatBag flat;
  std::sort(distinct_.begin(), distinct_.end());
  flat.entries_.reserve(distinct_.size());
  for (uint32_t id : distinct_) {
    flat.entries_.push_back({id, static_cast<double>(counts_[id])});
    counts_[id] = 0;
  }
  // The total is the occurrence count itself, an exact integer, so it
  // equals the sum of the entry counts in any order.
  flat.total_ = static_cast<double>(total_);
  flat.BuildIdColumn();
  distinct_.clear();
  total_ = 0;
  return flat;
}

FlatBagBuilder& FlatBagBuilder::PerThread() {
  thread_local FlatBagBuilder builder;
  return builder;
}

}  // namespace somr
