#include "matching/bag_cache.h"

#include "common/hash.h"

namespace somr::matching {

void BagCache::Add(const extract::ObjectInstance& obj,
                   const extract::FeatureOptions& options) {
  Entry entry;
  entry.offset = keys_.size();
  entry.cacheable = extract::AppendFlatBagKey(obj, options, &keys_);
  entry.size = keys_.size() - entry.offset;
  entry.hash = HashBytes(std::string_view(keys_).substr(entry.offset));
  entries_.push_back(entry);
}

void BagCache::Seal() {
  if (entries_.empty()) return;  // Lookup misses on an empty table
  // Power of two, at least twice the entries: probes stay short and one
  // empty slot always ends them.
  size_t slots = 4;
  while (slots < entries_.size() * 2) slots *= 2;
  table_.assign(slots, kNoObject);
  const size_t mask = slots - 1;
  for (size_t e = 0; e < entries_.size(); ++e) {
    if (!entries_[e].cacheable) continue;
    size_t i = entries_[e].hash & mask;
    while (table_[i] != kNoObject) i = (i + 1) & mask;
    table_[i] = static_cast<uint32_t>(e);
  }
}

uint32_t BagCache::Lookup(const BagCache& step, size_t i) const {
  if (table_.empty() || !step.cacheable(i)) return kNoObject;
  const uint64_t hash = step.entries_[i].hash;
  const std::string_view wanted = step.key(i);
  const size_t mask = table_.size() - 1;
  for (size_t s = hash & mask; table_[s] != kNoObject; s = (s + 1) & mask) {
    const Entry& entry = entries_[table_[s]];
    if (entry.hash == hash && key(table_[s]) == wanted) return entry.object;
  }
  return kNoObject;
}

}  // namespace somr::matching
