#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "extract/features.h"
#include "extract/object.h"

namespace somr::matching {

/// The bag-relevant bytes of one step's incoming instances, for
/// TemporalMatcher's exact bag cache (DESIGN.md §7 "Interning"). Entry i
/// is instance i's extract::AppendFlatBagKey bytes, plus the tracked
/// object the instance was committed to; that object's newest rear-view
/// bag is then the bag BuildFlatBag built (or reused) for those bytes.
///
/// A matcher keeps the previous step's keys (one revision's bytes). At
/// the next step an instance whose key equals a stored key byte for byte
/// — the hash only finds the candidate — copies that object's newest bag
/// instead of tokenizing and interning again. Default construction
/// allocates nothing.
class BagCache {
 public:
  /// Appends `obj`'s key as the next entry (entries are numbered like the
  /// step's instances). An instance whose key does not fit the 32-bit
  /// length prefixes gets an entry that never matches.
  void Add(const extract::ObjectInstance& obj,
           const extract::FeatureOptions& options);

  /// Records the tracked object entry `i`'s instance was committed to.
  void SetObject(size_t i, uint32_t object) { entries_[i].object = object; }

  /// Builds the lookup table; call once every entry has its object.
  void Seal();

  /// The object recorded for the first sealed entry whose key equals
  /// `step`'s entry `i`, or kNoObject when none does.
  uint32_t Lookup(const BagCache& step, size_t i) const;

  static constexpr uint32_t kNoObject = 0xffffffffu;

  size_t size() const { return entries_.size(); }
  /// False for an entry whose key did not fit (it never matches).
  bool cacheable(size_t i) const { return entries_[i].cacheable; }
  std::string_view key(size_t i) const {
    return std::string_view(keys_).substr(entries_[i].offset,
                                          entries_[i].size);
  }
  uint32_t object(size_t i) const { return entries_[i].object; }

 private:
  struct Entry {
    size_t offset = 0;  // into keys_
    size_t size = 0;
    uint64_t hash = 0;
    uint32_t object = kNoObject;
    bool cacheable = false;
  };

  std::string keys_;             // every entry's key, back to back
  std::vector<Entry> entries_;
  std::vector<uint32_t> table_;  // entry index per slot, kNoObject = empty
};

}  // namespace somr::matching
