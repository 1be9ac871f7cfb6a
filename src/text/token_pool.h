#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace somr {

/// Interns token spellings into dense uint32 ids so the similarity
/// kernels can operate on integer-keyed flat vectors instead of hashing
/// strings per lookup. Ids are assigned sequentially from 0 in first-seen
/// order, so a pool that has interned the whole corpus so far is exactly
/// `size()` ids wide — dense per-id side tables (weights, document
/// frequencies) are just vectors indexed by id.
///
/// Layout (DESIGN.md §7 "Interning"): every spelling is appended to one
/// byte arena and addressed by its start offset, and lookups probe one
/// open-addressing table of (hash32, id) slots kept at most half full.
/// Hash order decides only where a slot sits, never an id, so nothing
/// derived from a pool depends on the hash function.
///
/// A pool is owned by one matcher (one page's revision stream); it is not
/// thread-safe and ids from different pools are unrelated. A default
/// constructed pool allocates nothing until its first Intern.
class TokenPool {
 public:
  static constexpr uint32_t kInvalidId = 0xffffffffu;

  TokenPool() = default;
  TokenPool(const TokenPool&) = delete;
  TokenPool& operator=(const TokenPool&) = delete;
  TokenPool(TokenPool&&) = default;
  TokenPool& operator=(TokenPool&&) = default;

  /// Id of `token`, interning it if new. No allocation on the hit path.
  /// Aborts if the arena would pass 4 GiB of spelling bytes or the pool
  /// would run out of ids.
  uint32_t Intern(std::string_view token);

  /// Id of `token` if already interned, kInvalidId otherwise.
  uint32_t Find(std::string_view token) const;

  /// The spelling of an interned id. `id` must be < size(). The view
  /// points into the arena and is invalidated by the next Intern of a new
  /// token.
  std::string_view Spelling(uint32_t id) const {
    const uint32_t begin = offsets_[id];
    const size_t end =
        id + 1 < offsets_.size() ? offsets_[id + 1] : arena_.size();
    return std::string_view(arena_.data() + begin, end - begin);
  }

  /// Number of distinct tokens interned so far (== smallest unused id).
  uint32_t size() const { return static_cast<uint32_t>(offsets_.size()); }

  bool empty() const { return offsets_.empty(); }

 private:
  struct Slot {
    uint32_t hash = 0;
    uint32_t id = kInvalidId;  // kInvalidId marks an empty slot
  };

  /// Index of the slot holding `token` (hashed to `hash`), or of the empty
  /// slot where it would go. The table must be non-empty.
  size_t Probe(std::string_view token, uint32_t hash) const;

  /// Doubles the table (16 slots on first use) and reinserts every id
  /// from its stored hash; no spelling is rehashed.
  void Grow();

  std::string arena_;              // every spelling, back to back
  std::vector<uint32_t> offsets_;  // arena start of each id
  std::vector<Slot> slots_;        // power-of-two open-addressing table
};

}  // namespace somr
