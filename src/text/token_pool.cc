#include "text/token_pool.h"

#include <limits>

#include "common/check.h"
#include "common/hash.h"

namespace somr {

namespace {

uint32_t Hash32(std::string_view token) {
  return static_cast<uint32_t>(HashBytes(token) >> 32);
}

}  // namespace

size_t TokenPool::Probe(std::string_view token, uint32_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.id == kInvalidId ||
        (slot.hash == hash && Spelling(slot.id) == token)) {
      return i;
    }
  }
}

void TokenPool::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.id == kInvalidId) continue;
    size_t i = slot.hash & mask;
    while (slots_[i].id != kInvalidId) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

uint32_t TokenPool::Intern(std::string_view token) {
  const uint32_t hash = Hash32(token);
  size_t at = 0;
  if (!slots_.empty()) {
    at = Probe(token, hash);
    if (slots_[at].id != kInvalidId) return slots_[at].id;
  }
  // New token. Keep the load at most one half, so probes stay short and
  // one empty slot always ends them.
  SOMR_CHECK_LT(offsets_.size(), size_t{kInvalidId}) << "token pool ids";
  SOMR_CHECK_LE(arena_.size() + token.size(),
                size_t{std::numeric_limits<uint32_t>::max()})
      << "token pool arena would pass 4 GiB";
  if ((offsets_.size() + 1) * 2 > slots_.size()) {
    Grow();
    at = Probe(token, hash);
  }
  const uint32_t id = static_cast<uint32_t>(offsets_.size());
  offsets_.push_back(static_cast<uint32_t>(arena_.size()));
  arena_.append(token);
  slots_[at] = Slot{hash, id};
  return id;
}

uint32_t TokenPool::Find(std::string_view token) const {
  if (slots_.empty()) return kInvalidId;
  return slots_[Probe(token, Hash32(token))].id;
}

}  // namespace somr
