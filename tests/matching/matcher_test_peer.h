#pragma once

// Test-only access to TemporalMatcher's candidate-generator choice and
// bag-cache internals. In production a matcher sweeps every tracked
// object until it tracks TemporalMatcher::kIndexMinTracked objects and
// uses the retrieval index from then on; tests and benches pin one
// generator here to compare the two exact paths on the same input.

#include <cstddef>
#include <deque>

#include "matching/matcher.h"

namespace somr::matching {

class TemporalMatcherTestPeer {
 public:
  /// kBySize (the production rule), kSweep or kIndex.
  using Generator = TemporalMatcher::CandidateGen;

  /// Pins `matcher`'s candidate generator from its next step on: an index
  /// it already holds is dropped for kSweep, one is built for kIndex.
  static void Pin(TemporalMatcher& matcher, Generator generator) {
    matcher.candidate_gen_ = generator;
    matcher.RebuildDerivedState();
  }

  /// The matcher's token pool.
  static const TokenPool& Pool(const TemporalMatcher& matcher) {
    return matcher.pool_;
  }

  /// Incoming bags reused from the bag cache / built, since construction.
  static size_t BagsReused(const TemporalMatcher& matcher) {
    return matcher.bags_reused_;
  }
  static size_t BagsBuilt(const TemporalMatcher& matcher) {
    return matcher.bags_built_;
  }

  /// Entries in the bag cache (the last step's instances).
  static size_t BagCacheEntries(const TemporalMatcher& matcher) {
    return matcher.bag_cache_.size();
  }

  /// Mutable rear-view window of tracked object `object` (validator
  /// tests corrupt it).
  static std::deque<FlatBag>& Window(TemporalMatcher& matcher,
                                     size_t object) {
    return matcher.tracked_[object].recent_flat;
  }
};

}  // namespace somr::matching
