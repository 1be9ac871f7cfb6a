#pragma once

// Test-only access to TemporalMatcher's candidate-generator choice. In
// production a matcher sweeps every tracked object until it tracks
// TemporalMatcher::kIndexMinTracked objects and uses the retrieval index
// from then on; tests and benches pin one generator here to compare the
// two exact paths on the same input.

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
};

}  // namespace somr::matching
