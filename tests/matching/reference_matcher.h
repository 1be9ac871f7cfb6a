#pragma once

// Test-only reference implementation of the matcher: Algorithm 1 with the
// three stages of Sec. IV-B3 as a plain sequential sweep over string-hash
// BagOfWords — no token interning, bounds, pruning, caching across steps
// or retrieval index. TemporalMatcher must reproduce its identity graphs
// and match decisions exactly (equivalence_test, provenance_test).

#include <cstdint>
#include <deque>
#include <vector>

#include "extract/object.h"
#include "matching/identity_graph.h"
#include "matching/matcher.h"
#include "obs/provenance.h"
#include "sim/similarity.h"
#include "text/bag_of_words.h"

namespace somr::matching {

/// The rear-view mirror similarity sim_{k,phi} (Sec. IV-A2): the maximum
/// over the last k versions of the object of phi^i * sim(version_{n-i},
/// candidate). `history` is ordered oldest to newest.
double DecayedSimilarity(sim::SimilarityKind kind,
                         const std::vector<const BagOfWords*>& history,
                         const BagOfWords& candidate, int k, double phi,
                         const sim::TokenWeighting& weighting);

class ReferenceMatcher {
 public:
  explicit ReferenceMatcher(extract::ObjectType type,
                            MatcherConfig config = {})
      : config_(config), graph_(type) {}

  /// Emits match, reject and new-object records (no step records).
  void SetProvenanceSink(obs::ProvenanceSink* sink) { provenance_ = sink; }

  void ProcessRevision(int revision_index,
                       const std::vector<extract::ObjectInstance>& instances);

  const IdentityGraph& graph() const { return graph_; }

 private:
  struct Object {
    std::deque<BagOfWords> window;  // oldest..newest
    int last_position = 0;
    int first_revision = 0;
  };

  MatcherConfig config_;
  IdentityGraph graph_;
  std::vector<Object> objects_;  // indexed by object id
  obs::ProvenanceSink* provenance_ = nullptr;
};

}  // namespace somr::matching
