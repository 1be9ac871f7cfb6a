#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "extract/features.h"
#include "extract/object.h"
#include "matching/bag_cache.h"
#include "matching/identity_graph.h"
#include "matching/interface.h"
#include "obs/provenance.h"
#include "retrieval/candidate_index.h"
#include "sim/similarity.h"
#include "text/flat_bag.h"
#include "text/token_pool.h"

namespace somr {
class ValidationReport;  // invariant findings (src/common/check.h)
}  // namespace somr

namespace somr::state {
class MatcherSerde;  // snapshot serializer (src/state/snapshot.cc)
}  // namespace somr::state

namespace somr::parallel {
class Executor;  // work-stealing pool (src/parallel/executor.h)
}  // namespace somr::parallel

namespace somr::matching {

/// Configuration of the multi-stage matcher, defaults set to the paper's
/// published parameter choices (Sec. V-C).
struct MatcherConfig {
  /// Stage-1 neighborhood: |pos(x) - pos(o)| <= theta_pos.
  int theta_pos = 2;
  /// Stage-1 similarity threshold (strict measure, local candidates).
  double theta1 = 0.8;
  /// Stage-2 threshold (strict measure, all pairs).
  double theta2 = 0.6;
  /// Stage-3 threshold (relaxed measure, all pairs).
  double theta3 = 0.4;
  /// Rear-view mirror window k: number of recent non-empty versions of an
  /// object compared against each new instance (Sec. IV-A2).
  int rear_view_window = 5;
  /// Decay factor phi applied per skipped version in the rear view.
  double decay = 0.9;
  /// Inverse-object-frequency token weighting (Sec. IV-B2).
  bool use_idf_weighting = true;
  /// Spatial features: stage 1 and the position tie-breaker. Disabled for
  /// contexts without an order, e.g. the Socrata data lake (Sec. V-B).
  bool use_spatial_features = true;
  /// Stage 1 can be disabled independently for the runtime ablation
  /// (Fig. 11) while keeping the position tie-breaker.
  bool enable_stage1 = true;
  /// Stages 2 and 3 can be disabled for the stage-composition ablation
  /// (stage 2 drives precision, stage 3 recall — Sec. IV-B3).
  bool enable_stage2 = true;
  bool enable_stage3 = true;
  /// Lifetime tie-breaker (prefer objects with longer histories).
  bool enable_lifetime_tiebreak = true;
  /// Intra-step parallelism (only with an Executor attached via
  /// SetExecutor): when a stage's candidate-pair count reaches
  /// parallel_min_pairs, the stage similarity matrix is filled with
  /// Executor::ParallelFor before the (always sequential) assignment
  /// solve. Exact — identity graphs and MatchStats counters are
  /// byte-identical at any thread count, so these knobs are perf-only
  /// and deliberately excluded from the snapshot config fingerprint.
  bool enable_parallel_stages = true;
  size_t parallel_min_pairs = 4096;
  /// Bag-of-words construction options.
  extract::FeatureOptions features;
};

/// One candidate pair of a matching stage: indexes into the tracked
/// objects and the incoming instances of the current step.
struct StagePair {
  uint32_t tracked = 0;
  uint32_t incoming = 0;
};

/// Runtime accounting for the performance experiments (Fig. 11).
struct MatchStats {
  std::vector<double> step_millis;  // wall time of each matching step
  size_t similarities_computed = 0;
  size_t stage1_matches = 0;
  size_t stage2_matches = 0;
  size_t stage3_matches = 0;
  size_t new_objects = 0;
  /// Pairs skipped because the weighted-total upper bound proved the
  /// decayed similarity below the stage threshold (no merge-join run).
  size_t pairs_pruned = 0;
};

/// Matches the object instances of one object type on one page across its
/// revision stream, building the identity graph incrementally (online):
/// call ProcessRevision once per page version, in order. This implements
/// Algorithm 1 with the three stages of Sec. IV-B3.
class TemporalMatcher : public RevisionMatcher {
 public:
  explicit TemporalMatcher(extract::ObjectType type,
                           MatcherConfig config = {});

  /// Processes one page version. `instances` must be the instances of
  /// this matcher's object type, in page order (position ranks 0..n-1).
  void ProcessRevision(
      int revision_index,
      const std::vector<extract::ObjectInstance>& instances) override;

  const IdentityGraph& graph() const override { return graph_; }
  const MatchStats& stats() const { return stats_; }
  const MatcherConfig& config() const { return config_; }

  /// Attaches a match-decision provenance sink (nullptr detaches). The
  /// sink must outlive every subsequent ProcessRevision call; decision
  /// records are only built while one is attached.
  void SetProvenanceSink(obs::ProvenanceSink* sink) { provenance_ = sink; }

  /// Attaches a work-stealing pool for intra-step parallelism (nullptr
  /// detaches — the matcher then runs fully sequentially). The executor
  /// must outlive every subsequent ProcessRevision call. Attaching one
  /// never changes results, only wall time; see MatcherConfig's
  /// enable_parallel_stages / parallel_min_pairs.
  void SetExecutor(parallel::Executor* executor) { executor_ = executor; }

  /// Destructive accessors for pipeline code that owns the matcher and
  /// wants the result without copying the graph. TakeStats leaves a
  /// fully zeroed MatchStats behind (a plain move would reset only the
  /// step_millis vector and keep the counters, so stats() would read
  /// inconsistent values afterwards).
  IdentityGraph TakeGraph() { return std::move(graph_); }
  MatchStats TakeStats() { return std::exchange(stats_, MatchStats{}); }

  /// Tracked-object count from which candidates come from the retrieval
  /// index instead of a sweep over every tracked object. Both generators
  /// are exact (same graphs, stage and new-object counts); only the work
  /// differs. The index costs a per-step walk and upkeep that a sweep of
  /// a few dozen objects undercuts; measured crossover in DESIGN.md §12.
  /// Tracked objects are never dropped, so the switch is one-way.
  static constexpr size_t kIndexMinTracked = 64;

  /// True once this matcher generates candidates from the retrieval index.
  bool has_retrieval_index() const { return index_ != nullptr; }

  /// Appends every violated matcher invariant to `report` (config
  /// threshold ordering, graph linearity, tracked-table/graph agreement,
  /// rear-view depth <= k). Debug builds run this automatically at every
  /// step boundary; see src/matching/validate.h.
  void Validate(somr::ValidationReport* report) const;

 private:
  // The snapshot subsystem persists and restores the full matcher state
  // (pool, tracked windows, graph, stats) for checkpointed ingestion.
  friend class somr::state::MatcherSerde;

  // Tests and benches pin the candidate generator through this peer
  // (tests/matching/matcher_test_peer.h); production never does.
  friend class TemporalMatcherTestPeer;

  /// Which exact candidate generator a step runs. kBySize is the only
  /// production value: sweep below kIndexMinTracked tracked objects, the
  /// retrieval index from there on.
  enum class CandidateGen : uint8_t { kBySize, kSweep, kIndex };

  struct Tracked {
    int64_t id = 0;
    std::deque<FlatBag> recent_flat;  // rear-view window: oldest..newest
    int last_position = 0;
    int first_revision = 0;
    int last_revision = 0;
  };

  /// One matching stage's parameters, shared between the stage loop and
  /// the candidate enumerators.
  struct StageSpec {
    int number = 0;             // 1..3, for stats and provenance
    bool local_only = false;    // stage 1: positional neighborhood only
    sim::SimilarityKind kind = sim::SimilarityKind::kStrict;
    double threshold = 0.0;
    size_t* match_counter = nullptr;  // stats_.stageN_matches
    const char* span_name = "";       // static, for SOMR_TRACE_SCOPE
  };

  void ProcessRevisionFlat(
      int revision_index,
      const std::vector<extract::ObjectInstance>& instances);

  /// Runs the enabled matching stages over the unmatched pairs.
  /// `enumerate(stage, tracked_matched, incoming_matched, &pairs)` fills
  /// `pairs` with the stage's candidate pairs in ascending (tracked,
  /// incoming) order — either the full sweep or the retrieval-index
  /// shortlist; `sim_at_least(kind, threshold, ti, ni)` returns the
  /// exact decayed similarity, or -infinity when the pair is provably
  /// below `threshold`; `prefill(kind, threshold, pairs, out)` may fill
  /// `out[k]` with the sim_at_least value of `pairs[k]` for the whole
  /// stage at once (the intra-step parallel path) and return true, or
  /// return false to keep the lazy per-pair path; `describe_pair(kind,
  /// ti, ni, &decision)` fills the rear-view fields of a provenance
  /// record (called only for candidate edges, and only while a
  /// provenance sink is attached). `considered_per_ni` accumulates how
  /// many candidate pairs each incoming instance appeared in across all
  /// stages (provenance: candidates_considered).
  template <typename EnumerateFn, typename SimFn, typename PrefillFn,
            typename DescribeFn>
  void RunStages(int revision_index,
                 const std::vector<extract::ObjectInstance>& instances,
                 EnumerateFn&& enumerate, SimFn&& sim_at_least,
                 PrefillFn&& prefill, DescribeFn&& describe_pair,
                 std::vector<int64_t>& assignment,
                 std::vector<uint32_t>& considered_per_ni);

  /// Applies `assignment` to the graph: appends matched instances to
  /// their objects, creates new objects for the rest (Alg. 1 line 7),
  /// and updates each touched object's rear-view history via
  /// `append_bag(tracked, ni)`.
  template <typename AppendFn>
  void CommitAssignments(
      int revision_index,
      const std::vector<extract::ObjectInstance>& instances,
      const std::vector<int64_t>& assignment,
      const std::vector<uint32_t>& considered_per_ni,
      AppendFn&& append_bag);

  /// True when the next step should generate candidates from the
  /// retrieval index (see CandidateGen).
  bool WantsIndex() const;

  /// Rebuilds everything derivable from the core state (tracked windows,
  /// pool, config): the retrieval index and the incremental IOF document
  /// frequencies, when WantsIndex(); otherwise drops them. Called before
  /// the first indexed step and by the snapshot loader after restoring
  /// the core state — an index rebuilt here retrieves identically to one
  /// maintained incrementally, which is why snapshots don't serialize it.
  void RebuildDerivedState();

  /// Drops the bag cache: the next step builds every bag. The snapshot
  /// loader calls this after restoring the core state, because the cache
  /// names tracked objects of the state it was filled in.
  void ClearBagCache() { bag_cache_ = BagCache(); }

  /// Tie-break perturbation added to a similarity score; strictly smaller
  /// than any meaningful similarity difference. The position and
  /// lifetime components are also reported separately in provenance
  /// records, hence the split accessor.
  void TieBreakParts(const Tracked& tracked, int new_position,
                     int revision_index, double* position_part,
                     double* lifetime_part) const;
  double TieBreakBonus(const Tracked& tracked, int new_position,
                       int revision_index) const;

  extract::ObjectType type_;
  MatcherConfig config_;
  IdentityGraph graph_;
  MatchStats stats_;
  // False once any processed revision contained duplicate position
  // ranks (a tolerated caller bug): from then on (revision, position)
  // no longer identifies an instance, so Validate skips the
  // graph-linearity claim-uniqueness check. Not persisted by snapshots —
  // a restored matcher conservatively assumes well-formed history.
  bool input_positions_unique_ = true;
  std::vector<Tracked> tracked_;
  TokenPool pool_;                  // page-lifetime token interning
  sim::DenseTokenWeights weights_;  // per-step IDF weights
  CandidateGen candidate_gen_ = CandidateGen::kBySize;
  /// Inverted index over the rear-view window envelopes, built once
  /// WantsIndex() holds; never serialized — see RebuildDerivedState.
  std::unique_ptr<retrieval::CandidateIndex> index_;
  /// Lazy per-(tracked, window-slot) weighted totals for the indexed
  /// path, stamped per step so only retrieval candidates pay for them
  /// (the swept path precomputes a dense CSR instead). Stride is the
  /// rear-view window.
  std::vector<double> hist_total_cache_;
  std::vector<uint64_t> hist_total_stamp_;
  uint64_t step_serial_ = 0;
  /// The previous step's instance keys: an incoming instance with the
  /// same bag-relevant bytes reuses that instance's bag, the newest
  /// window bag of the object it went to (see BagCache). Derived state:
  /// never serialized, cold after a restore.
  BagCache bag_cache_;
  /// Incoming bags reused from bag_cache_ / built by BuildFlatBag since
  /// construction (feed the somr_match_bags_*_total counters).
  size_t bags_reused_ = 0;
  size_t bags_built_ = 0;
  /// Candidate pairs enumerated across all stages of the last step (the
  /// step provenance record's candidates_considered).
  size_t last_step_candidates_ = 0;
  obs::ProvenanceSink* provenance_ = nullptr;  // optional, not owned
  parallel::Executor* executor_ = nullptr;     // optional, not owned
};

/// Convenience driver that runs three TemporalMatchers (tables, infoboxes,
/// lists) over a stream of PageObjects.
class PageMatcher {
 public:
  explicit PageMatcher(MatcherConfig config = {});

  void ProcessRevision(int revision_index,
                       const extract::PageObjects& objects);

  /// Attaches a provenance sink to all three matchers (nullptr detaches).
  void SetProvenanceSink(obs::ProvenanceSink* sink);

  /// Attaches an executor to all three matchers (nullptr detaches).
  void SetExecutor(parallel::Executor* executor);

  const IdentityGraph& GraphFor(extract::ObjectType type) const;
  const MatchStats& StatsFor(extract::ObjectType type) const;

  IdentityGraph TakeGraph(extract::ObjectType type);
  MatchStats TakeStats(extract::ObjectType type);

  /// Validates all three per-type matchers into `report`.
  void Validate(somr::ValidationReport* report) const;

  const MatcherConfig& config() const { return tables_.config(); }

 private:
  friend class somr::state::MatcherSerde;

  TemporalMatcher& MatcherFor(extract::ObjectType type);

  TemporalMatcher tables_;
  TemporalMatcher infoboxes_;
  TemporalMatcher lists_;
};

}  // namespace somr::matching
