#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "sim/similarity.h"
#include "text/flat_bag.h"

namespace somr {
class ValidationReport;
}

namespace somr::retrieval {

/// Cumulative retrieval work counters. Monotone over the index lifetime;
/// the matcher publishes per-step deltas to the obs metrics registry.
struct RetrievalStats {
  uint64_t queries = 0;
  uint64_t postings_scanned = 0;   // postings visited by list walks
  uint64_t wand_skips = 0;         // postings skipped by early termination
  uint64_t candidates_pruned = 0;  // candidates rejected by the theta bound
  uint64_t compactions = 0;        // stale-posting garbage collections
};

/// One retrieval candidate: a tracked object sharing at least one query
/// token with at least one live window version. `overlap_bound` is the
/// weighted overlap of the query with the object's rear-view envelope,
///   sum_t w_t * min(count_query(t), max_v count_v(t)),
/// an upper bound on the overlap against EVERY live window version v;
/// when the walk early-terminated, RetrievalResult::slack must be added
/// before the bound is compared against anything.
struct Candidate {
  uint32_t object = 0;
  double overlap_bound = 0.0;
};

struct RetrievalResult {
  std::vector<Candidate> candidates;  // ascending by object id
  /// Weighted query mass of the terms the walk never visited (0 unless
  /// WAND early termination fired). Untouched objects can still overlap
  /// the query by up to this much, and touched candidates' bounds are
  /// low by up to this much.
  double slack = 0.0;
};

/// Incremental inverted index over interned token ids, maintained
/// alongside the matcher's rear-view FlatBag windows (DESIGN.md §12).
///
/// The index stores each object's rear-view envelope: the per-token max
/// count over the bags of its window. One posting list per token id; a
/// posting records (object, generation, envelope count), so an object has
/// exactly one live posting per token it holds in any window version.
/// When a window rolls, the envelope is re-posted under the object's next
/// generation and the old one goes stale at once: a posting is live iff
/// its generation is the object's current one, so list walks skip stale
/// entries by comparing two integers. Compaction rewrites the lists once
/// stale entries dominate; because queries consult live postings only,
/// when it runs is unobservable in retrieval results — an index rebuilt
/// from the windows alone (snapshot restore) retrieves identically to one
/// that was maintained incrementally.
///
/// Query-time scoring is a document-at-a-time accumulation with
/// WAND-style early termination: query terms are walked in descending
/// order of their score caps w_t * count_query(t), and once the mass of
/// the unvisited terms can no longer lift any object to the strict
/// threshold, the remaining (typically long, low-weight) lists are
/// skipped wholesale. Caps depend only on the query and the weights —
/// never on index state — so early termination is deterministic too.
class CandidateIndex {
 public:
  /// Stale postings are compacted away once they outnumber live ones and
  /// number at least this many; the floor keeps tiny indexes from
  /// compacting constantly.
  static constexpr uint64_t kCompactionFloor = 1024;

  /// `window` is the matcher's rear-view window (>= 1): the most bags a
  /// window passed to UpdateWindow holds.
  explicit CandidateIndex(size_t window);

  /// Replaces `object`'s envelope with the per-token max over `window`
  /// (the object's rear-view bags, oldest first, at most window() of
  /// them): the new envelope is posted under a fresh generation and the
  /// previous one is retired to compaction. Object ids may arrive in any
  /// order; the id space is grown as needed. The index keeps no reference
  /// to `window`.
  void UpdateWindow(uint32_t object, const std::deque<FlatBag>& window);

  /// All objects sharing >= 1 token with `query`, each with its weighted
  /// overlap upper bound. `theta` is the lowest similarity threshold the
  /// caller still cares about; with `allow_early_exit` the strict-kind
  /// cap sim <= overlap / total_b justifies skipping tail terms (callers
  /// scoring relaxed containment from the same result must pass false —
  /// containment has no query-side cap). `query_weighted_total` must be
  /// WeightedTotal(query, weights).
  void RetrieveOverlaps(const FlatBag& query,
                        const sim::DenseTokenWeights& weights,
                        double query_weighted_total, double theta,
                        bool allow_early_exit, RetrievalResult* out);

  /// Objects whose window includes an empty bag (empty vs empty scores
  /// similarity 1, so an empty query must consider them). Ascending.
  void ValidEmptyObjects(std::vector<uint32_t>* out) const;

  size_t window() const { return window_; }
  size_t object_count() const { return generation_.size(); }

  const RetrievalStats& stats() const { return stats_; }
  RetrievalStats* mutable_stats() { return &stats_; }

  /// Cross-checks every live posting against the envelopes of the actual
  /// window contents (`windows[object]` = the matcher's recent_flat deque,
  /// oldest first). Appends one issue per inconsistency. See
  /// ValidateCandidateIndex.
  void Validate(const std::vector<const std::deque<FlatBag>*>& windows,
                ValidationReport* report) const;

 private:
  struct Posting {
    uint32_t object = 0;
    uint32_t generation = 0;  // generation_[object] when posted
    double count = 0.0;       // envelope count (0 in empty_postings_)
  };

  bool Live(const Posting& p) const {
    return p.generation == generation_[p.object];
  }

  void EnsureScratch(size_t object_count);
  void MaybeCompact();

  size_t window_;
  std::vector<std::vector<Posting>> lists_;  // by token id
  std::vector<Posting> empty_postings_;      // windows holding an empty bag
  std::vector<uint32_t> generation_;         // per object, 0 = never posted
  std::vector<uint32_t> live_postings_;      // per object, incl. empty flag
  uint64_t total_postings_ = 0;              // live + stale across lists
  uint64_t dead_postings_ = 0;               // retired envelope postings

  // Envelope scratch for UpdateWindow.
  std::vector<FlatEntry> envelope_;
  struct Cursor {
    const FlatEntry* at = nullptr;
    const FlatEntry* end = nullptr;
  };
  std::vector<Cursor> cursors_;

  // Query scratch, stamped so clears are O(touched), never O(objects).
  std::vector<double> acc_;          // per object: accumulated bound
  std::vector<uint64_t> acc_mark_;   // stamp: acc_ valid this query
  std::vector<uint32_t> touched_;    // objects with acc_ set this query
  uint64_t query_serial_ = 0;

  struct TermRef {
    uint32_t id = 0;
    double cap = 0.0;  // weight * query count: max per-object contribution
    double count = 0.0;
    double weight = 0.0;
  };
  std::vector<TermRef> terms_;  // per-query scratch

  RetrievalStats stats_;
};

}  // namespace somr::retrieval
