// Tests for the incremental inverted index (src/retrieval/): envelope
// bounds against brute-force overlap oracles under randomized window
// churn, generation liveness on window roll, compaction invisibility and
// the bound it keeps on stale postings, WAND early-termination
// accounting, the window validator, and bit-equality of the SIMD
// galloping intersection backends.

#include "retrieval/candidate_index.h"

#include <algorithm>
#include <deque>
#include <map>
#include <numeric>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "retrieval/validate.h"
#include "sim/simd_intersect.h"
#include "sim/similarity.h"
#include "text/flat_bag.h"

namespace somr::retrieval {
namespace {

FlatBag MakeBag(std::vector<uint32_t> ids) {
  return FlatBag::FromTokenIds(std::move(ids));
}

// Exact weighted overlap sum_t w_t * min(count_a, count_b).
double Overlap(const FlatBag& a, const FlatBag& b,
               const sim::DenseTokenWeights& weights) {
  return sim::WeightedSumMin(a, b, weights);
}

using Windows = std::vector<std::deque<FlatBag>>;

// Rolls `bag` into `object`'s window, evicting beyond the index window,
// and hands the window to the index, as the matcher's commit does.
void Roll(CandidateIndex& index, Windows& windows, uint32_t object,
          FlatBag bag) {
  if (object >= windows.size()) windows.resize(object + 1);
  std::deque<FlatBag>& window = windows[object];
  window.push_back(std::move(bag));
  while (window.size() > index.window()) window.pop_front();
  index.UpdateWindow(object, window);
}

void ExpectValid(const CandidateIndex& index, const Windows& windows) {
  ValidationReport report;
  std::vector<const std::deque<FlatBag>*> window_ptrs;
  for (const std::deque<FlatBag>& w : windows) window_ptrs.push_back(&w);
  ValidateCandidateIndex(index, window_ptrs, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(CandidateIndexTest, RetrievesSharedTokenObjects) {
  CandidateIndex index(/*window=*/3);
  Windows windows;
  sim::DenseTokenWeights weights;
  weights.BuildUniform();
  Roll(index, windows, 0, MakeBag({1, 2, 3}));
  Roll(index, windows, 1, MakeBag({7, 8}));
  Roll(index, windows, 2, MakeBag({3, 4}));

  FlatBag query = MakeBag({2, 3, 9});
  RetrievalResult result;
  index.RetrieveOverlaps(query, weights, query.TotalCount(), /*theta=*/0.1,
                         /*allow_early_exit=*/false, &result);
  ASSERT_EQ(result.candidates.size(), 2u);
  EXPECT_EQ(result.slack, 0.0);
  EXPECT_EQ(result.candidates[0].object, 0u);
  EXPECT_EQ(result.candidates[1].object, 2u);
  // Object 0 shares {2, 3}, object 2 shares {3}.
  EXPECT_DOUBLE_EQ(result.candidates[0].overlap_bound, 2.0);
  EXPECT_DOUBLE_EQ(result.candidates[1].overlap_bound, 1.0);
}

TEST(CandidateIndexTest, EvictedVersionsStopMatching) {
  CandidateIndex index(/*window=*/1);
  Windows windows;
  sim::DenseTokenWeights weights;
  weights.BuildUniform();
  Roll(index, windows, 0, MakeBag({1, 2}));
  Roll(index, windows, 0, MakeBag({5, 6}));  // evicts {1, 2} (window 1)

  FlatBag query = MakeBag({1, 2});
  RetrievalResult result;
  index.RetrieveOverlaps(query, weights, query.TotalCount(), 0.1,
                         /*allow_early_exit=*/false, &result);
  EXPECT_TRUE(result.candidates.empty());
}

TEST(CandidateIndexTest, ValidEmptyObjectsTracksLiveEmptyVersions) {
  CandidateIndex index(/*window=*/2);
  Windows windows;
  Roll(index, windows, 0, MakeBag({1}));
  Roll(index, windows, 1, MakeBag({}));  // empty version
  Roll(index, windows, 2, MakeBag({2}));
  Roll(index, windows, 2, MakeBag({}));

  std::vector<uint32_t> empties;
  index.ValidEmptyObjects(&empties);
  EXPECT_EQ(empties, (std::vector<uint32_t>{1, 2}));

  // Roll object 1's window until the empty version dies.
  Roll(index, windows, 1, MakeBag({3}));
  Roll(index, windows, 1, MakeBag({4}));
  index.ValidEmptyObjects(&empties);
  EXPECT_EQ(empties, (std::vector<uint32_t>{2}));
  ExpectValid(index, windows);
}

// Reference: per-object max overlap against every live window version,
// computed from the windows directly.
std::map<uint32_t, double> BruteOverlaps(
    const Windows& windows, const FlatBag& query,
    const sim::DenseTokenWeights& weights) {
  std::map<uint32_t, double> best;
  for (size_t o = 0; o < windows.size(); ++o) {
    for (const FlatBag& bag : windows[o]) {
      double ov = Overlap(bag, query, weights);
      if (ov > 0.0) {
        auto [it, inserted] =
            best.emplace(static_cast<uint32_t>(o), ov);
        if (!inserted) it->second = std::max(it->second, ov);
      }
    }
  }
  return best;
}

// Reference: per-object overlap with the max-over-window envelope,
// sum_t w_t * min(count_query(t), max_v count_v(t)), computed per token
// from the windows directly.
double BruteEnvelopeOverlap(const std::deque<FlatBag>& window,
                            const FlatBag& query,
                            const sim::DenseTokenWeights& weights) {
  double overlap = 0.0;
  for (const FlatEntry& e : query.entries()) {
    double best = 0.0;
    for (const FlatBag& bag : window) best = std::max(best, bag.Count(e.id));
    overlap += weights.Weight(e.id) * std::min(e.count, best);
  }
  return overlap;
}

TEST(CandidateIndexTest, RandomizedBoundsAreSoundUnderChurn) {
  Rng rng(20260809);
  const size_t kWindow = 3;
  const size_t kObjects = 24;
  CandidateIndex index(kWindow);
  Windows windows(kObjects);
  sim::DenseTokenWeights weights;
  weights.BuildUniform();

  auto random_bag = [&rng]() {
    std::vector<uint32_t> ids;
    const int len = static_cast<int>(rng.UniformInt(0, 18));
    for (int i = 0; i < len; ++i) {
      ids.push_back(static_cast<uint32_t>(rng.UniformInt(0, 60)));
    }
    return MakeBag(std::move(ids));
  };

  // Seed one version per object, then churn for a few hundred rolls.
  for (size_t o = 0; o < kObjects; ++o) {
    Roll(index, windows, static_cast<uint32_t>(o), random_bag());
  }
  for (int step = 0; step < 300; ++step) {
    Roll(index, windows, static_cast<uint32_t>(rng.Index(kObjects)),
         random_bag());

    if (step % 10 != 0) continue;
    FlatBag query = random_bag();
    if (query.empty()) continue;
    RetrievalResult result;
    index.RetrieveOverlaps(query, weights, query.TotalCount(), 0.0,
                           /*allow_early_exit=*/false, &result);
    EXPECT_EQ(result.slack, 0.0);
    std::map<uint32_t, double> brute = BruteOverlaps(windows, query, weights);
    // Every overlapping object is retrieved with a bound at or above its
    // true max overlap, and nothing else is. The bound is tight: it is
    // the query's overlap with the object's envelope, no looser.
    ASSERT_EQ(result.candidates.size(), brute.size());
    for (const Candidate& c : result.candidates) {
      auto it = brute.find(c.object);
      ASSERT_NE(it, brute.end()) << "phantom candidate " << c.object;
      EXPECT_GE(c.overlap_bound, it->second - 1e-12)
          << "bound below true overlap for object " << c.object;
      EXPECT_NEAR(c.overlap_bound,
                  BruteEnvelopeOverlap(windows[c.object], query, weights),
                  1e-12)
          << "bound is not the envelope overlap for object " << c.object;
    }
  }

  // The index still agrees with the windows after all the churn.
  ExpectValid(index, windows);
}

TEST(CandidateIndexTest, CompactionIsInvisibleToQueries) {
  // Churn one index hard enough to trigger compaction, then compare its
  // retrieval output against a fresh index holding only the live bags.
  const size_t kWindow = 2;
  CandidateIndex churned(kWindow);
  Rng rng(7);
  Windows windows(4);
  for (int step = 0; step < 4000; ++step) {
    const size_t o = rng.Index(windows.size());
    std::vector<uint32_t> ids;
    for (int i = 0; i < 6; ++i) {
      ids.push_back(static_cast<uint32_t>(rng.UniformInt(0, 9)));
    }
    Roll(churned, windows, static_cast<uint32_t>(o), MakeBag(std::move(ids)));
  }
  EXPECT_GT(churned.stats().compactions, 0u);

  CandidateIndex fresh(kWindow);
  for (size_t o = 0; o < windows.size(); ++o) {
    fresh.UpdateWindow(static_cast<uint32_t>(o), windows[o]);
  }

  sim::DenseTokenWeights weights;
  weights.BuildUniform();
  for (uint32_t t = 0; t < 10; ++t) {
    FlatBag query = MakeBag({t, t, 9 - t});
    RetrievalResult a, b;
    churned.RetrieveOverlaps(query, weights, query.TotalCount(), 0.0,
                             /*allow_early_exit=*/false, &a);
    fresh.RetrieveOverlaps(query, weights, query.TotalCount(), 0.0,
                           /*allow_early_exit=*/false, &b);
    ASSERT_EQ(a.candidates.size(), b.candidates.size());
    for (size_t i = 0; i < a.candidates.size(); ++i) {
      EXPECT_EQ(a.candidates[i].object, b.candidates[i].object);
      // Bit-identical: both walks see the same live postings in the same
      // term order.
      EXPECT_EQ(a.candidates[i].overlap_bound, b.candidates[i].overlap_bound);
    }
  }
}

TEST(CandidateIndexTest, StalePostingsStayBoundedUnderChurn) {
  // Every roll retires a whole envelope; compaction must keep a full walk
  // within twice the live envelope postings of the query's terms (plus
  // the compaction floor), however long the churn runs.
  const size_t kWindow = 5;
  const size_t kObjects = 40;
  const uint32_t kVocabulary = 200;
  CandidateIndex index(kWindow);
  Windows windows(kObjects);
  Rng rng(31337);
  std::vector<uint32_t> every_token(kVocabulary);
  std::iota(every_token.begin(), every_token.end(), 0u);
  const FlatBag query = MakeBag(every_token);
  sim::DenseTokenWeights weights;
  weights.BuildUniform();

  uint64_t most_stale_seen = 0;
  for (int step = 0; step < 6000; ++step) {
    std::vector<uint32_t> ids;
    for (int i = 0; i < 30; ++i) {
      ids.push_back(static_cast<uint32_t>(rng.UniformInt(0, kVocabulary - 1)));
    }
    Roll(index, windows, static_cast<uint32_t>(rng.Index(kObjects)),
         MakeBag(std::move(ids)));

    if (step % 250 != 0) continue;
    // Live envelope postings of the query's terms: per term, the objects
    // whose window holds it.
    uint64_t live = 0;
    for (const FlatEntry& e : query.entries()) {
      for (const std::deque<FlatBag>& window : windows) {
        live += std::any_of(window.begin(), window.end(),
                            [&](const FlatBag& bag) {
                              return bag.Count(e.id) > 0.0;
                            })
                    ? 1
                    : 0;
      }
    }
    const uint64_t before = index.stats().postings_scanned;
    RetrievalResult result;
    index.RetrieveOverlaps(query, weights, query.TotalCount(), 0.0,
                           /*allow_early_exit=*/false, &result);
    const uint64_t scanned = index.stats().postings_scanned - before;
    EXPECT_GE(scanned, live);
    EXPECT_LE(scanned, 2 * live + CandidateIndex::kCompactionFloor)
        << "at step " << step;
    most_stale_seen = std::max(most_stale_seen, scanned - live);
  }
  EXPECT_GT(index.stats().compactions, 0u);
  EXPECT_GT(most_stale_seen, 0u);  // the walks did meet stale postings
  ExpectValid(index, windows);
}

TEST(CandidateIndexTest, WandEarlyExitSkipsTailAndReportsSlack) {
  // One object overlaps the query only through a low-cap tail term; with
  // a high theta the walk may stop early, but then the skipped mass is
  // surfaced as slack, keeping the bound sound.
  CandidateIndex index(/*window=*/2);
  Windows windows;
  sim::DenseTokenWeights weights;
  weights.BuildUniform();
  Roll(index, windows, 0, MakeBag({1, 1, 1, 2}));
  Roll(index, windows, 1, MakeBag({3}));

  FlatBag query = MakeBag({1, 1, 1, 3});
  RetrievalResult eager;
  index.RetrieveOverlaps(query, weights, query.TotalCount(), /*theta=*/0.9,
                         /*allow_early_exit=*/true, &eager);
  RetrievalResult full;
  index.RetrieveOverlaps(query, weights, query.TotalCount(), 0.9,
                         /*allow_early_exit=*/false, &full);
  EXPECT_EQ(full.slack, 0.0);
  // Soundness regardless of whether the exit fired: bound + slack covers
  // the exact overlap of every object the full walk found.
  for (const Candidate& f : full.candidates) {
    double covered = eager.slack;
    for (const Candidate& e : eager.candidates) {
      if (e.object == f.object) covered += e.overlap_bound;
    }
    EXPECT_GE(covered, f.overlap_bound - 1e-12);
  }
  EXPECT_GE(index.stats().wand_skips, 0u);
}

TEST(CandidateIndexTest, ValidatorCatchesWindowDisagreement) {
  CandidateIndex index(/*window=*/2);
  std::deque<FlatBag> posted;
  posted.push_back(MakeBag({1, 2}));
  index.UpdateWindow(0, posted);

  auto validate = [&index](const std::deque<FlatBag>& window) {
    ValidationReport report;
    std::vector<const std::deque<FlatBag>*> windows{&window};
    ValidateCandidateIndex(index, windows, &report);
    return report;
  };
  // Matching window: clean.
  {
    std::deque<FlatBag> good;
    good.push_back(MakeBag({1, 2}));
    ValidationReport report = validate(good);
    EXPECT_TRUE(report.ok()) << report.ToString();
  }
  // Window bag with a different count: flagged.
  {
    std::deque<FlatBag> bad;
    bad.push_back(MakeBag({1, 2, 2}));
    EXPECT_FALSE(validate(bad).ok());
  }
  // An older version raising a token's max: the envelope count is stale.
  {
    std::deque<FlatBag> higher_max;
    higher_max.push_back(MakeBag({1, 1}));
    higher_max.push_back(MakeBag({1, 2}));
    EXPECT_FALSE(validate(higher_max).ok());
  }
  // An empty version the index never saw: flagged.
  {
    std::deque<FlatBag> with_empty;
    with_empty.push_back(MakeBag({}));
    with_empty.push_back(MakeBag({1, 2}));
    EXPECT_FALSE(validate(with_empty).ok());
  }
  // Missing window entry entirely: flagged.
  {
    std::deque<FlatBag> empty_window;
    EXPECT_FALSE(validate(empty_window).ok());
  }
}

TEST(CandidateIndexTest, ValidatorIsRegistered) {
  bool found = false;
  for (const ValidatorInfo& info : RegisteredValidators()) {
    if (std::string_view(info.name) == "retrieval_index") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(SimdIntersectTest, LowerBoundMatchesStdLowerBound) {
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint32_t> ids;
    const int len = static_cast<int>(rng.UniformInt(0, 64));
    uint32_t v = 0;
    for (int i = 0; i < len; ++i) {
      v += static_cast<uint32_t>(rng.UniformInt(1, 5));
      ids.push_back(v);
    }
    const uint32_t needle = static_cast<uint32_t>(rng.UniformInt(0, 80));
    const size_t from = ids.empty() ? 0 : rng.Index(ids.size() + 1);
    const size_t expected = static_cast<size_t>(
        std::lower_bound(ids.begin() + static_cast<ptrdiff_t>(from),
                         ids.end(), needle) -
        ids.begin());
    EXPECT_EQ(sim::SimdLowerBound(ids.data(), from, ids.size(), needle),
              expected)
        << "len=" << len << " from=" << from << " needle=" << needle;
  }
}

TEST(SimdIntersectTest, BackendsAreBitIdentical) {
  const sim::SimdBackend active = sim::ActiveSimdBackend();
  Rng rng(4242);
  sim::DenseTokenWeights weights;
  weights.BuildUniform();
  for (int trial = 0; trial < 50; ++trial) {
    // Small vs large bag so the galloping path engages.
    std::vector<uint32_t> small_ids, large_ids;
    for (int i = 0; i < 5; ++i) {
      small_ids.push_back(static_cast<uint32_t>(rng.UniformInt(0, 400)));
    }
    for (int i = 0; i < 200; ++i) {
      large_ids.push_back(static_cast<uint32_t>(rng.UniformInt(0, 400)));
    }
    FlatBag small_bag = MakeBag(std::move(small_ids));
    FlatBag large_bag = MakeBag(std::move(large_ids));

    ASSERT_TRUE(sim::ForceSimdBackend(sim::SimdBackend::kScalar));
    const double scalar_sum = sim::SumMin(small_bag, large_bag);
    const double scalar_wsum =
        sim::WeightedSumMin(small_bag, large_bag, weights);
    ASSERT_TRUE(sim::ForceSimdBackend(active));
    EXPECT_EQ(sim::SumMin(small_bag, large_bag), scalar_sum);
    EXPECT_EQ(sim::WeightedSumMin(small_bag, large_bag, weights),
              scalar_wsum);
  }
}

TEST(SimdIntersectTest, GallopMatchesMergeJoin) {
  // The galloping path (asymmetric sizes) and the plain merge (similar
  // sizes) must agree bit for bit: compare SumMin of a pair against the
  // same multiset overlap computed through Ruzicka's identity.
  Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<uint32_t> a_ids, b_ids;
    for (int i = 0; i < 4; ++i) {
      a_ids.push_back(static_cast<uint32_t>(rng.UniformInt(0, 100)));
    }
    for (int i = 0; i < 120; ++i) {
      b_ids.push_back(static_cast<uint32_t>(rng.UniformInt(0, 100)));
    }
    FlatBag a = MakeBag(a_ids);
    FlatBag b = MakeBag(b_ids);
    // Brute-force overlap over the union of ids.
    double expected = 0.0;
    for (const FlatEntry& e : a.entries()) {
      expected += std::min(e.count, b.Count(e.id));
    }
    EXPECT_DOUBLE_EQ(sim::SumMin(a, b), expected);
    EXPECT_EQ(sim::SumMin(a, b), sim::SumMin(b, a));  // symmetric
  }
}

}  // namespace
}  // namespace somr::retrieval
