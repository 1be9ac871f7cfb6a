// Randomized differential test of the matcher's two exact candidate
// generators — the retrieval index (src/retrieval/) and the all-pairs
// sweep — and of the size rule that chooses between them: on seeded
// wikigen corpora and on a context that grows across the rule's constant
// mid-stream, pinned-sweep, pinned-index and rule-chosen runs must produce
// byte-identical identity graphs, outcome stats, and match provenance
// across every object type and config ablation, while the index scores at
// most as many pairs as the sweep. A Socrata-shaped lake context (tens of
// unordered tables, spatial features off: the setting where the index
// carries the matching work) is held to the same bar. Also covers
// snapshot restore around the switch (the index is rebuilt, the
// "retrieval_index" validator must pass).

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "archive/socrata.h"
#include "common/check.h"
#include "eval/harness.h"
#include "matching/graph_io.h"
#include "matching/growing_context.h"
#include "matching/matcher.h"
#include "matching/matcher_test_peer.h"
#include "obs/provenance.h"
#include "state/snapshot.h"
#include "wikigen/corpus.h"

namespace somr::matching {
namespace {

wikigen::GoldCorpus SmallCorpus(extract::ObjectType focal, uint64_t seed) {
  wikigen::CorpusConfig config;
  config.focal_type = focal;
  config.strata_caps = {1, 3};
  config.pages_per_stratum = 1;
  config.min_revisions = 12;
  config.max_revisions = 18;
  config.seed = seed;
  return wikigen::GenerateGoldCorpus(config);
}

using Generator = TemporalMatcherTestPeer::Generator;
using Slices = std::vector<std::vector<extract::ObjectInstance>>;

/// Outcome provenance of one run: every decision that shapes the graph,
/// excluding the work-rate fields (similarities, prunes, candidate
/// counts) that legitimately differ between swept and indexed runs.
struct Outcome {
  std::string graph;
  MatchStats stats;
  std::vector<std::string> decisions;
  std::vector<bool> indexed_after_step;  // has_retrieval_index() per step
};

class DecisionCollector : public obs::ProvenanceSink {
 public:
  void Record(const obs::MatchDecision& d) override {
    if (d.kind == obs::MatchDecision::Kind::kStep) return;  // work rates
    std::ostringstream line;
    line << obs::MatchDecisionKindName(d.kind) << " r" << d.revision
         << " s" << d.stage << " o" << d.object_id << " p" << d.position
         << " sim=" << d.similarity << " " << d.reason;
    decisions.push_back(line.str());
  }
  std::vector<std::string> decisions;
};

Outcome RunEngine(const Slices& revisions, extract::ObjectType type,
                  const MatcherConfig& config, Generator generator) {
  TemporalMatcher matcher(type, config);
  TemporalMatcherTestPeer::Pin(matcher, generator);
  DecisionCollector collector;
  matcher.SetProvenanceSink(&collector);
  Outcome outcome;
  for (size_t r = 0; r < revisions.size(); ++r) {
    matcher.ProcessRevision(static_cast<int>(r), revisions[r]);
    outcome.indexed_after_step.push_back(matcher.has_retrieval_index());
  }
  outcome.stats = matcher.stats();
  outcome.graph = SerializeIdentityGraph(matcher.graph());
  outcome.decisions = std::move(collector.decisions);
  return outcome;
}

/// Swept and indexed runs must agree on everything the graph is built
/// from; only work-rate counters may differ (indexed never scores more).
void ExpectEquivalent(const Outcome& swept, const Outcome& indexed) {
  SCOPED_TRACE("sweep vs index");
  EXPECT_EQ(swept.graph, indexed.graph);
  EXPECT_EQ(swept.stats.stage1_matches, indexed.stats.stage1_matches);
  EXPECT_EQ(swept.stats.stage2_matches, indexed.stats.stage2_matches);
  EXPECT_EQ(swept.stats.stage3_matches, indexed.stats.stage3_matches);
  EXPECT_EQ(swept.stats.new_objects, indexed.stats.new_objects);
  EXPECT_EQ(swept.decisions, indexed.decisions);
  EXPECT_LE(indexed.stats.similarities_computed,
            swept.stats.similarities_computed);
}

/// Pinned sweep, pinned index and the size rule all agree on `slices`;
/// returns the rule-chosen run.
Outcome ExpectGeneratorsAgree(const Slices& slices, extract::ObjectType type,
                              const MatcherConfig& config) {
  const Outcome swept = RunEngine(slices, type, config, Generator::kSweep);
  ExpectEquivalent(swept,
                   RunEngine(slices, type, config, Generator::kIndex));
  Outcome by_size = RunEngine(slices, type, config, Generator::kBySize);
  ExpectEquivalent(swept, by_size);
  return by_size;
}

void RunDifferential(extract::ObjectType focal, uint64_t seed,
                     MatcherConfig base) {
  wikigen::GoldCorpus corpus = SmallCorpus(focal, seed);
  xmldump::Dump dump = wikigen::CorpusToDump(corpus);
  for (const xmldump::PageHistory& page : dump.pages) {
    std::vector<extract::PageObjects> objects =
        eval::ExtractRevisionObjects(page);
    for (extract::ObjectType type :
         {extract::ObjectType::kTable, extract::ObjectType::kInfobox,
          extract::ObjectType::kList}) {
      ExpectGeneratorsAgree(eval::SliceType(objects, type), type, base);
    }
  }
}

class RetrievalEquivalenceTest
    : public ::testing::TestWithParam<extract::ObjectType> {};

TEST_P(RetrievalEquivalenceTest, IndexedMatchesSweptOnGoldCorpora) {
  for (uint64_t seed : {101u, 102u, 103u}) {
    RunDifferential(GetParam(), seed, MatcherConfig{});
  }
}

TEST_P(RetrievalEquivalenceTest, StrictOnlyConfigUsesWandExit) {
  // With stage 3 off, retrieval runs the WAND early-termination walk;
  // the slack accounting must keep it exact.
  MatcherConfig config;
  config.enable_stage3 = false;
  RunDifferential(GetParam(), 104, config);
}

TEST_P(RetrievalEquivalenceTest, AblationsStayEquivalent) {
  {
    MatcherConfig config;  // no positional stage
    config.enable_stage1 = false;
    RunDifferential(GetParam(), 105, config);
  }
  {
    MatcherConfig config;  // uniform weights
    config.use_idf_weighting = false;
    RunDifferential(GetParam(), 106, config);
  }
  {
    MatcherConfig config;  // minimal rear-view window
    config.rear_view_window = 1;
    RunDifferential(GetParam(), 107, config);
  }
  {
    MatcherConfig config;  // theta <= 0 falls back to the sweep
    config.theta3 = 0.0;
    RunDifferential(GetParam(), 108, config);
  }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, RetrievalEquivalenceTest,
                         ::testing::Values(extract::ObjectType::kTable,
                                           extract::ObjectType::kInfobox,
                                           extract::ObjectType::kList));

// A context that grows across TemporalMatcher::kIndexMinTracked: the
// rule-chosen run sweeps first and indexes after, and still agrees with
// both pinned runs under every ablation the gold corpora above cover.
TEST(RetrievalSwitchTest, ContextGrowingAcrossTheConstantAgrees) {
  std::vector<MatcherConfig> configs(5);
  configs[1].enable_stage3 = false;
  configs[2].enable_stage1 = false;
  configs[3].use_idf_weighting = false;
  configs[4].rear_view_window = 1;
  for (uint64_t seed : {201u, 202u}) {
    const Slices slices = eval::SliceType(GrowingContext(seed),
                                          extract::ObjectType::kTable);
    for (const MatcherConfig& config : configs) {
      Outcome by_size =
          ExpectGeneratorsAgree(slices, extract::ObjectType::kTable, config);
      ASSERT_FALSE(by_size.indexed_after_step.front());
      ASSERT_TRUE(by_size.indexed_after_step.back());
      EXPECT_GT(by_size.stats.stage2_matches + by_size.stats.stage3_matches,
                0u);
      EXPECT_GT(by_size.stats.new_objects, 0u);
    }
  }
}

// One data-lake context (archive::GenerateSocrata: 80 large tables, 6
// snapshots, no page order) crosses the size rule's constant after its
// first snapshot. All three runs agree on the graph and every outcome
// counter, and the rule-chosen run, which indexes from the second
// snapshot on, does exactly the pinned index run's work.
TEST(RetrievalLakeTest, SocrataContextAgrees) {
  archive::SocrataConfig lake;
  lake.subdomains = {"lake"};
  lake.datasets_per_subdomain = 80;
  lake.num_snapshots = 6;
  lake.seed = 301;
  const std::vector<archive::SocrataContext> contexts =
      archive::GenerateSocrata(lake);
  ASSERT_EQ(contexts.size(), 1u);
  const Slices& snapshots = contexts[0].snapshots;
  ASSERT_GE(snapshots.front().size(), TemporalMatcher::kIndexMinTracked);

  MatcherConfig config;
  config.use_spatial_features = false;
  const Outcome indexed = RunEngine(snapshots, extract::ObjectType::kTable,
                                    config, Generator::kIndex);
  const Outcome by_size =
      ExpectGeneratorsAgree(snapshots, extract::ObjectType::kTable, config);
  ExpectEquivalent(indexed, by_size);
  EXPECT_EQ(indexed.stats.similarities_computed,
            by_size.stats.similarities_computed);
  EXPECT_EQ(indexed.stats.pairs_pruned, by_size.stats.pairs_pruned);
  ASSERT_FALSE(by_size.indexed_after_step.front());
  ASSERT_TRUE(by_size.indexed_after_step[1]);
  EXPECT_GT(by_size.stats.stage2_matches + by_size.stats.stage3_matches,
            0u);
}

// Full and delta snapshots taken one step before, at and one step after
// the size rule switches to the index restore and continue to the
// byte-identical graphs and the counters of an uninterrupted run: the
// restored matcher rebuilds its index under the same rule, so it switches
// at the same step, and the "retrieval_index" validator passes on the
// rebuilt index.
TEST(RetrievalSnapshotTest, RestoredIndexValidatesAndContinuesIdentically) {
  const std::vector<extract::PageObjects> history = GrowingContext(203);
  auto extend = [&](state::PageState& state, size_t limit) {
    for (size_t r = state.revisions_ingested; r < limit; ++r) {
      state.matcher.ProcessRevision(static_cast<int>(r), history[r]);
      state.revisions.push_back(history[r]);
      state.timestamps.push_back(static_cast<UnixSeconds>(r));
      ++state.revisions_ingested;
    }
  };
  auto snapshot = [](const state::PageState& state) {
    std::ostringstream out;
    EXPECT_TRUE(state::SavePageSnapshot(state, out).ok());
    return out.str();
  };
  auto continue_and_compare = [&](state::PageState& resumed,
                                  const std::string& expected) {
    ValidationReport report;
    resumed.matcher.Validate(&report);
    EXPECT_TRUE(report.ok()) << report.ToString();
    extend(resumed, history.size());
    EXPECT_EQ(StateFingerprint(resumed), expected);
  };

  // The step whose candidates first come from the index.
  size_t switch_step = 0;
  TemporalMatcher probe(extract::ObjectType::kTable);
  while (!probe.has_retrieval_index()) {
    ASSERT_LT(switch_step, history.size());
    probe.ProcessRevision(static_cast<int>(switch_step),
                          history[switch_step].tables);
    if (!probe.has_retrieval_index()) ++switch_step;
  }
  ASSERT_GE(switch_step, 2u);

  state::PageState uninterrupted;
  uninterrupted.title = "growing";
  extend(uninterrupted, history.size());
  const std::string expected = StateFingerprint(uninterrupted);

  for (size_t cut : {switch_step - 1, switch_step, switch_step + 1}) {
    SCOPED_TRACE("cut after " + std::to_string(cut) + " revisions");
    state::PageState state;
    state.title = "growing";
    extend(state, 1);
    const std::string anchor = snapshot(state);
    const state::SnapshotWatermark base = state::CaptureWatermark(state);
    extend(state, cut);

    std::istringstream full_in(snapshot(state));
    state::PageState from_full;
    ASSERT_TRUE(
        state::LoadPageSnapshot(full_in, MatcherConfig{}, &from_full).ok());
    continue_and_compare(from_full, expected);

    std::ostringstream delta;
    ASSERT_TRUE(state::SavePageDelta(state, base, delta).ok());
    std::istringstream anchor_in(anchor);
    std::istringstream delta_in(delta.str());
    state::PageState from_delta;
    ASSERT_TRUE(
        state::LoadPageSnapshot(anchor_in, MatcherConfig{}, &from_delta)
            .ok());
    ASSERT_TRUE(
        state::ApplyPageDelta(delta_in, MatcherConfig{}, &from_delta).ok());
    continue_and_compare(from_delta, expected);
  }
}

}  // namespace
}  // namespace somr::matching
