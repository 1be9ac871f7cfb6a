// The matcher's exact bag cache: an incoming instance whose bag-relevant
// bytes equal an instance of the previous revision reuses that instance's
// bag instead of tokenizing and interning again. The cache must be
// invisible in every output: graphs and match decisions equal the
// string-bag reference oracle's, MatchStats counters equal those of a
// matcher whose cache is cold at every step, and the pool interns the
// same spellings in the same order as compiling every bag from scratch.
// Its own accounting is exact too: the reuse counter is the number of
// instances whose bytes recur from the previous revision.

#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "archive/socrata.h"
#include "common/check.h"
#include "extract/features.h"
#include "matching/graph_io.h"
#include "matching/growing_context.h"
#include "matching/matcher.h"
#include "matching/matcher_test_peer.h"
#include "matching/reference_matcher.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "state/snapshot.h"

namespace somr::matching {
namespace {

using extract::ObjectInstance;
using extract::ObjectType;
using Slices = std::vector<std::vector<ObjectInstance>>;
using Peer = TemporalMatcherTestPeer;

ObjectInstance Table(std::vector<std::vector<std::string>> rows,
                     std::string caption = "",
                     std::vector<std::string> sections = {}) {
  ObjectInstance t;
  t.type = ObjectType::kTable;
  t.rows = std::move(rows);
  t.caption = std::move(caption);
  t.section_path = std::move(sections);
  if (!t.rows.empty()) t.schema = t.rows.front();
  return t;
}

std::vector<ObjectInstance> Revision(std::vector<ObjectInstance> tables) {
  for (size_t i = 0; i < tables.size(); ++i) {
    tables[i].position = static_cast<int>(i);
  }
  return tables;
}

/// One stream with every case the cache distinguishes: unchanged,
/// one cell edited, moved (position only), reverted to the content of
/// two revisions back, duplicated within one revision, emptied, deleted
/// and re-added after an empty revision, caption and section edits.
Slices EditStream() {
  const ObjectInstance a =
      Table({{"Year", "Film", "Role"},
             {"2001", "Alpha Film", "Lead"},
             {"2003", "Beta Story (extended cut)", "Support"}},
            "Filmography", {"Career", "Film"});
  const ObjectInstance b = Table(
      {{"City", "Population"}, {"Z\xc3\xbcrich", "421878"}, {"Basel", "177595"}},
      "Cities", {"Geography"});
  ObjectInstance b_edited = b;
  b_edited.rows[2][1] = "178120";
  const ObjectInstance c =
      Table({{"Season", "Team", "Apps", "Goals"},
             {"2010-11", "Rovers", "31", "12"},
             {"2011-12", "Rovers", "28", "9"},
             {"2012-13", "United", "35", "17"}},
            "", {"Club career"});
  const ObjectInstance d = Table(
      {{"Award", "Category"}, {"Golden Reel", "Best Editing"}}, "Awards");
  const ObjectInstance e =
      Table({{"Album", "Label"}, {"First Light", "Northern Records"}});
  const ObjectInstance emptied = Table({}, "", {});
  const ObjectInstance f =
      Table({{"Stage", "Winner"}, {"1", "A. Rider"}, {"2", "B. Climber"}});
  ObjectInstance a_recaptioned = a;
  a_recaptioned.caption = "Selected filmography";
  ObjectInstance d_resectioned = d;
  d_resectioned.section_path = {"Honours"};

  return {
      Revision({a, b, c, d, e}),
      Revision({a, b_edited, d, c, emptied, a}),  // moved c/d, duplicate a
      Revision({a, b, d, c, emptied, a}),         // b reverted two back
      Revision({a, b, f, c, d}),                  // e gone, f new
      Revision({}),                               // empty revision
      Revision({a, b, c, d, f}),                  // all back after a gap
      Revision({a_recaptioned, b, c, d_resectioned, f}),
      Revision({a_recaptioned, b, c, d_resectioned, f, f}),
  };
}

/// The bytes BuildFlatBag reads, as a comparable value — written
/// independently of AppendFlatBagKey.
using BagInput = std::tuple<std::vector<std::vector<std::string>>,
                            std::string, std::vector<std::string>>;

BagInput InputOf(const ObjectInstance& obj,
                 const extract::FeatureOptions& options) {
  return {obj.rows, options.include_caption ? obj.caption : std::string(),
          options.include_section_headers ? obj.section_path
                                          : std::vector<std::string>()};
}

/// Instances of revisions 1.. whose bag input equals that of any
/// instance of the revision before.
size_t ExpectedReuses(const Slices& slices,
                      const extract::FeatureOptions& options) {
  size_t reuses = 0;
  for (size_t r = 1; r < slices.size(); ++r) {
    for (const ObjectInstance& obj : slices[r]) {
      for (const ObjectInstance& prev : slices[r - 1]) {
        if (InputOf(obj, options) == InputOf(prev, options)) {
          ++reuses;
          break;
        }
      }
    }
  }
  return reuses;
}

/// Graph-shaping decisions (the reference emits no step records and its
/// similarities come from string bags, so sims are left out).
class DecisionCollector : public obs::ProvenanceSink {
 public:
  void Record(const obs::MatchDecision& d) override {
    if (d.kind == obs::MatchDecision::Kind::kStep) return;
    std::ostringstream line;
    line << obs::MatchDecisionKindName(d.kind) << " r" << d.revision
         << " s" << d.stage << " o" << d.object_id << " p" << d.position
         << " " << d.reason;
    decisions.push_back(line.str());
  }
  std::vector<std::string> decisions;
};

std::string Counters(const MatchStats& s) {
  std::ostringstream out;
  out << s.similarities_computed << " " << s.pairs_pruned << " "
      << s.stage1_matches << " " << s.stage2_matches << " "
      << s.stage3_matches << " " << s.new_objects << " "
      << s.step_millis.size();
  return out.str();
}

std::vector<std::string> Spellings(const TokenPool& pool) {
  std::vector<std::string> out;
  for (uint32_t id = 0; id < pool.size(); ++id) {
    out.emplace_back(pool.Spelling(id));
  }
  return out;
}

uint64_t ReusedMetric() {
  return obs::MetricsRegistry::Global()
      .GetCounter("somr_match_bags_reused_total", "")
      ->Value();
}

/// Runs `slices` through a warm matcher and checks it against the oracle,
/// a cold-cache twin and a from-scratch interning; returns the reuses.
size_t ExpectCacheInvisible(const Slices& slices, MatcherConfig config) {
  TemporalMatcher matcher(ObjectType::kTable, config);
  DecisionCollector decisions;
  matcher.SetProvenanceSink(&decisions);
  ReferenceMatcher oracle(ObjectType::kTable, config);
  DecisionCollector oracle_decisions;
  oracle.SetProvenanceSink(&oracle_decisions);
  // The cold twin goes through a full snapshot round trip before every
  // step, so every one of its steps starts with an empty bag cache.
  std::string cold_snapshot;
  {
    state::PageState fresh(config);
    std::ostringstream out;
    EXPECT_TRUE(state::SavePageSnapshot(fresh, out).ok());
    cold_snapshot = out.str();
  }
  const uint64_t reused_metric_before = ReusedMetric();
  size_t instances = 0;
  for (size_t r = 0; r < slices.size(); ++r) {
    SCOPED_TRACE("revision " + std::to_string(r));
    matcher.ProcessRevision(static_cast<int>(r), slices[r]);
    oracle.ProcessRevision(static_cast<int>(r), slices[r]);
    instances += slices[r].size();
    EXPECT_EQ(Peer::BagCacheEntries(matcher), slices[r].size());
    ValidationReport report;
    matcher.Validate(&report);
    EXPECT_TRUE(report.ok()) << report.ToString();

    std::istringstream in(cold_snapshot);
    state::PageState cold(config);
    const Status loaded = state::LoadPageSnapshot(in, config, &cold);
    if (!loaded.ok()) {
      ADD_FAILURE() << loaded.ToString();
      return 0;
    }
    extract::PageObjects objects;
    objects.tables = slices[r];
    cold.matcher.ProcessRevision(static_cast<int>(r), objects);
    cold.revisions.push_back(std::move(objects));
    cold.timestamps.push_back(static_cast<UnixSeconds>(r));
    ++cold.revisions_ingested;
    std::ostringstream out;
    EXPECT_TRUE(state::SavePageSnapshot(cold, out).ok());
    cold_snapshot = out.str();
    EXPECT_EQ(Counters(cold.matcher.StatsFor(ObjectType::kTable)),
              Counters(matcher.stats()));
    EXPECT_EQ(SerializeIdentityGraph(cold.matcher.GraphFor(ObjectType::kTable)),
              SerializeIdentityGraph(matcher.graph()));
  }
  EXPECT_EQ(SerializeIdentityGraph(matcher.graph()),
            SerializeIdentityGraph(oracle.graph()));
  EXPECT_EQ(decisions.decisions, oracle_decisions.decisions);

  TokenPool scratch;
  for (const auto& revision : slices) {
    for (const ObjectInstance& obj : revision) {
      extract::BuildFlatBag(obj, scratch, config.features);
    }
  }
  EXPECT_EQ(Spellings(Peer::Pool(matcher)), Spellings(scratch));

  const size_t reused = Peer::BagsReused(matcher);
  EXPECT_EQ(reused, ExpectedReuses(slices, config.features));
  EXPECT_EQ(reused + Peer::BagsBuilt(matcher), instances);
  EXPECT_EQ(ReusedMetric() - reused_metric_before, reused);
  return reused;
}

TEST(BagCacheTest, EditStreamMatchesOracleColdTwinAndScratchPool) {
  const Slices slices = EditStream();
  MatcherConfig config;
  // Hits per revision — 1: a, d, c and the duplicate a = 4 (b edited,
  // e emptied); 2: a, d, c, the emptied table and a = 5 (b reverted to
  // revision 0 is a miss); 3: a, b, c, d = 4; 4 and 5: none (5 follows
  // an empty revision); 6: b, c, f = 3; 7: all five of revision 6 plus
  // the duplicate f = 6.
  EXPECT_EQ(ExpectCacheInvisible(slices, config), 22u);
  for (bool spatial : {false, true}) {
    config.use_spatial_features = spatial;
    config.use_idf_weighting = !spatial;
    ExpectCacheInvisible(slices, config);
  }
}

TEST(BagCacheTest, EditsOutsideTheBagAreHits) {
  const Slices slices = EditStream();
  MatcherConfig config;
  const size_t with_all = ExpectedReuses(slices, config.features);
  // Revision 6 re-captions a and re-sections d: with those fields out of
  // the bag both stay hits, and the graphs still match the oracle's.
  config.features.include_caption = false;
  EXPECT_EQ(ExpectCacheInvisible(slices, config), with_all + 1);
  config.features.include_section_headers = false;
  EXPECT_EQ(ExpectCacheInvisible(slices, config), with_all + 2);
  config.features.include_caption = true;
  EXPECT_EQ(ExpectCacheInvisible(slices, config), with_all + 1);
}

TEST(BagCacheTest, SocrataContextMatchesOracle) {
  archive::SocrataConfig lake;
  lake.subdomains = {"lake"};
  lake.datasets_per_subdomain = 24;
  lake.num_snapshots = 6;
  lake.seed = 77;
  const std::vector<archive::SocrataContext> contexts =
      archive::GenerateSocrata(lake);
  ASSERT_EQ(contexts.size(), 1u);
  MatcherConfig config;
  config.use_spatial_features = false;
  // Unchanged datasets recur from snapshot to snapshot.
  EXPECT_GT(ExpectCacheInvisible(contexts[0].snapshots, config), 0u);
}

// Full and delta snapshot restores at every cut continue to the
// uninterrupted run's graphs and counters. The restored matcher's cache
// is cold (its first step reuses nothing), including a delta applied on
// top of a live state whose cache is warm from the anchor's steps.
TEST(BagCacheTest, SnapshotRestoreStartsColdAndContinuesIdentically) {
  std::vector<extract::PageObjects> history;
  for (const auto& revision : EditStream()) {
    extract::PageObjects objects;
    objects.tables = revision;
    history.push_back(std::move(objects));
  }
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
    const uint64_t before = ReusedMetric();
    extend(resumed, resumed.revisions_ingested + 1);
    EXPECT_EQ(ReusedMetric(), before) << "restored cache is not cold";
    extend(resumed, history.size());
    EXPECT_EQ(StateFingerprint(resumed), expected);
  };

  state::PageState uninterrupted;
  extend(uninterrupted, history.size());
  const std::string expected = StateFingerprint(uninterrupted);

  for (size_t cut = 2; cut + 1 < history.size(); ++cut) {
    SCOPED_TRACE("cut after " + std::to_string(cut) + " revisions");
    state::PageState state;
    extend(state, 1);
    const std::string anchor = snapshot(state);
    const state::SnapshotWatermark base = state::CaptureWatermark(state);
    extend(state, cut);

    std::istringstream full_in(snapshot(state));
    state::PageState from_full;
    ASSERT_TRUE(state::LoadPageSnapshot(full_in, MatcherConfig{}, &from_full)
                    .ok());
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

    // The delta applied to a live state that ran the anchor's step itself
    // (its cache names objects of the anchor's state).
    state::PageState live;
    extend(live, 1);
    std::istringstream live_delta_in(delta.str());
    ASSERT_TRUE(
        state::ApplyPageDelta(live_delta_in, MatcherConfig{}, &live).ok());
    continue_and_compare(live, expected);
  }
}

TEST(BagCacheTest, ValidatorCatchesAWindowBagThatDisagreesWithItsBytes) {
  const Slices slices = EditStream();
  TemporalMatcher matcher(ObjectType::kTable);
  matcher.ProcessRevision(0, slices[0]);
  matcher.ProcessRevision(1, slices[1]);
  ValidationReport clean;
  matcher.Validate(&clean);
  ASSERT_TRUE(clean.ok()) << clean.ToString();

  // Object 1 took b_edited in revision 1; swap in object 0's bag.
  std::deque<FlatBag>& window = Peer::Window(matcher, 1);
  window.back() = Peer::Window(matcher, 0).back();
  ValidationReport report;
  matcher.Validate(&report);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("bag_cache"), std::string::npos)
      << report.ToString();
}

}  // namespace
}  // namespace somr::matching
