// Golden equivalence of the interned-token (FlatBag) matcher against the
// string-bag reference oracle (tests/matching/reference_matcher.h): the
// kernels must agree value for value, and the full matcher — with either
// candidate generator — must emit the identical identity graph on gold
// corpora for every focal object type.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "eval/harness.h"
#include "matching/matcher.h"
#include "matching/matcher_test_peer.h"
#include "matching/reference_matcher.h"
#include "sim/similarity.h"
#include "text/bag_of_words.h"
#include "text/flat_bag.h"
#include "text/token_pool.h"
#include "wikigen/corpus.h"

namespace somr::matching {
namespace {

BagOfWords RandomBag(Rng& rng, int tokens, int vocabulary) {
  BagOfWords bag;
  for (int i = 0; i < tokens; ++i) {
    bag.Add("tok" + std::to_string(rng.UniformInt(0, vocabulary - 1)));
  }
  return bag;
}

FlatBag Compile(const BagOfWords& bag, TokenPool& pool) {
  return FlatBag::FromBag(bag, pool);
}

TEST(KernelEquivalenceTest, UnweightedKernelsBitIdentical) {
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    int tokens = 1 + static_cast<int>(rng.UniformInt(0, 80));
    BagOfWords a = RandomBag(rng, tokens, 40);
    BagOfWords b = RandomBag(rng, tokens / 2 + 1, 40);
    TokenPool pool;
    FlatBag fa = Compile(a, pool);
    FlatBag fb = Compile(b, pool);
    // Unit-weight counts sum exactly in doubles, so the merge-join result
    // is bit-identical to the hash-lookup result.
    EXPECT_EQ(sim::Ruzicka(a, b), sim::Ruzicka(fa, fb));
    EXPECT_EQ(sim::Containment(a, b), sim::Containment(fa, fb));
  }
}

TEST(KernelEquivalenceTest, EmptyBagsAgree) {
  BagOfWords empty_bag;
  BagOfWords full_bag;
  full_bag.Add("x");
  TokenPool pool;
  FlatBag fe = Compile(empty_bag, pool);
  FlatBag ff = Compile(full_bag, pool);
  EXPECT_EQ(sim::Ruzicka(empty_bag, empty_bag), sim::Ruzicka(fe, fe));
  EXPECT_EQ(sim::Ruzicka(empty_bag, full_bag), sim::Ruzicka(fe, ff));
  EXPECT_EQ(sim::Containment(empty_bag, full_bag), sim::Containment(fe, ff));
  EXPECT_EQ(sim::Containment(full_bag, empty_bag), sim::Containment(ff, fe));
}

TEST(KernelEquivalenceTest, WeightedKernelsNearIdentical) {
  Rng rng(12);
  for (int trial = 0; trial < 50; ++trial) {
    BagOfWords a = RandomBag(rng, 60, 30);
    BagOfWords b = RandomBag(rng, 45, 30);
    BagOfWords c = RandomBag(rng, 30, 30);
    TokenPool pool;
    FlatBag fa = Compile(a, pool);
    FlatBag fb = Compile(b, pool);
    FlatBag fc = Compile(c, pool);
    sim::TokenWeighting weighting =
        sim::TokenWeighting::InverseObjectFrequency({&a, &b}, {&b, &c});
    sim::DenseTokenWeights weights;
    weights.BuildInverseObjectFrequency({&fa, &fb}, {&fb, &fc}, pool.size());
    // Same weight values; only the summation order differs (id order vs
    // hash order), so allow for reassociation error.
    EXPECT_NEAR(sim::WeightedRuzicka(a, b, weighting),
                sim::WeightedRuzicka(fa, fb, weights), 1e-12);
    EXPECT_NEAR(sim::WeightedContainment(a, c, weighting),
                sim::WeightedContainment(fa, fc, weights), 1e-12);
  }
}

TEST(KernelEquivalenceTest, UpperBoundIsSound) {
  Rng rng(13);
  for (int trial = 0; trial < 100; ++trial) {
    BagOfWords a = RandomBag(rng, 1 + static_cast<int>(rng.UniformInt(0, 50)),
                             25);
    BagOfWords b = RandomBag(rng, 1 + static_cast<int>(rng.UniformInt(0, 50)),
                             25);
    TokenPool pool;
    FlatBag fa = Compile(a, pool);
    FlatBag fb = Compile(b, pool);
    sim::DenseTokenWeights weights;
    weights.BuildInverseObjectFrequency({&fa}, {&fb}, pool.size());
    double ta = sim::WeightedTotal(fa, weights);
    double tb = sim::WeightedTotal(fb, weights);
    double bound = sim::SimilarityUpperBound(sim::SimilarityKind::kStrict,
                                             fa.empty(), fb.empty(), ta, tb);
    double exact = sim::SimilarityFromTotals(sim::SimilarityKind::kStrict, fa,
                                             fb, weights, ta, tb);
    EXPECT_LE(exact, bound + 1e-12);
  }
}

BagOfWords Bag(std::initializer_list<const char*> tokens) {
  BagOfWords bag;
  for (const char* token : tokens) bag.Add(token);
  return bag;
}

TEST(DecayedSimilarityTest, SingleVersionNoDecay) {
  BagOfWords v = Bag({"x", "y"});
  BagOfWords candidate = Bag({"x", "y"});
  sim::TokenWeighting w;
  EXPECT_DOUBLE_EQ(DecayedSimilarity(sim::SimilarityKind::kStrict, {&v},
                                     candidate, 5, 0.9, w),
                   1.0);
}

TEST(DecayedSimilarityTest, OlderMatchDecays) {
  BagOfWords old_match = Bag({"x", "y"});
  BagOfWords newer = Bag({"z", "w"});
  BagOfWords candidate = Bag({"x", "y"});
  sim::TokenWeighting w;
  // History: old (identical) then newer (disjoint). The identical version
  // is one step back, so its similarity is scaled by phi.
  double s = DecayedSimilarity(sim::SimilarityKind::kStrict,
                               {&old_match, &newer}, candidate, 5, 0.9, w);
  EXPECT_DOUBLE_EQ(s, 0.9);
}

TEST(DecayedSimilarityTest, WindowLimitsLookback) {
  BagOfWords match = Bag({"x"});
  BagOfWords noise1 = Bag({"a"});
  BagOfWords noise2 = Bag({"b"});
  BagOfWords candidate = Bag({"x"});
  sim::TokenWeighting w;
  // The matching version is 2 steps back; with k = 2 only the last two
  // versions are compared, so the match is missed.
  double s = DecayedSimilarity(sim::SimilarityKind::kStrict,
                               {&match, &noise1, &noise2}, candidate, 2,
                               0.9, w);
  EXPECT_DOUBLE_EQ(s, 0.0);
  // With k = 3 the match is found at decay phi^2.
  s = DecayedSimilarity(sim::SimilarityKind::kStrict,
                        {&match, &noise1, &noise2}, candidate, 3, 0.9, w);
  EXPECT_DOUBLE_EQ(s, 0.81);
}

TEST(DecayedSimilarityTest, PrefersRecentHighSimilarity) {
  BagOfWords perfect_old = Bag({"x", "y"});
  BagOfWords partial_new = Bag({"x", "z"});
  BagOfWords candidate = Bag({"x", "y"});
  sim::TokenWeighting w;
  // Newest: Ruzicka(partial, candidate) = 1/3; older: 0.9 * 1.0 = 0.9.
  double s = DecayedSimilarity(sim::SimilarityKind::kStrict,
                               {&perfect_old, &partial_new}, candidate, 5,
                               0.9, w);
  EXPECT_DOUBLE_EQ(s, 0.9);
}

TEST(DecayedSimilarityTest, EmptyHistoryIsZero) {
  BagOfWords candidate = Bag({"x"});
  sim::TokenWeighting w;
  EXPECT_DOUBLE_EQ(DecayedSimilarity(sim::SimilarityKind::kStrict, {},
                                     candidate, 5, 0.9, w),
                   0.0);
}

/// The graphs must be identical object for object, version for version.
void ExpectSameGraph(const IdentityGraph& flat,
                     const IdentityGraph& reference) {
  EXPECT_EQ(flat.type(), reference.type());
  ASSERT_EQ(flat.ObjectCount(), reference.ObjectCount());
  for (size_t i = 0; i < flat.objects().size(); ++i) {
    const TrackedObjectRecord& f = flat.objects()[i];
    const TrackedObjectRecord& l = reference.objects()[i];
    EXPECT_EQ(f.object_id, l.object_id);
    EXPECT_EQ(f.type, l.type);
    EXPECT_EQ(f.versions, l.versions);
  }
}

IdentityGraph RunFlat(
    const std::vector<std::vector<extract::ObjectInstance>>& revisions,
    extract::ObjectType type, TemporalMatcherTestPeer::Generator generator) {
  TemporalMatcher matcher(type);
  TemporalMatcherTestPeer::Pin(matcher, generator);
  for (size_t r = 0; r < revisions.size(); ++r) {
    matcher.ProcessRevision(static_cast<int>(r), revisions[r]);
  }
  return matcher.TakeGraph();
}

IdentityGraph RunReference(
    const std::vector<std::vector<extract::ObjectInstance>>& revisions,
    extract::ObjectType type) {
  ReferenceMatcher matcher(type);
  for (size_t r = 0; r < revisions.size(); ++r) {
    matcher.ProcessRevision(static_cast<int>(r), revisions[r]);
  }
  return matcher.graph();
}

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

class MatcherEquivalenceTest
    : public ::testing::TestWithParam<extract::ObjectType> {};

TEST_P(MatcherEquivalenceTest, MatcherMatchesReferenceOnGoldCorpus) {
  extract::ObjectType focal = GetParam();
  wikigen::GoldCorpus corpus = SmallCorpus(focal, 91);
  xmldump::Dump dump = wikigen::CorpusToDump(corpus);
  for (const xmldump::PageHistory& page : dump.pages) {
    std::vector<extract::PageObjects> objects =
        eval::ExtractRevisionObjects(page);
    for (extract::ObjectType type :
         {extract::ObjectType::kTable, extract::ObjectType::kInfobox,
          extract::ObjectType::kList}) {
      auto slices = eval::SliceType(objects, type);
      const IdentityGraph reference = RunReference(slices, type);
      for (auto generator : {TemporalMatcherTestPeer::Generator::kSweep,
                             TemporalMatcherTestPeer::Generator::kIndex}) {
        ExpectSameGraph(RunFlat(slices, type, generator), reference);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, MatcherEquivalenceTest,
                         ::testing::Values(extract::ObjectType::kTable,
                                           extract::ObjectType::kInfobox,
                                           extract::ObjectType::kList));

}  // namespace
}  // namespace somr::matching
