#include "sim/similarity.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace somr::sim {
namespace {

BagOfWords Bag(std::initializer_list<const char*> tokens) {
  BagOfWords bag;
  for (const char* t : tokens) bag.Add(t);
  return bag;
}

TEST(RuzickaTest, IdenticalBagsAreOne) {
  BagOfWords a = Bag({"x", "y", "y"});
  EXPECT_DOUBLE_EQ(Ruzicka(a, a), 1.0);
}

TEST(RuzickaTest, DisjointBagsAreZero) {
  EXPECT_DOUBLE_EQ(Ruzicka(Bag({"a"}), Bag({"b"})), 0.0);
}

TEST(RuzickaTest, BothEmptyIsOne) {
  BagOfWords empty;
  EXPECT_DOUBLE_EQ(Ruzicka(empty, empty), 1.0);
}

TEST(RuzickaTest, OneEmptyIsZero) {
  BagOfWords empty;
  EXPECT_DOUBLE_EQ(Ruzicka(Bag({"a"}), empty), 0.0);
}

TEST(RuzickaTest, KnownValue) {
  // a={x,x,y}, b={x,y,z}: min sum = 1+1 = 2, max sum = 2+1+1 = 4.
  EXPECT_DOUBLE_EQ(Ruzicka(Bag({"x", "x", "y"}), Bag({"x", "y", "z"})),
                   0.5);
}

TEST(RuzickaTest, Symmetric) {
  BagOfWords a = Bag({"p", "q", "q", "r"});
  BagOfWords b = Bag({"q", "r", "s"});
  EXPECT_DOUBLE_EQ(Ruzicka(a, b), Ruzicka(b, a));
}

TEST(RuzickaTest, PenalizesGrowth) {
  // Containment tolerates a subset relation; Ruzicka does not.
  BagOfWords small = Bag({"a", "b"});
  BagOfWords large = Bag({"a", "b", "c", "d", "e", "f"});
  EXPECT_LT(Ruzicka(small, large), Containment(small, large));
  EXPECT_DOUBLE_EQ(Containment(small, large), 1.0);
  EXPECT_DOUBLE_EQ(Ruzicka(small, large), 2.0 / 6.0);
}

TEST(ContainmentTest, SubsetIsOne) {
  EXPECT_DOUBLE_EQ(Containment(Bag({"a"}), Bag({"a", "b", "c"})), 1.0);
}

TEST(ContainmentTest, Symmetric) {
  BagOfWords a = Bag({"a", "b", "c"});
  BagOfWords b = Bag({"b", "c", "d", "e"});
  EXPECT_DOUBLE_EQ(Containment(a, b), Containment(b, a));
}

TEST(ContainmentTest, AtLeastRuzicka) {
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    BagOfWords a, b;
    for (int i = 0; i < 20; ++i) {
      a.Add("t" + std::to_string(rng.UniformInt(0, 15)));
      b.Add("t" + std::to_string(rng.UniformInt(0, 15)));
    }
    EXPECT_GE(Containment(a, b), Ruzicka(a, b) - 1e-12);
  }
}

TEST(SimilarityBoundsProperty, AllMeasuresInUnitInterval) {
  Rng rng(17);
  for (int trial = 0; trial < 100; ++trial) {
    BagOfWords a, b;
    int na = static_cast<int>(rng.UniformInt(0, 12));
    int nb = static_cast<int>(rng.UniformInt(0, 12));
    for (int i = 0; i < na; ++i) {
      a.Add("t" + std::to_string(rng.UniformInt(0, 8)));
    }
    for (int i = 0; i < nb; ++i) {
      b.Add("t" + std::to_string(rng.UniformInt(0, 8)));
    }
    for (double s : {Ruzicka(a, b), Containment(a, b)}) {
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0);
    }
  }
}

TEST(TokenWeightingTest, UniformByDefault) {
  TokenWeighting w;
  EXPECT_TRUE(w.IsUniform());
  EXPECT_DOUBLE_EQ(w.Weight("anything"), 1.0);
}

TEST(TokenWeightingTest, InverseObjectFrequency) {
  BagOfWords a = Bag({"shared", "rare_a"});
  BagOfWords b = Bag({"shared", "rare_b"});
  BagOfWords c = Bag({"shared"});
  BagOfWords n1 = Bag({"shared", "fresh"});
  TokenWeighting w = TokenWeighting::InverseObjectFrequency(
      {&a, &b, &c}, {&n1});
  // "shared" appears in 3 previous objects and 1 new: weight 1/3.
  EXPECT_DOUBLE_EQ(w.Weight("shared"), 1.0 / 3.0);
  // Tokens in at most one object on each side keep full weight.
  EXPECT_DOUBLE_EQ(w.Weight("rare_a"), 1.0);
  EXPECT_DOUBLE_EQ(w.Weight("fresh"), 1.0);
  EXPECT_DOUBLE_EQ(w.Weight("unseen"), 1.0);
}

TEST(TokenWeightingTest, NewSideFrequencyCounts) {
  BagOfWords p = Bag({"tok"});
  BagOfWords n1 = Bag({"tok"});
  BagOfWords n2 = Bag({"tok"});
  BagOfWords n3 = Bag({"tok"});
  TokenWeighting w =
      TokenWeighting::InverseObjectFrequency({&p}, {&n1, &n2, &n3});
  EXPECT_DOUBLE_EQ(w.Weight("tok"), 1.0 / 3.0);
}

TEST(TokenWeightingTest, WeightingLowersNoiseSimilarity) {
  // Two objects that share only boilerplate tokens should look less
  // similar under IDF weighting (Fig. 10's point).
  BagOfWords x = Bag({"won", "year", "alpha"});
  BagOfWords y = Bag({"won", "year", "beta"});
  // Several other objects also contain the boilerplate.
  BagOfWords o1 = Bag({"won", "year"});
  BagOfWords o2 = Bag({"won", "year"});
  TokenWeighting w = TokenWeighting::InverseObjectFrequency(
      {&x, &o1, &o2}, {&y});
  double unweighted = Ruzicka(x, y);
  double weighted = WeightedRuzicka(x, y, w);
  EXPECT_LT(weighted, unweighted);
}

TEST(WeightedSimilarityTest, UniformWeightingMatchesUnweighted) {
  BagOfWords a = Bag({"p", "q", "q"});
  BagOfWords b = Bag({"q", "r"});
  TokenWeighting uniform;
  EXPECT_DOUBLE_EQ(WeightedRuzicka(a, b, uniform), Ruzicka(a, b));
  EXPECT_DOUBLE_EQ(WeightedContainment(a, b, uniform), Containment(a, b));
}

TEST(SimilarityDispatchTest, KindSelectsMeasure) {
  BagOfWords a = Bag({"a", "b"});
  BagOfWords b = Bag({"a", "b", "c", "d"});
  TokenWeighting w;
  EXPECT_DOUBLE_EQ(Similarity(SimilarityKind::kStrict, a, b, w),
                   Ruzicka(a, b));
  EXPECT_DOUBLE_EQ(Similarity(SimilarityKind::kRelaxed, a, b, w),
                   Containment(a, b));
}

}  // namespace
}  // namespace somr::sim
