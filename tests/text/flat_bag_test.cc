#include "text/flat_bag.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "text/bag_of_words.h"
#include "text/token_pool.h"
#include "text/tokenizer.h"

namespace somr {
namespace {

TEST(TokenPoolTest, InternAssignsSequentialIds) {
  TokenPool pool;
  EXPECT_TRUE(pool.empty());
  EXPECT_EQ(pool.Intern("alpha"), 0u);
  EXPECT_EQ(pool.Intern("beta"), 1u);
  EXPECT_EQ(pool.Intern("alpha"), 0u);  // hit returns the same id
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.Spelling(0), "alpha");
  EXPECT_EQ(pool.Spelling(1), "beta");
}

TEST(TokenPoolTest, FindDoesNotIntern) {
  TokenPool pool;
  EXPECT_EQ(pool.Find("missing"), TokenPool::kInvalidId);
  EXPECT_EQ(pool.size(), 0u);
  pool.Intern("present");
  EXPECT_EQ(pool.Find("present"), 0u);
}

TEST(TokenPoolTest, SpellingsStableAcrossGrowth) {
  TokenPool pool;
  ASSERT_EQ(pool.Intern("anchor"), 0u);
  for (int i = 0; i < 1000; ++i) {
    pool.Intern("filler" + std::to_string(i));
  }
  EXPECT_EQ(pool.Spelling(0), "anchor");
  EXPECT_EQ(pool.Find("anchor"), 0u);
}

TEST(FlatBagTest, FromBagMatchesCountsAndTotal) {
  BagOfWords bag;
  bag.Add("x");
  bag.Add("y");
  bag.Add("x");
  bag.Add("z");
  TokenPool pool;
  FlatBag flat = FlatBag::FromBag(bag, pool);
  EXPECT_EQ(flat.DistinctCount(), 3u);
  EXPECT_DOUBLE_EQ(flat.TotalCount(), 4.0);
  EXPECT_DOUBLE_EQ(flat.Count(pool.Find("x")), 2.0);
  EXPECT_DOUBLE_EQ(flat.Count(pool.Find("y")), 1.0);
  EXPECT_DOUBLE_EQ(flat.Count(pool.Find("z")), 1.0);
  EXPECT_DOUBLE_EQ(flat.Count(999), 0.0);
  // Entries sorted ascending by id.
  for (size_t i = 1; i < flat.entries().size(); ++i) {
    EXPECT_LT(flat.entries()[i - 1].id, flat.entries()[i].id);
  }
}

TEST(FlatBagTest, FromTokenIdsRunLengthEncodes) {
  FlatBag flat = FlatBag::FromTokenIds({5, 2, 5, 5, 2, 9});
  ASSERT_EQ(flat.DistinctCount(), 3u);
  EXPECT_DOUBLE_EQ(flat.Count(2), 2.0);
  EXPECT_DOUBLE_EQ(flat.Count(5), 3.0);
  EXPECT_DOUBLE_EQ(flat.Count(9), 1.0);
  EXPECT_DOUBLE_EQ(flat.TotalCount(), 6.0);
}

TEST(FlatBagTest, RoundTripThroughBag) {
  BagOfWords bag;
  bag.AddTokens({"a", "b", "b", "c", "c", "c"});
  TokenPool pool;
  FlatBag flat = FlatBag::FromBag(bag, pool);
  BagOfWords back = flat.ToBag(pool);
  EXPECT_EQ(back.counts().size(), bag.counts().size());
  for (const auto& [token, count] : bag.counts()) {
    auto it = back.counts().find(token);
    ASSERT_NE(it, back.counts().end()) << token;
    EXPECT_DOUBLE_EQ(it->second, count);
  }
}

TEST(FlatBagTest, EmptyBag) {
  FlatBag flat;
  EXPECT_TRUE(flat.empty());
  EXPECT_DOUBLE_EQ(flat.TotalCount(), 0.0);
  EXPECT_EQ(FlatBag::FromTokenIds({}), flat);
}

TEST(TokenizerSinkTest, MatchesTokenizeTruncated) {
  const std::string_view samples[] = {
      "Hello, World! 42 foo_bar",
      "  leading and trailing  ",
      "",
      "UPPER lower MiXeD 123abc",
      "one-two;three|four",
  };
  for (std::string_view s : samples) {
    for (size_t limit : {size_t{0}, size_t{1}, size_t{3}, size_t{100}}) {
      std::vector<std::string> expected = TokenizeTruncated(s, limit);
      std::vector<std::string> got;
      TokenizeTruncatedTo(s, limit, [&](std::string_view token) {
        got.emplace_back(token);
      });
      EXPECT_EQ(got, expected) << "input=\"" << s << "\" limit=" << limit;
    }
  }
}

}  // namespace
}  // namespace somr
