// The flat interner (TokenPool) and the dense bag compile behind
// extract::BuildFlatBag: ids stay dense and first-seen across table
// growth, spellings round-trip, and the interned bag of every instance is
// the string-hash bag compiled into the same pool, bit for bit.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "extract/features.h"
#include "extract/object.h"
#include "text/bag_of_words.h"
#include "text/flat_bag.h"
#include "text/token_pool.h"
#include "text/tokenizer.h"

namespace somr {
namespace {

// Distinct for i < 100003 (7919 is invertible modulo the prime 100003).
std::string Token(size_t i) {
  return "tok" + std::to_string(i * 7919 % 100003);
}

TEST(TokenPoolTest, IdsStayDenseAndFirstSeenAcrossGrowth) {
  // 100k distinct tokens take the table from 16 slots through 14
  // doublings; every id must be the token's first-seen rank throughout.
  constexpr size_t kTokens = 100000;
  TokenPool pool;
  for (size_t i = 0; i < kTokens; ++i) {
    ASSERT_EQ(pool.Intern(Token(i)), i) << Token(i);
    // A repeat of an earlier token never takes a new id.
    ASSERT_EQ(pool.Intern(Token(i / 2)), i / 2);
  }
  EXPECT_EQ(pool.size(), kTokens);
  for (size_t i = kTokens; i-- > 0;) {
    ASSERT_EQ(pool.Find(Token(i)), i);
    ASSERT_EQ(pool.Spelling(static_cast<uint32_t>(i)), Token(i));
  }
  EXPECT_EQ(pool.Find("tok100003"), TokenPool::kInvalidId);
  EXPECT_EQ(pool.size(), kTokens);
}

TEST(TokenPoolTest, FindAndSpellingRoundTripLongAndNonAsciiTokens) {
  const std::vector<std::string> tokens = {
      "averyveryverylongtokenwellpastsixteenbytes",
      "averyveryverylongtokenwellpastsixteenbyte",  // a prefix of the first
      "z\xc3\xbcrich",                             // zürich
      "\xe6\x9d\xb1\xe4\xba\xac",                 // 東京
      "na\xc3\xafve",                              // naïve
      "x",
      "",
      "0123456789abcdef",  // exactly 16 bytes
  };
  TokenPool pool;
  for (size_t i = 0; i < tokens.size(); ++i) {
    ASSERT_EQ(pool.Intern(tokens[i]), i);
  }
  for (size_t i = 0; i < tokens.size(); ++i) {
    EXPECT_EQ(pool.Find(tokens[i]), i);
    EXPECT_EQ(pool.Spelling(static_cast<uint32_t>(i)), tokens[i]);
  }
  EXPECT_EQ(pool.Find("z\xc3\xbcric"), TokenPool::kInvalidId);
}

TEST(TokenPoolTest, MovedFromPoolsSuccessorKeepsEveryIdAndSpelling) {
  TokenPool pool;
  for (size_t i = 0; i < 5000; ++i) pool.Intern(Token(i));
  TokenPool moved(std::move(pool));
  TokenPool assigned;
  assigned.Intern("stale");
  assigned = std::move(moved);
  ASSERT_EQ(assigned.size(), 5000u);
  for (size_t i = 0; i < 5000; ++i) {
    ASSERT_EQ(assigned.Find(Token(i)), i);
    ASSERT_EQ(assigned.Spelling(static_cast<uint32_t>(i)), Token(i));
  }
  EXPECT_EQ(assigned.Find("stale"), TokenPool::kInvalidId);
  // The successor keeps interning after the move.
  EXPECT_EQ(assigned.Intern("fresh"), 5000u);
  EXPECT_EQ(assigned.Intern(Token(3)), 3u);
}

// Random instances: upper case, UTF-8, punctuation, cells past the token
// limit and repeated tokens, with captions and section paths.
extract::ObjectInstance RandomInstance(Rng& rng) {
  static const std::vector<std::string> kWords = {
      "alpha",  "Beta",  "GAMMA", "delta", "z\xc3\xbcrich", "\xe6\x9d\xb1",
      "2019",   "x1",    "Mixed9Case", "averyveryverylongtokenpastsso",
      "alpha",  "n\xc3\xa4",  "Q",     "q"};
  static const std::vector<std::string> kSeparators = {
      " ", ", ", "-", " (", ") ", "|", "  ", ";", "_", "\t", "!?"};
  auto text = [&](int max_words) {
    std::string out;
    const int words = static_cast<int>(rng.UniformInt(0, max_words));
    for (int w = 0; w < words; ++w) {
      if (w > 0 || rng.UniformInt(0, 3) == 0) {
        out += kSeparators[rng.Index(kSeparators.size())];
      }
      out += kWords[rng.Index(kWords.size())];
    }
    return out;
  };
  extract::ObjectInstance obj;
  const int rows = static_cast<int>(rng.UniformInt(0, 6));
  for (int r = 0; r < rows; ++r) {
    std::vector<std::string> row;
    const int cells = static_cast<int>(rng.UniformInt(0, 4));
    for (int c = 0; c < cells; ++c) row.push_back(text(14));
    obj.rows.push_back(std::move(row));
  }
  obj.caption = text(12);
  const int depth = static_cast<int>(rng.UniformInt(0, 3));
  for (int d = 0; d < depth; ++d) obj.section_path.push_back(text(4));
  obj.position = static_cast<int>(rng.UniformInt(0, 9));
  return obj;
}

TEST(BuildFlatBagTest, MatchesStringBagInSharedPoolsBitForBit) {
  Rng rng(20261019);
  for (int trial = 0; trial < 40; ++trial) {
    extract::FeatureOptions options;
    options.element_token_limit = static_cast<size_t>(rng.UniformInt(1, 12));
    options.include_caption = rng.UniformInt(0, 1) == 1;
    options.include_section_headers = rng.UniformInt(0, 1) == 1;
    // One pool per trial, shared by both compilations and every instance
    // of the trial; `order` interns the same token stream one token at a
    // time, the reference for first-seen ids.
    TokenPool pool;
    TokenPool order;
    for (int i = 0; i < 60; ++i) {
      const extract::ObjectInstance obj = RandomInstance(rng);
      SCOPED_TRACE("trial " + std::to_string(trial) + " instance " +
                   std::to_string(i));
      const FlatBag flat = extract::BuildFlatBag(obj, pool, options);
      const uint32_t pool_size = pool.size();
      const FlatBag reference =
          FlatBag::FromBag(extract::BuildBagOfWords(obj, options), pool);
      EXPECT_EQ(pool.size(), pool_size);  // every token already interned
      ASSERT_EQ(flat.entries(), reference.entries());
      ASSERT_EQ(flat.ids(), reference.ids());
      ASSERT_EQ(flat.TotalCount(), reference.TotalCount());

      auto intern_stream = [&](const std::string& s) {
        for (const std::string& token :
             TokenizeTruncated(s, options.element_token_limit)) {
          order.Intern(token);
        }
      };
      for (const auto& row : obj.rows) {
        for (const std::string& cell : row) intern_stream(cell);
      }
      if (options.include_caption) intern_stream(obj.caption);
      if (options.include_section_headers) {
        for (const std::string& title : obj.section_path) {
          intern_stream(title);
        }
      }
      ASSERT_EQ(order.size(), pool.size());

      // The bag-cache key re-derives the same bag without interning.
      std::string key;
      ASSERT_TRUE(extract::AppendFlatBagKey(obj, options, &key));
      FlatBag rederived;
      ASSERT_TRUE(extract::FindFlatBag(key, pool, options, &rederived));
      EXPECT_EQ(rederived, flat);
      EXPECT_EQ(pool.size(), pool_size);
    }
    for (uint32_t id = 0; id < pool.size(); ++id) {
      ASSERT_EQ(pool.Spelling(id), order.Spelling(id));
    }
  }
}

TEST(BuildFlatBagTest, KeyCoversExactlyTheBytesTheBagReads) {
  extract::ObjectInstance obj;
  obj.rows = {{"Alpha beta", "gamma"}, {"delta"}};
  obj.caption = "Caption";
  obj.section_path = {"History", "Early years"};
  obj.schema = {"name", "value"};
  auto key_of = [](const extract::ObjectInstance& o,
                   const extract::FeatureOptions& options) {
    std::string key;
    EXPECT_TRUE(extract::AppendFlatBagKey(o, options, &key));
    return key;
  };
  const extract::FeatureOptions all;
  extract::FeatureOptions no_caption;
  no_caption.include_caption = false;
  extract::FeatureOptions no_sections;
  no_sections.include_section_headers = false;

  extract::ObjectInstance moved = obj;
  moved.position = 7;
  moved.schema = {"other"};
  EXPECT_EQ(key_of(moved, all), key_of(obj, all));

  extract::ObjectInstance recaptioned = obj;
  recaptioned.caption = "Renamed";
  EXPECT_NE(key_of(recaptioned, all), key_of(obj, all));
  EXPECT_EQ(key_of(recaptioned, no_caption), key_of(obj, no_caption));

  extract::ObjectInstance resectioned = obj;
  resectioned.section_path = {"Later"};
  EXPECT_NE(key_of(resectioned, all), key_of(obj, all));
  EXPECT_EQ(key_of(resectioned, no_sections), key_of(obj, no_sections));

  // Cell boundaries are part of the key: the same text split differently
  // truncates differently.
  extract::ObjectInstance resplit = obj;
  resplit.rows = {{"Alpha", "beta gamma"}, {"delta"}};
  EXPECT_NE(key_of(resplit, all), key_of(obj, all));

  // A truncated key does not re-derive a bag.
  TokenPool pool;
  extract::BuildFlatBag(obj, pool, all);
  const std::string key = key_of(obj, all);
  FlatBag bag;
  EXPECT_TRUE(extract::FindFlatBag(key, pool, all, &bag));
  EXPECT_FALSE(extract::FindFlatBag(std::string_view(key).substr(0, 9), pool,
                                    all, &bag));
  EXPECT_FALSE(extract::FindFlatBag(key + "x", pool, all, &bag));
  // Nor does one with a token the pool has never seen.
  EXPECT_FALSE(
      extract::FindFlatBag(key_of(recaptioned, all), pool, all, &bag));
}

}  // namespace
}  // namespace somr
