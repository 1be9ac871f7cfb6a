#pragma once

#include <string>
#include <string_view>

#include "extract/object.h"
#include "text/bag_of_words.h"
#include "text/flat_bag.h"
#include "text/token_pool.h"

namespace somr::extract {

/// Options for the bag-of-words feature construction (Sec. IV-B1).
struct FeatureOptions {
  /// Truncate each element value (cell / item / property value) to this
  /// many tokens so long cells do not dominate.
  size_t element_token_limit = 10;

  /// Include the hierarchical section titles (or HTML headings) of the
  /// surrounding sections in the bag.
  bool include_section_headers = true;

  /// Include the table caption / infobox name.
  bool include_caption = true;
};

/// Builds the bag-of-words content representation for one object
/// instance: every cell value truncated to `element_token_limit` tokens,
/// plus the enclosing section titles and caption.
BagOfWords BuildBagOfWords(const ObjectInstance& obj,
                           const FeatureOptions& options = {});

/// Interned fast path of BuildBagOfWords: emits the exact same token
/// multiset, but interns tokens into `pool` as they stream out of the
/// tokenizer and counts them straight into this thread's FlatBagBuilder —
/// no intermediate per-bag string hash map, no per-token string
/// allocations, no sort of every occurrence.
FlatBag BuildFlatBag(const ObjectInstance& obj, TokenPool& pool,
                     const FeatureOptions& options = {});

/// Appends to `*key` every byte BuildFlatBag reads from `obj` under
/// `options`, each field prefixed with its u32 length or count: the rows
/// and their cells, the caption only if include_caption, the section
/// titles only if include_section_headers. Position and schema are not
/// read, so they are not part of the key. Equal keys mean BuildFlatBag
/// tokenizes the same texts in the same order, hence (into one pool) the
/// same bag. Returns false, with `*key` unchanged, when a length or count
/// does not fit in 32 bits.
bool AppendFlatBagKey(const ObjectInstance& obj,
                      const FeatureOptions& options, std::string* key);

/// Rebuilds the bag of an instance from its AppendFlatBagKey bytes (built
/// under the same `options`), looking every token up with TokenPool::Find:
/// nothing is interned. Returns false when `key` is malformed or one of
/// its tokens is not in `pool`.
bool FindFlatBag(std::string_view key, const TokenPool& pool,
                 const FeatureOptions& options, FlatBag* bag);

/// Builds the schema bag (header cells / infobox keys) used by the schema
/// baseline. Not truncated — schema elements are short.
BagOfWords BuildSchemaBag(const ObjectInstance& obj);

}  // namespace somr::extract
