#include "extract/features.h"

#include <cstring>

#include "text/tokenizer.h"

namespace somr::extract {

BagOfWords BuildBagOfWords(const ObjectInstance& obj,
                           const FeatureOptions& options) {
  BagOfWords bag;
  for (const auto& row : obj.rows) {
    for (const auto& cell : row) {
      bag.AddTokens(TokenizeTruncated(cell, options.element_token_limit));
    }
  }
  if (options.include_caption && !obj.caption.empty()) {
    bag.AddTokens(TokenizeTruncated(obj.caption, options.element_token_limit));
  }
  if (options.include_section_headers) {
    for (const std::string& title : obj.section_path) {
      bag.AddTokens(
          TokenizeTruncated(title, options.element_token_limit));
    }
  }
  return bag;
}

FlatBag BuildFlatBag(const ObjectInstance& obj, TokenPool& pool,
                     const FeatureOptions& options) {
  FlatBagBuilder& builder = FlatBagBuilder::PerThread();
  auto add = [&](std::string_view text) {
    TokenizeTruncatedTo(text, options.element_token_limit,
                        [&](std::string_view token) {
                          builder.Add(pool.Intern(token));
                        });
  };
  for (const auto& row : obj.rows) {
    for (const auto& cell : row) add(cell);
  }
  if (options.include_caption && !obj.caption.empty()) add(obj.caption);
  if (options.include_section_headers) {
    for (const std::string& title : obj.section_path) add(title);
  }
  return builder.Finish();
}

namespace {

constexpr size_t kMaxKeyField = 0xffffffffu;

/// Reads AppendFlatBagKey's fields back in order; every read fails
/// (returns false) past the end of the key.
class KeyReader {
 public:
  explicit KeyReader(std::string_view key) : rest_(key) {}

  bool Count(uint32_t* out) {
    if (rest_.size() < sizeof *out) return false;
    std::memcpy(out, rest_.data(), sizeof *out);
    rest_.remove_prefix(sizeof *out);
    return true;
  }

  bool Field(std::string_view* out) {
    uint32_t size = 0;
    if (!Count(&size) || rest_.size() < size) return false;
    *out = rest_.substr(0, size);
    rest_.remove_prefix(size);
    return true;
  }

  bool done() const { return rest_.empty(); }

 private:
  std::string_view rest_;
};

}  // namespace

bool AppendFlatBagKey(const ObjectInstance& obj,
                      const FeatureOptions& options, std::string* key) {
  // Size the key first, so nothing is written when a field does not fit
  // and the bytes go in with one resize and plain copies.
  bool fits = obj.rows.size() <= kMaxKeyField;
  size_t size = sizeof(uint32_t);
  for (const auto& row : obj.rows) {
    fits &= row.size() <= kMaxKeyField;
    size += sizeof(uint32_t);
    for (const std::string& cell : row) {
      fits &= cell.size() <= kMaxKeyField;
      size += sizeof(uint32_t) + cell.size();
    }
  }
  if (options.include_caption) {
    fits &= obj.caption.size() <= kMaxKeyField;
    size += sizeof(uint32_t) + obj.caption.size();
  }
  if (options.include_section_headers) {
    fits &= obj.section_path.size() <= kMaxKeyField;
    size += sizeof(uint32_t);
    for (const std::string& title : obj.section_path) {
      fits &= title.size() <= kMaxKeyField;
      size += sizeof(uint32_t) + title.size();
    }
  }
  if (!fits) return false;

  const size_t start = key->size();
  key->resize(start + size);
  char* out = key->data() + start;
  auto put_count = [&out](size_t count) {
    const uint32_t v = static_cast<uint32_t>(count);
    std::memcpy(out, &v, sizeof v);
    out += sizeof v;
  };
  auto put_text = [&](const std::string& text) {
    put_count(text.size());
    std::memcpy(out, text.data(), text.size());
    out += text.size();
  };
  put_count(obj.rows.size());
  for (const auto& row : obj.rows) {
    put_count(row.size());
    for (const std::string& cell : row) put_text(cell);
  }
  if (options.include_caption) put_text(obj.caption);
  if (options.include_section_headers) {
    put_count(obj.section_path.size());
    for (const std::string& title : obj.section_path) put_text(title);
  }
  return true;
}

bool FindFlatBag(std::string_view key, const TokenPool& pool,
                 const FeatureOptions& options, FlatBag* bag) {
  std::vector<uint32_t> ids;
  bool found = true;
  auto add = [&](std::string_view text) {
    TokenizeTruncatedTo(text, options.element_token_limit,
                        [&](std::string_view token) {
                          const uint32_t id = pool.Find(token);
                          if (id == TokenPool::kInvalidId) {
                            found = false;
                          } else {
                            ids.push_back(id);
                          }
                        });
  };
  KeyReader reader(key);
  std::string_view text;
  uint32_t rows = 0;
  if (!reader.Count(&rows)) return false;
  for (uint32_t r = 0; r < rows; ++r) {
    uint32_t cells = 0;
    if (!reader.Count(&cells)) return false;
    for (uint32_t c = 0; c < cells; ++c) {
      if (!reader.Field(&text)) return false;
      add(text);
    }
  }
  if (options.include_caption) {
    if (!reader.Field(&text)) return false;
    add(text);
  }
  if (options.include_section_headers) {
    uint32_t titles = 0;
    if (!reader.Count(&titles)) return false;
    for (uint32_t t = 0; t < titles; ++t) {
      if (!reader.Field(&text)) return false;
      add(text);
    }
  }
  if (!reader.done() || !found) return false;
  *bag = FlatBag::FromTokenIds(ids);
  return true;
}

BagOfWords BuildSchemaBag(const ObjectInstance& obj) {
  BagOfWords bag;
  for (const std::string& header : obj.schema) {
    bag.AddTokens(Tokenize(header));
  }
  return bag;
}

}  // namespace somr::extract
