#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace somr {

/// Splits `s` into lowercase word tokens. A word is a maximal run of ASCII
/// alphanumerics or non-ASCII bytes (so UTF-8 words survive intact);
/// everything else separates tokens. "Best Actor (2019)" ->
/// ["best", "actor", "2019"].
std::vector<std::string> Tokenize(std::string_view s);

/// Tokenizes like Tokenize() but keeps only the first `max_tokens` tokens.
/// The paper truncates element values after 10 words so that long cells do
/// not dominate the bag-of-words representation (Sec. IV-B1).
std::vector<std::string> TokenizeTruncated(std::string_view s,
                                           size_t max_tokens);

namespace token_internal {
/// Byte classes for the tokenizer's scan: separator, word byte (ASCII
/// lower case or digit, or part of a UTF-8 multi-byte sequence), and
/// upper-case ASCII word byte (lower-cased on output).
enum ByteClass : uint8_t { kSeparator = 0, kWord = 1, kUpper = 2 };

inline constexpr std::array<uint8_t, 256> kByteClasses = [] {
  std::array<uint8_t, 256> classes{};
  for (int c = 0; c < 256; ++c) {
    if (c >= 'A' && c <= 'Z') {
      classes[c] = kUpper;
    } else if (c >= 0x80 || (c >= 'a' && c <= 'z') ||
               (c >= '0' && c <= '9')) {
      classes[c] = kWord;
    }
  }
  return classes;
}();

inline uint8_t ClassOf(char c) {
  return kByteClasses[static_cast<unsigned char>(c)];
}

inline char ToLowerAscii(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}
}  // namespace token_internal

/// Streaming tokenization: invokes `sink(std::string_view token)` for each
/// of the first `max_tokens` tokens, producing exactly the token sequence
/// of TokenizeTruncated but without materializing a vector of strings.
/// A token without upper-case ASCII is a view into `s`; any other is
/// lower-cased into a local buffer. The view is valid only for the
/// duration of the callback.
template <typename Sink>
void TokenizeTruncatedTo(std::string_view s, size_t max_tokens, Sink&& sink) {
  using token_internal::ClassOf;
  if (max_tokens == 0) return;
  std::string lowered;
  size_t emitted = 0;
  const size_t n = s.size();
  size_t i = 0;
  while (true) {
    while (i < n && ClassOf(s[i]) == token_internal::kSeparator) ++i;
    if (i == n) return;
    const size_t begin = i;
    uint8_t seen = 0;
    for (uint8_t c; i < n && (c = ClassOf(s[i])) != token_internal::kSeparator;
         ++i) {
      seen |= c;
    }
    const std::string_view token = s.substr(begin, i - begin);
    if ((seen & token_internal::kUpper) != 0) {
      lowered.assign(token);
      for (char& c : lowered) c = token_internal::ToLowerAscii(c);
      sink(std::string_view(lowered));
    } else {
      sink(token);
    }
    if (++emitted >= max_tokens) return;
  }
}

/// Default truncation used for object element values.
inline constexpr size_t kElementTokenLimit = 10;

}  // namespace somr
