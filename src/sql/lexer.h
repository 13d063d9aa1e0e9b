#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace aidb::sql {

enum class TokenType {
  kKeyword,     ///< SELECT, FROM, ... (uppercased)
  kIdentifier,  ///< table/column names (case preserved)
  kInteger,
  kFloat,
  kString,      ///< single-quoted literal, quotes stripped
  kSymbol,      ///< punctuation / operators: ( ) , * = != < <= > >= + - / . ;
  kParam,       ///< $N placeholder (PREPARE/EXECUTE), text is the digits
  kEnd,
};

struct Token {
  TokenType type;
  std::string text;   ///< keyword/symbol text, identifier, or literal body
  size_t offset = 0;  ///< byte offset in the input (for error messages)

  bool IsKeyword(const char* kw) const {
    return type == TokenType::kKeyword && text == kw;
  }
  bool IsSymbol(const char* s) const {
    return type == TokenType::kSymbol && text == s;
  }
};

/// Tokenizes a SQL string. Keywords are recognized case-insensitively and
/// normalized to upper case; anything word-like that is not a keyword is an
/// identifier.
Result<std::vector<Token>> Lex(const std::string& input);

/// Renders tokens [begin, end) back to canonical SQL text: keywords
/// uppercased, one space between tokens, strings re-quoted, params as $N.
/// Two statements normalize identically iff they tokenize identically — the
/// plan cache and prepared-statement store key on this rendering.
std::string JoinTokens(const std::vector<Token>& tokens, size_t begin,
                       size_t end);

/// FNV-1a digest of tokens [begin, end) rendered as JoinTokens does, but with
/// every literal and $N placeholder as '?': statements that differ only in
/// their constants share it. The admission classifier keys on it.
uint64_t ShapeDigest(const std::vector<Token>& tokens, size_t begin,
                     size_t end);

}  // namespace aidb::sql
