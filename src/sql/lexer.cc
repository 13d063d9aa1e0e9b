#include "sql/lexer.h"

#include <cctype>
#include <unordered_set>

namespace aidb::sql {

namespace {

const std::unordered_set<std::string>& Keywords() {
  static const std::unordered_set<std::string> kKeywords{
      "SELECT", "FROM",   "WHERE",   "AND",    "OR",     "NOT",    "INSERT",
      "INTO",   "VALUES", "CREATE",  "TABLE",  "INDEX",  "ON",     "USING",
      "HASH",   "BTREE",  "INT",     "DOUBLE", "STRING", "JOIN",   "INNER",
      "GROUP",  "BY",     "ORDER",   "ASC",    "DESC",   "LIMIT",  "UPDATE",
      "SET",    "DELETE", "ANALYZE", "AS",     "NULL",   "MODEL",  "PREDICT",
      "FEATURES", "TYPE", "DROP",    "COUNT",  "SUM",    "AVG",    "MIN",
      "MAX",    "BETWEEN", "IS",     "DISTINCT", "WITH", "OPTIONS", "SHOW",
      "MODELS", "EXPLAIN", "HAVING", "PREPARE", "EXECUTE", "DEALLOCATE",
      "BEGIN",  "COMMIT",  "ROLLBACK", "TRANSACTION",
  };
  return kKeywords;
}

}  // namespace

Result<std::vector<Token>> Lex(const std::string& input) {
  std::vector<Token> out;
  size_t i = 0;
  const size_t n = input.size();
  while (i < n) {
    char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    size_t start = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      while (i < n && (std::isalnum(static_cast<unsigned char>(input[i])) ||
                       input[i] == '_'))
        ++i;
      std::string word = input.substr(start, i - start);
      std::string upper = word;
      for (char& ch : upper) ch = static_cast<char>(std::toupper(ch));
      if (Keywords().count(upper)) {
        out.push_back({TokenType::kKeyword, upper, start});
      } else {
        out.push_back({TokenType::kIdentifier, word, start});
      }
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n && std::isdigit(static_cast<unsigned char>(input[i + 1])))) {
      bool is_float = false;
      while (i < n && (std::isdigit(static_cast<unsigned char>(input[i])) ||
                       input[i] == '.')) {
        if (input[i] == '.') is_float = true;
        ++i;
      }
      out.push_back({is_float ? TokenType::kFloat : TokenType::kInteger,
                     input.substr(start, i - start), start});
      continue;
    }
    if (c == '\'') {
      ++i;
      std::string body;
      while (i < n && input[i] != '\'') {
        body += input[i];
        ++i;
      }
      if (i >= n) {
        return Status::ParseError("unterminated string literal at offset " +
                                  std::to_string(start));
      }
      ++i;  // closing quote
      out.push_back({TokenType::kString, body, start});
      continue;
    }
    if (c == '$') {
      ++i;
      size_t digits = i;
      while (i < n && std::isdigit(static_cast<unsigned char>(input[i]))) ++i;
      if (i == digits) {
        return Status::ParseError("expected parameter number after '$' at offset " +
                                  std::to_string(start));
      }
      out.push_back({TokenType::kParam, input.substr(digits, i - digits), start});
      continue;
    }
    // Multi-char operators.
    auto two = input.substr(i, 2);
    if (two == "!=" || two == "<=" || two == ">=" || two == "<>") {
      out.push_back({TokenType::kSymbol, two == "<>" ? "!=" : two, start});
      i += 2;
      continue;
    }
    static const std::string kSingle = "(),*=<>+-/.;%";
    if (kSingle.find(c) != std::string::npos) {
      out.push_back({TokenType::kSymbol, std::string(1, c), start});
      ++i;
      continue;
    }
    return Status::ParseError("unexpected character '" + std::string(1, c) +
                              "' at offset " + std::to_string(start));
  }
  out.push_back({TokenType::kEnd, "", n});
  return out;
}

std::string JoinTokens(const std::vector<Token>& tokens, size_t begin,
                       size_t end) {
  std::string out;
  for (size_t i = begin; i < end && i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.type == TokenType::kEnd) break;
    if (!out.empty()) out += ' ';
    switch (t.type) {
      case TokenType::kString: out += "'" + t.text + "'"; break;
      case TokenType::kParam: out += "$" + t.text; break;
      default: out += t.text; break;
    }
  }
  return out;
}

uint64_t ShapeDigest(const std::vector<Token>& tokens, size_t begin,
                     size_t end) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  auto mix = [&h](unsigned char c) {
    h ^= c;
    h *= 1099511628211ULL;
  };
  for (size_t i = begin; i < end && i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.type == TokenType::kEnd) break;
    if (t.type == TokenType::kInteger || t.type == TokenType::kFloat ||
        t.type == TokenType::kString || t.type == TokenType::kParam) {
      mix('?');
    } else {
      for (unsigned char c : t.text) mix(c);
    }
    mix(' ');
  }
  return h;
}

}  // namespace aidb::sql
