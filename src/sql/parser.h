#pragma once

#include <memory>
#include <string>

#include "common/result.h"
#include "sql/ast.h"
#include "sql/lexer.h"

namespace aidb::sql {

/// A statement parsed from its text, with the keys its tokens yield. Only a
/// SELECT (EXPLAIN included) carries keys: nothing else is plan-cached by
/// its text or learned by shape, so writes and DDL compute none.
struct ParsedStatement {
  std::string text;  ///< the statement as submitted
  std::unique_ptr<Statement> stmt;
  /// JoinTokens rendering without the trailing ';'. It keeps literals,
  /// because plans embed them: a direct SELECT's plan-cache key.
  std::string canonical;
  uint64_t shape = 0;  ///< ShapeDigest of the same tokens (classifier key)
};

/// \brief Recursive-descent parser for the engine's SQL dialect.
///
/// Supported statements:
///   CREATE TABLE t (a INT, b DOUBLE, c STRING)
///   DROP TABLE t
///   CREATE INDEX i ON t(a) [USING HASH]
///   DROP INDEX i
///   INSERT INTO t VALUES (1, 2.5, 'x'), (...)
///   SELECT [*|exprs] FROM t [alias] [, u] [JOIN v ON a = b]*
///     [WHERE pred] [GROUP BY cols] [ORDER BY col [ASC|DESC]] [LIMIT n]
///   EXPLAIN SELECT ...
///   UPDATE t SET a = expr [, b = expr] [WHERE pred]
///   DELETE FROM t [WHERE pred]
///   ANALYZE t
///   CREATE MODEL m TYPE mlp PREDICT y ON t [FEATURES (a, b)]
///   SHOW MODELS
///   PREPARE name AS SELECT ... $1 ... $n
///   EXECUTE name [(v1, ..., vn)]
///   DEALLOCATE name
class Parser {
 public:
  /// Parses one statement (a trailing ';' is allowed).
  static Result<std::unique_ptr<Statement>> Parse(const std::string& input);
  /// Parse, keeping the text and, for a SELECT, its keys, from the one lex.
  static Result<ParsedStatement> ParseKeyed(std::string text);

 private:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  /// Parses the whole token stream as one statement.
  Result<std::unique_ptr<Statement>> ParseAll();
  Result<std::unique_ptr<Statement>> ParseStatement();
  Result<std::unique_ptr<Statement>> ParseSelect(bool explain);
  Result<std::unique_ptr<Statement>> ParseInsert();
  Result<std::unique_ptr<Statement>> ParseCreate();
  Result<std::unique_ptr<Statement>> ParseDrop();
  Result<std::unique_ptr<Statement>> ParseUpdate();
  Result<std::unique_ptr<Statement>> ParseDelete();
  Result<std::unique_ptr<Statement>> ParsePrepare();
  Result<std::unique_ptr<Statement>> ParseExecute();
  Result<std::unique_ptr<Statement>> ParseDeallocate();

  /// Expression grammar (precedence climbing):
  ///   or_expr  := and_expr (OR and_expr)*
  ///   and_expr := not_expr (AND not_expr)*
  ///   not_expr := NOT not_expr | cmp_expr
  ///   cmp_expr := add_expr ((=|!=|<|<=|>|>=) add_expr | BETWEEN a AND b)?
  ///   add_expr := mul_expr ((+|-) mul_expr)*
  ///   mul_expr := unary ((*|/) unary)*
  ///   unary    := - unary | primary
  ///   primary  := literal | colref | agg(...) | PREDICT(m, ...) | ( or_expr )
  Result<std::unique_ptr<Expr>> ParseExpr();
  Result<std::unique_ptr<Expr>> ParseAnd();
  Result<std::unique_ptr<Expr>> ParseNot();
  Result<std::unique_ptr<Expr>> ParseCmp();
  Result<std::unique_ptr<Expr>> ParseAdd();
  Result<std::unique_ptr<Expr>> ParseMul();
  Result<std::unique_ptr<Expr>> ParseUnary();
  Result<std::unique_ptr<Expr>> ParsePrimary();

  Result<Value> ParseLiteralValue();

  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }
  bool Match(const char* kw_or_sym);
  Status Expect(const char* kw_or_sym);
  Status ExpectIdentifier(std::string* out);

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  size_t stmt_end_ = 0;  ///< one past the statement's last token (no ';')
  /// Highest $N placeholder seen so far. Placeholders are only legal inside
  /// a PREPARE body; Parse() rejects them anywhere else.
  int max_param_ = 0;
};

}  // namespace aidb::sql
