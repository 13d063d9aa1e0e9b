#include "sql/parser.h"

namespace aidb::sql {

Result<std::unique_ptr<Statement>> Parser::Parse(const std::string& input) {
  std::vector<Token> tokens;
  AIDB_ASSIGN_OR_RETURN(tokens, Lex(input));
  return Parser(std::move(tokens)).ParseAll();
}

Result<ParsedStatement> Parser::ParseKeyed(std::string text) {
  std::vector<Token> tokens;
  AIDB_ASSIGN_OR_RETURN(tokens, Lex(text));
  Parser p(std::move(tokens));
  ParsedStatement out;
  AIDB_ASSIGN_OR_RETURN(out.stmt, p.ParseAll());
  if (out.stmt->kind() == StatementKind::kSelect) {
    out.canonical = JoinTokens(p.tokens_, 0, p.stmt_end_);
    out.shape = ShapeDigest(p.tokens_, 0, p.stmt_end_);
  }
  out.text = std::move(text);
  return out;
}

Result<std::unique_ptr<Statement>> Parser::ParseAll() {
  std::unique_ptr<Statement> stmt;
  AIDB_ASSIGN_OR_RETURN(stmt, ParseStatement());
  stmt_end_ = pos_;
  Match(";");
  if (Peek().type != TokenType::kEnd) {
    return Status::ParseError("trailing input after statement: '" +
                              Peek().text + "'");
  }
  if (max_param_ > 0 && stmt->kind() != StatementKind::kPrepare) {
    return Status::ParseError(
        "parameter placeholders ($N) are only allowed inside PREPARE bodies");
  }
  return stmt;
}

bool Parser::Match(const char* kw_or_sym) {
  const Token& t = Peek();
  if (t.IsKeyword(kw_or_sym) || t.IsSymbol(kw_or_sym)) {
    ++pos_;
    return true;
  }
  return false;
}

Status Parser::Expect(const char* kw_or_sym) {
  if (Match(kw_or_sym)) return Status::OK();
  return Status::ParseError(std::string("expected '") + kw_or_sym + "' but got '" +
                            Peek().text + "' at offset " +
                            std::to_string(Peek().offset));
}

Status Parser::ExpectIdentifier(std::string* out) {
  if (Peek().type != TokenType::kIdentifier) {
    return Status::ParseError("expected identifier but got '" + Peek().text + "'");
  }
  *out = Advance().text;
  return Status::OK();
}

Result<std::unique_ptr<Statement>> Parser::ParseStatement() {
  if (Match("EXPLAIN")) {
    bool analyze = Match("ANALYZE");
    Result<std::unique_ptr<Statement>> stmt = ParseSelect(/*explain=*/true);
    if (stmt.ok() && analyze) {
      static_cast<SelectStatement*>(stmt.ValueOrDie().get())->explain_analyze =
          true;
    }
    return stmt;
  }
  if (Peek().IsKeyword("SELECT")) return ParseSelect(false);
  if (Peek().IsKeyword("INSERT")) return ParseInsert();
  if (Peek().IsKeyword("CREATE")) return ParseCreate();
  if (Peek().IsKeyword("DROP")) return ParseDrop();
  if (Peek().IsKeyword("UPDATE")) return ParseUpdate();
  if (Peek().IsKeyword("DELETE")) return ParseDelete();
  if (Match("ANALYZE")) {
    auto stmt = std::make_unique<AnalyzeStatement>();
    AIDB_RETURN_NOT_OK(ExpectIdentifier(&stmt->table));
    return std::unique_ptr<Statement>(std::move(stmt));
  }
  if (Match("SHOW")) {
    AIDB_RETURN_NOT_OK(Expect("MODELS"));
    return std::unique_ptr<Statement>(std::make_unique<ShowModelsStatement>());
  }
  if (Peek().IsKeyword("PREPARE")) return ParsePrepare();
  if (Peek().IsKeyword("EXECUTE")) return ParseExecute();
  if (Peek().IsKeyword("DEALLOCATE")) return ParseDeallocate();
  if (Match("BEGIN")) {
    Match("TRANSACTION");  // optional noise word
    return std::unique_ptr<Statement>(std::make_unique<BeginStatement>());
  }
  if (Match("COMMIT")) {
    return std::unique_ptr<Statement>(std::make_unique<CommitStatement>());
  }
  if (Match("ROLLBACK")) {
    return std::unique_ptr<Statement>(std::make_unique<RollbackStatement>());
  }
  return Status::ParseError("unknown statement start: '" + Peek().text + "'");
}

Result<std::unique_ptr<Statement>> Parser::ParsePrepare() {
  AIDB_RETURN_NOT_OK(Expect("PREPARE"));
  auto stmt = std::make_unique<PrepareStatement>();
  AIDB_RETURN_NOT_OK(ExpectIdentifier(&stmt->name));
  AIDB_RETURN_NOT_OK(Expect("AS"));
  size_t body_begin = pos_;
  AIDB_ASSIGN_OR_RETURN(stmt->body, ParseStatement());
  switch (stmt->body->kind()) {
    case StatementKind::kPrepare:
    case StatementKind::kExecute:
    case StatementKind::kDeallocate:
      return Status::ParseError(
          "PREPARE body must be a plain statement, not PREPARE/EXECUTE/"
          "DEALLOCATE");
    case StatementKind::kBegin:
    case StatementKind::kCommit:
    case StatementKind::kRollback:
      return Status::ParseError(
          "PREPARE body must be a plain statement, not transaction control");
    default:
      break;
  }
  stmt->body_text = JoinTokens(tokens_, body_begin, pos_);
  if (stmt->body->kind() == StatementKind::kSelect) {
    stmt->shape = ShapeDigest(tokens_, body_begin, pos_);
  }
  stmt->num_params = max_param_;
  return std::unique_ptr<Statement>(std::move(stmt));
}

Result<std::unique_ptr<Statement>> Parser::ParseExecute() {
  AIDB_RETURN_NOT_OK(Expect("EXECUTE"));
  auto stmt = std::make_unique<ExecuteStatement>();
  AIDB_RETURN_NOT_OK(ExpectIdentifier(&stmt->name));
  if (Match("(")) {
    do {
      Value v;
      AIDB_ASSIGN_OR_RETURN(v, ParseLiteralValue());
      stmt->args.push_back(std::move(v));
    } while (Match(","));
    AIDB_RETURN_NOT_OK(Expect(")"));
  }
  return std::unique_ptr<Statement>(std::move(stmt));
}

Result<std::unique_ptr<Statement>> Parser::ParseDeallocate() {
  AIDB_RETURN_NOT_OK(Expect("DEALLOCATE"));
  auto stmt = std::make_unique<DeallocateStatement>();
  AIDB_RETURN_NOT_OK(ExpectIdentifier(&stmt->name));
  return std::unique_ptr<Statement>(std::move(stmt));
}

Result<std::unique_ptr<Statement>> Parser::ParseSelect(bool explain) {
  AIDB_RETURN_NOT_OK(Expect("SELECT"));
  auto stmt = std::make_unique<SelectStatement>();
  stmt->explain = explain;
  if (Match("DISTINCT")) stmt->distinct = true;

  // Select list.
  do {
    SelectItem item;
    if (Match("*")) {
      item.is_star = true;
    } else {
      AIDB_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (Match("AS")) {
        AIDB_RETURN_NOT_OK(ExpectIdentifier(&item.alias));
      }
    }
    stmt->items.push_back(std::move(item));
  } while (Match(","));

  AIDB_RETURN_NOT_OK(Expect("FROM"));
  // FROM list.
  do {
    TableRef ref;
    AIDB_RETURN_NOT_OK(ExpectIdentifier(&ref.table));
    if (Peek().type == TokenType::kIdentifier) ref.alias = Advance().text;
    stmt->from.push_back(std::move(ref));
  } while (Match(","));

  // JOIN clauses.
  while (Peek().IsKeyword("JOIN") || Peek().IsKeyword("INNER")) {
    Match("INNER");
    AIDB_RETURN_NOT_OK(Expect("JOIN"));
    JoinClause jc;
    AIDB_RETURN_NOT_OK(ExpectIdentifier(&jc.table.table));
    if (Peek().type == TokenType::kIdentifier) jc.table.alias = Advance().text;
    AIDB_RETURN_NOT_OK(Expect("ON"));
    AIDB_ASSIGN_OR_RETURN(jc.condition, ParseExpr());
    stmt->joins.push_back(std::move(jc));
  }

  if (Match("WHERE")) {
    AIDB_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
  }
  if (Match("GROUP")) {
    AIDB_RETURN_NOT_OK(Expect("BY"));
    do {
      std::unique_ptr<Expr> e;
      AIDB_ASSIGN_OR_RETURN(e, ParseExpr());
      stmt->group_by.push_back(std::move(e));
    } while (Match(","));
  }
  if (Match("HAVING")) {
    AIDB_ASSIGN_OR_RETURN(stmt->having, ParseExpr());
  }
  if (Match("ORDER")) {
    AIDB_RETURN_NOT_OK(Expect("BY"));
    do {
      OrderKey key;
      AIDB_RETURN_NOT_OK(ExpectIdentifier(&key.column));
      if (Match(".")) {
        std::string c2;
        AIDB_RETURN_NOT_OK(ExpectIdentifier(&c2));
        key.column += "." + c2;
      }
      if (Match("DESC")) {
        key.desc = true;
      } else {
        Match("ASC");
      }
      stmt->order_by.push_back(std::move(key));
    } while (Match(","));
  }
  if (Match("LIMIT")) {
    if (Peek().type != TokenType::kInteger) {
      return Status::ParseError("LIMIT expects an integer");
    }
    try {
      stmt->limit = std::stoll(Advance().text);
    } catch (const std::exception&) {
      return Status::ParseError("LIMIT value out of range");
    }
  }
  return std::unique_ptr<Statement>(std::move(stmt));
}

Result<Value> Parser::ParseLiteralValue() {
  bool neg = false;
  if (Peek().IsSymbol("-")) {
    neg = true;
    Advance();
  }
  const Token& t = Advance();
  switch (t.type) {
    // stoll/stod throw on out-of-range digits; an unparseable literal must be
    // a ParseError, not an uncaught exception that kills the process.
    case TokenType::kInteger: {
      int64_t v = 0;
      try {
        v = std::stoll(t.text);
      } catch (const std::exception&) {
        return Status::ParseError("integer literal out of range: '" + t.text + "'");
      }
      return Value(neg ? -v : v);
    }
    case TokenType::kFloat: {
      double v = 0;
      try {
        v = std::stod(t.text);
      } catch (const std::exception&) {
        return Status::ParseError("numeric literal out of range: '" + t.text + "'");
      }
      return Value(neg ? -v : v);
    }
    case TokenType::kString:
      if (neg) return Status::ParseError("cannot negate a string literal");
      return Value(t.text);
    case TokenType::kKeyword:
      if (t.text == "NULL" && !neg) return Value::Null();
      [[fallthrough]];
    default:
      return Status::ParseError("expected literal but got '" + t.text + "'");
  }
}

Result<std::unique_ptr<Statement>> Parser::ParseInsert() {
  AIDB_RETURN_NOT_OK(Expect("INSERT"));
  AIDB_RETURN_NOT_OK(Expect("INTO"));
  auto stmt = std::make_unique<InsertStatement>();
  AIDB_RETURN_NOT_OK(ExpectIdentifier(&stmt->table));
  AIDB_RETURN_NOT_OK(Expect("VALUES"));
  do {
    AIDB_RETURN_NOT_OK(Expect("("));
    std::vector<Value> row;
    do {
      Value v;
      AIDB_ASSIGN_OR_RETURN(v, ParseLiteralValue());
      row.push_back(std::move(v));
    } while (Match(","));
    AIDB_RETURN_NOT_OK(Expect(")"));
    stmt->rows.push_back(std::move(row));
  } while (Match(","));
  return std::unique_ptr<Statement>(std::move(stmt));
}

Result<std::unique_ptr<Statement>> Parser::ParseCreate() {
  AIDB_RETURN_NOT_OK(Expect("CREATE"));
  if (Match("TABLE")) {
    auto stmt = std::make_unique<CreateTableStatement>();
    AIDB_RETURN_NOT_OK(ExpectIdentifier(&stmt->table));
    AIDB_RETURN_NOT_OK(Expect("("));
    do {
      Column col;
      AIDB_RETURN_NOT_OK(ExpectIdentifier(&col.name));
      if (Match("INT")) {
        col.type = ValueType::kInt;
      } else if (Match("DOUBLE")) {
        col.type = ValueType::kDouble;
      } else if (Match("STRING")) {
        col.type = ValueType::kString;
      } else {
        return Status::ParseError("expected column type (INT|DOUBLE|STRING)");
      }
      stmt->schema.AddColumn(std::move(col));
    } while (Match(","));
    AIDB_RETURN_NOT_OK(Expect(")"));
    return std::unique_ptr<Statement>(std::move(stmt));
  }
  if (Match("INDEX")) {
    auto stmt = std::make_unique<CreateIndexStatement>();
    AIDB_RETURN_NOT_OK(ExpectIdentifier(&stmt->index));
    AIDB_RETURN_NOT_OK(Expect("ON"));
    AIDB_RETURN_NOT_OK(ExpectIdentifier(&stmt->table));
    AIDB_RETURN_NOT_OK(Expect("("));
    AIDB_RETURN_NOT_OK(ExpectIdentifier(&stmt->column));
    AIDB_RETURN_NOT_OK(Expect(")"));
    if (Match("USING")) {
      if (Match("HASH")) {
        stmt->is_btree = false;
      } else {
        AIDB_RETURN_NOT_OK(Expect("BTREE"));
      }
    }
    return std::unique_ptr<Statement>(std::move(stmt));
  }
  if (Match("MODEL")) {
    auto stmt = std::make_unique<CreateModelStatement>();
    AIDB_RETURN_NOT_OK(ExpectIdentifier(&stmt->model));
    AIDB_RETURN_NOT_OK(Expect("TYPE"));
    AIDB_RETURN_NOT_OK(ExpectIdentifier(&stmt->model_type));
    AIDB_RETURN_NOT_OK(Expect("PREDICT"));
    AIDB_RETURN_NOT_OK(ExpectIdentifier(&stmt->target));
    AIDB_RETURN_NOT_OK(Expect("ON"));
    AIDB_RETURN_NOT_OK(ExpectIdentifier(&stmt->table));
    if (Match("FEATURES")) {
      AIDB_RETURN_NOT_OK(Expect("("));
      do {
        std::string f;
        AIDB_RETURN_NOT_OK(ExpectIdentifier(&f));
        stmt->features.push_back(std::move(f));
      } while (Match(","));
      AIDB_RETURN_NOT_OK(Expect(")"));
    }
    return std::unique_ptr<Statement>(std::move(stmt));
  }
  return Status::ParseError("expected TABLE, INDEX or MODEL after CREATE");
}

Result<std::unique_ptr<Statement>> Parser::ParseDrop() {
  AIDB_RETURN_NOT_OK(Expect("DROP"));
  if (Match("TABLE")) {
    auto stmt = std::make_unique<DropTableStatement>();
    AIDB_RETURN_NOT_OK(ExpectIdentifier(&stmt->table));
    return std::unique_ptr<Statement>(std::move(stmt));
  }
  AIDB_RETURN_NOT_OK(Expect("INDEX"));
  auto stmt = std::make_unique<DropIndexStatement>();
  AIDB_RETURN_NOT_OK(ExpectIdentifier(&stmt->index));
  return std::unique_ptr<Statement>(std::move(stmt));
}

Result<std::unique_ptr<Statement>> Parser::ParseUpdate() {
  AIDB_RETURN_NOT_OK(Expect("UPDATE"));
  auto stmt = std::make_unique<UpdateStatement>();
  AIDB_RETURN_NOT_OK(ExpectIdentifier(&stmt->table));
  AIDB_RETURN_NOT_OK(Expect("SET"));
  do {
    std::string col;
    AIDB_RETURN_NOT_OK(ExpectIdentifier(&col));
    AIDB_RETURN_NOT_OK(Expect("="));
    std::unique_ptr<Expr> e;
    AIDB_ASSIGN_OR_RETURN(e, ParseExpr());
    stmt->assignments.emplace_back(std::move(col), std::move(e));
  } while (Match(","));
  if (Match("WHERE")) {
    AIDB_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
  }
  return std::unique_ptr<Statement>(std::move(stmt));
}

Result<std::unique_ptr<Statement>> Parser::ParseDelete() {
  AIDB_RETURN_NOT_OK(Expect("DELETE"));
  AIDB_RETURN_NOT_OK(Expect("FROM"));
  auto stmt = std::make_unique<DeleteStatement>();
  AIDB_RETURN_NOT_OK(ExpectIdentifier(&stmt->table));
  if (Match("WHERE")) {
    AIDB_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
  }
  return std::unique_ptr<Statement>(std::move(stmt));
}

// ----- Expressions -----

Result<std::unique_ptr<Expr>> Parser::ParseExpr() {
  std::unique_ptr<Expr> lhs;
  AIDB_ASSIGN_OR_RETURN(lhs, ParseAnd());
  while (Match("OR")) {
    std::unique_ptr<Expr> rhs;
    AIDB_ASSIGN_OR_RETURN(rhs, ParseAnd());
    lhs = Expr::MakeBinary(OpType::kOr, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<std::unique_ptr<Expr>> Parser::ParseAnd() {
  std::unique_ptr<Expr> lhs;
  AIDB_ASSIGN_OR_RETURN(lhs, ParseNot());
  while (Match("AND")) {
    std::unique_ptr<Expr> rhs;
    AIDB_ASSIGN_OR_RETURN(rhs, ParseNot());
    lhs = Expr::MakeBinary(OpType::kAnd, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<std::unique_ptr<Expr>> Parser::ParseNot() {
  if (Match("NOT")) {
    std::unique_ptr<Expr> child;
    AIDB_ASSIGN_OR_RETURN(child, ParseNot());
    return Expr::MakeUnary(OpType::kNot, std::move(child));
  }
  return ParseCmp();
}

Result<std::unique_ptr<Expr>> Parser::ParseCmp() {
  std::unique_ptr<Expr> lhs;
  AIDB_ASSIGN_OR_RETURN(lhs, ParseAdd());
  if (Match("BETWEEN")) {
    std::unique_ptr<Expr> lo, hi;
    AIDB_ASSIGN_OR_RETURN(lo, ParseAdd());
    AIDB_RETURN_NOT_OK(Expect("AND"));
    AIDB_ASSIGN_OR_RETURN(hi, ParseAdd());
    auto ge = Expr::MakeBinary(OpType::kGe, lhs->Clone(), std::move(lo));
    auto le = Expr::MakeBinary(OpType::kLe, std::move(lhs), std::move(hi));
    return Expr::MakeBinary(OpType::kAnd, std::move(ge), std::move(le));
  }
  struct {
    const char* sym;
    OpType op;
  } static const kOps[] = {{"=", OpType::kEq},  {"!=", OpType::kNe},
                           {"<=", OpType::kLe}, {">=", OpType::kGe},
                           {"<", OpType::kLt},  {">", OpType::kGt}};
  for (const auto& [sym, op] : kOps) {
    if (Match(sym)) {
      std::unique_ptr<Expr> rhs;
      AIDB_ASSIGN_OR_RETURN(rhs, ParseAdd());
      return Expr::MakeBinary(op, std::move(lhs), std::move(rhs));
    }
  }
  return lhs;
}

Result<std::unique_ptr<Expr>> Parser::ParseAdd() {
  std::unique_ptr<Expr> lhs;
  AIDB_ASSIGN_OR_RETURN(lhs, ParseMul());
  for (;;) {
    if (Match("+")) {
      std::unique_ptr<Expr> rhs;
      AIDB_ASSIGN_OR_RETURN(rhs, ParseMul());
      lhs = Expr::MakeBinary(OpType::kAdd, std::move(lhs), std::move(rhs));
    } else if (Match("-")) {
      std::unique_ptr<Expr> rhs;
      AIDB_ASSIGN_OR_RETURN(rhs, ParseMul());
      lhs = Expr::MakeBinary(OpType::kSub, std::move(lhs), std::move(rhs));
    } else {
      return lhs;
    }
  }
}

Result<std::unique_ptr<Expr>> Parser::ParseMul() {
  std::unique_ptr<Expr> lhs;
  AIDB_ASSIGN_OR_RETURN(lhs, ParseUnary());
  for (;;) {
    if (Match("*")) {
      std::unique_ptr<Expr> rhs;
      AIDB_ASSIGN_OR_RETURN(rhs, ParseUnary());
      lhs = Expr::MakeBinary(OpType::kMul, std::move(lhs), std::move(rhs));
    } else if (Match("/")) {
      std::unique_ptr<Expr> rhs;
      AIDB_ASSIGN_OR_RETURN(rhs, ParseUnary());
      lhs = Expr::MakeBinary(OpType::kDiv, std::move(lhs), std::move(rhs));
    } else {
      return lhs;
    }
  }
}

Result<std::unique_ptr<Expr>> Parser::ParseUnary() {
  if (Match("-")) {
    std::unique_ptr<Expr> child;
    AIDB_ASSIGN_OR_RETURN(child, ParseUnary());
    return Expr::MakeUnary(OpType::kNeg, std::move(child));
  }
  // NOT in operand position ("1 + NOT(x)"): ParseNot only sees NOT at the
  // predicate level, so without this, Expr::ToString output containing a
  // nested NOT would not round-trip through the parser.
  if (Match("NOT")) {
    std::unique_ptr<Expr> child;
    AIDB_ASSIGN_OR_RETURN(child, ParseUnary());
    return Expr::MakeUnary(OpType::kNot, std::move(child));
  }
  return ParsePrimary();
}

Result<std::unique_ptr<Expr>> Parser::ParsePrimary() {
  const Token& t = Peek();
  // Aggregates.
  static const std::pair<const char*, AggFunc> kAggs[] = {
      {"COUNT", AggFunc::kCount}, {"SUM", AggFunc::kSum},  {"AVG", AggFunc::kAvg},
      {"MIN", AggFunc::kMin},     {"MAX", AggFunc::kMax}};
  for (const auto& [name, fn] : kAggs) {
    if (t.IsKeyword(name)) {
      Advance();
      AIDB_RETURN_NOT_OK(Expect("("));
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kAggregate;
      e->agg = fn;
      if (Match("*")) {
        if (fn != AggFunc::kCount)
          return Status::ParseError("only COUNT supports *");
      } else {
        AIDB_ASSIGN_OR_RETURN(e->lhs, ParseExpr());
      }
      AIDB_RETURN_NOT_OK(Expect(")"));
      return std::unique_ptr<Expr>(std::move(e));
    }
  }
  if (t.IsKeyword("PREDICT")) {
    Advance();
    AIDB_RETURN_NOT_OK(Expect("("));
    auto e = std::make_unique<Expr>();
    e->kind = Expr::Kind::kPredict;
    AIDB_RETURN_NOT_OK(ExpectIdentifier(&e->model));
    while (Match(",")) {
      std::unique_ptr<Expr> arg;
      AIDB_ASSIGN_OR_RETURN(arg, ParseExpr());
      e->args.push_back(std::move(arg));
    }
    AIDB_RETURN_NOT_OK(Expect(")"));
    return std::unique_ptr<Expr>(std::move(e));
  }
  if (t.IsKeyword("NULL")) {
    Advance();
    return Expr::MakeLiteral(Value::Null());
  }
  if (t.type == TokenType::kInteger || t.type == TokenType::kFloat ||
      t.type == TokenType::kString) {
    Value v;
    AIDB_ASSIGN_OR_RETURN(v, ParseLiteralValue());
    return Expr::MakeLiteral(std::move(v));
  }
  if (t.IsSymbol("(")) {
    Advance();
    std::unique_ptr<Expr> inner;
    AIDB_ASSIGN_OR_RETURN(inner, ParseExpr());
    AIDB_RETURN_NOT_OK(Expect(")"));
    return inner;
  }
  if (t.type == TokenType::kIdentifier) {
    std::string first = Advance().text;
    if (Match(".")) {
      std::string second;
      AIDB_RETURN_NOT_OK(ExpectIdentifier(&second));
      return Expr::MakeColumn(first, second);
    }
    return Expr::MakeColumn("", first);
  }
  if (t.type == TokenType::kParam) {
    int idx = 0;
    try {
      idx = std::stoi(Advance().text);
    } catch (const std::exception&) {
      return Status::ParseError("parameter number out of range");
    }
    if (idx < 1) return Status::ParseError("parameter numbers start at $1");
    auto e = std::make_unique<Expr>();
    e->kind = Expr::Kind::kParam;
    e->param = idx;
    if (idx > max_param_) max_param_ = idx;
    return std::unique_ptr<Expr>(std::move(e));
  }
  return Status::ParseError("unexpected token '" + t.text + "' in expression");
}

}  // namespace aidb::sql
