#pragma once

#include <memory>
#include <string>
#include <vector>

#include "storage/schema.h"
#include "storage/value.h"

namespace aidb::sql {

/// Binary/unary operators in expressions.
enum class OpType {
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAdd, kSub, kMul, kDiv,
  kAnd, kOr, kNot, kNeg,
};

const char* OpName(OpType op);

/// Aggregate functions supported in SELECT lists.
enum class AggFunc { kNone, kCount, kSum, kAvg, kMin, kMax };

/// \brief Expression tree node.
struct Expr {
  enum class Kind {
    kLiteral,    ///< value
    kColumnRef,  ///< [table.]column
    kBinary,     ///< lhs op rhs
    kUnary,      ///< op child
    kAggregate,  ///< agg(child) or COUNT(*)
    kPredict,    ///< PREDICT(model, arg...) — DB4AI scalar inference
    kStar,       ///< * (only inside COUNT(*))
    kParam,      ///< $N placeholder, bound by EXECUTE (PREPARE bodies only)
  };

  Kind kind;
  Value literal;                       // kLiteral
  std::string table;                   // kColumnRef (may be empty)
  std::string column;                  // kColumnRef
  OpType op = OpType::kEq;             // kBinary / kUnary
  AggFunc agg = AggFunc::kNone;        // kAggregate
  std::string model;                   // kPredict
  int param = 0;                       // kParam: 1-based placeholder index
  std::unique_ptr<Expr> lhs, rhs;      // children
  std::vector<std::unique_ptr<Expr>> args;  // kPredict arguments

  static std::unique_ptr<Expr> MakeLiteral(Value v);
  static std::unique_ptr<Expr> MakeColumn(std::string table, std::string column);
  static std::unique_ptr<Expr> MakeBinary(OpType op, std::unique_ptr<Expr> l,
                                          std::unique_ptr<Expr> r);
  static std::unique_ptr<Expr> MakeUnary(OpType op, std::unique_ptr<Expr> child);

  std::unique_ptr<Expr> Clone() const;
  std::string ToString() const;
};

/// One item in a SELECT list: expression plus optional alias.
struct SelectItem {
  std::unique_ptr<Expr> expr;
  std::string alias;
  bool is_star = false;  ///< bare *
};

/// Table reference in FROM (optionally aliased).
struct TableRef {
  std::string table;
  std::string alias;  ///< defaults to table name

  const std::string& EffectiveName() const { return alias.empty() ? table : alias; }
};

/// Explicit JOIN clause: JOIN <table> ON <condition>.
struct JoinClause {
  TableRef table;
  std::unique_ptr<Expr> condition;
};

/// Statement kinds the parser produces.
enum class StatementKind {
  kSelect, kInsert, kCreateTable, kCreateIndex, kDropIndex, kUpdate, kDelete,
  kAnalyze, kCreateModel, kShowModels, kDropTable,
  kPrepare, kExecute, kDeallocate,
  kBegin, kCommit, kRollback,
};

struct Statement {
  virtual ~Statement() = default;
  virtual StatementKind kind() const = 0;
  /// Deep copy. PREPARE stores statement templates and EXECUTE instantiates
  /// them per call, so every statement kind must be clonable.
  virtual std::unique_ptr<Statement> Clone() const = 0;
};

/// One ORDER BY key: [table.]column plus direction.
struct OrderKey {
  std::string column;  ///< may be "table.column" qualified
  bool desc = false;
};

struct SelectStatement : Statement {
  std::vector<SelectItem> items;
  bool distinct = false;               ///< SELECT DISTINCT
  std::vector<TableRef> from;          ///< comma-separated relations
  std::vector<JoinClause> joins;       ///< explicit JOIN ... ON ...
  std::unique_ptr<Expr> where;
  std::vector<std::unique_ptr<Expr>> group_by;
  std::unique_ptr<Expr> having;        ///< predicate over aggregates
  std::vector<OrderKey> order_by;
  int64_t limit = -1;                  ///< -1: none
  bool explain = false;                ///< EXPLAIN SELECT ...
  bool explain_analyze = false;        ///< EXPLAIN ANALYZE: execute + trace

  std::unique_ptr<Statement> Clone() const override;
  StatementKind kind() const override { return StatementKind::kSelect; }
};

struct InsertStatement : Statement {
  std::string table;
  std::vector<std::vector<Value>> rows;
  std::unique_ptr<Statement> Clone() const override;
  StatementKind kind() const override { return StatementKind::kInsert; }
};

struct CreateTableStatement : Statement {
  std::string table;
  Schema schema;
  std::unique_ptr<Statement> Clone() const override;
  StatementKind kind() const override { return StatementKind::kCreateTable; }
};

struct DropTableStatement : Statement {
  std::string table;
  std::unique_ptr<Statement> Clone() const override;
  StatementKind kind() const override { return StatementKind::kDropTable; }
};

struct CreateIndexStatement : Statement {
  std::string index;
  std::string table;
  std::string column;
  bool is_btree = true;
  std::unique_ptr<Statement> Clone() const override;
  StatementKind kind() const override { return StatementKind::kCreateIndex; }
};

struct DropIndexStatement : Statement {
  std::string index;
  std::unique_ptr<Statement> Clone() const override;
  StatementKind kind() const override { return StatementKind::kDropIndex; }
};

struct UpdateStatement : Statement {
  std::string table;
  std::vector<std::pair<std::string, std::unique_ptr<Expr>>> assignments;
  std::unique_ptr<Expr> where;
  std::unique_ptr<Statement> Clone() const override;
  StatementKind kind() const override { return StatementKind::kUpdate; }
};

struct DeleteStatement : Statement {
  std::string table;
  std::unique_ptr<Expr> where;
  std::unique_ptr<Statement> Clone() const override;
  StatementKind kind() const override { return StatementKind::kDelete; }
};

struct AnalyzeStatement : Statement {
  std::string table;
  std::unique_ptr<Statement> Clone() const override;
  StatementKind kind() const override { return StatementKind::kAnalyze; }
};

/// DB4AI: CREATE MODEL name TYPE <mlp|linear|logistic|forest>
///        PREDICT target ON table [FEATURES (c1, c2, ...)]
struct CreateModelStatement : Statement {
  std::string model;
  std::string model_type;
  std::string target;
  std::string table;
  std::vector<std::string> features;  ///< empty: all non-target numeric columns
  std::unique_ptr<Statement> Clone() const override;
  StatementKind kind() const override { return StatementKind::kCreateModel; }
};

struct ShowModelsStatement : Statement {
  std::unique_ptr<Statement> Clone() const override;
  StatementKind kind() const override { return StatementKind::kShowModels; }
};

/// BEGIN [TRANSACTION]: opens an explicit transaction on the session.
struct BeginStatement : Statement {
  std::unique_ptr<Statement> Clone() const override;
  StatementKind kind() const override { return StatementKind::kBegin; }
};

/// COMMIT: commits the session's open transaction.
struct CommitStatement : Statement {
  std::unique_ptr<Statement> Clone() const override;
  StatementKind kind() const override { return StatementKind::kCommit; }
};

/// ROLLBACK: rolls back the session's open transaction.
struct RollbackStatement : Statement {
  std::unique_ptr<Statement> Clone() const override;
  StatementKind kind() const override { return StatementKind::kRollback; }
};

/// PREPARE name AS <statement with $1..$n placeholders>.
struct PrepareStatement : Statement {
  std::string name;
  std::string body_text;  ///< canonical token rendering of the body (cache key)
  std::unique_ptr<Statement> body;
  int num_params = 0;  ///< highest $N referenced in the body
  uint64_t shape = 0;  ///< ShapeDigest of a SELECT body: its EXECUTEs' key
  std::unique_ptr<Statement> Clone() const override;
  StatementKind kind() const override { return StatementKind::kPrepare; }
};

/// EXECUTE name [(v1, v2, ...)].
struct ExecuteStatement : Statement {
  std::string name;
  std::vector<Value> args;
  std::unique_ptr<Statement> Clone() const override;
  StatementKind kind() const override { return StatementKind::kExecute; }
};

/// DEALLOCATE name.
struct DeallocateStatement : Statement {
  std::string name;
  std::unique_ptr<Statement> Clone() const override;
  StatementKind kind() const override { return StatementKind::kDeallocate; }
};

}  // namespace aidb::sql
