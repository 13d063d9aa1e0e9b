#include "sql/ast.h"

namespace aidb::sql {

const char* OpName(OpType op) {
  switch (op) {
    case OpType::kEq: return "=";
    case OpType::kNe: return "!=";
    case OpType::kLt: return "<";
    case OpType::kLe: return "<=";
    case OpType::kGt: return ">";
    case OpType::kGe: return ">=";
    case OpType::kAdd: return "+";
    case OpType::kSub: return "-";
    case OpType::kMul: return "*";
    case OpType::kDiv: return "/";
    case OpType::kAnd: return "AND";
    case OpType::kOr: return "OR";
    case OpType::kNot: return "NOT";
    case OpType::kNeg: return "-";
  }
  return "?";
}

std::unique_ptr<Expr> Expr::MakeLiteral(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kLiteral;
  e->literal = std::move(v);
  return e;
}

std::unique_ptr<Expr> Expr::MakeColumn(std::string table, std::string column) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kColumnRef;
  e->table = std::move(table);
  e->column = std::move(column);
  return e;
}

std::unique_ptr<Expr> Expr::MakeBinary(OpType op, std::unique_ptr<Expr> l,
                                       std::unique_ptr<Expr> r) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kBinary;
  e->op = op;
  e->lhs = std::move(l);
  e->rhs = std::move(r);
  return e;
}

std::unique_ptr<Expr> Expr::MakeUnary(OpType op, std::unique_ptr<Expr> child) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kUnary;
  e->op = op;
  e->lhs = std::move(child);
  return e;
}

std::unique_ptr<Expr> Expr::Clone() const {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->literal = literal;
  e->table = table;
  e->column = column;
  e->op = op;
  e->agg = agg;
  e->model = model;
  e->param = param;
  if (lhs) e->lhs = lhs->Clone();
  if (rhs) e->rhs = rhs->Clone();
  for (const auto& a : args) e->args.push_back(a->Clone());
  return e;
}

std::string Expr::ToString() const {
  switch (kind) {
    case Kind::kLiteral: return literal.ToString();
    case Kind::kColumnRef:
      return table.empty() ? column : table + "." + column;
    case Kind::kBinary:
      return "(" + lhs->ToString() + " " + OpName(op) + " " + rhs->ToString() + ")";
    case Kind::kUnary:
      // Outer parens make the rendering re-parse with the same shape even in
      // operand position: NOT binds looser than comparison in the grammar, so
      // a bare "NOT(a) < b" would re-parse as NOT(a < b).
      return "(" + std::string(OpName(op)) + "(" + lhs->ToString() + "))";
    case Kind::kAggregate: {
      const char* name = agg == AggFunc::kCount ? "COUNT"
                         : agg == AggFunc::kSum ? "SUM"
                         : agg == AggFunc::kAvg ? "AVG"
                         : agg == AggFunc::kMin ? "MIN"
                                                : "MAX";
      return std::string(name) + "(" + (lhs ? lhs->ToString() : "*") + ")";
    }
    case Kind::kPredict: {
      std::string out = "PREDICT(" + model;
      for (const auto& a : args) out += ", " + a->ToString();
      return out + ")";
    }
    case Kind::kStar: return "*";
    case Kind::kParam: return "$" + std::to_string(param);
  }
  return "?";
}

namespace {

std::unique_ptr<Expr> CloneOrNull(const std::unique_ptr<Expr>& e) {
  return e ? e->Clone() : nullptr;
}

}  // namespace

std::unique_ptr<Statement> SelectStatement::Clone() const {
  auto s = std::make_unique<SelectStatement>();
  for (const auto& item : items) {
    SelectItem it;
    it.expr = CloneOrNull(item.expr);
    it.alias = item.alias;
    it.is_star = item.is_star;
    s->items.push_back(std::move(it));
  }
  s->distinct = distinct;
  s->from = from;
  for (const auto& j : joins) {
    JoinClause jc;
    jc.table = j.table;
    jc.condition = CloneOrNull(j.condition);
    s->joins.push_back(std::move(jc));
  }
  s->where = CloneOrNull(where);
  for (const auto& g : group_by) s->group_by.push_back(g->Clone());
  s->having = CloneOrNull(having);
  s->order_by = order_by;
  s->limit = limit;
  s->explain = explain;
  s->explain_analyze = explain_analyze;
  return s;
}

std::unique_ptr<Statement> InsertStatement::Clone() const {
  auto s = std::make_unique<InsertStatement>();
  s->table = table;
  s->rows = rows;
  return s;
}

std::unique_ptr<Statement> CreateTableStatement::Clone() const {
  auto s = std::make_unique<CreateTableStatement>();
  s->table = table;
  s->schema = schema;
  return s;
}

std::unique_ptr<Statement> DropTableStatement::Clone() const {
  auto s = std::make_unique<DropTableStatement>();
  s->table = table;
  return s;
}

std::unique_ptr<Statement> CreateIndexStatement::Clone() const {
  auto s = std::make_unique<CreateIndexStatement>();
  s->index = index;
  s->table = table;
  s->column = column;
  s->is_btree = is_btree;
  return s;
}

std::unique_ptr<Statement> DropIndexStatement::Clone() const {
  auto s = std::make_unique<DropIndexStatement>();
  s->index = index;
  return s;
}

std::unique_ptr<Statement> UpdateStatement::Clone() const {
  auto s = std::make_unique<UpdateStatement>();
  s->table = table;
  for (const auto& [col, expr] : assignments) {
    s->assignments.emplace_back(col, CloneOrNull(expr));
  }
  s->where = CloneOrNull(where);
  return s;
}

std::unique_ptr<Statement> DeleteStatement::Clone() const {
  auto s = std::make_unique<DeleteStatement>();
  s->table = table;
  s->where = CloneOrNull(where);
  return s;
}

std::unique_ptr<Statement> AnalyzeStatement::Clone() const {
  auto s = std::make_unique<AnalyzeStatement>();
  s->table = table;
  return s;
}

std::unique_ptr<Statement> CreateModelStatement::Clone() const {
  auto s = std::make_unique<CreateModelStatement>();
  s->model = model;
  s->model_type = model_type;
  s->target = target;
  s->table = table;
  s->features = features;
  return s;
}

std::unique_ptr<Statement> ShowModelsStatement::Clone() const {
  return std::make_unique<ShowModelsStatement>();
}

std::unique_ptr<Statement> BeginStatement::Clone() const {
  return std::make_unique<BeginStatement>();
}

std::unique_ptr<Statement> CommitStatement::Clone() const {
  return std::make_unique<CommitStatement>();
}

std::unique_ptr<Statement> RollbackStatement::Clone() const {
  return std::make_unique<RollbackStatement>();
}

std::unique_ptr<Statement> PrepareStatement::Clone() const {
  auto s = std::make_unique<PrepareStatement>();
  s->name = name;
  s->body_text = body_text;
  s->body = body ? body->Clone() : nullptr;
  s->num_params = num_params;
  s->shape = shape;
  return s;
}

std::unique_ptr<Statement> ExecuteStatement::Clone() const {
  auto s = std::make_unique<ExecuteStatement>();
  s->name = name;
  s->args = args;
  return s;
}

std::unique_ptr<Statement> DeallocateStatement::Clone() const {
  auto s = std::make_unique<DeallocateStatement>();
  s->name = name;
  return s;
}

}  // namespace aidb::sql
