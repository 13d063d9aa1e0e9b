#pragma once

#include <memory>
#include <vector>

#include "exec/vec/batch.h"
#include "sql/ast.h"

namespace aidb::exec {

/// \brief Expression compiled for batch-at-a-time evaluation.
///
/// Mirrors BoundExpr node for node, but every node evaluates a whole column
/// with tight typed kernels (see vec_expr.cc for the kernel dispatch). The
/// semantics contract is bit-for-bit equality with the scalar path:
///
///   - Per-row failures (INT64 overflow, arithmetic on a string) do not abort
///     the kernel; the row is nulled and its `err` bit set. The consuming
///     operator finds the lowest *selected* errored row and re-runs the
///     scalar twin (the BoundExpr it keeps next to this VecExpr) on that one
///     row, so the surfaced Status is the scalar engine's, byte for byte —
///     including the lhs-before-rhs evaluation order inside one row, which
///     the scalar path defines.
///   - Everything else (Kleene AND/OR/NOT, NULL-before-type-check, numeric
///     coercion in comparisons, DOUBLE division, PREDICT featurization)
///     matches exec/expr.cc; the generic fallback kernels literally call
///     ApplyBinaryOp/ApplyUnaryOp per row.
///
/// Bind errors are not a concern here: planners bind the scalar twin first,
/// so any name-resolution error surfaces from BoundExpr::Bind with the
/// canonical text, and this binder only runs on expressions that already
/// bound cleanly.
class VecExpr {
 public:
  static Result<VecExpr> Bind(const sql::Expr& expr,
                              const std::vector<OutputCol>& schema,
                              const ModelResolver* models = nullptr);

  /// Evaluates over all physical rows of `in` (cheaper than gathering by the
  /// selection vector), except PREDICT nodes, which run the model only on
  /// selected rows — inference is the one per-row cost worth masking, and it
  /// keeps model-side counters identical to the scalar engine's.
  VecColumn Eval(const Batch& in) const;

  /// Zero-copy variant: a bare column reference returns the batch's own
  /// column; anything else evaluates into *scratch. The reference is valid
  /// while both `in` and *scratch live and is what the hot operators use —
  /// Eval on a column ref would memcpy the whole column per batch.
  const VecColumn& EvalRef(const Batch& in, VecColumn* scratch) const;

  /// Matches the `column <cmp> literal` shape (either operand order; the
  /// operator is flipped when the literal is on the left, so the caller
  /// always sees column-on-the-left form, and *lit_first says it was). This
  /// is the fused-filter fast path: comparisons cannot error, so a matching
  /// predicate can refine the selection vector in one pass without
  /// materializing any column.
  bool MatchColCmpLit(int* col, sql::OpType* op, Value* lit, bool* lit_first) const;

 private:
  enum class Kind { kLiteral, kColumn, kBinary, kUnary, kPredict };

  Kind kind_ = Kind::kLiteral;
  Value literal_;
  int column_ = -1;
  sql::OpType op_ = sql::OpType::kEq;
  std::shared_ptr<VecExpr> lhs_, rhs_;
  std::vector<VecExpr> args_;
  PredictFn predict_;
};

}  // namespace aidb::exec
