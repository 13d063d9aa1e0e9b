#include "exec/vec/vec_expr.h"

namespace aidb::exec {

namespace {

using Kind = VecColumn::Kind;

bool IsNumericKind(Kind k) { return k == Kind::kInt || k == Kind::kDouble; }

/// Loop-invariant numeric view of one row (the int->double coercion both
/// Value::Compare and mixed arithmetic apply).
inline double NumAt(const VecColumn& c, size_t i) {
  return c.kind == Kind::kInt ? static_cast<double>(c.ints[i]) : c.doubles[i];
}

void PropagateErr(const VecColumn& l, const VecColumn& r, VecColumn* out) {
  if (!l.has_err && !r.has_err) return;
  const size_t n = out->rows;
  for (size_t i = 0; i < n; ++i) {
    if (l.err[i] | r.err[i]) out->MarkError(i);
  }
}

void PropagateErr(const VecColumn& c, VecColumn* out) {
  if (!c.has_err) return;
  for (size_t i = 0; i < out->rows; ++i) {
    if (c.err[i]) out->MarkError(i);
  }
}

/// Kleene truth arrays: k[i] = operand known (non-NULL), t[i] = known true.
/// Errored rows are already nulled, so they read as unknown here and the err
/// bit decides the statement's fate at the consumer.
void Truthiness(const VecColumn& c, std::vector<uint8_t>* t,
                std::vector<uint8_t>* k) {
  const size_t n = c.rows;
  t->assign(n, 0);
  k->assign(n, 0);
  switch (c.kind) {
    case Kind::kNull:
      break;
    case Kind::kInt:
      for (size_t i = 0; i < n; ++i) {
        (*k)[i] = c.valid[i];
        (*t)[i] = static_cast<uint8_t>(c.valid[i] && c.ints[i] != 0);
      }
      break;
    case Kind::kDouble:
      for (size_t i = 0; i < n; ++i) {
        (*k)[i] = c.valid[i];
        (*t)[i] = static_cast<uint8_t>(c.valid[i] && c.doubles[i] != 0.0);
      }
      break;
    case Kind::kString:
      for (size_t i = 0; i < n; ++i) {
        (*k)[i] = c.valid[i];
        (*t)[i] = static_cast<uint8_t>(
            c.valid[i] && !c.dict[static_cast<size_t>(c.codes[i])].empty());
      }
      break;
    case Kind::kGeneric:
      for (size_t i = 0; i < n; ++i) {
        if (c.generic[i].is_null()) continue;
        (*k)[i] = 1;
        (*t)[i] = static_cast<uint8_t>(ValueIsTrue(c.generic[i]));
      }
      break;
  }
}

VecColumn KleeneBinary(sql::OpType op, const VecColumn& l, const VecColumn& r) {
  const size_t n = l.rows;
  std::vector<uint8_t> tl, kl, tr, kr;
  Truthiness(l, &tl, &kl);
  Truthiness(r, &tr, &kr);
  VecColumn out;
  out.Resize(Kind::kInt, n);
  if (op == sql::OpType::kAnd) {
    for (size_t i = 0; i < n; ++i) {
      // FALSE dominates: a known-false side decides AND whatever the other is.
      uint8_t kf = static_cast<uint8_t>((kl[i] & (tl[i] ^ 1)) |
                                        (kr[i] & (tr[i] ^ 1)));
      out.valid[i] = static_cast<uint8_t>(kf | (kl[i] & kr[i]));
      out.ints[i] = static_cast<int64_t>(tl[i] & tr[i]);
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      // TRUE dominates OR symmetrically.
      uint8_t kt = static_cast<uint8_t>((kl[i] & tl[i]) | (kr[i] & tr[i]));
      out.valid[i] = static_cast<uint8_t>(kt | (kl[i] & kr[i]));
      out.ints[i] = static_cast<int64_t>(kt);
    }
  }
  PropagateErr(l, r, &out);
  return out;
}

/// Per-row fallback over the shared scalar kernel: correct for every operand
/// mix, used whenever static typing does not hold.
VecColumn GenericBinary(sql::OpType op, const VecColumn& l, const VecColumn& r) {
  const size_t n = l.rows;
  VecColumn out;
  out.Resize(Kind::kGeneric, n);
  for (size_t i = 0; i < n; ++i) {
    if (l.err[i] | r.err[i]) {
      out.MarkError(i);
      continue;
    }
    Result<Value> v = ApplyBinaryOp(op, l.ValueAt(i), r.ValueAt(i));
    if (!v.ok()) {
      out.MarkError(i);
    } else {
      out.generic[i] = std::move(v).ValueOrDie();
    }
  }
  return out;
}

int CompareConstant(bool left_is_string) {
  // Value::Compare: numbers sort before strings, deterministically.
  return left_is_string ? 1 : -1;
}

inline int64_t CmpResult(sql::OpType op, int c) {
  switch (op) {
    case sql::OpType::kEq: return c == 0;
    case sql::OpType::kNe: return c != 0;
    case sql::OpType::kLt: return c < 0;
    case sql::OpType::kLe: return c <= 0;
    case sql::OpType::kGt: return c > 0;
    case sql::OpType::kGe: return c >= 0;
    default: return 0;
  }
}

VecColumn CompareKernel(sql::OpType op, const VecColumn& l, const VecColumn& r) {
  const size_t n = l.rows;
  VecColumn out;
  out.Resize(Kind::kInt, n);
  const bool lstr = l.kind == Kind::kString, rstr = r.kind == Kind::kString;
  if (lstr && rstr) {
    for (size_t i = 0; i < n; ++i) {
      uint8_t v = static_cast<uint8_t>(l.valid[i] & r.valid[i]);
      if (!v) continue;
      const std::string& a = l.dict[static_cast<size_t>(l.codes[i])];
      const std::string& b = r.dict[static_cast<size_t>(r.codes[i])];
      int c = a < b ? -1 : (a == b ? 0 : 1);
      out.valid[i] = 1;
      out.ints[i] = CmpResult(op, c);
    }
  } else if (lstr != rstr) {
    const int64_t res = CmpResult(op, CompareConstant(lstr));
    for (size_t i = 0; i < n; ++i) {
      uint8_t v = static_cast<uint8_t>(l.valid[i] & r.valid[i]);
      out.valid[i] = v;
      out.ints[i] = res;
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      uint8_t v = static_cast<uint8_t>(l.valid[i] & r.valid[i]);
      double a = NumAt(l, i), b = NumAt(r, i);
      int c = a < b ? -1 : (a == b ? 0 : 1);
      out.valid[i] = v;
      out.ints[i] = CmpResult(op, c);
    }
  }
  PropagateErr(l, r, &out);
  return out;
}

VecColumn ArithKernel(sql::OpType op, const VecColumn& l, const VecColumn& r) {
  const size_t n = l.rows;
  VecColumn out;
  const bool has_string = l.kind == Kind::kString || r.kind == Kind::kString;
  if (has_string && op != sql::OpType::kDiv) {
    // NULL propagates before the type check, so only non-NULL pairs error;
    // the rest of the column is NULL.
    out.Resize(Kind::kNull, n);
    for (size_t i = 0; i < n; ++i) {
      if (l.valid[i] & r.valid[i]) out.MarkError(i);
    }
    PropagateErr(l, r, &out);
    return out;
  }
  if (op == sql::OpType::kDiv) {
    if (has_string) {
      out.Resize(Kind::kNull, n);
      for (size_t i = 0; i < n; ++i) {
        if (l.valid[i] & r.valid[i]) out.MarkError(i);
      }
      PropagateErr(l, r, &out);
      return out;
    }
    out.Resize(Kind::kDouble, n);
    for (size_t i = 0; i < n; ++i) {
      double d = NumAt(r, i);
      if ((l.valid[i] & r.valid[i]) && d != 0.0) {
        out.doubles[i] = NumAt(l, i) / d;
        out.valid[i] = 1;
      }
    }
    PropagateErr(l, r, &out);
    return out;
  }
  if (l.kind == Kind::kInt && r.kind == Kind::kInt) {
    out.Resize(Kind::kInt, n);
    for (size_t i = 0; i < n; ++i) {
      uint8_t v = static_cast<uint8_t>(l.valid[i] & r.valid[i]);
      int64_t res = 0;
      bool ovf = false;
      switch (op) {
        case sql::OpType::kAdd:
          ovf = __builtin_add_overflow(l.ints[i], r.ints[i], &res);
          break;
        case sql::OpType::kSub:
          ovf = __builtin_sub_overflow(l.ints[i], r.ints[i], &res);
          break;
        default:
          ovf = __builtin_mul_overflow(l.ints[i], r.ints[i], &res);
          break;
      }
      if (v && ovf) {
        out.MarkError(i);
      } else {
        out.ints[i] = ovf ? 0 : res;
        out.valid[i] = v;
      }
    }
    PropagateErr(l, r, &out);
    return out;
  }
  out.Resize(Kind::kDouble, n);
  switch (op) {
    case sql::OpType::kAdd:
      for (size_t i = 0; i < n; ++i) {
        out.doubles[i] = NumAt(l, i) + NumAt(r, i);
        out.valid[i] = static_cast<uint8_t>(l.valid[i] & r.valid[i]);
      }
      break;
    case sql::OpType::kSub:
      for (size_t i = 0; i < n; ++i) {
        out.doubles[i] = NumAt(l, i) - NumAt(r, i);
        out.valid[i] = static_cast<uint8_t>(l.valid[i] & r.valid[i]);
      }
      break;
    default:
      for (size_t i = 0; i < n; ++i) {
        out.doubles[i] = NumAt(l, i) * NumAt(r, i);
        out.valid[i] = static_cast<uint8_t>(l.valid[i] & r.valid[i]);
      }
      break;
  }
  PropagateErr(l, r, &out);
  return out;
}

VecColumn ApplyBinaryVec(sql::OpType op, const VecColumn& l, const VecColumn& r) {
  if (op == sql::OpType::kAnd || op == sql::OpType::kOr) {
    return KleeneBinary(op, l, r);
  }
  if (l.kind == Kind::kGeneric || r.kind == Kind::kGeneric) {
    return GenericBinary(op, l, r);
  }
  if (l.kind == Kind::kNull || r.kind == Kind::kNull) {
    // A NULL operand nulls every comparison and arithmetic row before any
    // type check could error.
    VecColumn out;
    out.Resize(Kind::kNull, l.rows);
    PropagateErr(l, r, &out);
    return out;
  }
  switch (op) {
    case sql::OpType::kEq:
    case sql::OpType::kNe:
    case sql::OpType::kLt:
    case sql::OpType::kLe:
    case sql::OpType::kGt:
    case sql::OpType::kGe:
      return CompareKernel(op, l, r);
    default:
      return ArithKernel(op, l, r);
  }
}

VecColumn ApplyUnaryVec(sql::OpType op, const VecColumn& c) {
  const size_t n = c.rows;
  VecColumn out;
  if (op == sql::OpType::kNot) {
    std::vector<uint8_t> t, k;
    Truthiness(c, &t, &k);
    out.Resize(Kind::kInt, n);
    for (size_t i = 0; i < n; ++i) {
      out.valid[i] = k[i];
      out.ints[i] = static_cast<int64_t>(k[i] & (t[i] ^ 1));
    }
    PropagateErr(c, &out);
    return out;
  }
  // Unary minus.
  switch (c.kind) {
    case Kind::kNull:
      out.Resize(Kind::kNull, n);
      break;
    case Kind::kGeneric:
      out.Resize(Kind::kGeneric, n);
      for (size_t i = 0; i < n; ++i) {
        if (c.err[i]) {
          out.MarkError(i);
          continue;
        }
        Result<Value> v = ApplyUnaryOp(op, c.generic[i]);
        if (!v.ok()) {
          out.MarkError(i);
        } else {
          out.generic[i] = std::move(v).ValueOrDie();
        }
      }
      return out;
    case Kind::kString:
      out.Resize(Kind::kNull, n);
      for (size_t i = 0; i < n; ++i) {
        if (c.valid[i]) out.MarkError(i);
      }
      break;
    case Kind::kInt:
      out.Resize(Kind::kInt, n);
      for (size_t i = 0; i < n; ++i) {
        int64_t res = 0;
        bool ovf = __builtin_sub_overflow(static_cast<int64_t>(0), c.ints[i],
                                          &res);
        if (c.valid[i] && ovf) {
          out.MarkError(i);
        } else {
          out.ints[i] = ovf ? 0 : res;
          out.valid[i] = c.valid[i];
        }
      }
      break;
    case Kind::kDouble:
      out.Resize(Kind::kDouble, n);
      for (size_t i = 0; i < n; ++i) {
        out.doubles[i] = -c.doubles[i];
        out.valid[i] = c.valid[i];
      }
      break;
  }
  PropagateErr(c, &out);
  return out;
}

VecColumn BroadcastLiteral(const Value& v, size_t n) {
  VecColumn out;
  switch (v.type()) {
    case ValueType::kNull:
      out.Resize(Kind::kNull, n);
      break;
    case ValueType::kInt:
      out.Resize(Kind::kInt, n);
      std::fill(out.ints.begin(), out.ints.end(), v.AsInt());
      std::fill(out.valid.begin(), out.valid.end(), uint8_t{1});
      break;
    case ValueType::kDouble:
      out.Resize(Kind::kDouble, n);
      std::fill(out.doubles.begin(), out.doubles.end(), v.AsDouble());
      std::fill(out.valid.begin(), out.valid.end(), uint8_t{1});
      break;
    case ValueType::kString:
      out.Resize(Kind::kString, n);
      out.dict.push_back(v.AsString());
      std::fill(out.valid.begin(), out.valid.end(), uint8_t{1});
      break;
  }
  return out;
}

}  // namespace

Result<VecExpr> VecExpr::Bind(const sql::Expr& expr,
                              const std::vector<OutputCol>& schema,
                              const ModelResolver* models) {
  VecExpr b;
  switch (expr.kind) {
    case sql::Expr::Kind::kLiteral:
      b.kind_ = Kind::kLiteral;
      b.literal_ = expr.literal;
      return b;
    case sql::Expr::Kind::kColumnRef: {
      b.kind_ = Kind::kColumn;
      AIDB_ASSIGN_OR_RETURN(b.column_,
                            ResolveColumnIndex(schema, expr.table, expr.column));
      return b;
    }
    case sql::Expr::Kind::kBinary: {
      b.kind_ = Kind::kBinary;
      b.op_ = expr.op;
      VecExpr l, r;
      AIDB_ASSIGN_OR_RETURN(l, Bind(*expr.lhs, schema, models));
      AIDB_ASSIGN_OR_RETURN(r, Bind(*expr.rhs, schema, models));
      b.lhs_ = std::make_shared<VecExpr>(std::move(l));
      b.rhs_ = std::make_shared<VecExpr>(std::move(r));
      return b;
    }
    case sql::Expr::Kind::kUnary: {
      b.kind_ = Kind::kUnary;
      b.op_ = expr.op;
      VecExpr l;
      AIDB_ASSIGN_OR_RETURN(l, Bind(*expr.lhs, schema, models));
      b.lhs_ = std::make_shared<VecExpr>(std::move(l));
      return b;
    }
    case sql::Expr::Kind::kPredict: {
      b.kind_ = Kind::kPredict;
      if (models == nullptr) {
        return Status::InvalidArgument("PREDICT not available in this context");
      }
      AIDB_ASSIGN_OR_RETURN(b.predict_, models->Resolve(expr.model));
      for (const auto& arg : expr.args) {
        VecExpr a;
        AIDB_ASSIGN_OR_RETURN(a, Bind(*arg, schema, models));
        b.args_.push_back(std::move(a));
      }
      return b;
    }
    case sql::Expr::Kind::kAggregate:
      return Status::InvalidArgument(
          "aggregate expression outside of aggregation context");
    case sql::Expr::Kind::kStar:
      return Status::InvalidArgument("* is not a scalar expression");
  }
  return Status::Internal("unreachable expr kind");
}

const VecColumn& VecExpr::EvalRef(const Batch& in, VecColumn* scratch) const {
  if (kind_ == Kind::kColumn) return in.cols[static_cast<size_t>(column_)];
  *scratch = Eval(in);
  return *scratch;
}

bool VecExpr::MatchColCmpLit(int* col, sql::OpType* op, Value* lit,
                             bool* lit_first) const {
  if (kind_ != Kind::kBinary) return false;
  switch (op_) {
    case sql::OpType::kEq:
    case sql::OpType::kNe:
    case sql::OpType::kLt:
    case sql::OpType::kLe:
    case sql::OpType::kGt:
    case sql::OpType::kGe:
      break;
    default:
      return false;
  }
  const VecExpr& l = *lhs_;
  const VecExpr& r = *rhs_;
  if (l.kind_ == Kind::kColumn && r.kind_ == Kind::kLiteral) {
    *col = l.column_;
    *op = op_;
    *lit = r.literal_;
    *lit_first = false;
    return true;
  }
  if (l.kind_ == Kind::kLiteral && r.kind_ == Kind::kColumn) {
    *col = r.column_;
    *lit = l.literal_;
    *lit_first = true;
    switch (op_) {  // lit < col  ≡  col > lit, etc.
      case sql::OpType::kLt: *op = sql::OpType::kGt; break;
      case sql::OpType::kLe: *op = sql::OpType::kGe; break;
      case sql::OpType::kGt: *op = sql::OpType::kLt; break;
      case sql::OpType::kGe: *op = sql::OpType::kLe; break;
      default: *op = op_; break;  // Eq/Ne are symmetric
    }
    return true;
  }
  return false;
}

VecColumn VecExpr::Eval(const Batch& in) const {
  switch (kind_) {
    case Kind::kLiteral:
      return BroadcastLiteral(literal_, in.rows);
    case Kind::kColumn:
      return in.cols[static_cast<size_t>(column_)];
    case Kind::kBinary: {
      VecColumn ls, rs;
      const VecColumn& l = lhs_->EvalRef(in, &ls);
      const VecColumn& r = rhs_->EvalRef(in, &rs);
      return ApplyBinaryVec(op_, l, r);
    }
    case Kind::kUnary: {
      VecColumn ls;
      return ApplyUnaryVec(op_, lhs_->EvalRef(in, &ls));
    }
    case Kind::kPredict: {
      std::vector<VecColumn> scratch(args_.size());
      std::vector<const VecColumn*> arg_cols;
      arg_cols.reserve(args_.size());
      for (size_t j = 0; j < args_.size(); ++j) {
        arg_cols.push_back(&args_[j].EvalRef(in, &scratch[j]));
      }
      VecColumn out;
      out.Resize(VecColumn::Kind::kDouble, in.rows);
      std::vector<double> features(args_.size());
      // Inference only on selected rows: per-row model cost is the one place
      // masking pays, and it keeps inference-side counters equal to the
      // scalar engine, which never sees filtered-out rows.
      const size_t active = in.ActiveCount();
      for (size_t s = 0; s < active; ++s) {
        const size_t i = in.ActiveRow(s);
        bool arg_err = false;
        for (const auto* c : arg_cols) arg_err = arg_err || c->err[i] != 0;
        if (arg_err) {
          out.MarkError(i);
          continue;
        }
        for (size_t j = 0; j < arg_cols.size(); ++j) {
          features[j] = arg_cols[j]->FeatureAt(i);
        }
        out.doubles[i] = predict_(features);
        out.valid[i] = 1;
      }
      return out;
    }
  }
  return VecColumn{};
}

}  // namespace aidb::exec
