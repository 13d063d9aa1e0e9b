#include "exec/planner.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <set>

#include "exec/vec/vec_ops.h"

namespace aidb::exec {

namespace {

/// True when `op` produces batches. Filter, Project, HashJoin and
/// HashAggregate take their Vec* variant only over a batch input, so the
/// engine switch is read once, in BuildScan, and a plan rooted in an index
/// scan stays row-at-a-time end to end.
bool IsBatch(const Operator& op) {
  return dynamic_cast<const VecOperator*>(&op) != nullptr;
}

/// Wraps `child` in the filter matching its protocol. The scalar expression
/// always binds first so bind-time errors carry the row engine's canonical
/// text whichever engine runs; the vectorized filter keeps the scalar twin
/// for exact runtime error Statuses.
Result<std::unique_ptr<Operator>> MakeFilter(std::unique_ptr<Operator> child,
                                             const sql::Expr& pred,
                                             std::string text,
                                             const ModelResolver* models) {
  BoundExpr bound;
  AIDB_ASSIGN_OR_RETURN(bound, BoundExpr::Bind(pred, child->output(), models));
  if (IsBatch(*child)) {
    VecExpr vec;
    AIDB_ASSIGN_OR_RETURN(vec, VecExpr::Bind(pred, child->output(), models));
    return std::unique_ptr<Operator>(std::make_unique<VecFilterOp>(
        std::move(child), std::move(vec), std::move(bound), std::move(text)));
  }
  return std::unique_ptr<Operator>(std::make_unique<FilterOp>(
      std::move(child), std::move(bound), std::move(text)));
}

/// Annotates the top of a scan chain: the planner's estimated output rows
/// (surfaced by EXPLAIN ANALYZE) and the base table whose feedback entry the
/// operator's true row count updates after execution.
void AnnotateScanChain(Operator* top, const RelationInfo& rel) {
  top->set_est_rows(rel.EffectiveRows());
  top->set_feedback_table(rel.table);
}

}  // namespace

void SplitConjuncts(const sql::Expr* expr, std::vector<const sql::Expr*>* out) {
  if (expr == nullptr) return;
  if (expr->kind == sql::Expr::Kind::kBinary && expr->op == sql::OpType::kAnd) {
    SplitConjuncts(expr->lhs.get(), out);
    SplitConjuncts(expr->rhs.get(), out);
    return;
  }
  out->push_back(expr);
}

Result<std::vector<Planner::RelBinding>> Planner::BindRelations(
    const sql::SelectStatement& stmt) const {
  std::vector<RelBinding> rels;
  auto add = [&](const sql::TableRef& ref) -> Status {
    RelBinding b;
    b.table = ref.table;
    b.name = ref.EffectiveName();
    for (const auto& other : rels) {
      if (other.name == b.name) {
        return Status::InvalidArgument("duplicate relation name '" + b.name + "'");
      }
    }
    AIDB_ASSIGN_OR_RETURN(b.ptr, catalog_->GetTable(ref.table));
    rels.push_back(std::move(b));
    return Status::OK();
  };
  for (const auto& ref : stmt.from) AIDB_RETURN_NOT_OK(add(ref));
  for (const auto& j : stmt.joins) AIDB_RETURN_NOT_OK(add(j.table));
  if (rels.empty()) return Status::InvalidArgument("query references no tables");
  if (rels.size() > 20) return Status::InvalidArgument("too many relations (max 20)");
  return rels;
}

Result<uint64_t> Planner::ReferencedRelations(
    const sql::Expr& expr, const std::vector<RelBinding>& rels) const {
  uint64_t mask = 0;
  Status err = Status::OK();
  std::function<void(const sql::Expr&)> walk = [&](const sql::Expr& e) {
    if (!err.ok()) return;
    if (e.kind == sql::Expr::Kind::kColumnRef) {
      int found = -1;
      for (size_t i = 0; i < rels.size(); ++i) {
        if (!e.table.empty()) {
          if (rels[i].name == e.table &&
              rels[i].ptr->schema().IndexOf(e.column) >= 0) {
            found = static_cast<int>(i);
            break;
          }
        } else if (rels[i].ptr->schema().IndexOf(e.column) >= 0) {
          if (found >= 0) {
            err = Status::InvalidArgument("ambiguous column '" + e.column + "'");
            return;
          }
          found = static_cast<int>(i);
        }
      }
      if (found < 0) {
        err = Status::NotFound("column '" + e.column + "' not found");
        return;
      }
      mask |= 1ULL << found;
    }
    if (e.lhs) walk(*e.lhs);
    if (e.rhs) walk(*e.rhs);
    for (const auto& a : e.args) walk(*a);
  };
  walk(expr);
  if (!err.ok()) return err;
  return mask;
}

Result<QueryGraph> Planner::BuildGraph(const sql::SelectStatement& stmt,
                                       const CardinalityEstimator& est,
                                       std::vector<const sql::Expr*>* residual) const {
  std::vector<RelBinding> rels;
  AIDB_ASSIGN_OR_RETURN(rels, BindRelations(stmt));

  QueryGraph graph;
  for (const auto& r : rels) {
    RelationInfo info;
    info.table = r.table;
    info.name = r.name;
    info.base_rows = static_cast<double>(r.ptr->NumRows());
    graph.rels.push_back(std::move(info));
  }

  std::vector<const sql::Expr*> conjuncts;
  SplitConjuncts(stmt.where.get(), &conjuncts);
  for (const auto& j : stmt.joins) SplitConjuncts(j.condition.get(), &conjuncts);

  for (const sql::Expr* c : conjuncts) {
    uint64_t mask = 0;
    AIDB_ASSIGN_OR_RETURN(mask, ReferencedRelations(*c, rels));
    int popcount = __builtin_popcountll(mask);
    if (popcount <= 1) {
      size_t rel = popcount == 1 ? static_cast<size_t>(__builtin_ctzll(mask)) : 0;
      graph.rels[rel].local_predicates.push_back(c);
      continue;
    }
    // Two-relation equi-join: col = col.
    bool is_equi = popcount == 2 && c->kind == sql::Expr::Kind::kBinary &&
                   c->op == sql::OpType::kEq &&
                   c->lhs->kind == sql::Expr::Kind::kColumnRef &&
                   c->rhs->kind == sql::Expr::Kind::kColumnRef;
    if (is_equi) {
      uint64_t lmask = 0, rmask = 0;
      AIDB_ASSIGN_OR_RETURN(lmask, ReferencedRelations(*c->lhs, rels));
      AIDB_ASSIGN_OR_RETURN(rmask, ReferencedRelations(*c->rhs, rels));
      if (lmask != rmask && __builtin_popcountll(lmask) == 1 &&
          __builtin_popcountll(rmask) == 1) {
        JoinEdgeInfo edge;
        edge.left_rel = static_cast<size_t>(__builtin_ctzll(lmask));
        edge.right_rel = static_cast<size_t>(__builtin_ctzll(rmask));
        edge.left_column = c->lhs->column;
        edge.right_column = c->rhs->column;
        edge.condition = c;
        edge.selectivity =
            est.JoinSelectivity(graph.rels[edge.left_rel].table, edge.left_column,
                                graph.rels[edge.right_rel].table, edge.right_column);
        graph.edges.push_back(std::move(edge));
        continue;
      }
    }
    if (residual) residual->push_back(c);
  }
  // Joint local selectivity per relation (one estimator call per relation so
  // correlation-aware estimators see all conjuncts together).
  for (auto& rel : graph.rels) {
    if (!rel.local_predicates.empty()) {
      rel.local_selectivity =
          est.ConjunctionSelectivity(rel.table, rel.local_predicates);
    }
  }
  return graph;
}

Result<std::unique_ptr<Operator>> Planner::BuildScan(
    const RelationInfo& rel, const PlannerOptions& opts) const {
  const Table* table = nullptr;
  AIDB_ASSIGN_OR_RETURN(table, catalog_->GetTable(rel.table));

  // Try an index scan: find a local predicate `col op literal` over an
  // indexed column whose estimated selectivity clears the threshold.
  const sql::Expr* index_pred = nullptr;
  const BTree* index = nullptr;
  std::shared_mutex* index_latch = nullptr;
  int index_col = -1;
  int64_t lo = std::numeric_limits<int64_t>::min();
  int64_t hi = std::numeric_limits<int64_t>::max();
  if (opts.use_indexes) {
    for (const sql::Expr* p : rel.local_predicates) {
      if (p->kind != sql::Expr::Kind::kBinary) continue;
      if (p->lhs->kind != sql::Expr::Kind::kColumnRef ||
          p->rhs->kind != sql::Expr::Kind::kLiteral)
        continue;
      if (p->rhs->literal.is_null()) continue;
      IndexInfo* info = catalog_->FindIndex(rel.table, p->lhs->column);
      if (info == nullptr || !info->is_btree) continue;
      int64_t v = static_cast<int64_t>(p->rhs->literal.AsFeature());
      int64_t plo = lo, phi = hi;
      switch (p->op) {
        case sql::OpType::kEq: plo = phi = v; break;
        case sql::OpType::kLt: phi = v - 1; break;
        case sql::OpType::kLe: phi = v; break;
        case sql::OpType::kGt: plo = v + 1; break;
        case sql::OpType::kGe: plo = v; break;
        default: continue;
      }
      index_pred = p;
      index = info->btree.get();
      index_latch = &info->latch;
      index_col = table->schema().IndexOf(p->lhs->column);
      lo = plo;
      hi = phi;
      break;
    }
  }

  // Without a chosen index, the engine switch picks the scan. The batch
  // engine fuses every local predicate into the scan as paired
  // vectorized/scalar expressions, morsel-parallel when dop and the base
  // cardinality (as tracked by the catalog) make dispatch pay for itself.
  // The volcano reference engine builds a serial SeqScan+Filter chain below.
  // Index scans are already sub-linear and stay row-at-a-time in both.
  if (index == nullptr && opts.vectorized) {
    std::vector<OutputCol> schema;
    for (const auto& col : table->schema().columns()) {
      schema.push_back({rel.name, col.name, col.type});
    }
    std::vector<VecExpr> filters;
    std::vector<BoundExpr> scalar_filters;
    std::vector<std::string> filter_texts;
    for (const sql::Expr* p : rel.local_predicates) {
      BoundExpr bound;
      AIDB_ASSIGN_OR_RETURN(bound, BoundExpr::Bind(*p, schema, models_));
      VecExpr vec;
      AIDB_ASSIGN_OR_RETURN(vec, VecExpr::Bind(*p, schema, models_));
      scalar_filters.push_back(std::move(bound));
      filters.push_back(std::move(vec));
      filter_texts.push_back(p->ToString());
    }
    std::unique_ptr<Operator> scan;
    if (opts.dop > 1 && opts.exec_pool != nullptr &&
        rel.base_rows >= static_cast<double>(opts.parallel_threshold_rows)) {
      scan = std::make_unique<VecParallelScanOp>(
          table, rel.name, std::move(filters), std::move(scalar_filters),
          std::move(filter_texts), rel.used_columns, opts.column_cache,
          ParallelContext{opts.exec_pool, opts.dop});
    } else {
      scan = std::make_unique<VecScanOp>(
          table, rel.name, std::move(filters), std::move(scalar_filters),
          std::move(filter_texts), rel.used_columns, opts.column_cache);
    }
    AnnotateScanChain(scan.get(), rel);
    return scan;
  }

  std::unique_ptr<Operator> scan;
  if (index != nullptr) {
    scan = std::make_unique<IndexScanOp>(table, index, index_latch, rel.name,
                                         index_col, lo, hi);
  } else {
    scan = std::make_unique<SeqScanOp>(table, rel.name);
  }

  // Apply every local predicate not fully covered by the index range.
  for (const sql::Expr* p : rel.local_predicates) {
    if (p == index_pred) continue;
    BoundExpr bound;
    AIDB_ASSIGN_OR_RETURN(bound, BoundExpr::Bind(*p, scan->output(), models_));
    scan = std::make_unique<FilterOp>(std::move(scan), std::move(bound),
                                      p->ToString());
  }
  AnnotateScanChain(scan.get(), rel);
  return scan;
}

Result<std::unique_ptr<Operator>> Planner::BuildJoinTree(
    const JoinPlan& plan, const QueryGraph& graph, const PlannerOptions& opts) const {
  if (plan.IsLeaf()) {
    return BuildScan(graph.rels[static_cast<size_t>(plan.rel)], opts);
  }
  std::unique_ptr<Operator> left, right;
  AIDB_ASSIGN_OR_RETURN(left, BuildJoinTree(*plan.left, graph, opts));
  AIDB_ASSIGN_OR_RETURN(right, BuildJoinTree(*plan.right, graph, opts));

  // Collect edges crossing this cut.
  std::vector<const JoinEdgeInfo*> crossing;
  for (const auto& e : graph.edges) {
    uint64_t l = 1ULL << e.left_rel, r = 1ULL << e.right_rel;
    if (((plan.left->mask & l) && (plan.right->mask & r)) ||
        ((plan.left->mask & r) && (plan.right->mask & l))) {
      crossing.push_back(&e);
    }
  }

  std::unique_ptr<Operator> join;
  size_t used_edge = crossing.size();  // index of edge consumed by hash join
  if (!crossing.empty()) {
    // Hash join on the first crossing edge.
    const JoinEdgeInfo& e = *crossing[0];
    used_edge = 0;
    // Resolve key positions in left/right outputs.
    auto key_of = [&](const Operator& op, size_t rel_idx,
                      const std::string& column) -> int {
      const std::string& rel_name = graph.rels[rel_idx].name;
      for (size_t i = 0; i < op.output().size(); ++i) {
        if (op.output()[i].table == rel_name && op.output()[i].name == column)
          return static_cast<int>(i);
      }
      return -1;
    };
    bool left_has_l = (plan.left->mask >> e.left_rel) & 1;
    size_t l_rel = left_has_l ? e.left_rel : e.right_rel;
    size_t r_rel = left_has_l ? e.right_rel : e.left_rel;
    const std::string& l_col = left_has_l ? e.left_column : e.right_column;
    const std::string& r_col = left_has_l ? e.right_column : e.left_column;
    int lk = key_of(*left, l_rel, l_col);
    int rk = key_of(*right, r_rel, r_col);
    if (lk < 0 || rk < 0) {
      return Status::Internal("join key resolution failed");
    }
    // The probe side (left) drives the output stream, so it decides.
    if (IsBatch(*left)) {
      join = std::make_unique<VecHashJoinOp>(std::move(left), std::move(right),
                                             static_cast<size_t>(lk),
                                             static_cast<size_t>(rk));
    } else {
      join = std::make_unique<HashJoinOp>(std::move(left), std::move(right),
                                          static_cast<size_t>(lk),
                                          static_cast<size_t>(rk));
    }
  } else {
    join = std::make_unique<NestedLoopJoinOp>(std::move(left), std::move(right),
                                              std::nullopt);
  }
  join->set_est_rows(plan.rows);

  // Remaining crossing conditions become filters above the join.
  for (size_t i = 0; i < crossing.size(); ++i) {
    if (i == used_edge) continue;
    AIDB_ASSIGN_OR_RETURN(
        join, MakeFilter(std::move(join), *crossing[i]->condition,
                         crossing[i]->condition->ToString(), models_));
  }
  return join;
}

namespace {

/// Collects aggregate sub-expressions in a select item.
void CollectAggregates(const sql::Expr* e, std::vector<const sql::Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind == sql::Expr::Kind::kAggregate) {
    out->push_back(e);
    return;
  }
  CollectAggregates(e->lhs.get(), out);
  CollectAggregates(e->rhs.get(), out);
  for (const auto& a : e->args) CollectAggregates(a.get(), out);
}

std::string ItemName(const sql::SelectItem& item, size_t idx) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr) {
    if (item.expr->kind == sql::Expr::Kind::kColumnRef) return item.expr->column;
    return item.expr->ToString();
  }
  return "col" + std::to_string(idx);
}

/// Folds `op`'s subtree into the plan's shape facts in pre-order. Operator
/// names carry no runtime counters, so the digest is stable across runs.
void AddShapeFacts(const Operator& op, uint64_t depth, PhysicalPlan* plan) {
  constexpr uint64_t kPrime = 1099511628211ULL;
  const std::string name = op.Name();
  for (char c : name) {
    plan->digest ^= static_cast<unsigned char>(c);
    plan->digest *= kPrime;
  }
  plan->digest ^= depth;
  plan->digest *= kPrime;
  ++plan->num_operators;
  if (name.find("Join") != std::string::npos) ++plan->num_joins;
  for (const auto& c : op.children()) AddShapeFacts(*c, depth + 1, plan);
}

}  // namespace

Result<PhysicalPlan> Planner::Plan(const sql::SelectStatement& stmt,
                                   const PlannerOptions& opts) {
  HistogramEstimator default_est(catalog_);
  const CardinalityEstimator& est =
      opts.estimator != nullptr ? *opts.estimator : default_est;

  PhysicalPlan result;
  std::vector<const sql::Expr*> residual;
  AIDB_ASSIGN_OR_RETURN(result.graph, BuildGraph(stmt, est, &residual));

  // Execution feedback: scale each relation's estimate by the EWMA
  // actual/estimated correction learned from prior runs of scans over the
  // same base table. Applied after BuildGraph so advisors that reason on the
  // uncorrected graph keep the estimator's raw numbers.
  if (opts.use_card_feedback) {
    const CardinalityFeedback& fb = catalog_->feedback();
    for (auto& rel : result.graph.rels) {
      rel.local_selectivity *= fb.Correction(rel.table);
    }
  }

  // Column pruning for vectorized scans: mark, per relation, every column the
  // statement can possibly read (see RelationInfo::used_columns for the
  // safety argument). Unqualified names mark every relation that has the
  // column — over-approximate, never wrong. Row scans ignore the mask.
  bool star = false;
  for (const auto& item : stmt.items) star = star || item.is_star;
  std::vector<const sql::Expr*> roots;
  for (const auto& item : stmt.items) {
    if (item.expr) roots.push_back(item.expr.get());
  }
  if (stmt.where) roots.push_back(stmt.where.get());
  for (const auto& j : stmt.joins) {
    if (j.condition) roots.push_back(j.condition.get());
  }
  for (const auto& g : stmt.group_by) roots.push_back(g.get());
  if (stmt.having) roots.push_back(stmt.having.get());
  for (auto& rel : result.graph.rels) {
    const Table* table = nullptr;
    AIDB_ASSIGN_OR_RETURN(table, catalog_->GetTable(rel.table));
    const auto& cols = table->schema().columns();
    rel.used_columns.assign(cols.size(), star ? uint8_t{1} : uint8_t{0});
    if (star) continue;
    auto mark = [&](const std::string& tbl, const std::string& col) {
      if (!tbl.empty() && tbl != rel.name) return;
      for (size_t c = 0; c < cols.size(); ++c) {
        if (cols[c].name == col) rel.used_columns[c] = 1;
      }
    };
    std::function<void(const sql::Expr*)> walk = [&](const sql::Expr* e) {
      if (e == nullptr) return;
      if (e->kind == sql::Expr::Kind::kColumnRef) mark(e->table, e->column);
      walk(e->lhs.get());
      walk(e->rhs.get());
      for (const auto& a : e->args) walk(a.get());
    };
    for (const sql::Expr* e : roots) walk(e);
    // ORDER BY keys are raw [table.]column names.
    for (const auto& key : stmt.order_by) {
      std::string tbl, col = key.column;
      auto dot = col.find('.');
      if (dot != std::string::npos) {
        tbl = col.substr(0, dot);
        col = col.substr(dot + 1);
      }
      mark(tbl, col);
    }
  }

  JoinCostModel cost_model(&result.graph);
  std::unique_ptr<Operator> root;
  if (result.graph.rels.size() == 1) {
    AIDB_ASSIGN_OR_RETURN(root, BuildScan(result.graph.rels[0], opts));
  } else {
    DpJoinEnumerator default_enum;
    JoinOrderEnumerator& enumerator =
        opts.enumerator != nullptr ? *opts.enumerator : default_enum;
    result.join_plan = enumerator.Enumerate(cost_model);
    if (!result.join_plan) return Status::Internal("join enumeration failed");
    AIDB_ASSIGN_OR_RETURN(root,
                          BuildJoinTree(*result.join_plan, result.graph, opts));
  }

  // Order/projection/limit operators preserve or cap cardinality; propagate
  // the child estimate so EXPLAIN ANALYZE shows est vs actual at every level
  // that has a meaningful estimate.
  auto inherit_est = [](Operator* op) {
    if (!op->children().empty() && op->children()[0]->est_rows() >= 0) {
      op->set_est_rows(op->children()[0]->est_rows());
    }
  };

  // Residual multi-relation predicates.
  for (const sql::Expr* p : residual) {
    AIDB_ASSIGN_OR_RETURN(root,
                          MakeFilter(std::move(root), *p, p->ToString(), models_));
  }

  // Aggregation.
  std::vector<const sql::Expr*> aggs;
  for (const auto& item : stmt.items) CollectAggregates(item.expr.get(), &aggs);
  bool has_group = !stmt.group_by.empty() || !aggs.empty();

  // Resolves [table.]col names in an operator output.
  auto find_output_col = [](const Operator& op, const std::string& qualified) {
    std::string table, col = qualified;
    auto dot = col.find('.');
    if (dot != std::string::npos) {
      table = col.substr(0, dot);
      col = col.substr(dot + 1);
    }
    for (size_t i = 0; i < op.output().size(); ++i) {
      if (op.output()[i].name == col &&
          (table.empty() || op.output()[i].table == table)) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };

  // ORDER BY columns that the projection will drop must be sorted below the
  // projection (projection is order-preserving). DISTINCT forbids this path:
  // deduplication would destroy the order, so keys must come from the
  // select list (the SQL-standard restriction).
  //
  // The LIMIT built last sits right above the sort, or above the projection
  // over it (DISTINCT is always below the post-projection sort), and both
  // pass rows one for one, in order: the sort only ever hands out its first
  // LIMIT rows, so it keeps no more (a top-N sort).
  const size_t sort_limit =
      stmt.limit >= 0 ? static_cast<size_t>(stmt.limit) : SortOp::kNoLimit;
  bool sorted_pre_projection = false;
  if (!stmt.order_by.empty() && !has_group && !stmt.distinct) {
    std::vector<SortKey> keys;
    bool all_resolved = true;
    for (const auto& key : stmt.order_by) {
      int idx = find_output_col(*root, key.column);
      if (idx < 0) {
        all_resolved = false;
        break;
      }
      keys.push_back({static_cast<size_t>(idx), key.desc});
    }
    if (all_resolved) {
      root = std::make_unique<SortOp>(std::move(root), std::move(keys),
                                      sort_limit);
      inherit_est(root.get());
      sorted_pre_projection = true;
    }
  }

  if (has_group) {
    const bool batch = IsBatch(*root);
    std::vector<BoundExpr> keys;
    std::vector<VecExpr> vec_keys;  // twins of keys, over a batch input only
    std::vector<OutputCol> key_cols;
    for (const auto& g : stmt.group_by) {
      BoundExpr bound;
      AIDB_ASSIGN_OR_RETURN(bound, BoundExpr::Bind(*g, root->output(), models_));
      if (batch) {
        VecExpr vec;
        AIDB_ASSIGN_OR_RETURN(vec, VecExpr::Bind(*g, root->output(), models_));
        vec_keys.push_back(std::move(vec));
      }
      std::string name = g->kind == sql::Expr::Kind::kColumnRef ? g->column
                                                                : g->ToString();
      std::string table = g->kind == sql::Expr::Kind::kColumnRef ? g->table : "";
      keys.push_back(std::move(bound));
      key_cols.push_back({table, name, ValueType::kDouble});
    }
    std::vector<AggSpec> specs;
    std::vector<VecExpr> vec_args;  // slot i twins specs[i].arg (or placeholder)
    for (const sql::Expr* a : aggs) {
      AggSpec spec;
      spec.func = a->agg;
      spec.out_name = a->ToString();
      VecExpr varg;
      if (a->lhs) {
        BoundExpr bound;
        AIDB_ASSIGN_OR_RETURN(bound, BoundExpr::Bind(*a->lhs, root->output(), models_));
        spec.arg = std::move(bound);
        if (batch) {
          AIDB_ASSIGN_OR_RETURN(varg, VecExpr::Bind(*a->lhs, root->output(), models_));
        }
      }
      specs.push_back(std::move(spec));
      vec_args.push_back(std::move(varg));
    }
    // HAVING aggregates must also feed the aggregate operator.
    if (stmt.having) CollectAggregates(stmt.having.get(), &aggs);
    for (size_t a = specs.size(); a < aggs.size(); ++a) {
      AggSpec spec;
      spec.func = aggs[a]->agg;
      spec.out_name = aggs[a]->ToString();
      VecExpr varg;
      if (aggs[a]->lhs) {
        BoundExpr bound;
        AIDB_ASSIGN_OR_RETURN(bound,
                              BoundExpr::Bind(*aggs[a]->lhs, root->output(), models_));
        spec.arg = std::move(bound);
        if (batch) {
          AIDB_ASSIGN_OR_RETURN(varg,
                                VecExpr::Bind(*aggs[a]->lhs, root->output(), models_));
        }
      }
      bool duplicate = false;
      for (const auto& existing : specs) {
        if (existing.out_name == spec.out_name) duplicate = true;
      }
      if (!duplicate) {
        specs.push_back(std::move(spec));
        vec_args.push_back(std::move(varg));
      }
    }

    if (batch) {
      root = std::make_unique<VecHashAggregateOp>(
          std::move(root), std::move(vec_keys), std::move(keys),
          std::move(key_cols), std::move(specs), std::move(vec_args));
    } else {
      root = std::make_unique<HashAggregateOp>(
          std::move(root), std::move(keys), std::move(key_cols), std::move(specs));
    }

    // Replaces aggregate nodes with refs to the aggregate output columns.
    std::function<void(std::unique_ptr<sql::Expr>&)> replace =
        [&replace](std::unique_ptr<sql::Expr>& e) {
          if (!e) return;
          if (e->kind == sql::Expr::Kind::kAggregate) {
            e = sql::Expr::MakeColumn("", e->ToString());
            return;
          }
          replace(e->lhs);
          replace(e->rhs);
          for (auto& a : e->args) replace(a);
        };

    // HAVING filters groups before the projection.
    if (stmt.having) {
      std::unique_ptr<sql::Expr> rewritten = stmt.having->Clone();
      replace(rewritten);
      AIDB_ASSIGN_OR_RETURN(
          root, MakeFilter(std::move(root), *rewritten,
                           "HAVING " + stmt.having->ToString(), models_));
    }

    // Rewrite select items over the aggregate output (a batch iff `batch`:
    // the HAVING filter above follows its input's protocol).
    std::vector<BoundExpr> proj;
    std::vector<VecExpr> vec_proj;
    std::vector<OutputCol> proj_cols;
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      const auto& item = stmt.items[i];
      if (item.is_star) {
        return Status::InvalidArgument("* not allowed with GROUP BY/aggregates");
      }
      std::unique_ptr<sql::Expr> rewritten = item.expr->Clone();
      replace(rewritten);
      BoundExpr bound;
      AIDB_ASSIGN_OR_RETURN(bound, BoundExpr::Bind(*rewritten, root->output(), models_));
      if (batch) {
        VecExpr vec;
        AIDB_ASSIGN_OR_RETURN(vec, VecExpr::Bind(*rewritten, root->output(), models_));
        vec_proj.push_back(std::move(vec));
      }
      proj.push_back(std::move(bound));
      // Bare column refs keep their table qualifier so ORDER BY t.c resolves.
      std::string table = item.alias.empty() &&
                                  item.expr->kind == sql::Expr::Kind::kColumnRef
                              ? item.expr->table
                              : "";
      proj_cols.push_back({table, ItemName(item, i), ValueType::kDouble});
    }
    if (batch) {
      root = std::make_unique<VecProjectOp>(std::move(root), std::move(vec_proj),
                                            std::move(proj), std::move(proj_cols));
    } else {
      root = std::make_unique<ProjectOp>(std::move(root), std::move(proj),
                                         std::move(proj_cols));
    }
  } else {
    // Plain projection (skipped entirely for a bare SELECT *).
    bool all_star = stmt.items.size() == 1 && stmt.items[0].is_star;
    if (!all_star) {
      const bool batch = IsBatch(*root);
      std::vector<BoundExpr> proj;
      std::vector<VecExpr> vec_proj;
      std::vector<OutputCol> proj_cols;
      for (size_t i = 0; i < stmt.items.size(); ++i) {
        const auto& item = stmt.items[i];
        if (item.is_star) {
          for (size_t c = 0; c < root->output().size(); ++c) {
            sql::Expr col;
            col.kind = sql::Expr::Kind::kColumnRef;
            col.table = root->output()[c].table;
            col.column = root->output()[c].name;
            BoundExpr bound;
            AIDB_ASSIGN_OR_RETURN(bound, BoundExpr::Bind(col, root->output(), models_));
            if (batch) {
              VecExpr vec;
              AIDB_ASSIGN_OR_RETURN(vec, VecExpr::Bind(col, root->output(), models_));
              vec_proj.push_back(std::move(vec));
            }
            proj.push_back(std::move(bound));
            proj_cols.push_back(root->output()[c]);
          }
          continue;
        }
        BoundExpr bound;
        AIDB_ASSIGN_OR_RETURN(bound,
                              BoundExpr::Bind(*item.expr, root->output(), models_));
        if (batch) {
          VecExpr vec;
          AIDB_ASSIGN_OR_RETURN(vec,
                                VecExpr::Bind(*item.expr, root->output(), models_));
          vec_proj.push_back(std::move(vec));
        }
        ValueType type = ValueType::kDouble;
        std::string table;
        if (item.expr->kind == sql::Expr::Kind::kColumnRef) {
          int ci = bound.AsColumnIndex();
          if (ci >= 0) type = root->output()[static_cast<size_t>(ci)].type;
          if (item.alias.empty()) table = item.expr->table;
        }
        proj.push_back(std::move(bound));
        proj_cols.push_back({table, ItemName(item, i), type});
      }
      if (batch) {
        root = std::make_unique<VecProjectOp>(std::move(root),
                                              std::move(vec_proj),
                                              std::move(proj),
                                              std::move(proj_cols));
      } else {
        root = std::make_unique<ProjectOp>(std::move(root), std::move(proj),
                                           std::move(proj_cols));
      }
      inherit_est(root.get());
    }
  }

  // DISTINCT deduplicates the projected rows.
  if (stmt.distinct) {
    root = std::make_unique<DistinctOp>(std::move(root));
  }

  // ORDER BY (post-projection path: aliases, aggregate outputs, DISTINCT).
  if (!stmt.order_by.empty() && !sorted_pre_projection) {
    std::vector<SortKey> keys;
    for (const auto& key : stmt.order_by) {
      int idx = find_output_col(*root, key.column);
      if (idx < 0) {
        return Status::NotFound("ORDER BY column '" + key.column + "'");
      }
      keys.push_back({static_cast<size_t>(idx), key.desc});
    }
    root = std::make_unique<SortOp>(std::move(root), std::move(keys),
                                    sort_limit);
    inherit_est(root.get());
  }

  if (stmt.limit >= 0) {
    root = std::make_unique<LimitOp>(std::move(root),
                                     static_cast<size_t>(stmt.limit));
    double child_est = root->children()[0]->est_rows();
    if (child_est >= 0) {
      root->set_est_rows(
          std::min(child_est, static_cast<double>(stmt.limit)));
    }
  }

  result.root = std::move(root);
  result.digest = 1469598103934665603ULL;  // FNV-1a offset basis
  AddShapeFacts(*result.root, 0, &result);
  return result;
}

}  // namespace aidb::exec
