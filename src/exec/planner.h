#pragma once

#include <memory>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "exec/operator.h"
#include "optimizer/cardinality.h"
#include "optimizer/query_graph.h"
#include "sql/ast.h"

namespace aidb {
class ThreadPool;
}

namespace aidb::exec {

class ColumnCache;

/// Pluggable optimizer strategy. Null members fall back to the classical
/// defaults (histogram estimator + Selinger DP). Learned components swap in
/// here — this is how AI4DB techniques integrate with the engine.
struct PlannerOptions {
  CardinalityEstimator* estimator = nullptr;
  JoinOrderEnumerator* enumerator = nullptr;
  bool use_indexes = true;
  /// Max selectivity at which an index scan is preferred over a seq scan.
  double index_selectivity_threshold = 0.25;

  /// Applies the catalog's estimated-vs-actual scan corrections
  /// (Catalog::feedback(), fed by executed queries) on top of the estimator.
  /// Off by default so the classical estimators stay reproducible.
  bool use_card_feedback = false;

  /// Morsel-driven parallelism (the `dop` session knob): with dop > 1 and a
  /// pool, the batch engine's table scans become VecParallelScan — but only
  /// where the base-table cardinality clears `parallel_threshold_rows`, since
  /// morsel dispatch overhead swamps the win on small inputs.
  size_t dop = 1;
  ThreadPool* exec_pool = nullptr;
  size_t parallel_threshold_rows = 8192;

  /// The batch engine, the one production executor: table scans without a
  /// usable index become VecScan / VecParallelScan with every local
  /// predicate fused in, and the filters, projections, hash joins and hash
  /// aggregations above a batch input take their Vec* variants, moving
  /// ~1K-row column batches instead of tuples. Index scans and everything
  /// above them, and the order-sensitive operators (Sort, Distinct, Limit,
  /// nested-loop join), stay row-at-a-time; batch operators drain into them
  /// transparently. False selects the serial volcano engine, kept only as
  /// the reference the batch engine is differentially tested against
  /// (Database::SetVectorized); it ignores dop. Only BuildScan reads this.
  bool vectorized = true;

  /// Slot-major column mirrors for vectorized scans (see ColumnCache).
  /// Owned by the Database; null disables mirroring, and the scans fall
  /// back to row-major tuple extraction — semantics are identical either
  /// way, mirroring is purely a bandwidth optimization.
  ColumnCache* column_cache = nullptr;
};

/// Output of planning: the executable tree plus the optimizer artifacts, so
/// learned components can harvest estimated-vs-true cardinalities.
struct PhysicalPlan {
  std::unique_ptr<Operator> root;
  QueryGraph graph;
  std::unique_ptr<JoinPlan> join_plan;  ///< null for single-relation queries
  /// Plan-shape facts for the query log, computed once when the plan is
  /// built (cached plans reuse them): FNV-1a digest over operator names and
  /// depths in pre-order, operator count, and join operator count.
  uint64_t digest = 0;
  uint32_t num_operators = 0;
  uint32_t num_joins = 0;
};

/// \brief Translates a bound SELECT statement into a physical operator tree.
class Planner {
 public:
  Planner(const Catalog* catalog, const ModelResolver* models)
      : catalog_(catalog), models_(models) {}

  Result<PhysicalPlan> Plan(const sql::SelectStatement& stmt,
                            const PlannerOptions& opts = {});

  /// Builds just the query graph (relations, local selectivities, join
  /// edges). Exposed for the advisors and the learned optimizer, which
  /// reason about queries at this level.
  Result<QueryGraph> BuildGraph(const sql::SelectStatement& stmt,
                                const CardinalityEstimator& est,
                                std::vector<const sql::Expr*>* residual) const;

 private:
  struct RelBinding {
    std::string table;  ///< catalog name
    std::string name;   ///< effective name
    const Table* ptr = nullptr;
  };

  Result<std::vector<RelBinding>> BindRelations(
      const sql::SelectStatement& stmt) const;

  /// Which relations (by index) an expression references; resolves
  /// unqualified columns against all bound relations.
  Result<uint64_t> ReferencedRelations(const sql::Expr& expr,
                                       const std::vector<RelBinding>& rels) const;

  Result<std::unique_ptr<Operator>> BuildScan(const RelationInfo& rel,
                                              const PlannerOptions& opts) const;
  Result<std::unique_ptr<Operator>> BuildJoinTree(
      const JoinPlan& plan, const QueryGraph& graph,
      const PlannerOptions& opts) const;

  const Catalog* catalog_;
  const ModelResolver* models_;
};

/// Splits an expression into top-level AND conjuncts.
void SplitConjuncts(const sql::Expr* expr, std::vector<const sql::Expr*>* out);

}  // namespace aidb::exec
