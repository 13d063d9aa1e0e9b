// E-PAR: morsel-driven parallel executor scaling.
//
// Claim under test (survey §2.3 / ROADMAP north star): an AI-native engine
// needs an execution substrate that scales with the hardware before learned
// components pay off. The morsel-driven executor should show near-linear
// scan+aggregate scaling in the degree of parallelism — ≥ 3x at dop=8 on a
// 1M-row scan+aggregate when ≥ 8 hardware threads are available (on smaller
// machines the curve flattens at the core count; per-dop timings printed
// here make the ratio directly visible).

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "exec/database.h"

namespace {

using aidb::Database;
using aidb::Rng;
using aidb::Schema;
using aidb::Table;
using aidb::Tuple;
using aidb::Value;
using aidb::ValueType;

constexpr size_t kRows = 1'000'000;

/// One shared database so the 1M-row table is seeded once per process.
Database* GlobalDb() {
  static Database* db = [] {
    auto* d = new Database();
    Schema schema({{"id", ValueType::kInt},
                   {"grp", ValueType::kInt},
                   {"val", ValueType::kDouble}});
    Table* t = std::move(d->catalog().CreateTable("t", schema)).ValueOrDie();
    Table* dim =
        std::move(d->catalog().CreateTable("dim", Schema({{"grp", ValueType::kInt},
                                                          {"w", ValueType::kDouble}})))
            .ValueOrDie();
    Rng rng(42);
    for (size_t i = 0; i < kRows; ++i) {
      Tuple row;
      row.push_back(Value(static_cast<int64_t>(i)));
      row.push_back(Value(rng.UniformInt(0, 255)));
      row.push_back(Value(rng.UniformDouble(0.0, 1000.0)));
      (void)t->Insert(std::move(row)).ValueOrDie();
    }
    for (int64_t g = 0; g < 256; ++g) {
      (void)dim->Insert({Value(g), Value(static_cast<double>(g) * 0.5)})
          .ValueOrDie();
    }
    return d;
  }();
  return db;
}

void RunQuery(benchmark::State& state, const std::string& sql) {
  Database* db = GlobalDb();
  db->SetDop(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto r = db->Execute(sql);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  db->SetDop(1);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kRows));
  state.counters["dop"] = static_cast<double>(state.range(0));
}

/// The acceptance workload: full 1M-row scan + grouped aggregation. The
/// VecParallelScan workers scan the morsels; VecHashAggregate folds their
/// batches in morsel order.
void BM_ScanAggregate(benchmark::State& state) {
  RunQuery(state,
           "SELECT grp, COUNT(*), SUM(val), MIN(val), MAX(val) FROM t GROUP BY grp");
}
BENCHMARK(BM_ScanAggregate)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// Selective parallel scan: filters fused into the morsel workers, so only
/// survivors leave the parallel region.
void BM_FilteredScan(benchmark::State& state) {
  RunQuery(state, "SELECT id, val FROM t WHERE val > 990 AND grp < 16");
}
BENCHMARK(BM_FilteredScan)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// Hash join over the parallel scan: the 1M-row fact table is scanned
/// morsel-parallel, and the batch hash join and aggregate run above it.
void BM_HashJoinAggregate(benchmark::State& state) {
  RunQuery(state,
           "SELECT dim.grp, COUNT(*) FROM dim JOIN t ON dim.grp = t.grp "
           "GROUP BY dim.grp");
}
BENCHMARK(BM_HashJoinAggregate)
    ->Arg(1)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
