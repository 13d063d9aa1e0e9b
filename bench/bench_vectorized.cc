// E-VEC: the default batch engine vs the tuple-at-a-time volcano reference.
//
// Claim under test (ROADMAP item 1): the production batch engine, with typed
// column kernels, beats the serial volcano reference engine by >= 5x on a
// 1M-row scan+filter+aggregate. Both engines run the identical SQL on the
// identical table; the only difference is the `vectorized` planner switch
// (Database::SetVectorized). The paired _Volcano/_Vectorized timings feed
// scripts/bench_compare.py, which enforces the 5x ratio in CI; setting
// AIDB_BENCH_SPEEDUP_MIN makes this binary enforce it locally too (median of
// 5 runs, exit 1 on a miss).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

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

/// The acceptance workload: scan 1M rows, filter ~80% through, aggregate.
const char kScanFilterAgg[] =
    "SELECT COUNT(*), SUM(val), MIN(val), MAX(val) FROM t WHERE val > 200";

/// Grouped variant: rows map to group ids through the typed group table;
/// reported for visibility (not gated).
const char kGroupedAgg[] =
    "SELECT grp, COUNT(*), SUM(val) FROM t WHERE val > 200 GROUP BY grp";

const char kFilteredScan[] = "SELECT id, val FROM t WHERE val > 990 AND grp < 16";

const char kJoinAgg[] =
    "SELECT dim.grp, COUNT(*) FROM dim JOIN t ON dim.grp = t.grp "
    "GROUP BY dim.grp";

/// A 1/256-selective filter under a top-N sort: the batch scan gathers only
/// the surviving rows and the sort keeps ten, two paths the 80%-selective
/// kScanFilterAgg barely exercises. Reported for visibility (not gated).
const char kTopK[] =
    "SELECT id, val FROM t WHERE grp = 37 ORDER BY val DESC, id LIMIT 10";

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

void RunQuery(benchmark::State& state, const std::string& sql, bool vectorized) {
  Database* db = GlobalDb();
  db->SetVectorized(vectorized);
  // Steady-state measurement: one untimed run populates what the engine
  // keeps across executions (the vectorized scans' column mirrors), so the
  // timed iterations measure the per-query cost, not one-time cache builds.
  if (auto warm = db->Execute(sql); !warm.ok()) {
    state.SkipWithError(warm.status().ToString().c_str());
  }
  for (auto _ : state) {
    auto r = db->Execute(sql);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  db->SetVectorized(true);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kRows));
  state.counters["vectorized"] = vectorized ? 1.0 : 0.0;
}

void BM_ScanFilterAgg_Volcano(benchmark::State& state) {
  RunQuery(state, kScanFilterAgg, false);
}
BENCHMARK(BM_ScanFilterAgg_Volcano)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ScanFilterAgg_Vectorized(benchmark::State& state) {
  RunQuery(state, kScanFilterAgg, true);
}
BENCHMARK(BM_ScanFilterAgg_Vectorized)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_GroupedAgg_Volcano(benchmark::State& state) {
  RunQuery(state, kGroupedAgg, false);
}
BENCHMARK(BM_GroupedAgg_Volcano)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_GroupedAgg_Vectorized(benchmark::State& state) {
  RunQuery(state, kGroupedAgg, true);
}
BENCHMARK(BM_GroupedAgg_Vectorized)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_FilteredScan_Volcano(benchmark::State& state) {
  RunQuery(state, kFilteredScan, false);
}
BENCHMARK(BM_FilteredScan_Volcano)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_FilteredScan_Vectorized(benchmark::State& state) {
  RunQuery(state, kFilteredScan, true);
}
BENCHMARK(BM_FilteredScan_Vectorized)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_JoinAgg_Volcano(benchmark::State& state) {
  RunQuery(state, kJoinAgg, false);
}
BENCHMARK(BM_JoinAgg_Volcano)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_JoinAgg_Vectorized(benchmark::State& state) {
  RunQuery(state, kJoinAgg, true);
}
BENCHMARK(BM_JoinAgg_Vectorized)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_TopK_Volcano(benchmark::State& state) {
  RunQuery(state, kTopK, false);
}
BENCHMARK(BM_TopK_Volcano)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_TopK_Vectorized(benchmark::State& state) {
  RunQuery(state, kTopK, true);
}
BENCHMARK(BM_TopK_Vectorized)->Unit(benchmark::kMillisecond)->UseRealTime();

/// Morsel-parallel batch scan at dop=8.
void BM_ScanFilterAgg_VectorizedDop8(benchmark::State& state) {
  Database* db = GlobalDb();
  db->SetDop(8);
  if (auto warm = db->Execute(kScanFilterAgg); !warm.ok()) {
    state.SkipWithError(warm.status().ToString().c_str());
  }
  for (auto _ : state) {
    auto r = db->Execute(kScanFilterAgg);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  db->SetDop(1);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kRows));
}
BENCHMARK(BM_ScanFilterAgg_VectorizedDop8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// Median wall-clock of `runs` executions of `sql`, in microseconds.
double MedianMicros(Database* db, const std::string& sql, bool vectorized,
                    int runs) {
  db->SetVectorized(vectorized);
  std::vector<double> times;
  times.reserve(static_cast<size_t>(runs));
  for (int i = 0; i < runs; ++i) {
    auto start = std::chrono::steady_clock::now();
    auto r = db->Execute(sql);
    auto end = std::chrono::steady_clock::now();
    if (!r.ok()) {
      std::fprintf(stderr, "bench query failed: %s\n",
                   r.status().ToString().c_str());
      std::exit(1);
    }
    times.push_back(
        std::chrono::duration<double, std::micro>(end - start).count());
  }
  db->SetVectorized(true);
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Optional in-binary acceptance gate, independent of the JSON pipeline:
  // AIDB_BENCH_SPEEDUP_MIN=5 requires the default batch engine to beat the
  // volcano reference by 5x (median of 5) on the 1M-row
  // scan+filter+aggregate.
  const char* min_env = std::getenv("AIDB_BENCH_SPEEDUP_MIN");
  if (min_env != nullptr) {
    double required = std::atof(min_env);
    Database* db = GlobalDb();
    double volcano = MedianMicros(db, kScanFilterAgg, false, 5);
    double vec = MedianMicros(db, kScanFilterAgg, true, 5);
    double speedup = vec > 0.0 ? volcano / vec : 0.0;
    std::fprintf(stderr,
                 "scan+filter+aggregate: volcano %.0fus, vectorized %.0fus, "
                 "speedup %.2fx (required %.2fx)\n",
                 volcano, vec, speedup, required);
    if (speedup < required) {
      std::fprintf(stderr, "FAIL: vectorized speedup below the gate\n");
      return 1;
    }
  }
  return 0;
}
