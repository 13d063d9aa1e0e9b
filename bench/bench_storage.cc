// E-STORAGE: the pluggable LSM storage engine — flush throughput, cold point
// reads under the bloom knob, zone-map scan pruning, the leveling-vs-tiering
// amplification tradeoff, and the measured design tuner.
//
// Claims under test (ROADMAP storage tentpole):
//  1. Freeze-flush-compact cycles sustain page-out throughput, and the
//     memtable capacity knob trades flush frequency against run count.
//  2. Bloom bits are a real read knob: cold point reads over overlapping
//     runs probe fewer runs as bits_per_key grows (bloom negatives climb,
//     read amplification falls).
//  3. Zone maps prune cold scans: a selective range predicate over paged
//     rows skips whole SST blocks; an unselective one decodes everything.
//  4. Leveling rewrites more (write amplification) to keep fewer runs (read
//     amplification) than tiering — the design continuum's central tradeoff.
//  5. The measured tuning environment is cheap enough to hill-climb on, and
//     its chosen design is validated against the analytic cost model
//     (EXPERIMENTS.md E10b).

#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>
#include <string>

#include "advisor/knob/storage_env.h"
#include "design/lsm_tuner/lsm_tuner.h"
#include "exec/database.h"
#include "storage/engine/lsm_engine.h"

namespace {

using aidb::Database;
using aidb::DurabilityOptions;
using aidb::LsmOptions;
using aidb::LsmStats;

std::string BenchDir(const std::string& leaf) {
  return (std::filesystem::temp_directory_path() / ("aidb_bench_" + leaf))
      .string();
}

DurabilityOptions LsmOpts(LsmOptions design) {
  DurabilityOptions opts;
  opts.sync = false;
  opts.wal_flush_interval = 256;
  opts.checkpoint_every_n_records = 0;
  opts.lsm = true;
  opts.lsm_design = design;
  return opts;
}

/// Page-out throughput: insert rows, then force freeze-flush-compact cycles.
/// The arg is the memtable capacity — smaller memtables flush more, smaller
/// runs, more compaction work per ingested row.
void BM_LsmFlushThroughput(benchmark::State& state) {
  const size_t memtable = static_cast<size_t>(state.range(0));
  const std::string dir = BenchDir("storage_flush");
  constexpr int kRows = 2048;
  LsmStats stats;
  size_t rows = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(dir);
    LsmOptions design;
    design.memtable_capacity = memtable;
    auto db = Database::Open(dir, LsmOpts(design)).ValueOrDie();
    (void)db->Execute("CREATE TABLE t (k INT, v DOUBLE)").ValueOrDie();
    state.ResumeTiming();

    for (int i = 0; i < kRows; ++i) {
      benchmark::DoNotOptimize(db->Execute(
          "INSERT INTO t VALUES (" + std::to_string(i) + ", " +
          std::to_string(i % 97) + ".5)"));
      ++rows;
      if ((i + 1) % 256 == 0) (void)db->FlushColdStorage();
    }
    (void)db->FlushColdStorage();

    state.PauseTiming();
    stats = db->lsm_engine()->StatsSnapshot();
    db.reset();
    state.ResumeTiming();
  }
  std::filesystem::remove_all(dir);
  state.SetItemsProcessed(static_cast<int64_t>(rows));
  state.counters["memtable"] = static_cast<double>(memtable);
  state.counters["flushes"] = static_cast<double>(stats.flushes);
  state.counters["blocks_written"] = static_cast<double>(stats.blocks_written);
  state.counters["write_amp"] = stats.WriteAmplification();
}
BENCHMARK(BM_LsmFlushThroughput)->Arg(128)->Arg(1024)->Unit(benchmark::kMillisecond);

/// Cold point reads over overlapping runs, swept over bloom bits per key.
/// The fixture churns updates between flushes so several runs cover the same
/// slot range; each indexed read then probes runs newest-first and the bloom
/// refutes the ones that cannot hold the slot.
void BM_LsmColdPointReads(benchmark::State& state) {
  const size_t bloom_bits = static_cast<size_t>(state.range(0));
  const std::string dir = BenchDir("storage_reads");
  std::filesystem::remove_all(dir);
  constexpr int kRows = 1500;
  LsmOptions design;
  design.memtable_capacity = 64;
  design.size_ratio = 16;  // keep runs un-merged: the bloom does the work
  design.bloom_bits_per_key = bloom_bits;
  auto db = Database::Open(dir, LsmOpts(design)).ValueOrDie();
  (void)db->Execute("CREATE TABLE t (k INT, v DOUBLE)").ValueOrDie();
  (void)db->Execute("CREATE INDEX t_k ON t(k)").ValueOrDie();
  for (int i = 0; i < kRows; ++i) {
    (void)db->Execute("INSERT INTO t VALUES (" + std::to_string(i) + ", 0.5)");
  }
  (void)db->FlushColdStorage();
  // Two update waves re-warm disjoint slot stripes and re-freeze them into
  // fresh overlapping runs.
  for (int stride : {3, 7}) {
    for (int i = 0; i < kRows; i += stride) {
      (void)db->Execute("UPDATE t SET v = v + 1.0 WHERE k = " +
                        std::to_string(i));
    }
    (void)db->FlushColdStorage();
  }
  const LsmStats before = db->lsm_engine()->StatsSnapshot();

  size_t reads = 0;
  int key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        db->Execute("SELECT v FROM t WHERE k = " + std::to_string(key)));
    key = (key + 191) % kRows;  // coprime stride: every key, shuffled order
    ++reads;
  }
  const LsmStats after = db->lsm_engine()->StatsSnapshot();
  db.reset();
  std::filesystem::remove_all(dir);

  const double gets = static_cast<double>(after.gets - before.gets);
  state.SetItemsProcessed(static_cast<int64_t>(reads));
  state.counters["bloom_bits"] = static_cast<double>(bloom_bits);
  state.counters["read_amp"] =
      gets > 0 ? static_cast<double>(after.runs_probed - before.runs_probed) / gets
               : 0.0;
  state.counters["bloom_neg_per_get"] =
      gets > 0
          ? static_cast<double>(after.bloom_negatives - before.bloom_negatives) /
                gets
          : 0.0;
}
BENCHMARK(BM_LsmColdPointReads)->Arg(0)->Arg(8)->Unit(benchmark::kMicrosecond);

/// Vectorized range scans over a fully paged-out table. Arg 1 runs a
/// selective predicate zone maps can refute block-by-block; arg 0 runs an
/// unselective one that decodes every block. The pruned leg's advantage is
/// the zone maps earning their keep.
void BM_LsmZoneMapScan(benchmark::State& state) {
  const bool selective = state.range(0) != 0;
  const std::string dir = BenchDir("storage_scan");
  std::filesystem::remove_all(dir);
  constexpr int kRows = 4000;
  LsmOptions design;
  design.memtable_capacity = 256;
  auto db = Database::Open(dir, LsmOpts(design)).ValueOrDie();
  (void)db->Execute("CREATE TABLE t (k INT, v DOUBLE)").ValueOrDie();
  for (int i = 0; i < kRows; i += 40) {
    std::string sql = "INSERT INTO t VALUES ";
    for (int j = i; j < i + 40; ++j) {
      sql += (j == i ? "(" : ", (") + std::to_string(j) + ", " +
             std::to_string(j) + ".25)";
    }
    (void)db->Execute(sql).ValueOrDie();
  }
  (void)db->FlushColdStorage();
  const std::string sql = selective
                              ? "SELECT COUNT(*) FROM t WHERE v >= 3999.0"
                              : "SELECT COUNT(*) FROM t WHERE v >= 0.0";
  const LsmStats before = db->lsm_engine()->StatsSnapshot();
  size_t scans = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->Execute(sql));
    ++scans;
  }
  const LsmStats after = db->lsm_engine()->StatsSnapshot();
  db.reset();
  std::filesystem::remove_all(dir);
  state.SetItemsProcessed(static_cast<int64_t>(scans) * kRows);
  state.counters["selective"] = selective ? 1.0 : 0.0;
  state.counters["zone_prunes_per_scan"] =
      scans ? static_cast<double>(after.zone_prunes - before.zone_prunes) /
                  static_cast<double>(scans)
            : 0.0;
  state.counters["zone_checks_per_scan"] =
      scans ? static_cast<double>(after.zone_checks - before.zone_checks) /
                  static_cast<double>(scans)
            : 0.0;
}
BENCHMARK(BM_LsmZoneMapScan)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// The central design tradeoff, measured end to end: an update-heavy churn
/// under leveling (arg 1) vs tiering (arg 0). Leveling pays write
/// amplification to keep the run count (and thus cold read amplification)
/// low; tiering is the mirror image.
void BM_LsmCompactionPolicy(benchmark::State& state) {
  const bool leveling = state.range(0) != 0;
  const std::string dir = BenchDir("storage_policy");
  constexpr int kRows = 512;
  constexpr int kChurn = 1536;
  LsmStats stats;
  uint64_t runs = 0;
  size_t ops = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(dir);
    LsmOptions design;
    design.memtable_capacity = 128;
    design.size_ratio = 3;
    design.leveling = leveling;
    auto db = Database::Open(dir, LsmOpts(design)).ValueOrDie();
    (void)db->Execute("CREATE TABLE t (k INT, v DOUBLE)").ValueOrDie();
    (void)db->Execute("CREATE INDEX t_k ON t(k)").ValueOrDie();
    state.ResumeTiming();

    for (int i = 0; i < kRows; ++i) {
      benchmark::DoNotOptimize(db->Execute(
          "INSERT INTO t VALUES (" + std::to_string(i) + ", 0.5)"));
      ++ops;
    }
    for (int i = 0; i < kChurn; ++i) {
      benchmark::DoNotOptimize(db->Execute(
          "UPDATE t SET v = v + 1.0 WHERE k = " +
          std::to_string((i * 131) % kRows)));
      ++ops;
      if ((i + 1) % 128 == 0) (void)db->FlushColdStorage();
    }
    (void)db->FlushColdStorage();

    state.PauseTiming();
    stats = db->lsm_engine()->StatsSnapshot();
    runs = 0;
    for (const auto& info : db->lsm_engine()->TableInfos()) runs += info.runs;
    db.reset();
    state.ResumeTiming();
  }
  std::filesystem::remove_all(dir);
  state.SetItemsProcessed(static_cast<int64_t>(ops));
  state.counters["leveling"] = leveling ? 1.0 : 0.0;
  state.counters["write_amp"] = stats.WriteAmplification();
  state.counters["runs"] = static_cast<double>(runs);
  state.counters["compactions"] = static_cast<double>(stats.compactions);
}
BENCHMARK(BM_LsmCompactionPolicy)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// One full measured hill-climb (advisor/knob/storage_env) on a read-heavy
/// workload, reporting the chosen design and the analytic model's cost at
/// the same point — the E10b measured-vs-model validation pair.
void BM_LsmTunerMeasured(benchmark::State& state) {
  aidb::design::LsmWorkload w;
  w.num_writes = 3000;
  w.num_point_reads = 1000;
  w.key_space = 2000;
  w.read_hit_fraction = 0.5;
  aidb::advisor::StorageEnvOptions env;
  env.scratch_dir = BenchDir("storage_tuner");
  env.max_ops = 1024;
  env.flush_every = 48;
  aidb::advisor::MeasuredTuneResult r;
  for (auto _ : state) {
    auto tuned = aidb::advisor::TuneLsmOnMeasured(w, env);
    if (!tuned.ok()) {
      state.SkipWithError(tuned.status().ToString().c_str());
      return;
    }
    r = std::move(tuned).ValueOrDie();
    // Sink a copy, not r.best.cost itself: GCC's "+m,r" DoNotOptimize
    // constraint may write the register alternative back into the lvalue,
    // clobbering a field the counters below still read.
    double cost = r.best.cost;
    benchmark::DoNotOptimize(cost);
  }
  state.counters["evaluations"] = static_cast<double>(r.evaluations);
  state.counters["start_cost"] = r.start.cost;
  state.counters["best_cost"] = r.best.cost;
  state.counters["model_cost"] = r.model_cost;
  state.counters["best_write_amp"] = r.best.write_amp;
  state.counters["best_read_amp"] = r.best.read_amp;
  state.counters["best_memtable"] =
      static_cast<double>(r.best.options.memtable_capacity);
  state.counters["best_bloom_bits"] =
      static_cast<double>(r.best.options.bloom_bits_per_key);
  state.counters["best_leveling"] = r.best.options.leveling ? 1.0 : 0.0;
}
BENCHMARK(BM_LsmTunerMeasured)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
