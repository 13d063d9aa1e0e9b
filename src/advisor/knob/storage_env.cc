#include "advisor/knob/storage_env.h"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <map>
#include <tuple>
#include <utility>

#include "common/rng.h"
#include "exec/database.h"
#include "storage/engine/lsm_engine.h"

namespace aidb::advisor {

namespace {

/// Rows per multi-row INSERT in the build phase. Batching is what lets a
/// test-sized statement budget reach a key space *larger than the memtable
/// lattice* (512..16384) — without it every candidate design holds the whole
/// table warm until the final forced flush and measures the same wa=ra=1.0,
/// and the "measured" tuner would be climbing nothing but the memory term.
constexpr size_t kInsertBatch = 64;

/// Workload volumes after scaling down to env.max_ops *statements*
/// (a batched insert counts as one), shape preserved.
struct ScaledWorkload {
  size_t rows = 0;     ///< distinct keys, built with kInsertBatch-row inserts
  size_t updates = 0;  ///< point updates after the build (cold-slot churn)
  size_t reads = 0;    ///< indexed point reads
};

ScaledWorkload Scale(const design::LsmWorkload& w, const StorageEnvOptions& env) {
  const size_t orig_rows = std::min(w.key_space, w.num_writes);
  const size_t orig_updates = w.num_writes - orig_rows;
  const size_t insert_stmts = (orig_rows + kInsertBatch - 1) / kInsertBatch;
  const size_t stmts = insert_stmts + orig_updates + w.num_point_reads;
  const double s =
      stmts > env.max_ops ? static_cast<double>(env.max_ops) /
                                static_cast<double>(stmts)
                          : 1.0;
  ScaledWorkload sw;
  sw.rows = std::max<size_t>(
      kInsertBatch, static_cast<size_t>(static_cast<double>(orig_rows) * s));
  sw.updates =
      orig_updates == 0
          ? 0
          : std::max<size_t>(32, static_cast<size_t>(
                                     static_cast<double>(orig_updates) * s));
  sw.reads = std::max<size_t>(
      16, static_cast<size_t>(static_cast<double>(w.num_point_reads) * s));
  return sw;
}

/// Workload-weighted score over the measured amplifications. The memory
/// term (normalized to the lattice extremes, same role as the analytic
/// model's 0.1 * MemoryCost) keeps "max memtable, max bloom" from being a
/// free lunch.
double Score(const design::LsmWorkload& w, const LsmOptions& opts,
             double write_amp, double read_amp) {
  const double wf = w.WriteFraction();
  const double mem = static_cast<double>(opts.memtable_capacity) / 16384.0 +
                     static_cast<double>(opts.bloom_bits_per_key) / 16.0;
  return wf * write_amp + (1.0 - wf) * read_amp + 0.1 * mem;
}

}  // namespace

Result<MeasuredLsmDesign> MeasureLsmDesign(const design::LsmWorkload& workload,
                                           const LsmOptions& opts,
                                           const StorageEnvOptions& env) {
  if (workload.num_writes + workload.num_point_reads == 0) {
    return Status::InvalidArgument("storage env: empty workload");
  }
  const ScaledWorkload sw = Scale(workload, env);
  std::filesystem::remove_all(env.scratch_dir);

  DurabilityOptions dopts;
  dopts.lsm = true;
  dopts.lsm_design = opts;
  dopts.sync = false;              // counters, not wall clock, are the signal
  dopts.wal_flush_interval = 64;   // keep the WAL off the critical path
  dopts.checkpoint_every_n_records = 0;
  AIDB_ASSIGN_OR_RETURN(auto db, Database::Open(env.scratch_dir, dopts));

  auto run = [&](const std::string& sql) -> Status {
    auto r = db->Execute(sql);
    if (!r.ok()) return r.status();
    return Status::OK();
  };
  AIDB_RETURN_NOT_OK(run("CREATE TABLE kv (k INT, v DOUBLE)"));
  AIDB_RETURN_NOT_OK(run("CREATE INDEX kv_k ON kv(k)"));

  Rng rng(env.seed * 0x9E3779B97F4A7C15ULL + 1);
  const size_t flush_every = std::max<size_t>(1, env.flush_every);
  // Build phase: batched sequential inserts grow the key space past the
  // memtable lattice (slot order tracks key order, so zone maps stay tight).
  // Small-memtable designs flush mid-build; big ones hold everything warm —
  // the first axis the measurement discriminates.
  size_t write_stmts = 0, inserted = 0;
  auto maybe_flush = [&]() -> Status {
    if (++write_stmts % flush_every == 0) {
      return db->FlushColdStorage(/*force=*/false);
    }
    return Status::OK();
  };
  while (inserted < sw.rows) {
    const size_t n = std::min(kInsertBatch, sw.rows - inserted);
    std::string sql = "INSERT INTO kv VALUES ";
    for (size_t j = 0; j < n; ++j) {
      const size_t k = inserted + j;
      sql += (j == 0 ? "(" : ", (") + std::to_string(k) + ", " +
             std::to_string(k % 97) + ".5)";
    }
    AIDB_RETURN_NOT_OK(run(sql));
    inserted += n;
    AIDB_RETURN_NOT_OK(maybe_flush());
  }
  // Churn phase: point updates materialize cold slots, which later re-freeze
  // into overlapping runs; that overlap is what blooms and the compaction
  // policy get measured on.
  for (size_t i = 0; i < sw.updates; ++i) {
    AIDB_RETURN_NOT_OK(run("UPDATE kv SET v = " +
                           std::to_string(rng.Uniform(1000)) +
                           ".25 WHERE k = " +
                           std::to_string(rng.Uniform(sw.rows))));
    AIDB_RETURN_NOT_OK(maybe_flush());
  }
  // Everything cold before the read phase: reads measure the persisted
  // layout the writes produced, not the residual memtable.
  AIDB_RETURN_NOT_OK(db->FlushColdStorage(/*force=*/true));

  // Read phase: indexed point lookups; a hit resolves its slot through the
  // cold tier (runs probed until found), a key-space miss never reaches a
  // slot and stays free — the same hit/miss asymmetry the analytic model
  // encodes. Read amplification comes from this phase's counter delta
  // alone: the churn phase's update scans also probe the cold tier (by the
  // thousands) at ~1 run per probe, and folding them in would drown the
  // point-read signal the bloom/compaction knobs act on.
  const LsmStats pre_reads = db->lsm_engine()->StatsSnapshot();
  for (size_t j = 0; j < sw.reads; ++j) {
    const bool hit = rng.NextDouble() < workload.read_hit_fraction;
    const uint64_t key = hit ? rng.Uniform(sw.rows)
                             : sw.rows + rng.Uniform(std::max<size_t>(1, sw.rows));
    AIDB_RETURN_NOT_OK(
        run("SELECT v FROM kv WHERE k = " + std::to_string(key)));
  }

  MeasuredLsmDesign m;
  m.options = opts;
  m.stats = db->lsm_engine()->StatsSnapshot();
  m.write_amp = m.stats.WriteAmplification();
  const uint64_t read_gets = m.stats.gets - pre_reads.gets;
  m.read_amp = read_gets == 0
                   ? 0.0
                   : static_cast<double>(m.stats.runs_probed -
                                         pre_reads.runs_probed) /
                         static_cast<double>(read_gets);
  m.cost = Score(workload, opts, m.write_amp, m.read_amp);
  db.reset();
  std::filesystem::remove_all(env.scratch_dir);
  return m;
}

Result<MeasuredTuneResult> TuneLsmOnMeasured(const design::LsmWorkload& workload,
                                             const StorageEnvOptions& env,
                                             const LsmOptions& start) {
  constexpr size_t kMaxEvaluations = 48;

  MeasuredTuneResult r;
  // Memoize measured designs: the climb revisits neighbors, and every
  // evaluation is a full workload replay. Once the budget is spent every
  // design prices at +inf, so the climb stops where it stands.
  using Key = std::tuple<size_t, size_t, size_t, bool>;
  auto key = [](const LsmOptions& o) -> Key {
    return {o.memtable_capacity, o.size_ratio, o.bloom_bits_per_key, o.leveling};
  };
  std::map<Key, MeasuredLsmDesign> seen;
  auto cost = [&](const LsmOptions& o) -> Result<double> {
    if (r.evaluations >= kMaxEvaluations) {
      return std::numeric_limits<double>::infinity();
    }
    auto it = seen.find(key(o));
    if (it == seen.end()) {
      AIDB_ASSIGN_OR_RETURN(MeasuredLsmDesign m, MeasureLsmDesign(workload, o, env));
      ++r.evaluations;
      it = seen.emplace(key(o), std::move(m)).first;
    }
    return it->second.cost;
  };

  AIDB_ASSIGN_OR_RETURN(design::LsmClimb climb, design::ClimbLsmDesign(start, cost));
  r.start = seen.at(key(start));
  r.best = seen.at(key(climb.options));
  r.steps = climb.steps;
  r.model_cost = design::LsmCostModel().TotalCost(r.best.options, workload);
  return r;
}

}  // namespace aidb::advisor
