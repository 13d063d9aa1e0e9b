#pragma once

#include <cstdint>
#include <string>

#include "common/result.h"
#include "design/lsm_tuner/lsm_tuner.h"
#include "storage/lsm.h"

namespace aidb::advisor {

/// \brief Measured tuning environment for the *real* LSM storage engine.
///
/// The analytic LsmCostModel (design/lsm_tuner) predicts write/read
/// amplification from closed-form I/O algebra. This environment instead
/// *runs* a scaled replica of the workload through Database::Open with
/// DurabilityOptions::lsm and the candidate design, forcing cold flushes at
/// a fixed cadence, and reads the engine's own deterministic counters
/// (LsmStats: entries written/rewritten, runs probed per cold get, bloom
/// negatives, zone prunes). No wall clock anywhere — the same design always
/// measures the same cost, which is what lets a tuner hill-climb on it and
/// what makes the analytic model checkable against reality (EXPERIMENTS.md
/// E10b).
struct StorageEnvOptions {
  /// Scratch directory recreated for every evaluation.
  std::string scratch_dir = "aidb_storage_env_scratch";
  uint64_t seed = 42;
  /// Cap on replayed *statements* — the build phase inserts in 64-row
  /// batches, so the key space reaches past the memtable lattice on a
  /// test-sized budget. The workload's shape (write fraction, update mix,
  /// hit rate) is preserved while its volume is scaled down.
  size_t max_ops = 2048;
  /// Forced FlushColdStorage cadence, in write statements.
  size_t flush_every = 128;
};

/// One measured evaluation of an LSM design point.
struct MeasuredLsmDesign {
  LsmOptions options;
  LsmStats stats;          ///< raw engine counters after the replay
  double write_amp = 0.0;  ///< entries rewritten per entry ingested
  double read_amp = 0.0;   ///< runs probed per read-phase cold access
  double cost = 0.0;       ///< workload-weighted score (lower is better)
};

/// Replays the scaled workload under `opts` and returns the measured
/// amplification + cost. Deterministic for fixed (workload, opts, env).
Result<MeasuredLsmDesign> MeasureLsmDesign(const design::LsmWorkload& workload,
                                           const LsmOptions& opts,
                                           const StorageEnvOptions& env = {});

/// Outcome of a measured hill-climb over the design lattice.
struct MeasuredTuneResult {
  MeasuredLsmDesign start;   ///< the starting design, measured
  MeasuredLsmDesign best;    ///< the chosen design, measured
  size_t evaluations = 0;    ///< workload replays spent
  size_t steps = 0;          ///< accepted moves
  double model_cost = 0.0;   ///< analytic TotalCost at `best` (validation)
};

/// Runs the design climb of LsmDesignTuner (design::ClimbLsmDesign) but
/// prices each design with MeasureLsmDesign instead of the analytic model:
/// the learned tuner grounded in the engine's real counters. Designs are
/// measured once each, at most 48 of them. The analytic model's cost at the
/// chosen design is reported alongside as the validation baseline.
Result<MeasuredTuneResult> TuneLsmOnMeasured(const design::LsmWorkload& workload,
                                             const StorageEnvOptions& env = {},
                                             const LsmOptions& start = {});

}  // namespace aidb::advisor
