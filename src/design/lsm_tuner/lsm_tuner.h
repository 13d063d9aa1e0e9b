#pragma once

#include <functional>

#include "common/result.h"
#include "storage/lsm.h"

namespace aidb::design {

/// Workload description for LSM design tuning.
struct LsmWorkload {
  size_t num_writes = 100000;
  size_t num_point_reads = 100000;
  size_t key_space = 100000;
  /// Fraction of reads that hit existing keys (misses are where blooms pay).
  double read_hit_fraction = 0.5;

  double WriteFraction() const {
    size_t total = num_writes + num_point_reads;
    return total ? static_cast<double>(num_writes) / total : 0.0;
  }
};

/// \brief Analytic LSM cost model over the design continuum (Idreos et al.:
/// "design continuums and the path toward self-designing key-value stores").
///
/// Standard amortized I/O algebra: leveling rewrites each entry ~T/2 times
/// per level; tiering once per level; point reads probe one run per level
/// (leveling) or T runs (tiering), discounted by the bloom false-positive
/// rate for misses.
class LsmCostModel {
 public:
  double WriteCost(const LsmOptions& opts, const LsmWorkload& w) const;
  double ReadCost(const LsmOptions& opts, const LsmWorkload& w) const;
  double MemoryCost(const LsmOptions& opts, const LsmWorkload& w) const;
  /// Weighted total the tuner minimizes.
  double TotalCost(const LsmOptions& opts, const LsmWorkload& w) const {
    return WriteCost(opts, w) + ReadCost(opts, w) + 0.1 * MemoryCost(opts, w);
  }

  double NumLevels(const LsmOptions& opts, const LsmWorkload& w) const;
  static double BloomFalsePositiveRate(size_t bits_per_key);
};

/// Cost of one design point (lower is better); an error ends the climb.
using LsmDesignCost = std::function<Result<double>(const LsmOptions&)>;

/// Where a design climb stopped.
struct LsmClimb {
  LsmOptions options;
  double cost = 0.0;  ///< `cost` at `options`
  size_t steps = 0;   ///< accepted moves
};

/// \brief Hill-climbs the discrete design space (memtable budget, size
/// ratio, bloom bits, leveling/tiering) from `start`: each round prices the
/// one-knob moves — the lattice neighbours of each knob in that order (a
/// value off the lattice snaps to its middle), then the policy flip — and
/// takes the cheapest while it improves. This is the paper's "tweak
/// different knobs in one direction until reaching the cost boundary"
/// procedure; the analytic tuner and the measured one (advisor/knob/
/// storage_env) differ only in `cost`.
Result<LsmClimb> ClimbLsmDesign(const LsmOptions& start, const LsmDesignCost& cost);

/// \brief Self-designing tuner: climbs the design lattice on the analytic
/// cost model.
class LsmDesignTuner {
 public:
  struct Result {
    LsmOptions options;
    double model_cost = 0.0;
    size_t steps = 0;
  };

  Result Tune(const LsmWorkload& workload, const LsmOptions& start = {}) const;
};

}  // namespace aidb::design
