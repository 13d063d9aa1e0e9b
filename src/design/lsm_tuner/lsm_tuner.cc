#include "design/lsm_tuner/lsm_tuner.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace aidb::design {

double LsmCostModel::BloomFalsePositiveRate(size_t bits_per_key) {
  if (bits_per_key == 0) return 1.0;
  return std::pow(0.6185, static_cast<double>(bits_per_key));
}

double LsmCostModel::NumLevels(const LsmOptions& opts, const LsmWorkload& w) const {
  double n = std::max<double>(1.0, static_cast<double>(w.key_space));
  double m = std::max<double>(1.0, static_cast<double>(opts.memtable_capacity));
  double t = std::max<double>(2.0, static_cast<double>(opts.size_ratio));
  return std::max(1.0, std::ceil(std::log(n / m) / std::log(t)));
}

double LsmCostModel::WriteCost(const LsmOptions& opts, const LsmWorkload& w) const {
  double levels = NumLevels(opts, w);
  double t = static_cast<double>(opts.size_ratio);
  // Per-entry amortized rewrites; total scaled by write volume.
  double per_entry = opts.leveling ? (t / 2.0) * levels : levels;
  return per_entry * static_cast<double>(w.num_writes) * 1e-3;
}

double LsmCostModel::ReadCost(const LsmOptions& opts, const LsmWorkload& w) const {
  double levels = NumLevels(opts, w);
  double t = static_cast<double>(opts.size_ratio);
  double runs = opts.leveling ? levels : levels * t;
  double fpr = BloomFalsePositiveRate(opts.bloom_bits_per_key);
  // A hit probes ~half the runs plus the hit run; a miss probes only
  // bloom-passing runs.
  double hit_cost = 0.5 * runs + 1.0;
  double miss_cost = runs * fpr + 0.1;  // bloom checks are cheap but not free
  double reads = static_cast<double>(w.num_point_reads);
  return (w.read_hit_fraction * hit_cost +
          (1.0 - w.read_hit_fraction) * miss_cost) *
         reads * 1e-3;
}

double LsmCostModel::MemoryCost(const LsmOptions& opts, const LsmWorkload& w) const {
  double bloom_bits = static_cast<double>(opts.bloom_bits_per_key) *
                      static_cast<double>(w.key_space);
  double memtable = static_cast<double>(opts.memtable_capacity) * 64.0;  // bytes
  return (bloom_bits / 8.0 + memtable) * 1e-5;
}

Result<LsmClimb> ClimbLsmDesign(const LsmOptions& start,
                                const LsmDesignCost& cost) {
  // Discrete design lattice per knob.
  const std::vector<size_t> memtables{512, 1024, 2048, 4096, 8192, 16384};
  const std::vector<size_t> ratios{2, 3, 4, 6, 8, 10, 16};
  const std::vector<size_t> blooms{0, 2, 4, 6, 8, 10, 12, 16};

  LsmClimb r;
  r.options = start;
  AIDB_ASSIGN_OR_RETURN(r.cost, cost(start));

  // Steepest descent over one-knob moves until no move improves (the
  // design-continuum "gradient" walk). The lattice is small enough that this
  // converges in a handful of steps.
  bool improved = true;
  while (improved) {
    improved = false;
    LsmOptions best = r.options;
    double best_cost = r.cost;
    auto consider = [&](const LsmOptions& cand) -> Status {
      AIDB_ASSIGN_OR_RETURN(double c, cost(cand));
      if (c < best_cost) {
        best_cost = c;
        best = cand;
      }
      return Status::OK();
    };
    auto neighbors = [&](const std::vector<size_t>& lattice,
                         size_t LsmOptions::*knob) -> Status {
      LsmOptions o = r.options;
      for (size_t i = 0; i < lattice.size(); ++i) {
        if (lattice[i] == o.*knob) {
          if (i > 0) {
            o.*knob = lattice[i - 1];
            AIDB_RETURN_NOT_OK(consider(o));
          }
          if (i + 1 < lattice.size()) {
            o.*knob = lattice[i + 1];
            AIDB_RETURN_NOT_OK(consider(o));
          }
          return Status::OK();
        }
      }
      o.*knob = lattice[lattice.size() / 2];  // snap onto the lattice
      return consider(o);
    };
    AIDB_RETURN_NOT_OK(neighbors(memtables, &LsmOptions::memtable_capacity));
    AIDB_RETURN_NOT_OK(neighbors(ratios, &LsmOptions::size_ratio));
    AIDB_RETURN_NOT_OK(neighbors(blooms, &LsmOptions::bloom_bits_per_key));
    LsmOptions flipped = r.options;
    flipped.leveling = !flipped.leveling;
    AIDB_RETURN_NOT_OK(consider(flipped));
    if (best_cost < r.cost - 1e-12) {
      r.options = best;
      r.cost = best_cost;
      improved = true;
      ++r.steps;
    }
  }
  return r;
}

LsmDesignTuner::Result LsmDesignTuner::Tune(const LsmWorkload& workload,
                                            const LsmOptions& start) const {
  const LsmCostModel model;
  const LsmClimb c =
      ClimbLsmDesign(start, [&](const LsmOptions& o) -> aidb::Result<double> {
        return model.TotalCost(o, workload);
      }).ValueOrDie();  // the analytic cost never fails
  return {c.options, c.cost, c.steps};
}

}  // namespace aidb::design
