// E10 — Learned data structure design / LSM design continuum (survey §2.3,
// Idreos et al.). Shape: the cost-model-guided tuner adapts the LSM design
// (leveling/tiering, memtable, size ratio, bloom bits) to the read/write
// mix, beating the one-size-fits-all default on the analytic model; the
// default and the tuned design are then replayed on the real LSM storage
// engine (advisor::MeasureLsmDesign) for wall time and measured write/read
// amplification.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>

#include "advisor/knob/storage_env.h"
#include "common/timer.h"
#include "design/lsm_tuner/lsm_tuner.h"

namespace {

using namespace aidb;
using namespace aidb::design;

void PrintExperimentTable() {
  std::printf("exp,leaf,config,metric,baseline,learned,ratio\n");
  LsmCostModel model;
  LsmDesignTuner tuner;
  // At 16384 statements the update-heavy replicas' key space (6262 rows)
  // outgrows the 4096-slot memtable both designs use, so runs flush and
  // compact mid-replay; at 8192 every design measures wa = 1. The replay's
  // UPDATEs scan the whole table, which bounds the scale from above.
  advisor::StorageEnvOptions env;
  env.scratch_dir = (std::filesystem::temp_directory_path() /
                     ("aidb_e10_" + std::to_string(::getpid())))
                        .string();
  env.max_ops = 16384;

  struct Mix {
    const char* name;
    size_t writes, reads;
  };
  for (const Mix& mix : {Mix{"write_heavy", 160000, 20000},
                         Mix{"balanced", 90000, 90000},
                         Mix{"read_heavy", 20000, 160000}}) {
    LsmWorkload w;
    w.num_writes = mix.writes;
    w.num_point_reads = mix.reads;
    w.key_space = 50000;
    w.read_hit_fraction = 0.5;

    const LsmOptions def;
    auto tuned = tuner.Tune(w);

    double model_def = model.TotalCost(def, w);
    double model_tuned = tuned.model_cost;
    std::printf("E10,lsm_design,%s,model_cost,%.1f,%.1f,%.2f\n", mix.name,
                model_def, model_tuned, model_def / model_tuned);
    std::printf("E10,lsm_design,%s,tuned_design,ratio=%zu bloom=%zu %s mem=%zu,,%zu\n",
                mix.name, tuned.options.size_ratio,
                tuned.options.bloom_bits_per_key,
                tuned.options.leveling ? "leveling" : "tiering",
                tuned.options.memtable_capacity, tuned.steps);

    // Both designs replay the same scaled workload on the real engine.
    auto measure = [&](const LsmOptions& o, double* seconds) {
      Timer t;
      auto m = advisor::MeasureLsmDesign(w, o, env);
      *seconds = t.ElapsedSeconds();
      if (!m.ok()) {
        std::fprintf(stderr, "E10: %s\n", m.status().ToString().c_str());
        std::exit(1);
      }
      return std::move(m).ValueOrDie();
    };
    double wall_def = 0.0, wall_tuned = 0.0;
    const advisor::MeasuredLsmDesign a = measure(def, &wall_def);
    const advisor::MeasuredLsmDesign b = measure(tuned.options, &wall_tuned);
    std::printf("E10,lsm_design,%s,measured_seconds,%.3f,%.3f,%.2f\n", mix.name,
                wall_def, wall_tuned, wall_def / std::max(wall_tuned, 1e-9));
    std::printf("E10,lsm_design,%s,write_amplification,%.2f,%.2f,%.2f\n", mix.name,
                a.write_amp, b.write_amp, a.write_amp / std::max(b.write_amp, 1e-9));
    std::printf("E10,lsm_design,%s,read_amplification,%.3f,%.3f,%.2f\n", mix.name,
                a.read_amp, b.read_amp, a.read_amp / std::max(b.read_amp, 1e-9));
  }
}

}  // namespace

int main(int argc, char** argv) {
  PrintExperimentTable();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
