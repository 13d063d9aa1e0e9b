// Ablations over the design choices the learned components depend on:
//   A1  RMI second-stage model count (size/error/latency trade-off)
//   A2  LSM bloom bits per key on the real engine (read amplification)
//   A3  MCTS iteration budget for join ordering (quality vs time)
//   A4  learned-cardinality training-set size (sample cost vs q-error)
//   A5  fault-tolerant training checkpoint interval (waste vs overhead)

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>

#include "advisor/knob/storage_env.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/timer.h"
#include "db4ai/training/checkpoint_trainer.h"
#include "design/learned_index/rmi.h"
#include "exec/planner.h"
#include "learned/cardinality/learned_estimator.h"
#include "learned/joinorder/learned_joinorder.h"
#include "workload/generator.h"

namespace {

using namespace aidb;

void AblateRmiLeafCount() {
  Rng rng(3);
  std::set<int64_t> keyset;
  while (keyset.size() < 1000000) keyset.insert(rng.UniformInt(0, 1LL << 40));
  std::vector<int64_t> keys(keyset.begin(), keyset.end());
  std::vector<int64_t> probes;
  for (size_t i = 0; i < 100000; ++i) probes.push_back(keys[rng.Uniform(keys.size())]);

  for (size_t leaves : {64, 256, 1024, 4096, 16384}) {
    design::RmiIndex rmi(leaves);
    rmi.Build(keys);
    Timer t;
    size_t hits = 0;
    for (int64_t k : probes) hits += rmi.Contains(k);
    double ns = t.ElapsedMicros() * 1000.0 / probes.size();
    std::printf("A1,rmi_leaves,leaves=%zu,lookup_ns=%.1f,avg_error=%.1f,model_bytes=%zu,hits=%zu\n",
                leaves, ns, rmi.avg_error(), rmi.ModelBytes(), hits);
  }
}

/// Bloom bits on the real LSM engine: a tiered design with a large size
/// ratio keeps the churn's re-frozen runs unmerged, so runs overlap and a
/// point read probes them newest-first until the bloom-passing run that
/// holds its slot. read_amp is runs probed per read-phase get;
/// bloom_negatives counts the whole replay.
void AblateBloomBits() {
  design::LsmWorkload w;
  w.num_writes = 4000;
  w.num_point_reads = 1000;
  w.key_space = 2000;
  w.read_hit_fraction = 1.0;
  advisor::StorageEnvOptions env;
  env.scratch_dir = (std::filesystem::temp_directory_path() /
                     ("aidb_a2_" + std::to_string(::getpid())))
                        .string();
  env.max_ops = 2048;
  env.flush_every = 32;
  for (size_t bits : {0, 2, 4, 8, 12, 16}) {
    LsmOptions opts;
    opts.memtable_capacity = 512;
    opts.size_ratio = 16;
    opts.leveling = false;
    opts.bloom_bits_per_key = bits;
    auto m = advisor::MeasureLsmDesign(w, opts, env);
    if (!m.ok()) {
      std::printf("A2,bloom_bits,bits=%zu,error=%s\n", bits,
                  m.status().ToString().c_str());
      continue;
    }
    std::printf("A2,bloom_bits,bits=%zu,read_amp=%.3f,bloom_negatives=%llu\n", bits,
                m.ValueOrDie().read_amp,
                static_cast<unsigned long long>(m.ValueOrDie().stats.bloom_negatives));
  }
}

QueryGraph MakeChain(size_t n, uint64_t seed) {
  Rng rng(seed);
  QueryGraph g;
  for (size_t i = 0; i < n; ++i) {
    RelationInfo r;
    r.table = "t" + std::to_string(i);
    r.name = r.table;
    r.base_rows = std::pow(10.0, 2 + rng.NextDouble() * 3);
    g.rels.push_back(r);
  }
  for (size_t i = 0; i + 1 < n; ++i) {
    JoinEdgeInfo e;
    e.left_rel = i;
    e.right_rel = i + 1;
    e.selectivity = std::pow(10.0, -1 - rng.NextDouble() * 3);
    g.edges.push_back(e);
  }
  return g;
}

void AblateMctsIterations() {
  QueryGraph g = MakeChain(10, 17);
  JoinCostModel model(&g);
  DpJoinEnumerator dp;
  auto optimal = dp.Enumerate(model);
  for (size_t iters : {50, 200, 800, 3200}) {
    learned::MctsJoinEnumerator::Options mopts;
    mopts.iterations = iters;
    learned::MctsJoinEnumerator mcts(mopts);
    Timer t;
    auto plan = mcts.Enumerate(model);
    std::printf("A3,mcts_iterations,iters=%zu,cost_ratio=%.3f,time_ms=%.2f\n", iters,
                plan->cost / optimal->cost, t.ElapsedMillis());
  }
}

void AblateCardinalityTrainingSize() {
  Database db;
  workload::StarSchemaOptions schema;
  schema.fact_rows = 8000;
  schema.correlation = 0.9;
  if (!workload::BuildStarSchema(&db, schema).ok()) return;

  auto true_sel = [&](const std::string& where) {
    auto r = db.Execute("SELECT COUNT(*) FROM fact WHERE " + where);
    return r.ok() ? r.ValueOrDie().rows[0][0].AsDouble() / 8000.0 : 0.0;
  };

  for (size_t train_n : {100, 400, 1600}) {
    learned::LearnedCardinalityEstimator::Options opts;
    opts.training_queries = train_n;
    learned::LearnedCardinalityEstimator est(&db.catalog(), opts);
    Timer t;
    if (!est.Train("fact", {"a", "b", "c"}).ok()) continue;
    double train_s = t.ElapsedSeconds();
    Samples q;
    Rng rng(31);
    for (int i = 0; i < 60; ++i) {
      int k = static_cast<int>(rng.UniformInt(10, 90));
      std::string where = "fact.a < " + std::to_string(k) + " AND fact.b < " +
                          std::to_string(k + 5);
      auto stmt = workload::ParseSelect("SELECT id FROM fact WHERE " + where);
      std::vector<const sql::Expr*> conjuncts;
      exec::SplitConjuncts(stmt->where.get(), &conjuncts);
      double sel = est.ConjunctionSelectivity("fact", conjuncts);
      q.Add(QError(sel * 8000, true_sel(where) * 8000));
    }
    std::printf("A4,card_training,samples=%zu,p90_qerror=%.2f,train_s=%.2f\n",
                train_n, q.Quantile(0.9), train_s);
  }
}

void AblateCheckpointInterval() {
  Rng rng(7);
  ml::Dataset data;
  size_t n = 5000;
  data.x = ml::Matrix(n, 4);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < 4; ++c) data.x.At(i, c) = rng.UniformDouble(-1, 1);
    data.y.push_back(data.x.At(i, 0) - 2 * data.x.At(i, 2) + rng.Gaussian(0, 0.02));
  }
  for (size_t interval : {0, 4, 16, 64, 256}) {
    db4ai::CheckpointTrainer::Options opts;
    opts.checkpoint_interval = interval;
    opts.crash_probability = 0.02;
    opts.epochs = 6;
    db4ai::CheckpointTrainer trainer(opts);
    auto stats = trainer.Train(data);
    std::printf(
        "A5,checkpointing,interval=%zu,crashes=%zu,wasted_batches=%zu,"
        "checkpoints=%zu,final_mse=%.4f\n",
        interval, stats.crashes, stats.wasted_batches, stats.checkpoints_written,
        stats.final_mse);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("ablation,knob,config,metrics...\n");
  AblateRmiLeafCount();
  AblateBloomBits();
  AblateMctsIterations();
  AblateCardinalityTrainingSize();
  AblateCheckpointInterval();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
