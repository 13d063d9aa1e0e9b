#pragma once

// The three workloads. Each generates its data and SQL from the seed, drives
// the engine only through server::Service sessions (and Database::Execute
// for its final-state checks), keeps a model of every acknowledged write and
// checks the engine's answers against it.

#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace e2e {

/// Model-side counts the per-layer ratios use as bases.
struct RunFacts {
  uint64_t rows_inserted = 0;  ///< rows added by the run's INSERTs
  uint64_t updates = 0;        ///< UPDATE statements in the run
  uint64_t user_bytes = 0;     ///< logical bytes the run's writes carried
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Knobs the workload moves off their defaults (for the run context).
  virtual std::string knobs() const = 0;
  virtual aidb::DurabilityOptions durability() const { return {}; }
  virtual void ApplyKnobs(aidb::Database* /*db*/) {}
  virtual size_t sessions() const { return 1; }

  /// Load, index, ANALYZE and warm-up through the clients' sessions.
  virtual void Setup(const std::vector<Client*>& clients, Failures* f) = 0;
  /// Session `i`'s untimed load between set-up and the run, until `until`:
  /// every session busy at once, so the run starts with the host's CPUs at
  /// speed. Reads only, so the model still holds.
  virtual void Ramp(size_t /*i*/, Client* /*c*/, Clock::time_point /*until*/) {}
  /// Builds the expected answers of the run (untimed, after Setup).
  virtual void Prepare() {}
  /// Session `i`'s fixed statement stream; sessions run on their own threads.
  virtual void RunSession(size_t i, Client* c, Failures* f) = 0;
  /// Compares the database's full state with the model.
  virtual void CheckState(aidb::Database* db, const std::string& when,
                          Failures* f) = 0;

  /// Logical bytes of the live rows: 8 per INT or DOUBLE, the length of a
  /// STRING.
  virtual double LogicalBytes() const = 0;
  virtual RunFacts facts() const = 0;
  /// Client latency of each analytics report (µs); empty elsewhere.
  virtual std::vector<double> reports() const { return {}; }
  /// Whether the workload's writes happen in set-up (analytics' load) rather
  /// than in the run.
  virtual bool writes_in_setup() const { return false; }
};

std::unique_ptr<Workload> MakeOltp(uint64_t seed, double seconds);
std::unique_ptr<Workload> MakeAnalytics(uint64_t seed, double seconds);
std::unique_ptr<Workload> MakeIngest(uint64_t seed, double seconds);

}  // namespace e2e
