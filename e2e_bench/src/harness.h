#pragma once

// The closed-loop client, the engine-counter snapshot and the helpers every
// workload shares. Workloads reach the engine only through public calls:
// server::Service for statements, Database for open/flush/counters.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/database.h"
#include "server/service.h"
#include "spans.h"

namespace e2e {

/// Statement kinds (and analytics query classes) the benchmark issues.
enum class Kind : uint8_t {
  kSelect,
  kExecute,
  kUpdate,
  kInsert,
  kBegin,
  kCommit,
  kScanAgg,
  kGroupAgg,
  kJoinAgg,
  kTopK,
  kRangeAgg,
  kDdl,  ///< CREATE / ANALYZE / PREPARE in set-up
};
inline constexpr int kNumKinds = 12;
const char* KindName(Kind k);
/// Reads are SELECTs and EXECUTEs of a SELECT; writes are INSERT, UPDATE,
/// BEGIN and COMMIT.
bool IsRead(Kind k);
bool IsWrite(Kind k);

/// One statement as the client saw it. Times are microseconds.
struct StmtRecord {
  double start_us = 0.0;   ///< submit time since the run epoch
  double submit_us = 0.0;  ///< inside Service::Submit
  double total_us = 0.0;   ///< submit to result (client latency)
  double engine_us = 0.0;  ///< QueryResult::elapsed_ms of a successful result
  int64_t text = -1;       ///< index into the client's texts (traced runs)
  uint64_t request = 0;    ///< the request's root span id (traced runs)
  uint64_t exec_span = 0;  ///< the request's exec.stmt span (traced runs)
  Kind kind = Kind::kSelect;
  bool ok = false;
  bool cache_hit = false;
};

/// Time from Submit returning to the result, minus engine time: queue wait
/// plus worker hand-off. Negative when a worker began executing before
/// Submit returned, so the two overlapped.
double QueueUs(const StmtRecord& r);

/// Statement texts kept by a traced run for the parse/plan probes.
struct StmtText {
  std::string sql;
  /// SELECT text the planner probe plans: the statement itself for a SELECT,
  /// the bound template body for an EXECUTE, empty otherwise.
  std::string plan_sql;
};

/// Answer-check failures, shared by every thread of a run.
class Failures {
 public:
  void Add(const std::string& what);
  bool any() const;
  std::vector<std::string> list() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::string> list_;
};

/// A closed-loop client: one session, one statement in flight. Timing is
/// taken around Service::Submit and around waiting on its future.
class Client {
 public:
  Client(aidb::server::Service* svc, Clock::time_point epoch,
         SpanRecorder* spans, bool keep_texts);

  /// Runs one statement and records it. A failed statement is counted and
  /// returned; it never aborts the run.
  aidb::Result<aidb::QueryResult> Exec(Kind kind, std::string sql,
                                       std::string plan_sql = {});
  /// Exec that must succeed (set-up, DDL): a failure is recorded in
  /// `failures` with the statement text.
  bool MustExec(Kind kind, std::string sql, Failures* failures);

  /// Subsequent statements are not recorded (the ramp before the run).
  void StartRamp() { phase_ = Phase::kRamp; }
  /// Subsequent statements go to run() instead of setup().
  void StartRun() { phase_ = Phase::kRun; }
  const std::vector<StmtRecord>& setup() const { return setup_; }
  const std::vector<StmtRecord>& run() const { return run_; }
  const std::vector<StmtText>& texts() const { return texts_; }
  void Reserve(size_t n) { run_.reserve(n); }

 private:
  aidb::server::Service* svc_;
  uint64_t session_;
  Clock::time_point epoch_;
  SpanRecorder* spans_;
  bool keep_texts_;
  enum class Phase : uint8_t { kSetup, kRamp, kRun };
  Phase phase_ = Phase::kSetup;
  std::vector<StmtRecord> setup_;
  std::vector<StmtRecord> run_;
  std::vector<StmtText> texts_;
};

/// Engine counters read at a run boundary.
struct Counters {
  std::vector<aidb::monitor::MetricSample> registry;
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
  aidb::DurabilityStats durability;
  aidb::LsmStats lsm;  ///< zero without an LSM engine
  uint64_t total_work = 0;
  aidb::monitor::LatencyHistogram::Snapshot wal_flush;
  uint64_t shed = 0;  ///< service shed_overloaded + shed_timeout

  /// A registry counter by name (0 when the engine never created it).
  double Reg(const std::string& name) const;
};
Counters ReadCounters(aidb::Database* db, const aidb::server::Service& svc);

/// Seeded generator: every input of a run derives from (seed, stream).
class Rng {
 public:
  Rng(uint64_t seed, uint64_t stream);
  uint64_t Next();
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t s_[4];
};

/// Zipf(theta) over ranks [0, n) by inverse CDF, then a seeded permutation
/// so hot keys are scattered over the key space.
class Zipf {
 public:
  Zipf(uint64_t n, double theta, Rng* rng);
  uint64_t Sample(Rng* rng) const;

 private:
  std::vector<double> cdf_;
  std::vector<uint32_t> perm_;
};

/// Bytes in all regular files under `dir`.
uint64_t DirBytes(const std::string& dir);
/// Filesystem type of `dir` (statfs magic mapped to a name).
std::string FsType(const std::string& dir);
/// Peak resident set of this process, MB.
double PeakRssMb();
double MsSince(Clock::time_point t);

/// Runs a check query directly on `db`; a failure is recorded in `f`.
bool Query(aidb::Database* db, const std::string& sql, aidb::QueryResult* out,
           Failures* f);

/// Exact integer from a result cell (INT, or a DOUBLE that is integral).
bool CellInt(const aidb::QueryResult& r, size_t row, size_t col, int64_t* out);
bool CellDouble(const aidb::QueryResult& r, size_t row, size_t col, double* out);
/// Relative comparison for floating-point sums reordered by parallel plans.
bool NearlyEqual(double a, double b);

}  // namespace e2e
