#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "exec/database.h"
#include "storage/fault_injector.h"

namespace aidb::testing {

/// \brief Canonical digest of one statement's outcome.
///
/// Rows are rendered with a type tag and sorted, so legs that produce the
/// same multiset in different physical orders (parallel aggregation, hash
/// joins) digest identically; ordered queries stay comparable because the
/// workload generator only emits LIMIT under a deterministic ORDER BY. An
/// error digests as its full status string — serial and parallel execution
/// are required to fail with the same first error, not just both fail.
std::string DigestResult(const Result<QueryResult>& r);

/// Everything one execution of a workload produces, plus the bookkeeping the
/// crash-recovery leg needs to line recovered transactions back up with
/// workload statement positions.
struct WorkloadTrace {
  std::vector<std::string> digests;  ///< one DigestResult per statement
  /// Statement i appended a WAL transaction when run durably: DDL, CREATE
  /// MODEL and INSERT always do; UPDATE/DELETE only when rows were affected;
  /// failed statements and reads never do.
  std::vector<bool> logs_txn;
  std::string state_digest;  ///< storage::StateDigest after the last statement
};

/// True when AIDB_FUZZ_SPANS is set to a non-zero value: the in-memory fuzz
/// legs run with the end-to-end span collector enabled, so any span-induced
/// nondeterminism (an id leaking into results, span recording perturbing
/// execution) becomes a digest divergence. Under deterministic timing spans
/// carry zeroed clocks, so digests must stay byte-equal with spans on.
bool SpansFuzzDefault();

/// True when AIDB_FUZZ_LSM is set to a non-zero value: the durable fuzz legs
/// (crash recovery, concurrent transactions) run with the LSM storage engine
/// attached and a tiny memtable, plus a periodic forced flush — so every
/// existing leg re-runs with rows paging out to SSTs underneath it, and the
/// crash leg's injection points extend over SST block/footer, manifest and
/// compaction writes without any test changes.
bool LsmFuzzDefault();

/// Runs the workload on a fresh in-memory database at the given dop, on the
/// production batch engine or (vectorized=false) the volcano reference.
WorkloadTrace RunWorkload(const std::vector<std::string>& workload, size_t dop,
                          bool vectorized = true);

/// \brief The LSM-engine leg of the differential oracle.
///
/// Runs the workload on a durable database rooted at `dir` with the LSM
/// storage engine attached (tiny memtable so page-out is constant), forcing a
/// full freeze-flush-compact cycle every few statements. Paging is required
/// to be observationally invisible: the returned trace must digest byte-equal
/// to RunWorkload's in-memory row-store trace, statement by statement and in
/// the final StateDigest. The directory is recreated on entry and removed on
/// exit.
WorkloadTrace RunWorkloadLsm(const std::vector<std::string>& workload,
                             size_t dop, const std::string& dir);

/// \brief The prepared-statement leg of the differential oracle.
///
/// Routes every parseable statement through `PREPARE fzN AS <stmt>` /
/// `EXECUTE fzN` / `DEALLOCATE fzN` and records the EXECUTE digest in the
/// statement's position; statements that fail to parse run directly so their
/// error digests stay byte-identical to the direct leg's. A digest match
/// against RunWorkload at the same dop proves the prepared path (template
/// clone, parameter binding, plan cache) is observationally equivalent to
/// parse-and-plan-per-call.
WorkloadTrace RunWorkloadPrepared(const std::vector<std::string>& workload,
                                  size_t dop);

/// Outcome of one differential comparison; detail names the first mismatch.
struct Divergence {
  bool diverged = false;
  std::string detail;
  explicit operator bool() const { return diverged; }
};

/// Statement-by-statement digest comparison of two traces of one workload.
Divergence CompareTraces(const std::vector<std::string>& workload,
                         const WorkloadTrace& expected,
                         const WorkloadTrace& actual, const std::string& what);

struct CrashLegOptions {
  uint64_t fault_seed = 1;
  /// 1-based durable-write index to crash at; 0 runs uncrashed (the run then
  /// checks that durable execution digests match the serial trace and reports
  /// how many injection points the workload has via *total_points).
  uint64_t crash_point = 0;
  storage::FaultKind kind = storage::FaultKind::kTornWrite;
};

/// \brief The crash-recovery leg of the differential oracle.
///
/// Executes the workload on a durable database rooted at `dir` with a fault
/// armed per `opts`, comparing every pre-crash statement digest against the
/// serial trace. After the crash it reopens the directory, derives how many
/// committed transactions recovery preserved, replays exactly the statement
/// tail those transactions do not cover, and requires (a) every replayed
/// statement to reproduce the serial digest — recovery must restore a state
/// indistinguishable from "the crash never happened" — and (b) the final
/// StateDigest to be byte-equal to the serial one.
Divergence RunCrashRecoveryLeg(const std::vector<std::string>& workload,
                               const WorkloadTrace& serial,
                               const std::string& dir,
                               const CrashLegOptions& opts,
                               uint64_t* total_points = nullptr);

/// Summary counters from one RunConcurrentTxnLeg execution.
struct ConcurrentTxnReport {
  size_t sessions = 0;
  size_t committed = 0;  ///< transactions that reached COMMIT with a commit_ts
  size_t conflicts = 0;  ///< transactions killed by a write-write conflict
};

/// \brief The concurrent-transaction leg of the differential oracle.
///
/// Generates a seeded multi-session transactional workload over the
/// *interleaving-deterministic* fragment of the dialect: each session owns a
/// private table only it touches, and the one shared table receives nothing
/// but blind constant single-row updates — so every statement's digest inside
/// a committed transaction is a function of its own session's committed
/// history, never of the interleaving. The sessions then run concurrently
/// (one thread + one transaction slot each) against a single database, and
/// the oracle replays exactly the committed transactions, serially, in
/// commit-timestamp order on a fresh database. Snapshot isolation +
/// first-committer-wins must make the concurrent execution byte-equal to
/// that serial commit-order history: every statement digest inside every
/// committed transaction, and the final StateDigest.
///
/// Conflict-aborted transactions are excluded from the replay (their writes
/// unwound), which is itself part of the check: a half-undone abort diverges
/// the final state digest.
Divergence RunConcurrentTxnLeg(uint64_t seed, size_t num_sessions,
                               ConcurrentTxnReport* report = nullptr);

}  // namespace aidb::testing
