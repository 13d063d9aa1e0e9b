#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/database.h"
#include "server/prepared.h"

namespace aidb::server {

/// \brief One client connection's isolated execution context.
///
/// A session owns a private copy of the planner knobs (dop, index usage,
/// cardinality feedback, ...), a private prepared-statement namespace and a
/// statement timeout. Changing a session knob NEVER mutates Database-global
/// state: the service snapshots the session's settings into an ExecSettings
/// at admission, so a knob change mid-flight affects only later statements.
class Session {
 public:
  Session(uint64_t id, ExecSettings base_settings);

  uint64_t id() const { return id_; }

  /// Snapshot of this session's settings for one statement. The cancel
  /// pointer is left null — the service wires the per-statement flag in.
  ExecSettings SnapshotSettings() const;

  // --- knobs (all session-local) --------------------------------------
  void set_dop(size_t dop);
  size_t dop() const;
  void set_use_indexes(bool on);
  void set_use_card_feedback(bool on);
  /// 0 disables the per-statement deadline.
  void set_statement_timeout_ms(double ms);
  double statement_timeout_ms() const;

  PreparedStore* prepared() { return &prepared_; }

  /// Open transaction id (0 = autocommit). The service threads a pointer to
  /// this slot into every statement's ExecSettings, so BEGIN/COMMIT/ROLLBACK
  /// scope transactions to the session that issued them.
  std::atomic<uint64_t> txn{0};

  // --- accounting (written by the service) ----------------------------
  std::atomic<uint64_t> statements{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> queued{0};   ///< currently waiting for a worker
  std::atomic<uint64_t> running{0};  ///< currently executing
  std::atomic<bool> closed{false};

  /// "idle", "queued", "running", or "closed" — for the aidb_sessions view.
  std::string StateName() const;

 private:
  const uint64_t id_;
  mutable std::mutex mu_;
  ExecSettings settings_;  ///< planner knobs + session id (guarded)
  double statement_timeout_ms_ = 0.0;
  /// Internally synchronized, so handing out a non-const pointer from a
  /// const snapshot is safe.
  mutable PreparedStore prepared_;
};

/// \brief Registry of live sessions. Thread-safe; sessions are shared_ptr so
/// an in-flight statement keeps its session alive across a concurrent close.
class SessionManager {
 public:
  /// Opens a session whose knobs start from `base` (typically the database's
  /// current global defaults).
  std::shared_ptr<Session> Open(const ExecSettings& base);
  std::shared_ptr<Session> Get(uint64_t id) const;
  /// Marks the session closed and drops it from the registry. In-flight
  /// statements finish; new submissions are rejected by the service.
  Status Close(uint64_t id);
  std::vector<std::shared_ptr<Session>> List() const;
  size_t size() const;

 private:
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::unordered_map<uint64_t, std::shared_ptr<Session>> sessions_;
};

}  // namespace aidb::server
