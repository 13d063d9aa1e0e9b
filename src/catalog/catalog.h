#pragma once

#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/stats.h"
#include "common/result.h"
#include "storage/btree.h"
#include "storage/hash_index.h"
#include "storage/table.h"

namespace aidb {

/// A secondary index registered on a table column.
struct IndexInfo {
  std::string name;
  std::string table;
  std::string column;
  /// B+tree supports ranges; hash supports equality only.
  bool is_btree = true;
  std::unique_ptr<BTree> btree;
  std::unique_ptr<HashIndex> hash;
  /// Content latch: DML statements run concurrently with index scans (the
  /// service only serializes DDL), and neither BTree nor HashIndex is
  /// internally synchronized. Writers (OnInsert/OnDelete/IndexUpdate) take
  /// it exclusive; index probes take it shared. The table's version chains
  /// need no such latch — only the index structures do.
  mutable std::shared_mutex latch;
};

/// \brief System catalog: tables, indexes, and per-column statistics.
///
/// The single registry the binder, optimizer, advisors and DB4AI layer all
/// consult. Owns table and index storage.
class Catalog {
 public:
  Result<Table*> CreateTable(const std::string& name, Schema schema);
  Result<Table*> GetTable(const std::string& name) const;
  Status DropTable(const std::string& name);
  std::vector<std::string> TableNames() const;

  /// Storage-engine attach/detach hooks: `on_create` fires after a real user
  /// table is inserted into the catalog, `on_drop` just before one is erased
  /// (its Table* is still valid during the call). System views never fire
  /// them — they live outside tables_ and outside the storage engine.
  using TableHook = std::function<void(const std::string&, Table*)>;
  void SetTableHooks(TableHook on_create, TableHook on_drop) {
    on_create_table_ = std::move(on_create);
    on_drop_table_ = std::move(on_drop);
  }

  /// Builds a secondary index over an existing INT or DOUBLE column and
  /// backfills it from current rows. DOUBLEs are keyed by their integer cast
  /// in the B+tree (documented engine restriction).
  Result<IndexInfo*> CreateIndex(const std::string& index_name,
                                 const std::string& table,
                                 const std::string& column, bool btree = true);
  Status DropIndex(const std::string& index_name);
  /// The index on (table, column) if one exists; range-capable preferred.
  IndexInfo* FindIndex(const std::string& table, const std::string& column) const;
  std::vector<IndexInfo*> IndexesOn(const std::string& table) const;
  size_t NumIndexes() const { return indexes_.size(); }
  /// Every index, sorted by name — the deterministic enumeration the
  /// durability snapshot and state digest rely on.
  std::vector<const IndexInfo*> AllIndexes() const;

  /// Recomputes histograms and distinct counts for every column of `table`
  /// (ANALYZE). String columns get feature-hash histograms.
  Status Analyze(const std::string& table);
  /// Stats for table.column; nullptr when ANALYZE has not run.
  const ColumnStats* GetStats(const std::string& table,
                              const std::string& column) const;

  /// Keeps indexes in sync after a row insert (call from the executor).
  void OnInsert(const std::string& table, RowId id, const Tuple& row);
  void OnDelete(const std::string& table, RowId id, const Tuple& row);

  // --- System views ----------------------------------------------------------
  //
  // Read-only virtual tables (aidb_metrics, aidb_query_log, aidb_spans, ...)
  // served through the normal scan path. They live OUTSIDE tables_ on
  // purpose: TableNames()/snapshots/state digests never see them, so views
  // whose contents depend on wall clock or execution history can never leak
  // into the durability format or the differential oracle's digests.

  /// Emits the view's current rows through `emit` (called on refresh).
  using SystemViewProvider = std::function<void(const std::function<void(Tuple)>&)>;

  /// Registers a virtual table. The provider is invoked by RefreshSystemView
  /// to rebuild the backing rows; GetTable() resolves the name like a real
  /// table (CreateTable rejects names already taken by a view).
  Status RegisterSystemView(const std::string& name, Schema schema,
                            SystemViewProvider provider);
  bool IsSystemView(const std::string& name) const;
  /// Rebuilds the view's materialized rows from its provider. Call once per
  /// statement before planning so the backing Table* stays stable while the
  /// plan executes.
  Status RefreshSystemView(const std::string& name);
  /// Removes a registered view (NotFound when absent). Needed by components
  /// with a narrower lifetime than the catalog, e.g. a server::Service that
  /// registers aidb_sessions and must tear it down before it is destroyed.
  Status UnregisterSystemView(const std::string& name);
  /// Registered view names, sorted.
  std::vector<std::string> SystemViewNames() const;

  /// Estimated-vs-actual scan cardinality feedback (see CardinalityFeedback).
  CardinalityFeedback& feedback() { return feedback_; }
  const CardinalityFeedback& feedback() const { return feedback_; }

  /// Key transform every B+-tree index uses (shared with the transactional
  /// index-maintenance paths in Database).
  static int64_t BtreeKey(const Value& v) {
    return v.type() == ValueType::kInt ? v.AsInt()
                                       : static_cast<int64_t>(v.AsDouble());
  }

 private:

  struct SystemView {
    std::unique_ptr<Table> table;  ///< materialization cache
    SystemViewProvider provider;
  };

  std::unordered_map<std::string, std::unique_ptr<Table>> tables_;
  std::unordered_map<std::string, std::unique_ptr<IndexInfo>> indexes_;
  std::unordered_map<std::string, ColumnStats> stats_;  // "table.column"
  std::unordered_map<std::string, SystemView> system_views_;
  CardinalityFeedback feedback_;
  TableHook on_create_table_;
  TableHook on_drop_table_;
};

}  // namespace aidb
