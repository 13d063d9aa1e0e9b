#include "exec/vec/vec_ops.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>

#include "exec/vec/col_cache.h"

namespace aidb::exec {

// The parallel scan builds the same absolute batch windows the serial scan
// does, just grouped two-per-morsel; this is what makes their row streams —
// and first errors — identical.
static_assert(kMorselRows % kBatchRows == 0,
              "morsels must be a whole number of batches");

// The per-batch freshness gate identifies batch window [begin, begin +
// kBatchRows) with table morsel begin / Table::kMorselRows; that only works
// if the two windows coincide exactly.
static_assert(kBatchRows == Table::kMorselRows,
              "a batch window must be exactly one table morsel");

namespace {

/// The resolved inputs of one scan execution, shared read-only by every
/// window (and every worker of a parallel scan) so BuildScanBatch can decide
/// per window whether the mirrors are trustworthy. `active` lists the
/// columns to materialize, ascending; `cached` and `row_cols` partition them
/// at resolve time; `liveness` is only set when `row_cols` is empty.
/// `table_quiescent` short-circuits the per-morsel checks: the table was
/// quiescent for the snapshot and every source fully stamped at the current
/// data version when the scan opened.
struct ScanSources {
  const std::vector<size_t>* active;
  const std::vector<VecExpr>* filters;
  const std::vector<BoundExpr>* scalar_filters;  ///< twins, for error text
  const std::vector<std::shared_ptr<const MirrorColumn>>* cached;
  const std::vector<size_t>* row_cols;
  const LivenessMap* liveness;
  bool table_quiescent;
};

/// A filter of the fused shape `column <cmp> numeric-literal`, unpacked.
/// Such a filter cannot fail on a typed numeric column.
struct FusedCmp {
  size_t col = 0;
  sql::OpType op = sql::OpType::kEq;  ///< column-on-the-left form
  double x = 0.0;
  /// Whether the filter as written passes a NaN. Value::Compare calls a NaN
  /// greater than anything from either side, so `<>`, `>` and `>=` pass it
  /// in the written order: `v > 5` and `5 > v` do, `v < 5` and `5 < v` do
  /// not, though `5 > v` and `v < 5` share the column-left form.
  bool nan_passes = false;
};

bool MatchFused(const VecExpr& f, FusedCmp* out) {
  int col = -1;
  Value lit;
  bool lit_first = false;
  if (!f.MatchColCmpLit(&col, &out->op, &lit, &lit_first)) return false;
  if (lit.type() != ValueType::kInt && lit.type() != ValueType::kDouble) {
    return false;
  }
  out->col = static_cast<size_t>(col);
  out->x = lit.AsDouble();
  switch (out->op) {
    case sql::OpType::kNe: out->nan_passes = true; break;
    case sql::OpType::kGt:
    case sql::OpType::kGe: out->nan_passes = !lit_first; break;
    case sql::OpType::kLt:
    case sql::OpType::kLe: out->nan_passes = lit_first; break;
    default: out->nan_passes = false; break;
  }
  return true;
}

/// Calls fn with f's comparison against f.x, a functor over doubles; false
/// when f.op is no comparison. The fused compare runs in double space, as
/// Value::Compare does, in the slot-list and the batch kernels alike, and
/// agrees with it on NaN: where the written form passes a NaN, an order
/// comparison runs as its negated complement (`!(a >= x)` for `<`), equal
/// to it on every other value. INT columns hold no NaN.
template <typename Fn>
bool WithCompare(const FusedCmp& f, Fn&& fn) {
  const double x = f.x;
  auto order = [&](auto plain, auto nan_passing) {
    f.nan_passes ? fn(nan_passing) : fn(plain);
  };
  switch (f.op) {
    case sql::OpType::kEq: fn([x](double a) { return a == x; }); return true;
    case sql::OpType::kNe: fn([x](double a) { return a != x; }); return true;
    case sql::OpType::kLt:
      order([x](double a) { return a < x; }, [x](double a) { return !(a >= x); });
      return true;
    case sql::OpType::kLe:
      order([x](double a) { return a <= x; }, [x](double a) { return !(a > x); });
      return true;
    case sql::OpType::kGt:
      order([x](double a) { return a > x; }, [x](double a) { return !(a <= x); });
      return true;
    case sql::OpType::kGe:
      order([x](double a) { return a >= x; }, [x](double a) { return !(a < x); });
      return true;
    default: return false;
  }
}

/// Refines the slot list ids[0..n) in place by `f`, reading values and
/// validity straight from mirror `m` (slot-indexed), and returns the
/// survivors' count. Branch-free: every slot is written, and the write
/// position advances by the predicate.
size_t RefineSlots(const VecColumn& m, const FusedCmp& f, RowId* ids,
                   size_t n) {
  const uint8_t* valid = m.valid.data();
  size_t k = 0;
  auto refine = [&](const auto* v, auto cmp) {
    for (size_t i = 0; i < n; ++i) {
      const RowId r = ids[i];
      ids[k] = r;
      k += valid[r] & cmp(static_cast<double>(v[r]));
    }
  };
  WithCompare(f, [&](auto cmp) {
    if (m.kind == VecColumn::Kind::kInt) {
      refine(m.ints.data(), cmp);
    } else {
      refine(m.doubles.data(), cmp);
    }
  });
  return k;
}

/// ValueIsTrue over a column row without materializing a Value.
bool TruthAt(const VecColumn& c, size_t r) {
  switch (c.kind) {
    case VecColumn::Kind::kNull:
      return false;
    case VecColumn::Kind::kInt:
      return c.valid[r] && c.ints[r] != 0;
    case VecColumn::Kind::kDouble:
      return c.valid[r] && c.doubles[r] != 0.0;
    case VecColumn::Kind::kString:
      return c.valid[r] && !c.dict[static_cast<size_t>(c.codes[r])].empty();
    case VecColumn::Kind::kGeneric:
      return !c.generic[r].is_null() && ValueIsTrue(c.generic[r]);
  }
  return false;
}

/// Refines b's selection by the predicate column. On the first errored
/// selected row, records it in *pending and truncates the selection to the
/// rows before it — rows the scalar engine would have emitted before dying.
/// *scratch is reusable storage for the survivor list.
void RefineSelection(const VecColumn& pred, Batch* b, size_t* pending,
                     std::vector<uint32_t>* scratch) {
  std::vector<uint32_t>& kept = *scratch;
  kept.clear();
  const size_t n = b->ActiveCount();
  for (size_t s = 0; s < n; ++s) {
    uint32_t r = b->ActiveRow(s);
    if (pred.err[r]) {
      *pending = r;
      break;
    }
    if (TruthAt(pred, r)) kept.push_back(r);
  }
  b->sel.swap(kept);
  b->has_sel = true;
}

/// One-pass fused path for `column <cmp> numeric-literal` predicates over a
/// typed numeric column: refines the selection directly — no predicate
/// column, no allocation, and no error handling needed (comparisons cannot
/// fail, and scan-built columns carry no upstream errors). Returns false
/// when the shape or runtime column kind does not match.
bool TryFusedCompare(const VecExpr& f, Batch* b,
                     std::vector<uint32_t>* scratch) {
  FusedCmp m;
  if (!MatchFused(f, &m)) return false;
  const VecColumn& c = b->cols[m.col];
  const bool is_int = c.kind == VecColumn::Kind::kInt;
  if (!is_int && c.kind != VecColumn::Kind::kDouble) return false;
  if (c.has_err) return false;

  const uint8_t* valid = c.valid.data();
  std::vector<uint32_t>& kept = *scratch;
  kept.clear();
  const size_t n = b->ActiveCount();
  auto refine = [&](const auto* v, auto cmp) {
    for (size_t s = 0; s < n; ++s) {
      uint32_t r = b->ActiveRow(s);
      if (valid[r] && cmp(static_cast<double>(v[r]))) kept.push_back(r);
    }
  };
  if (!WithCompare(m, [&](auto cmp) {
        if (is_int) {
          refine(c.ints.data(), cmp);
        } else {
          refine(c.doubles.data(), cmp);
        }
      })) {
    return false;
  }
  b->sel.swap(kept);
  b->has_sel = true;
  return true;
}

/// Applies filters[first..] in sequence, refining b's selection. A non-OK
/// return is the deferred error: b is already truncated to the rows the
/// scalar engine would have emitted first, and the Status is recovered by
/// running the scalar filter chain on the failing row — byte-equal text.
/// Adds to *work each non-final filter's survivors, the rows a
/// SeqScan+Filter chain would have produced between its filters.
Status ApplyFilters(const std::vector<VecExpr>& filters, size_t first,
                    const std::vector<BoundExpr>& scalar_filters, Batch* b,
                    std::vector<uint32_t>* sel_scratch, size_t* work) {
  size_t pending = SIZE_MAX;
  for (size_t i = first; i < filters.size(); ++i) {
    const VecExpr& f = filters[i];
    if (!TryFusedCompare(f, b, sel_scratch)) {
      VecColumn scratch;
      const VecColumn& pred = f.EvalRef(*b, &scratch);
      RefineSelection(pred, b, &pending, sel_scratch);
    }
    // No survivors: the scalar engine would never evaluate later filters.
    if (b->sel.empty()) break;
    if (i + 1 < filters.size()) *work += b->sel.size();
  }
  if (pending == SIZE_MAX) return Status::OK();
  Tuple row = b->MaterializeRow(static_cast<uint32_t>(pending));
  for (const auto& f : scalar_filters) {
    Result<bool> keep = f.EvalBool(row);
    if (!keep.ok()) return keep.status();
  }
  return Status::Internal("vectorized filter error not reproduced by scalar filter");
}

/// dst[i] = src[ids[i]] with its validity, for a mirror's slot-indexed
/// arrays. (Raw pointers: a store through the validity bytes may alias
/// anything, and would otherwise reload every vector's data pointer.)
template <typename T>
void GatherSlots(const T* src, const uint8_t* src_valid, const RowId* ids,
                 size_t n, T* dst, uint8_t* dst_valid) {
  for (size_t i = 0; i < n; ++i) {
    dst[i] = src[ids[i]];
    dst_valid[i] = src_valid[ids[i]];
  }
}

/// Builds the batch for slot window [begin, begin + kBatchRows) with every
/// fused filter applied: out holds the rows the scan emits for the window
/// (its active rows), and a non-OK return is the deferred error of
/// ApplyFilters. Adds to *work the rows a SeqScan+Filter chain would have
/// produced below its last filter: the window's visible rows and each
/// non-final filter's survivors (the final survivors are the scan's own
/// rows_produced). Only the columns listed in `src.active` are
/// materialized; the rest become kNull placeholder columns the planner
/// proved unreachable (see RelationInfo::used_columns). `out`'s storage is
/// reused across calls, so the steady state allocates nothing.
///
/// Mirror trust is decided per window. The window IS one table morsel
/// (static_assert above), so one freshness check covers it: the morsel must
/// be quiescent for `snap` (no uncommitted version touches it, nothing in it
/// committed past the snapshot's read timestamp) and every active mirrored
/// column's build stamp must still equal the live Table::MorselVersion.
/// Under those two conditions the mirror's latest-committed bytes ARE the
/// snapshot's bytes for this morsel. `src.table_quiescent` short-circuits
/// the check — the whole-table fast path of a quiescent, fully-stamped scan.
/// `src.liveness`, when fresh for the morsel (same gate, plus its own
/// stamp), is honored only when no column takes the row-major pass.
///
/// The gate picks the path:
/// - Fresh, with the liveness bitmap (every active column mirrored): select,
///   then gather. The live slot list comes from the bitmap; each leading
///   fused filter refines it reading the mirror; only the survivors are
///   gathered, into a dense batch without a selection vector. Filters from
///   the first one outside the fused shape on run over that batch.
/// - Otherwise, gather, then select: one version-chain walk per slot
///   resolves visibility and the tuple, mirrored columns (when fresh) gather
///   from the mirror, the rest take one row-major pass — each live tuple is
///   fetched once and its values fan out to the typed columns, a value that
///   breaks a column's static typing (an INT stored in a DOUBLE column)
///   demoting that column to exact Values mid-pass — and every filter runs
///   over the batch. This is the path that honors the session's own
///   uncommitted writes and foreign in-flight commits exactly.
/// Fused compares cannot fail, so the two paths emit the same rows, in the
/// same order, with the same first error.
Status BuildScanBatch(const Table& table, const txn::Snapshot& snap,
                      RowId begin, const ScanSources& src,
                      ScanScratch* scratch, Batch* out, size_t* work) {
  const auto& cols = table.schema().columns();
  const size_t width = cols.size();
  const std::vector<size_t>& active = *src.active;
  const std::vector<VecExpr>& filters = *src.filters;
  out->ResetForWidth(width);
  scratch->dicts.resize(width);
  std::vector<RowId>& live = scratch->live;
  std::vector<const Tuple*>& rows = scratch->rows;
  RowId limit = std::min<RowId>(begin + kBatchRows, table.NumSlots());

  // Per-window freshness gate (see the function comment). `fresh` means the
  // mirrors resolved at open time are byte-correct for this snapshot over
  // this window's morsel.
  const size_t morsel = static_cast<size_t>(begin) / Table::kMorselRows;
  bool fresh = src.table_quiescent;
  if (!fresh && table.MorselQuiescentFor(morsel, snap)) {
    fresh = true;
    const uint64_t mv = table.MorselVersion(morsel);
    for (size_t c : active) {
      const MirrorColumn* mc =
          c < src.cached->size() ? (*src.cached)[c].get() : nullptr;
      if (mc == nullptr) continue;  // row-extracted anyway
      if (morsel >= mc->morsel_versions.size() ||
          mc->morsel_versions[morsel] != mv) {
        fresh = false;
        break;
      }
    }
  }
  const std::vector<size_t>& row_active = fresh ? *src.row_cols : active;
  const bool use_bitmap =
      fresh && row_active.empty() && src.liveness != nullptr &&
      (src.table_quiescent ||
       (morsel < src.liveness->morsel_versions.size() &&
        src.liveness->morsel_versions[morsel] == table.MorselVersion(morsel)));

  size_t n = 0;  // the window's rows: live[0..n)
  size_t first_batch_filter = 0;  // filters before it ran on the slot list
  if (use_bitmap) {
    // Fast liveness: slots past the bitmap were appended after it was
    // stamped, so their versions carry timestamps past the snapshot — the
    // clamp skips exactly the rows the chain walk would reject. `live` is
    // only ever grown here, so no window pays to refill it.
    const RowId lim = std::min<RowId>(limit, src.liveness->live.size());
    if (live.size() < kBatchRows) live.resize(kBatchRows);
    RowId* ids = live.data();
    const uint8_t* lv = src.liveness->live.data();
    for (RowId id = begin; id < lim; ++id) {
      ids[n] = id;
      n += lv[id] != 0;
    }
    if (!filters.empty()) *work += n;
    // Select first: each leading fused filter over a mirrored column
    // refines the slot list, as ApplyFilters would refine the batch.
    FusedCmp f;
    while (n > 0 && first_batch_filter < filters.size() &&
           MatchFused(filters[first_batch_filter], &f) &&
           f.col < src.cached->size() && (*src.cached)[f.col] != nullptr) {
      n = RefineSlots((*src.cached)[f.col]->col, f, ids, n);
      ++first_batch_filter;
      if (n > 0 && first_batch_filter < filters.size()) *work += n;
    }
  } else {
    live.clear();
    rows.clear();
    for (RowId id = begin; id < limit; ++id) {
      // One chain walk resolves both the visibility test and the tuple the
      // row-major pass reads (versions are immutable once published).
      const Tuple* row = table.VisibleAt(id, snap);
      if (row != nullptr) {
        live.push_back(id);
        rows.push_back(row);
      }
    }
    n = live.size();
    if (!filters.empty()) *work += n;
  }
  out->rows = n;
  if (n == 0) return Status::OK();
  size_t next_active = 0;  // `active` is ascending: merge against [0, width)
  for (size_t c = 0; c < width; ++c) {
    if (next_active >= active.size() || active[next_active] != c) {
      out->cols[c].Resize(VecColumn::Kind::kNull, n);
      continue;
    }
    ++next_active;
    const MirrorColumn* mc =
        fresh && c < src.cached->size() ? (*src.cached)[c].get() : nullptr;
    if (mc != nullptr) {
      // Gather from the mirror: exactly the values + validity the row-major
      // pass would extract, read from contiguous arrays.
      const VecColumn& m = mc->col;
      VecColumn& dst = out->cols[c];
      dst.Resize(m.kind, n);
      if (m.kind == VecColumn::Kind::kInt) {
        GatherSlots(m.ints.data(), m.valid.data(), live.data(), n,
                    dst.ints.data(), dst.valid.data());
      } else {
        GatherSlots(m.doubles.data(), m.valid.data(), live.data(), n,
                    dst.doubles.data(), dst.valid.data());
      }
      continue;
    }
    switch (cols[c].type) {
      case ValueType::kInt:
        out->cols[c].Resize(VecColumn::Kind::kInt, n);
        break;
      case ValueType::kDouble:
        out->cols[c].Resize(VecColumn::Kind::kDouble, n);
        break;
      case ValueType::kString:
        out->cols[c].Resize(VecColumn::Kind::kString, n);
        scratch->dicts[c].clear();
        break;
      default:
        out->cols[c].Resize(VecColumn::Kind::kGeneric, n);
        break;
    }
  }
  if (!row_active.empty()) {
    for (size_t i = 0; i < n; ++i) {
      const Tuple& row = *rows[i];
      for (size_t c : row_active) {
        const Value& v = row[c];
        if (v.is_null()) continue;  // slots start zeroed/NULL
        VecColumn& col = out->cols[c];
        switch (col.kind) {
          case VecColumn::Kind::kInt:
            if (v.type() == ValueType::kInt) {
              col.ints[i] = v.AsInt();
              col.valid[i] = 1;
            } else {
              col.DemoteToGeneric(i);
              col.generic[i] = v;
            }
            break;
          case VecColumn::Kind::kDouble:
            if (v.type() == ValueType::kDouble) {
              col.doubles[i] = v.AsDouble();
              col.valid[i] = 1;
            } else {
              col.DemoteToGeneric(i);
              col.generic[i] = v;
            }
            break;
          case VecColumn::Kind::kString:
            if (v.type() == ValueType::kString) {
              auto [it, inserted] = scratch->dicts[c].emplace(
                  v.AsString(), static_cast<int32_t>(col.dict.size()));
              if (inserted) col.dict.push_back(v.AsString());
              col.codes[i] = it->second;
              col.valid[i] = 1;
            } else {
              col.DemoteToGeneric(i);
              col.generic[i] = v;
            }
            break;
          default:
            col.generic[i] = v;
            break;
        }
      }
    }
  }
  return ApplyFilters(filters, first_batch_filter, *src.scalar_filters, out,
                      &scratch->sel, work);
}

/// Cold-tier zone-map gate for one batch window [begin, begin+kBatchRows):
/// when every slot of the window is dead or paged out to the LSM cold tier,
/// the per-block zone maps can refute a fused `col <cmp> lit` filter for the
/// whole window without decoding a single block — the batch is skipped.
///
/// Parity argument: paged slots are frozen (visible to every snapshot) and
/// dead slots emit nothing, so the cold tier fully describes the window's
/// visible rows. Filters are walked in serial order; pruning is only allowed
/// through a prefix of provably error-free comparisons (numeric schema
/// column vs numeric literal — the fused kernel shapes), so a skipped window
/// can never swallow an error an earlier filter would have raised. kNe is
/// never refutable by min/max bounds and just passes through.
bool ZoneMapPruned(const Table& table, const std::vector<VecExpr>& filters,
                   RowId begin) {
  ColdTier* cold = table.cold_tier();
  if (cold == nullptr || filters.empty()) return false;
  const size_t m = begin / Table::kMorselRows;
  if (table.MorselPagedCount(m) == 0) return false;
  const RowId end = std::min<RowId>(begin + kBatchRows, table.NumSlots());
  if (!table.RangeAllColdOrDead(begin, end)) return false;
  for (const VecExpr& f : filters) {
    FusedCmp m;
    // Any filter outside the error-free comparison shape ends the prefix:
    // it could error on a row, so later refutations must not skip it.
    if (!MatchFused(f, &m)) return false;
    ValueType ct = table.schema().column(m.col).type;
    if (ct != ValueType::kInt && ct != ValueType::kDouble) return false;
    ColdTier::Cmp cmp;
    switch (m.op) {
      case sql::OpType::kEq: cmp = ColdTier::Cmp::kEq; break;
      case sql::OpType::kLt: cmp = ColdTier::Cmp::kLt; break;
      case sql::OpType::kLe: cmp = ColdTier::Cmp::kLe; break;
      case sql::OpType::kGt: cmp = ColdTier::Cmp::kGt; break;
      case sql::OpType::kGe: cmp = ColdTier::Cmp::kGe; break;
      default: continue;  // kNe: error-free but min/max can never refute it
    }
    if (!cold->ColdRangeMayMatch(begin, end, m.col, cmp, m.x)) {
      return true;
    }
  }
  return false;
}

}  // namespace

// ----- VecOperator -----

bool VecOperator::FetchChildBatch(Operator* child, Batch* out) {
  if (auto* vec = dynamic_cast<VecOperator*>(child)) {
    return vec->NextBatch(out);
  }
  // Row child: drain up to one batch of rows into generic columns.
  out->Clear();
  const size_t width = child->output().size();
  out->cols.resize(width);
  for (auto& c : out->cols) c.kind = VecColumn::Kind::kGeneric;
  size_t n = 0;
  Tuple row;
  while (n < kBatchRows && child->Next(&row)) {
    for (size_t c = 0; c < width; ++c) {
      out->cols[c].generic.push_back(std::move(row[c]));
    }
    ++n;
  }
  if (n == 0) return false;
  for (auto& c : out->cols) {
    c.rows = n;
    c.err.assign(n, 0);
  }
  out->rows = n;
  return true;
}

// ----- VecScan -----

/// Expands a pruning mask into the ascending list of columns to materialize;
/// an empty (or short) mask means every column.
static std::vector<size_t> ActiveColumns(const Table& table,
                                         const std::vector<uint8_t>& used) {
  const size_t width = table.schema().columns().size();
  std::vector<size_t> active;
  active.reserve(width);
  for (size_t c = 0; c < width; ++c) {
    if (used.size() != width || used[c]) active.push_back(c);
  }
  return active;
}

/// Resolves the slot-major mirrors for one execution: slot c of `cached` is
/// set for active columns the cache covers; `row_cols` collects the rest —
/// the columns the row-major extraction pass must still materialize.
/// Mirrors are resolved whenever a cache is present — even on a table with
/// in-flight writers — because trust is decided per batch against the
/// per-morsel stamps (see BuildScanBatch). `table_quiescent` reports the
/// whole-table fast path: the table is quiescent for `snap` AND every
/// resolved source is fully stamped at the current data version, in which
/// case every batch may skip the per-morsel checks — exactly the pre-stamp
/// behavior of a quiescent-table scan.
static void ResolveMirrors(
    ColumnCache* cache, const Table& table, const txn::Snapshot& snap,
    const std::vector<size_t>& active,
    std::vector<std::shared_ptr<const MirrorColumn>>* cached,
    std::vector<size_t>* row_cols,
    std::shared_ptr<const LivenessMap>* liveness, bool* table_quiescent) {
  cached->assign(table.schema().NumColumns(), nullptr);
  row_cols->clear();
  liveness->reset();
  *table_quiescent = false;
  if (cache == nullptr) {
    *row_cols = active;
    return;
  }
  bool all_fresh = true;
  for (size_t c : active) {
    std::shared_ptr<const MirrorColumn> cc = cache->Get(table, c);
    if (cc != nullptr) {
      if (!cc->fully_stamped || cc->stamped_at != table.data_version()) {
        all_fresh = false;  // per-morsel stamps still salvage fresh morsels
      }
      (*cached)[c] = std::move(cc);
    } else {
      row_cols->push_back(c);
    }
  }
  // With every active column mirrored (trivially so for a column-free scan,
  // e.g. COUNT(*)), no tuple is ever fetched — the cached liveness bitmap
  // then replaces the per-slot version-chain walk too.
  if (row_cols->empty()) {
    *liveness = cache->GetLiveness(table);
    if (*liveness != nullptr && (!(*liveness)->fully_stamped ||
                                 (*liveness)->stamped_at !=
                                     table.data_version())) {
      all_fresh = false;
    }
  }
  *table_quiescent = all_fresh && table.QuiescentFor(snap);
}

VecScanOp::VecScanOp(const Table* table, std::string effective_name,
                     std::vector<VecExpr> filters,
                     std::vector<BoundExpr> scalar_filters,
                     std::vector<std::string> filter_texts,
                     std::vector<uint8_t> used_cols, ColumnCache* cache)
    : table_(table),
      label_(std::move(effective_name)),
      filters_(std::move(filters)),
      scalar_filters_(std::move(scalar_filters)),
      filter_texts_(std::move(filter_texts)),
      active_cols_(ActiveColumns(*table, used_cols)),
      used_cols_(std::move(used_cols)),
      cache_(cache) {
  for (const auto& col : table->schema().columns()) {
    output_.push_back({label_, col.name, col.type});
  }
}

std::string VecScanOp::Name() const {
  std::string name = "VecScan(" + label_;
  for (const auto& t : filter_texts_) name += ", filter=" + t;
  return name + ")";
}

void VecScanOp::VecOpenImpl() {
  cursor_ = 0;
  deferred_ = Status::OK();
  ResolveMirrors(cache_, *table_, snap_, active_cols_, &cached_cols_,
                 &row_cols_, &liveness_, &table_quiescent_);
}

bool VecScanOp::NextBatchImpl(Batch* out) {
  if (!deferred_.ok()) return Fail(std::move(deferred_));
  for (;;) {
    if (cursor_ >= table_->NumSlots()) return false;
    // Cancellation latency is bounded by one batch, the vectorized analogue
    // of SeqScan's strided poll.
    if (IsCancelled()) {
      return Fail(Status::Cancelled("query cancelled during scan"));
    }
    RowId begin = cursor_;
    cursor_ += kBatchRows;
    if (ZoneMapPruned(*table_, filters_, begin)) continue;
    ScanSources src{&active_cols_, &filters_, &scalar_filters_, &cached_cols_,
                    &row_cols_, liveness_.get(), table_quiescent_};
    Status s = BuildScanBatch(*table_, snap_, begin, src, &scratch_, out,
                              &fused_work_);
    size_t active = out->ActiveCount();
    if (!s.ok()) {
      if (active == 0) return Fail(std::move(s));
      deferred_ = std::move(s);
      rows_produced_ += active;
      return true;
    }
    if (active == 0) continue;
    rows_produced_ += active;
    return true;
  }
}

// ----- VecParallelScan -----

VecParallelScanOp::VecParallelScanOp(const Table* table,
                                     std::string effective_name,
                                     std::vector<VecExpr> filters,
                                     std::vector<BoundExpr> scalar_filters,
                                     std::vector<std::string> filter_texts,
                                     std::vector<uint8_t> used_cols,
                                     ColumnCache* cache, ParallelContext ctx)
    : table_(table),
      label_(std::move(effective_name)),
      filters_(std::move(filters)),
      scalar_filters_(std::move(scalar_filters)),
      filter_texts_(std::move(filter_texts)),
      active_cols_(ActiveColumns(*table, used_cols)),
      used_cols_(std::move(used_cols)),
      cache_(cache),
      ctx_(ctx) {
  for (const auto& col : table->schema().columns()) {
    output_.push_back({label_, col.name, col.type});
  }
}

std::string VecParallelScanOp::Name() const {
  std::string name = "VecParallelScan(" + label_;
  for (const auto& t : filter_texts_) name += ", filter=" + t;
  return name + ", dop=" + std::to_string(ctx_.dop) + ")";
}

void VecParallelScanOp::VecOpenImpl() {
  morsel_cursor_ = 0;
  batch_cursor_ = 0;
  deferred_ = Status::OK();
  size_t slots = table_->NumSlots();
  size_t n = (slots + kMorselRows - 1) / kMorselRows;
  morsels_.assign(n, {});
  worker_rows_.assign(ctx_.WorkersFor(n), 0);
  std::vector<size_t> worker_work(worker_rows_.size(), 0);
  // Resolve mirrors once, before dispatch: workers read the shared vectors
  // concurrently but never write them.
  ResolveMirrors(cache_, *table_, snap_, active_cols_, &cached_cols_,
                 &row_cols_, &liveness_, &table_quiescent_);
  // One status slot per morsel; the lowest-numbered failing morsel's error is
  // the one the serial scan would hit first.
  std::vector<Status> morsel_status(n);
  DispatchMorsels(ctx_, n, cancel_,
                  [this, slots, &morsel_status, &worker_work](size_t w,
                                                              size_t m) {
    ScanScratch scratch;
    RowId mbegin = static_cast<RowId>(m) * kMorselRows;
    RowId mend = std::min<RowId>(mbegin + kMorselRows, slots);
    ScanSources src{&active_cols_, &filters_, &scalar_filters_, &cached_cols_,
                    &row_cols_, liveness_.get(), table_quiescent_};
    for (RowId b = mbegin; b < mend; b += kBatchRows) {
      if (ZoneMapPruned(*table_, filters_, b)) continue;
      Batch batch;
      // Distinct w per task: worker_work and worker_rows_ see no shared writes.
      Status s = BuildScanBatch(*table_, snap_, b, src, &scratch, &batch,
                                &worker_work[w]);
      size_t active = batch.ActiveCount();
      worker_rows_[w] += active;
      if (active > 0) morsels_[m].push_back(std::move(batch));
      if (!s.ok()) {
        morsel_status[m] = std::move(s);
        return;  // the rest of this morsel is past the error row
      }
    }
  });
  for (size_t work : worker_work) fused_work_ += work;
  if (IsCancelled()) {
    Fail(Status::Cancelled("query cancelled during parallel scan"));
    morsels_.clear();
    return;
  }
  for (size_t m = 0; m < n; ++m) {
    if (!morsel_status[m].ok()) {
      deferred_ = std::move(morsel_status[m]);
      // Batches past the failing morsel would never have existed serially;
      // the failing morsel's own batches are already truncated.
      morsels_.resize(m + 1);
      break;
    }
  }
}

bool VecParallelScanOp::NextBatchImpl(Batch* out) {
  while (morsel_cursor_ < morsels_.size()) {
    auto& bufs = morsels_[morsel_cursor_];
    if (batch_cursor_ < bufs.size()) {
      *out = std::move(bufs[batch_cursor_++]);
      rows_produced_ += out->ActiveCount();
      return true;
    }
    ++morsel_cursor_;
    batch_cursor_ = 0;
  }
  if (!deferred_.ok()) return Fail(std::move(deferred_));
  return false;
}

void VecParallelScanOp::CloseImpl() {
  morsels_.clear();
  morsels_.shrink_to_fit();
}

// ----- VecFilter -----

VecFilterOp::VecFilterOp(std::unique_ptr<Operator> child, VecExpr predicate,
                         BoundExpr scalar_predicate, std::string predicate_text)
    : predicate_(std::move(predicate)),
      scalar_predicate_(std::move(scalar_predicate)),
      text_(std::move(predicate_text)) {
  output_ = child->output();
  children_.push_back(std::move(child));
}

bool VecFilterOp::NextBatchImpl(Batch* out) {
  if (!deferred_.ok()) return Fail(std::move(deferred_));
  for (;;) {
    if (!FetchChildBatch(children_[0].get(), out)) return false;
    if (out->rows == 0) continue;
    size_t pending = SIZE_MAX;
    if (!TryFusedCompare(predicate_, out, &sel_scratch_)) {
      const VecColumn& pred = predicate_.EvalRef(*out, &pred_scratch_);
      RefineSelection(pred, out, &pending, &sel_scratch_);
    }
    size_t active = out->ActiveCount();
    if (pending != SIZE_MAX) {
      Result<bool> keep = scalar_predicate_.EvalBool(
          out->MaterializeRow(static_cast<uint32_t>(pending)));
      Status s = keep.ok() ? Status::Internal(
                                 "vectorized filter error not reproduced by "
                                 "scalar filter")
                           : keep.status();
      if (active == 0) return Fail(std::move(s));
      deferred_ = std::move(s);
      rows_produced_ += active;
      return true;
    }
    if (active == 0) continue;
    rows_produced_ += active;
    return true;
  }
}

// ----- VecProject -----

VecProjectOp::VecProjectOp(std::unique_ptr<Operator> child,
                           std::vector<VecExpr> exprs,
                           std::vector<BoundExpr> scalar_exprs,
                           std::vector<OutputCol> out_schema)
    : exprs_(std::move(exprs)), scalar_exprs_(std::move(scalar_exprs)) {
  output_ = std::move(out_schema);
  children_.push_back(std::move(child));
}

bool VecProjectOp::NextBatchImpl(Batch* out) {
  if (!deferred_.ok()) return Fail(std::move(deferred_));
  for (;;) {
    if (!FetchChildBatch(children_[0].get(), &input_)) return false;
    if (input_.rows == 0) continue;
    out->Clear();
    out->rows = input_.rows;
    out->has_sel = input_.has_sel;
    out->sel = input_.sel;
    out->cols.reserve(exprs_.size());
    for (const auto& e : exprs_) out->cols.push_back(e.Eval(input_));

    // Lowest selected errored row across the output columns: the first row
    // the scalar ProjectOp would have failed on.
    size_t err_row = SIZE_MAX;
    bool any_err = false;
    for (const auto& c : out->cols) any_err = any_err || c.has_err;
    if (any_err) {
      const size_t n = out->ActiveCount();
      for (size_t s = 0; s < n && err_row == SIZE_MAX; ++s) {
        uint32_t r = out->ActiveRow(s);
        for (const auto& c : out->cols) {
          if (c.err[r]) {
            err_row = r;
            break;
          }
        }
      }
    }
    if (err_row != SIZE_MAX) {
      // Expressions re-run scalarly in projection order on the failing row,
      // so intra-row error order matches volcano.
      Tuple row = input_.MaterializeRow(static_cast<uint32_t>(err_row));
      Status s = Status::Internal(
          "vectorized projection error not reproduced by scalar path");
      for (const auto& e : scalar_exprs_) {
        Result<Value> v = e.Eval(row);
        if (!v.ok()) {
          s = v.status();
          break;
        }
      }
      std::vector<uint32_t> kept;
      const size_t n = out->ActiveCount();
      for (size_t i = 0; i < n; ++i) {
        uint32_t r = out->ActiveRow(i);
        if (r >= err_row) break;
        kept.push_back(r);
      }
      out->sel = std::move(kept);
      out->has_sel = true;
      size_t active = out->ActiveCount();
      if (active == 0) return Fail(std::move(s));
      deferred_ = std::move(s);
      rows_produced_ += active;
      return true;
    }
    size_t active = out->ActiveCount();
    if (active == 0) continue;
    rows_produced_ += active;
    return true;
  }
}

// ----- VecHashJoin -----

namespace {

/// Appends src's rows `rows` to `dst`, a column store that outlives the
/// batch. Agreeing kinds stay typed, string codes re-mapping into dst's own
/// dictionary through `dict_index`; an all-NULL src (a pruned placeholder)
/// appends NULLs; any other disagreement demotes dst to exact Values, as
/// the scan does for an INT stored in a DOUBLE column.
void AppendRows(const VecColumn& src, const std::vector<uint32_t>& rows,
                VecColumn* dst,
                std::unordered_map<std::string, int32_t>* dict_index) {
  using Kind = VecColumn::Kind;
  const size_t old = dst->rows;
  const size_t n = rows.size();
  if (src.kind != dst->kind && src.kind != Kind::kNull) {
    if (dst->kind == Kind::kNull) {
      dst->Resize(src.kind, old);  // the rows so far were all NULL
    } else if (dst->kind != Kind::kGeneric) {
      dst->DemoteToGeneric(old);
    }
    dict_index->clear();
  }
  dst->rows = old + n;
  dst->err.resize(old + n, 0);
  switch (dst->kind) {
    case Kind::kNull:
      return;
    case Kind::kInt:
      dst->ints.resize(old + n, 0);
      dst->valid.resize(old + n, 0);
      if (src.kind == Kind::kNull) return;
      for (size_t i = 0; i < n; ++i) {
        dst->ints[old + i] = src.ints[rows[i]];
        dst->valid[old + i] = src.valid[rows[i]];
      }
      return;
    case Kind::kDouble:
      dst->doubles.resize(old + n, 0.0);
      dst->valid.resize(old + n, 0);
      if (src.kind == Kind::kNull) return;
      for (size_t i = 0; i < n; ++i) {
        dst->doubles[old + i] = src.doubles[rows[i]];
        dst->valid[old + i] = src.valid[rows[i]];
      }
      return;
    case Kind::kString: {
      dst->codes.resize(old + n, 0);
      dst->valid.resize(old + n, 0);
      if (src.kind == Kind::kNull) return;
      std::vector<int32_t> remap(src.dict.size(), -1);
      for (size_t i = 0; i < n; ++i) {
        const uint32_t r = rows[i];
        if (!src.valid[r]) continue;
        int32_t& code = remap[static_cast<size_t>(src.codes[r])];
        if (code < 0) {
          const std::string& v = src.dict[static_cast<size_t>(src.codes[r])];
          auto [it, inserted] = dict_index->emplace(
              v, static_cast<int32_t>(dst->dict.size()));
          if (inserted) dst->dict.push_back(v);
          code = it->second;
        }
        dst->codes[old + i] = code;
        dst->valid[old + i] = 1;
      }
      return;
    }
    case Kind::kGeneric:
      dst->generic.reserve(old + n);
      for (size_t i = 0; i < n; ++i) dst->generic.push_back(src.ValueAt(rows[i]));
      return;
  }
}

/// *out = src's rows idx[0..n), in that order, kinds kept; string codes
/// re-map into a compact dictionary through `remap`, which is all -1 on
/// entry and is left so. (Raw pointers throughout: a store through the
/// uint8_t validity bytes may alias anything, and would otherwise reload
/// every vector's data pointer per row.)
void GatherRows(const VecColumn& src, const uint32_t* idx, size_t n,
                VecColumn* out, std::vector<int32_t>* remap) {
  using Kind = VecColumn::Kind;
  out->Resize(src.kind, n);
  const uint8_t* sv = src.valid.data();
  uint8_t* dv = out->valid.data();
  switch (src.kind) {
    case Kind::kNull:
      break;
    case Kind::kInt: {
      const int64_t* s = src.ints.data();
      int64_t* d = out->ints.data();
      for (size_t i = 0; i < n; ++i) {
        d[i] = s[idx[i]];
        dv[i] = sv[idx[i]];
      }
      break;
    }
    case Kind::kDouble: {
      const double* s = src.doubles.data();
      double* d = out->doubles.data();
      for (size_t i = 0; i < n; ++i) {
        d[i] = s[idx[i]];
        dv[i] = sv[idx[i]];
      }
      break;
    }
    case Kind::kString: {
      if (remap->size() < src.dict.size()) remap->resize(src.dict.size(), -1);
      int32_t* m = remap->data();
      const int32_t* s = src.codes.data();
      int32_t* d = out->codes.data();
      for (size_t i = 0; i < n; ++i) {
        if (!sv[idx[i]]) continue;
        const size_t code = static_cast<size_t>(s[idx[i]]);
        if (m[code] < 0) {
          m[code] = static_cast<int32_t>(out->dict.size());
          out->dict.push_back(src.dict[code]);
        }
        d[i] = m[code];
        dv[i] = 1;
      }
      for (size_t i = 0; i < n; ++i) {
        if (sv[idx[i]]) m[static_cast<size_t>(s[idx[i]])] = -1;
      }
      break;
    }
    case Kind::kGeneric:
      for (size_t i = 0; i < n; ++i) out->generic[i] = src.generic[idx[i]];
      break;
  }
  if (!src.has_err) return;
  for (size_t i = 0; i < n; ++i) {
    if (src.err[idx[i]]) out->MarkError(i);
  }
}

}  // namespace

VecHashJoinOp::VecHashJoinOp(std::unique_ptr<Operator> left,
                             std::unique_ptr<Operator> right, size_t left_key,
                             size_t right_key)
    : left_key_(left_key), right_key_(right_key) {
  output_ = left->output();
  for (const auto& c : right->output()) output_.push_back(c);
  children_.push_back(std::move(left));
  children_.push_back(std::move(right));
}

bool VecHashJoinOp::KeyAt(const VecColumn& c, size_t r, Key* k) {
  switch (c.kind) {
    case VecColumn::Kind::kNull:
      return false;
    case VecColumn::Kind::kInt:
      *k = {false, static_cast<double>(c.ints[r]), {}};
      return c.valid[r] != 0;
    case VecColumn::Kind::kDouble:
      *k = {false, c.doubles[r], {}};
      return c.valid[r] != 0 && k->num == k->num;
    case VecColumn::Kind::kString:
      *k = {true, 0.0, c.dict[static_cast<size_t>(c.codes[r])]};
      return c.valid[r] != 0;
    case VecColumn::Kind::kGeneric:
      break;
  }
  const Value& v = c.generic[r];
  if (v.is_null()) return false;
  if (v.type() == ValueType::kString) {
    *k = {true, 0.0, v.AsString()};
    return true;
  }
  *k = {false, v.AsDouble(), {}};
  return k->num == k->num;
}

uint64_t VecHashJoinOp::KeyHash(const Key& k) {
  if (k.is_string) return MixHash(std::hash<std::string_view>{}(k.str));
  // -0.0 == 0.0, so both must hash alike.
  return MixHash(std::bit_cast<uint64_t>(k.num == 0.0 ? 0.0 : k.num));
}

uint32_t VecHashJoinOp::FindKey(uint64_t h, const Key& k) const {
  return build_.index.Find(h, [&](uint32_t id) {
    if (build_.key_is_string[id] != k.is_string) return false;
    return k.is_string ? build_.key_strs[id] == k.str
                       : build_.key_nums[id] == k.num;
  });
}

void VecHashJoinOp::Build() {
  BuildSide& bs = build_;
  const size_t width = children_[1]->output().size();
  // Pass 1, arrival order: every joinable right row, with its key id.
  std::vector<VecColumn> arrived(width);
  std::vector<std::unordered_map<std::string, int32_t>> dicts(width);
  std::vector<uint32_t> row_keys;
  std::vector<uint32_t> kept;
  Batch b;
  while (FetchChildBatch(children_[1].get(), &b)) {
    const VecColumn& kc = b.cols[right_key_];
    kept.clear();
    const size_t n = b.ActiveCount();
    for (size_t s = 0; s < n; ++s) {
      const uint32_t r = b.ActiveRow(s);
      Key k;
      if (!KeyAt(kc, r, &k)) continue;
      const uint64_t h = KeyHash(k);
      uint32_t id = FindKey(h, k);
      if (id == HashIdIndex::kNone) {
        id = static_cast<uint32_t>(bs.key_nums.size());
        bs.key_is_string.push_back(k.is_string);
        bs.key_nums.push_back(k.num);
        bs.key_strs.emplace_back(k.str);
        bs.index.Insert(h, id);
        // A number equal to a small non-negative integer is found by value.
        if (!k.is_string && k.num >= 0.0 && k.num < static_cast<double>(kDirectKeys) &&
            k.num == std::floor(k.num)) {
          bs.direct.Insert(static_cast<uint64_t>(k.num), id);
        }
      }
      row_keys.push_back(id);
      kept.push_back(r);
    }
    for (size_t c = 0; c < width; ++c) {
      AppendRows(b.cols[c], kept, &arrived[c], &dicts[c]);
    }
  }
  // Pass 2: group the rows by key id, a stable counting sort, so a probe
  // row's matches are one contiguous run of the store, in arrival order.
  const size_t num_keys = bs.key_nums.size();
  bs.begin.assign(num_keys + 1, 0);
  for (uint32_t id : row_keys) ++bs.begin[id + 1];
  for (size_t id = 0; id < num_keys; ++id) bs.begin[id + 1] += bs.begin[id];
  std::vector<uint32_t> fill(bs.begin.begin(), bs.begin.end() - 1);
  std::vector<uint32_t> order(row_keys.size());
  for (uint32_t r = 0; r < row_keys.size(); ++r) order[fill[row_keys[r]]++] = r;
  bs.cols.resize(width);
  for (size_t c = 0; c < width; ++c) {
    GatherRows(arrived[c], order.data(), order.size(), &bs.cols[c], &remap_);
  }
}

void VecHashJoinOp::LookupProbe() {
  const VecColumn& c = probe_.cols[left_key_];
  const size_t n = probe_.ActiveCount();
  keys_.assign(n, HashIdIndex::kNone);
  uint32_t* keys = keys_.data();
  if (c.kind != VecColumn::Kind::kInt) {
    for (size_t s = 0; s < n; ++s) {
      Key k;
      if (KeyAt(c, probe_.ActiveRow(s), &k)) keys[s] = FindKey(KeyHash(k), k);
    }
    return;
  }
  const int64_t* v = c.ints.data();
  const uint8_t* valid = c.valid.data();
  for (size_t s = 0; s < n; ++s) {
    const uint32_t r = probe_.ActiveRow(s);
    if (!valid[r]) continue;
    uint32_t id = build_.direct.Find(static_cast<uint64_t>(v[r]));
    if (id == HashIdIndex::kNone) {
      const Key k{false, static_cast<double>(v[r]), {}};
      id = FindKey(KeyHash(k), k);
    }
    keys[s] = id;
  }
}

void VecHashJoinOp::VecOpenImpl() {
  children_[0]->Open();
  children_[1]->Open();
  Reset();
  Build();
}

bool VecHashJoinOp::NextBatchImpl(Batch* out) {
  probe_rows_.resize(kBatchRows);
  build_rows_.resize(kBatchRows);
  for (;;) {
    if (probe_pos_ >= keys_.size()) {
      if (!FetchChildBatch(children_[0].get(), &probe_)) return false;
      LookupProbe();
      probe_pos_ = 0;
      match_pos_ = HashIdIndex::kNone;
      continue;
    }
    // Expand matches into (probe row, build row) pairs; a probe row whose
    // matches do not fit resumes at match_pos_ on the next call.
    const uint32_t* keys = keys_.data();
    const uint32_t* begin = build_.begin.data();
    uint32_t* pr = probe_rows_.data();
    uint32_t* br = build_rows_.data();
    const size_t n = keys_.size();
    size_t pos = probe_pos_;
    uint32_t match = match_pos_;
    size_t m = 0;
    while (m < kBatchRows && pos < n) {
      const uint32_t id = keys[pos];
      if (id == HashIdIndex::kNone) {
        ++pos;
        continue;
      }
      if (match == HashIdIndex::kNone) match = begin[id];
      const uint32_t row = probe_.ActiveRow(pos);
      const uint32_t take =
          std::min<uint32_t>(begin[id + 1] - match,
                             static_cast<uint32_t>(kBatchRows - m));
      for (uint32_t t = 0; t < take; ++t) {
        pr[m + t] = row;
        br[m + t] = match + t;
      }
      m += take;
      match += take;
      if (match == begin[id + 1]) {
        match = HashIdIndex::kNone;
        ++pos;
      }
    }
    probe_pos_ = pos;
    match_pos_ = match;
    if (m == 0) continue;
    const size_t left_width = probe_.cols.size();
    out->ResetForWidth(left_width + build_.cols.size());
    for (size_t c = 0; c < left_width; ++c) {
      GatherRows(probe_.cols[c], pr, m, &out->cols[c], &remap_);
    }
    for (size_t c = 0; c < build_.cols.size(); ++c) {
      GatherRows(build_.cols[c], br, m, &out->cols[left_width + c], &remap_);
    }
    out->rows = m;
    rows_produced_ += m;
    return true;
  }
}

void VecHashJoinOp::CloseImpl() {
  children_[0]->Close();
  children_[1]->Close();
  Reset();
}

void VecHashJoinOp::Reset() {
  build_ = BuildSide();
  probe_.Clear();
  keys_.clear();
  probe_pos_ = 0;
  match_pos_ = HashIdIndex::kNone;
}

// ----- VecHashAggregate -----

namespace {

/// Calls fold(s, v) for each selected row s of `in` whose value in `c` is
/// non-NULL, rows ascending; v is the value's Value::AsFeature.
template <typename Fold>
void ForEachArg(const VecColumn& c, const Batch& in, Fold&& fold) {
  const size_t n = in.ActiveCount();
  switch (c.kind) {
    case VecColumn::Kind::kInt:
      for (size_t s = 0; s < n; ++s) {
        const uint32_t r = in.ActiveRow(s);
        if (c.valid[r]) fold(s, static_cast<double>(c.ints[r]));
      }
      break;
    case VecColumn::Kind::kDouble:
      for (size_t s = 0; s < n; ++s) {
        const uint32_t r = in.ActiveRow(s);
        if (c.valid[r]) fold(s, c.doubles[r]);
      }
      break;
    case VecColumn::Kind::kNull:
      break;
    default:
      for (size_t s = 0; s < n; ++s) {
        const uint32_t r = in.ActiveRow(s);
        if (!c.IsNullAt(r)) fold(s, c.FeatureAt(r));
      }
      break;
  }
}

}  // namespace

VecHashAggregateOp::VecHashAggregateOp(std::unique_ptr<Operator> child,
                                       std::vector<VecExpr> keys,
                                       std::vector<BoundExpr> scalar_keys,
                                       std::vector<OutputCol> key_cols,
                                       std::vector<AggSpec> aggs,
                                       std::vector<VecExpr> args)
    : keys_(std::move(keys)),
      scalar_keys_(std::move(scalar_keys)),
      aggs_(std::move(aggs)),
      args_(std::move(args)) {
  output_ = std::move(key_cols);
  for (size_t i = 0; i < aggs_.size(); ++i) {
    output_.push_back({"", aggs_[i].out_name, ValueType::kDouble});
    const int col = aggs_[i].arg ? aggs_[i].arg->AsColumnIndex() : -1;
    size_t source = i;
    for (size_t j = 0; j < i && col >= 0 && source == i; ++j) {
      if (aggs_[j].arg && aggs_[j].arg->AsColumnIndex() == col) source = j;
    }
    fold_source_.push_back(source);
  }
  children_.push_back(std::move(child));
}

Status VecHashAggregateOp::ScalarErrorAt(const Batch& in, size_t r) const {
  Tuple row = in.MaterializeRow(static_cast<uint32_t>(r));
  for (const auto& k : scalar_keys_) {
    Result<Value> v = k.Eval(row);
    if (!v.ok()) return v.status();
  }
  for (const auto& a : aggs_) {
    if (!a.arg) continue;
    Result<Value> v = a.arg->Eval(row);
    if (!v.ok()) return v.status();
  }
  return Status::Internal(
      "vectorized aggregate error not reproduced by scalar path");
}

void VecHashAggregateOp::VecOpenImpl() {
  children_[0]->Open();
  groups_ = GroupTable(keys_.size());
  accs_.assign(aggs_.size(), {});
  cursor_ = 0;
  // No-key aggregation folds into its one group directly — no hashing.
  // Finalizing empty accumulators yields exactly the empty-input row
  // (COUNT 0, other aggregates NULL).
  const bool no_key = keys_.empty();
  if (no_key) {
    groups_.FindOrInsert(Tuple{});
    for (auto& acc : accs_) acc.resize(1);
  }

  Batch in;
  std::vector<VecColumn> key_scratch(keys_.size());
  std::vector<VecColumn> arg_scratch(aggs_.size());
  std::vector<const VecColumn*> key_cols(keys_.size(), nullptr);
  std::vector<const VecColumn*> arg_cols(aggs_.size(), nullptr);
  std::vector<uint32_t> gids;
  while (FetchChildBatch(children_[0].get(), &in)) {
    if (in.rows == 0) continue;
    bool any_err = false;
    for (size_t k = 0; k < keys_.size(); ++k) {
      key_cols[k] = &keys_[k].EvalRef(in, &key_scratch[k]);
      any_err = any_err || key_cols[k]->has_err;
    }
    for (size_t i = 0; i < aggs_.size(); ++i) {
      if (aggs_[i].arg) {
        arg_cols[i] = &args_[i].EvalRef(in, &arg_scratch[i]);
        any_err = any_err || arg_cols[i]->has_err;
      }
    }
    const size_t n = in.ActiveCount();
    for (size_t s = 0; any_err && s < n; ++s) {
      const uint32_t r = in.ActiveRow(s);
      bool row_err = false;
      for (const auto* kc : key_cols) row_err = row_err || kc->err[r] != 0;
      for (size_t i = 0; i < aggs_.size() && !row_err; ++i) {
        row_err = aggs_[i].arg && arg_cols[i]->err[r] != 0;
      }
      if (row_err) {
        // The lowest selected errored row fails the aggregate, which then
        // produces no rows — as the serial operator, whichever rows it
        // folded before.
        Fail(ScalarErrorAt(in, r));
        groups_ = GroupTable();
        accs_.clear();
        return;
      }
    }

    if (no_key) {
      for (size_t i = 0; i < aggs_.size(); ++i) {
        if (fold_source_[i] != i) continue;
        AggAcc& acc = accs_[i][0];
        if (!aggs_[i].arg) {
          // COUNT(*): n Fold(0.0) calls end in exactly this state — sum
          // stays +0.0, min/max pin to 0.0 on the first fold.
          if (n > 0 && acc.count == 0) {
            acc.min = 0.0;
            acc.max = 0.0;
          }
          acc.count += n;
          continue;
        }
        // Fold in a register copy: the same per-value sequence, so
        // bit-identical results, without a memory round trip per row.
        AggAcc local = acc;
        ForEachArg(*arg_cols[i], in, [&local](size_t, double v) { local.Fold(v); });
        acc = local;
      }
      continue;
    }

    groups_.Map(key_cols, in, &gids);
    const uint32_t* g = gids.data();
    for (size_t i = 0; i < aggs_.size(); ++i) {
      if (fold_source_[i] != i) continue;
      accs_[i].resize(groups_.size());
      AggAcc* acc = accs_[i].data();
      if (!aggs_[i].arg) {
        for (size_t s = 0; s < n; ++s) acc[g[s]].Fold(0.0);  // COUNT(*)
        continue;
      }
      ForEachArg(*arg_cols[i], in,
                 [acc, g](size_t s, double v) { acc[g[s]].Fold(v); });
    }
  }
}

bool VecHashAggregateOp::NextBatchImpl(Batch* out) {
  if (cursor_ >= groups_.size()) return false;
  const size_t n = std::min<size_t>(groups_.size() - cursor_, kBatchRows);
  const size_t num_keys = keys_.size();
  out->ResetForWidth(num_keys + aggs_.size());
  for (auto& c : out->cols) c.Resize(VecColumn::Kind::kGeneric, n);
  for (size_t j = 0; j < n; ++j) {
    const uint32_t g = cursor_ + static_cast<uint32_t>(j);
    for (size_t k = 0; k < num_keys; ++k) {
      out->cols[k].generic[j] = groups_.KeyAt(k, g);
    }
    for (size_t i = 0; i < aggs_.size(); ++i) {
      out->cols[num_keys + i].generic[j] =
          FinalizeAgg(aggs_[i].func, accs_[fold_source_[i]][g]);
    }
  }
  out->rows = n;
  cursor_ += static_cast<uint32_t>(n);
  rows_produced_ += n;
  return true;
}

void VecHashAggregateOp::CloseImpl() {
  children_[0]->Close();
  groups_ = GroupTable();
  accs_ = {};
}

}  // namespace aidb::exec
