#pragma once

#include <algorithm>
#include <atomic>
#include <functional>

#include "common/thread_pool.h"

namespace aidb::exec {

/// Rows per morsel: small enough that skewed filters load-balance across
/// workers, large enough that dispatch overhead vanishes next to per-row work.
inline constexpr size_t kMorselRows = 2048;

/// \brief Executor pool and degree of parallelism for one parallel scan.
///
/// A null pool (or dop <= 1) makes the scan run its morsels inline on the
/// calling thread, so plans remain correct however the session knob is set.
struct ParallelContext {
  ThreadPool* pool = nullptr;
  size_t dop = 1;

  /// Worker tasks to spawn for `morsels` units of work.
  size_t WorkersFor(size_t morsels) const {
    if (pool == nullptr || dop <= 1 || morsels <= 1) return 1;
    return std::min(dop, morsels);
  }
};

/// Runs `work(worker, morsel)` for every morsel in [0, n), spread over
/// ctx.WorkersFor(n) tasks that claim morsels from a shared atomic counter
/// (the LHS-style morsel dispatcher). With one worker (or a null pool)
/// everything runs inline on the calling thread. A set `cancel` flag stops
/// workers at the next morsel claim — already-claimed morsels finish, so
/// per-morsel output stays well-formed and the caller decides whether to
/// surface Cancelled. VecParallelScanOp is its caller.
void DispatchMorsels(
    const ParallelContext& ctx, size_t n, const std::atomic<bool>* cancel,
    const std::function<void(size_t worker, size_t morsel)>& work);

}  // namespace aidb::exec
