#include "exec/parallel.h"

namespace aidb::exec {

void DispatchMorsels(const ParallelContext& ctx, size_t n,
                     const std::atomic<bool>* cancel,
                     const std::function<void(size_t worker, size_t morsel)>& work) {
  auto cancelled = [cancel] {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  };
  size_t workers = ctx.WorkersFor(n);
  if (workers <= 1) {
    for (size_t m = 0; m < n; ++m) {
      if (cancelled()) return;
      work(0, m);
    }
    return;
  }
  std::atomic<size_t> next{0};
  TaskGroup group(ctx.pool);
  for (size_t w = 0; w < workers; ++w) {
    group.Spawn([w, n, &next, &work, &cancelled] {
      for (size_t m = next.fetch_add(1); m < n; m = next.fetch_add(1)) {
        if (cancelled()) return;
        work(w, m);
      }
    });
  }
  group.Wait();
}

}  // namespace aidb::exec
