// Fork-join compute pool for data-parallel kernel loops.
//
// ParallelFor runs on one process-wide pool, created lazily on first use and
// sized by EGERIA_NUM_THREADS (default: hardware concurrency). It is distinct
// from src/util/ThreadPool, which carries the feature-store prefetcher's coarse
// file reads: sharing would let such a task block a kernel chunk behind it.
//
// Design. A pool of width W is the calling thread plus W-1 persistent workers
// and one job slot. The caller publishes a job (fn, n, chunk size, chunk count),
// then claims chunks from one atomic counter like the workers do, and finally
// waits on an atomic count of unfinished chunks. There is no task queue, no
// future and no allocation per call.
//
// Idle workers. After a job each worker polls the job slot for a fixed budget
// (1 ms; a caller waiting for the last chunks polls the same way), yielding
// every 50 us, then parks on a condvar. A waker reads the sleeper count only
// after publishing, and a sleeper re-checks the slot only after registering,
// both with sequentially consistent operations, so no wakeup is lost. Shorter
// budgets cost less CPU and some throughput (numbers in src/tensor/README.md).
// When W exceeds hardware concurrency, polling could only take CPU from the
// thread it waits for, so workers and callers park at once.
//
// CPU cost. Polling trades CPU for latency: a worker that is between kernel
// regions burns up to 1 ms of CPU per job, and a caller's CPU time now
// includes its wait for the last chunks. On the 2-thread resnet50_egeria
// benchmark run this adds about 30% to the process's CPU seconds and removes
// almost all of its voluntary context switches (numbers in src/tensor/README.md).
//
// Callers. A call made from inside a chunk (a nested call) runs fn(0, n) on
// the calling thread. A call from a second thread while the pool is busy with
// another caller's job (typically the async controller's reference forward
// beside the trainer) runs every chunk of its own partition on the calling
// thread, in order, instead of queueing. In a process forked from one with a
// live pool, the workers do not exist, so every call runs that way too.
//
// Exceptions. The first exception thrown by any chunk is rethrown to the
// caller once every claimed chunk has finished; the pool stays usable.
#ifndef EGERIA_SRC_TENSOR_COMPUTE_POOL_H_
#define EGERIA_SRC_TENSOR_COMPUTE_POOL_H_

#include <cstdint>
#include <functional>
#include <memory>

namespace egeria {

// Number of threads the process-wide pool runs with, in [1, 1024]. Reads
// EGERIA_NUM_THREADS once on first call; the whole value must be an integer in
// that range, else a warning is logged once and hardware concurrency is used.
int ComputePoolThreads();

// Runs fn(begin, end) over a partition of [0, n) on the process-wide pool.
//
// The partition depends only on (n, grain, width): with
//   chunks = min(width, ceil(n / grain)),  size = ceil(n / chunks),
// chunk c covers [c * size, min(n, (c + 1) * size)) for c < ceil(n / size).
// `grain` is the smallest chunk worth shipping to another thread (values below
// 1 count as 1). Runs at a fixed thread count therefore shard work identically,
// whichever thread runs which chunk. Chunks are disjoint, so writes to
// per-index data need no synchronization.
void ParallelFor(int64_t n, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn);

// A fork-join pool of `width` threads: the caller of ParallelFor plus
// width - 1 workers, which the destructor joins. The process-wide ParallelFor
// above uses one instance of width ComputePoolThreads() that is never
// destroyed; the class is public so that pools of other widths can be built.
class ComputePool {
 public:
  explicit ComputePool(int width);
  ~ComputePool();

  ComputePool(const ComputePool&) = delete;
  ComputePool& operator=(const ComputePool&) = delete;

  void ParallelFor(int64_t n, int64_t grain,
                   const std::function<void(int64_t, int64_t)>& fn);

 private:
  class Impl;
  const int width_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace egeria

#endif  // EGERIA_SRC_TENSOR_COMPUTE_POOL_H_
