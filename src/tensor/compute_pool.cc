#include "src/tensor/compute_pool.h"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "src/util/logging.h"

namespace egeria {

namespace {

using Fn = std::function<void(int64_t, int64_t)>;
using Clock = std::chrono::steady_clock;

constexpr int kMaxThreads = 1024;
// How long an idle worker, or a caller waiting for the last chunks, polls
// before parking (see compute_pool.h for why 1 ms).
constexpr Clock::duration kSpinBudget = std::chrono::milliseconds(1);
// Polling uses plain loads: a pause-instruction spin caused pause-loop exits
// under the hypervisor, with millisecond handoffs. An occasional yield lets a
// thread that shares the vCPU run; every yield is a system call, so they are
// kept rare.
constexpr Clock::duration kYieldInterval = std::chrono::microseconds(50);
constexpr int kPollsPerClockRead = 64;

// True while the current thread is executing a ParallelFor chunk; nested
// ParallelFor calls from such a thread run serially (shipping sub-chunks back to
// the pool the caller occupies can deadlock a small pool).
thread_local bool t_in_compute_chunk = false;

// RAII so the flag unwinds correctly if a chunk body throws.
struct ChunkFlagGuard {
  bool prev;
  ChunkFlagGuard() : prev(t_in_compute_chunk) { t_in_compute_chunk = true; }
  ~ChunkFlagGuard() { t_in_compute_chunk = prev; }
};

// Incremented in the child of every fork(). Only the forking thread exists
// there, so a pool built before the fork has no workers and runs its chunks on
// the calling thread.
std::atomic<unsigned> g_fork_generation{0};

void OnForkChild() { g_fork_generation.fetch_add(1, std::memory_order_relaxed); }

// Strict parse, like EGERIA_LOG_LEVEL's: the whole string must be a base-10
// integer in [1, kMaxThreads]. Returns -1 otherwise ("8abc", "0", "-2", "").
int ParseThreadsStrict(const char* env) {
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || errno == ERANGE) return -1;
  if (v < 1 || v > kMaxThreads) return -1;
  return static_cast<int>(v);
}

int ResolveThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  const int fallback = hw == 0 ? 1 : static_cast<int>(std::min<unsigned>(hw, kMaxThreads));
  const char* env = std::getenv("EGERIA_NUM_THREADS");
  if (env == nullptr) {
    return fallback;
  }
  const int n = ParseThreadsStrict(env);
  if (n < 0) {
    EGERIA_LOG(kWarn) << "invalid EGERIA_NUM_THREADS=\"" << env << "\" (want an integer 1-"
                      << kMaxThreads << "); using " << fallback;
    return fallback;
  }
  return n;
}

// Polls ready() for up to `budget`, yielding every kYieldInterval. Returns
// whether ready() became true.
template <typename Ready>
bool SpinUntil(const Ready& ready, Clock::duration budget) {
  if (budget <= Clock::duration::zero()) {
    return ready();
  }
  const Clock::time_point start = Clock::now();
  Clock::time_point next_yield = start + kYieldInterval;
  for (;;) {
    for (int i = 0; i < kPollsPerClockRead; ++i) {
      if (ready()) {
        return true;
      }
    }
    const Clock::time_point now = Clock::now();
    if (now - start >= budget) {
      return ready();
    }
    if (now >= next_yield) {
      std::this_thread::yield();
      next_yield = now + kYieldInterval;
    }
  }
}

// Sleeps until ready() holds, without losing a wakeup: Park registers as a
// sleeper before re-checking ready() under the mutex, and the waker makes
// ready() true before reading the sleeper count, all four seq_cst. One of the
// two threads must then see the other's write (Dekker): the sleeper sees the
// new state, or the waker sees the sleeper and notifies under the mutex.
class Parker {
 public:
  template <typename Ready>
  void Park(const Ready& ready) {
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, ready);
    }
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
  }

  // Call after the seq_cst write that makes the sleepers' ready() true.
  void WakeAll() {
    if (sleepers_.load(std::memory_order_seq_cst) == 0) {
      return;
    }
    { std::lock_guard<std::mutex> lock(mu_); }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<int> sleepers_{0};
};

}  // namespace

// One job slot. A job is claimed chunk by chunk through `claim_`, which packs
// the job's sequence number (high 32 bits) with the number of chunks not yet
// claimed (low 32 bits); chunk index = chunks_ - unclaimed. A thread that
// read a stale sequence fails its compare-exchange, so it can never claim a
// chunk of a newer job with an older job's fields. A successful claim pins the
// job (its caller cannot return while the chunk is unfinished), so the plain
// fields below are read only after one.
class ComputePool::Impl {
 public:
  explicit Impl(int width) {
    const unsigned hw = std::thread::hardware_concurrency();
    spin_budget_ = static_cast<unsigned>(width) <= hw ? kSpinBudget : Clock::duration::zero();
    static const bool fork_handler_registered =
        pthread_atfork(nullptr, nullptr, &OnForkChild) == 0;
    (void)fork_handler_registered;
    fork_generation_ = g_fork_generation.load(std::memory_order_relaxed);
    workers_.reserve(static_cast<size_t>(width - 1));
    for (int i = 1; i < width; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~Impl() {
    if (WorkersGone()) {
      // The threads were not copied into this process: nothing to join, and a
      // joinable std::thread must not be destroyed, so leak the handles.
      new std::vector<std::thread>(std::move(workers_));
      return;
    }
    stopping_.store(true, std::memory_order_seq_cst);
    work_parker_.WakeAll();
    for (std::thread& t : workers_) {
      t.join();
    }
  }

  // Runs the job on the pool with the calling thread's help and returns true,
  // or returns false at once when another caller's job holds the slot or the
  // process is a fork child without the workers.
  bool TryRun(const Fn& fn, int64_t n, int64_t size, int64_t chunks) {
    if (WorkersGone() || busy_.exchange(true, std::memory_order_acquire)) {
      return false;
    }
    fn_ = &fn;
    n_ = n;
    size_ = size;
    chunks_ = chunks;
    failed_.store(false, std::memory_order_relaxed);
    remaining_.store(chunks, std::memory_order_relaxed);
    const uint64_t seq = ++seq_;
    claim_.store(seq << 32 | static_cast<uint64_t>(chunks), std::memory_order_seq_cst);
    work_parker_.WakeAll();
    Work(seq);
    const auto done = [this] { return remaining_.load(std::memory_order_seq_cst) == 0; };
    if (!SpinUntil(done, spin_budget_)) {
      done_parker_.Park(done);
    }
    const std::exception_ptr error = std::move(error_);
    error_ = nullptr;
    busy_.store(false, std::memory_order_release);
    if (error) {
      std::rethrow_exception(error);
    }
    return true;
  }

 private:
  bool WorkersGone() const {
    return g_fork_generation.load(std::memory_order_relaxed) != fork_generation_;
  }

  void WorkerLoop() {
    uint64_t seen = 0;
    const auto ready = [&] {
      return stopping_.load(std::memory_order_seq_cst) ||
             claim_.load(std::memory_order_seq_cst) >> 32 != seen;
    };
    for (;;) {
      if (!SpinUntil(ready, spin_budget_)) {
        work_parker_.Park(ready);
      }
      if (stopping_.load(std::memory_order_relaxed)) {
        return;
      }
      seen = claim_.load(std::memory_order_relaxed) >> 32;
      Work(seen);
    }
  }

  // Claims and runs chunks of job `seq` until it has none left to claim.
  void Work(uint64_t seq) {
    uint64_t word = claim_.load(std::memory_order_relaxed);
    for (;;) {
      const uint64_t unclaimed = word & 0xffffffffu;
      if (word >> 32 != seq || unclaimed == 0) {
        return;
      }
      if (!claim_.compare_exchange_weak(word, word - 1, std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
        continue;
      }
      RunChunk(chunks_ - static_cast<int64_t>(unclaimed));
      if (remaining_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
        done_parker_.WakeAll();
      }
      word = claim_.load(std::memory_order_relaxed);
    }
  }

  void RunChunk(int64_t c) {
    const int64_t begin = c * size_;
    ChunkFlagGuard guard;
    try {
      (*fn_)(begin, std::min(n_, begin + size_));
    } catch (...) {
      if (!failed_.exchange(true, std::memory_order_relaxed)) {
        error_ = std::current_exception();
      }
    }
  }

  Clock::duration spin_budget_;
  unsigned fork_generation_;  // g_fork_generation when the workers started
  std::vector<std::thread> workers_;
  std::atomic<bool> stopping_{false};

  // The job slot. busy_ admits one caller at a time; the plain fields are
  // written by that caller before it publishes the job through claim_.
  std::atomic<bool> busy_{false};
  uint32_t seq_ = 0;  // wraps; a claim also checks the unclaimed count
  const Fn* fn_ = nullptr;
  int64_t n_ = 0;
  int64_t size_ = 0;
  int64_t chunks_ = 0;
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;

  alignas(64) std::atomic<uint64_t> claim_{0};
  alignas(64) std::atomic<int64_t> remaining_{0};
  alignas(64) Parker work_parker_;  // idle workers wait for a new job
  Parker done_parker_;              // the caller waits for the last chunks
};

ComputePool::ComputePool(int width)
    : width_(std::max(width, 1)), impl_(std::make_unique<Impl>(width_)) {}

ComputePool::~ComputePool() = default;

void ComputePool::ParallelFor(int64_t n, int64_t grain, const Fn& fn) {
  if (n <= 0) {
    return;
  }
  grain = std::max<int64_t>(grain, 1);
  const int64_t max_chunks = t_in_compute_chunk ? 1 : width_;
  const int64_t wanted = std::min(max_chunks, (n + grain - 1) / grain);
  if (wanted <= 1) {
    fn(0, n);
    return;
  }
  const int64_t size = (n + wanted - 1) / wanted;
  const int64_t chunks = (n + size - 1) / size;
  if (impl_->TryRun(fn, n, size, chunks)) {
    return;
  }
  // Busy pool or fork child: the same partition, on this thread, in order.
  ChunkFlagGuard guard;
  for (int64_t c = 0; c < chunks; ++c) {
    fn(c * size, std::min(n, (c + 1) * size));
  }
}

int ComputePoolThreads() {
  static const int threads = ResolveThreadCount();
  return threads;
}

void ParallelFor(int64_t n, int64_t grain, const Fn& fn) {
  // Leaked on purpose: kernel calls can race with static destruction at process
  // exit (e.g. from detached helpers), and the OS reclaims the threads anyway.
  static ComputePool* const pool = new ComputePool(ComputePoolThreads());
  pool->ParallelFor(n, grain, fn);
}

}  // namespace egeria
