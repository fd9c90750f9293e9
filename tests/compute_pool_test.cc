// Tests for the fork-join compute pool (src/tensor/compute_pool.h): coverage
// and the documented partition, nested and concurrent callers, exception
// propagation, a park/wake stress test that fails (rather than hangs) on a lost
// wakeup, ParallelFor in a forked child, and the strict EGERIA_NUM_THREADS
// parse.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/tensor/compute_pool.h"

namespace egeria {
namespace {

using Clock = std::chrono::steady_clock;
using Range = std::pair<int64_t, int64_t>;

// The partition documented in compute_pool.h, written out independently.
std::vector<Range> ExpectedChunks(int64_t n, int64_t grain, int64_t width) {
  std::vector<Range> out;
  if (n <= 0) {
    return out;
  }
  grain = std::max<int64_t>(grain, 1);
  const int64_t chunks = std::min(width, (n + grain - 1) / grain);
  const int64_t size = (n + chunks - 1) / chunks;
  for (int64_t c = 0; c * size < n; ++c) {
    out.emplace_back(c * size, std::min(n, (c + 1) * size));
  }
  return out;
}

// Runs pool.ParallelFor(n, grain) and returns its chunks, sorted; counts every
// index into `hits`.
std::vector<Range> RecordChunks(ComputePool& pool, int64_t n, int64_t grain,
                                std::vector<std::atomic<int>>* hits) {
  std::mutex mu;
  std::vector<Range> chunks;
  pool.ParallelFor(n, grain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      (*hits)[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
    }
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(lo, hi);
  });
  std::sort(chunks.begin(), chunks.end());
  return chunks;
}

// Spins (yielding) until pred() holds or `timeout` passes; returns pred().
template <typename Pred>
bool WaitFor(const Pred& pred, std::chrono::milliseconds timeout) {
  const Clock::time_point deadline = Clock::now() + timeout;
  while (!pred() && Clock::now() < deadline) {
    std::this_thread::yield();
  }
  return pred();
}

// Aborts the test binary with a message if it is still alive after `budget`:
// a caller parked forever on a lost wakeup then fails the suite in seconds
// instead of at the ctest timeout.
class Watchdog {
 public:
  Watchdog(const char* what, std::chrono::seconds budget)
      : thread_([this, what, budget] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, budget, [this] { return done_; })) {
            std::fprintf(stderr, "%s: still running after %lld s (lost wakeup?)\n", what,
                         static_cast<long long>(budget.count()));
            std::abort();
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

TEST(ComputePool, EveryIndexOnceInTheDocumentedChunks) {
  const int64_t ns[] = {0, 1, 2, 3, 5, 7, 8, 9, 16, 17, 100, 1000, 4097};
  const int64_t grains[] = {-3, 0, 1, 2, 3, 7, 64, 1000, 5000};
  for (int width : {1, 2, 3, 4}) {
    ComputePool pool(width);
    for (int64_t n : ns) {
      for (int64_t grain : grains) {
        std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
        const std::vector<Range> chunks = RecordChunks(pool, n, grain, &hits);
        for (int64_t i = 0; i < n; ++i) {
          ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1)
              << "index " << i << " n=" << n << " grain=" << grain << " width=" << width;
        }
        EXPECT_EQ(chunks, ExpectedChunks(n, grain, width))
            << "n=" << n << " grain=" << grain << " width=" << width;
      }
    }
  }
}

TEST(ComputePool, ProcessWidePoolCoversEveryIndex) {
  const int64_t n = 10007;
  std::vector<std::atomic<int>> hits(n);
  std::mutex mu;
  std::vector<Range> chunks;
  ParallelFor(n, 16, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      hits[static_cast<size_t>(i)].fetch_add(1);
    }
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(lo, hi);
  });
  std::sort(chunks.begin(), chunks.end());
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
  EXPECT_EQ(chunks, ExpectedChunks(n, 16, ComputePoolThreads()));
}

TEST(ComputePool, NestedCallRunsSeriallyOnTheCallingThread) {
  ComputePool pool(4);
  std::mutex mu;
  int outer_chunks = 0;
  std::vector<std::string> errors;
  pool.ParallelFor(4, 1, [&](int64_t, int64_t) {
    const std::thread::id outer = std::this_thread::get_id();
    std::vector<Range> inner;
    bool same_thread = true;
    pool.ParallelFor(100, 1, [&](int64_t lo, int64_t hi) {
      inner.emplace_back(lo, hi);
      same_thread = same_thread && std::this_thread::get_id() == outer;
    });
    std::lock_guard<std::mutex> lock(mu);
    ++outer_chunks;
    if (inner != std::vector<Range>{{0, 100}} || !same_thread) {
      errors.push_back("nested call was split or left the calling thread");
    }
  });
  EXPECT_EQ(outer_chunks, 4);
  EXPECT_TRUE(errors.empty()) << errors.front();
}

TEST(ComputePool, ConcurrentForeignCallersKeepTheirPartition) {
  Watchdog watchdog("ConcurrentForeignCallersKeepTheirPartition", std::chrono::seconds(60));
  ComputePool pool(3);
  const int64_t n = 1000;
  const std::vector<Range> expected = ExpectedChunks(n, 1, 3);
  std::atomic<int> failures{0};
  const auto caller = [&] {
    for (int round = 0; round < 1000; ++round) {
      std::vector<std::atomic<int>> hits(n);
      const std::vector<Range> chunks = RecordChunks(pool, n, 1, &hits);
      bool ok = chunks == expected;
      for (int64_t i = 0; i < n; ++i) {
        ok = ok && hits[static_cast<size_t>(i)].load() == 1;
      }
      if (!ok) {
        failures.fetch_add(1);
      }
    }
  };
  std::thread a(caller);
  std::thread b(caller);
  a.join();
  b.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ComputePool, ExceptionFromAWorkerChunkIsRethrown) {
  ComputePool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> worker_entered{false};
  try {
    pool.ParallelFor(2, 1, [&](int64_t, int64_t) {
      if (std::this_thread::get_id() != caller) {
        worker_entered.store(true);
        throw std::runtime_error("from worker");
      }
      // Hold the caller in its chunk so the other chunk goes to the worker.
      WaitFor([&] { return worker_entered.load(); }, std::chrono::seconds(10));
    });
    ADD_FAILURE() << "no exception; worker ran a chunk: " << worker_entered.load();
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "from worker");
  }
  std::vector<std::atomic<int>> hits(64);
  EXPECT_EQ(RecordChunks(pool, 64, 1, &hits), ExpectedChunks(64, 1, 2));
}

TEST(ComputePool, ExceptionFromTheCallersChunkIsRethrown) {
  ComputePool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> caller_entered{false};
  try {
    pool.ParallelFor(2, 1, [&](int64_t, int64_t) {
      if (std::this_thread::get_id() == caller) {
        caller_entered.store(true);
        throw std::runtime_error("from caller");
      }
      // Hold the worker in its chunk so the other chunk goes to the caller.
      WaitFor([&] { return caller_entered.load(); }, std::chrono::seconds(10));
    });
    ADD_FAILURE() << "no exception; caller ran a chunk: " << caller_entered.load();
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "from caller");
  }
  std::vector<std::atomic<int>> hits(64);
  EXPECT_EQ(RecordChunks(pool, 64, 1, &hits), ExpectedChunks(64, 1, 2));
  for (auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

// Lost-wakeup canary. Every chunk waits at a barrier of all `width` chunks, so
// a round completes only if every worker wakes for it; the idle gaps between
// rounds are mostly longer than the 1 ms polling budget, so workers park and
// must be woken. After the barrier the chunks finish at random times, so the
// caller also parks waiting for them. A lost worker wakeup shows up as a
// barrier timeout, a lost caller wakeup as the watchdog's abort.
TEST(ComputePool, ParkAndWakeStressLosesNoWakeup) {
  Watchdog watchdog("ParkAndWakeStressLosesNoWakeup", std::chrono::seconds(60));
  std::mt19937 rng(1234);
  std::uniform_int_distribution<int> gap_us(0, 3000);
  std::uniform_int_distribution<int> tail_us(0, 2500);
  for (int width : {2, 4}) {
    ComputePool pool(width);
    for (int round = 0; round < 150; ++round) {
      std::this_thread::sleep_for(std::chrono::microseconds(gap_us(rng)));
      std::vector<int> tails(static_cast<size_t>(width));
      for (int& t : tails) {
        t = tail_us(rng);
      }
      std::atomic<int> arrived{0};
      std::atomic<bool> timed_out{false};
      pool.ParallelFor(width, 1, [&](int64_t lo, int64_t) {
        arrived.fetch_add(1);
        if (!WaitFor([&] { return arrived.load() == width; }, std::chrono::seconds(5))) {
          timed_out.store(true);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(tails[static_cast<size_t>(lo)]));
      });
      ASSERT_FALSE(timed_out.load()) << "width " << width << " round " << round
                                     << ": a worker never woke for the job";
    }
  }
}

// A child forked from a process with live pool workers has none of them; its
// ParallelFor must still finish (on the one thread it has) with the right
// result. The parent bounds the wait, so a regression fails instead of hanging.
TEST(ComputePool, ForkedChildRunsParallelForSerially) {
  ComputePool local(3);
  std::atomic<int64_t> warm{0};
  const auto add = [&warm](int64_t lo, int64_t hi) { warm.fetch_add(hi - lo); };
  ParallelFor(100000, 1, add);
  local.ParallelFor(100000, 1, add);
  ASSERT_EQ(warm.load(), 200000);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << std::strerror(errno);
  if (pid == 0) {
    const int64_t n = 100000;
    std::vector<int64_t> values(n);
    const auto fill = [&values](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        values[static_cast<size_t>(i)] = i;
      }
    };
    ParallelFor(n, 1, fill);
    int64_t sum = 0;
    for (int64_t v : values) {
      sum += v;
    }
    std::fill(values.begin(), values.end(), 0);
    local.ParallelFor(n, 1, fill);
    for (int64_t v : values) {
      sum += v;
    }
    _exit(sum == n * (n - 1) ? 0 : 1);
  }
  int status = 0;
  pid_t done = 0;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(30);
  while ((done = waitpid(pid, &status, WNOHANG)) == 0 && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (done == 0) {
    kill(pid, SIGKILL);
    waitpid(pid, &status, 0);
    FAIL() << "forked child's ParallelFor did not finish within 30 s";
  }
  ASSERT_TRUE(WIFEXITED(status)) << "child died, status " << status;
  EXPECT_EQ(WEXITSTATUS(status), 0) << "child computed a wrong sum";
}

// Child half of StrictThreadCountParse: prints the resolved thread count (read
// twice, so a repeated warning would show).
TEST(ComputePoolEnvChild, PrintThreads) {
  const int first = ComputePoolThreads();
  EXPECT_EQ(ComputePoolThreads(), first);
  std::printf("POOL_THREADS=%d\n", first);
}

struct ChildRun {
  int threads = -1;
  int warnings = 0;
};

// Re-executes this binary's PrintThreads test with EGERIA_NUM_THREADS=value.
ChildRun RunChildWithThreads(const char* self, const std::string& value) {
  char cmd[4608];
  std::snprintf(cmd, sizeof(cmd),
                "EGERIA_LOG_LEVEL=1 EGERIA_NUM_THREADS='%s' '%s' "
                "--gtest_filter=ComputePoolEnvChild.PrintThreads 2>&1",
                value.c_str(), self);
  ChildRun run;
  FILE* pipe = popen(cmd, "r");
  if (pipe == nullptr) {
    return run;
  }
  char line[1024];
  while (std::fgets(line, sizeof(line), pipe) != nullptr) {
    if (std::strncmp(line, "POOL_THREADS=", 13) == 0) {
      run.threads = std::atoi(line + 13);
    }
    if (std::strstr(line, "invalid EGERIA_NUM_THREADS=") != nullptr) {
      ++run.warnings;
    }
  }
  pclose(pipe);
  return run;
}

TEST(ComputePoolEnv, StrictThreadCountParse) {
  char self[4096];
  const ssize_t len = readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (len <= 0) {
    GTEST_SKIP() << "could not resolve /proc/self/exe";
  }
  self[len] = '\0';
  const unsigned hw = std::thread::hardware_concurrency();
  const int fallback = hw == 0 ? 1 : static_cast<int>(std::min(hw, 1024U));

  const ChildRun good = RunChildWithThreads(self, "3");
  if (good.threads < 0) {
    GTEST_SKIP() << "could not re-exec self to vary EGERIA_NUM_THREADS";
  }
  EXPECT_EQ(good.threads, 3);
  EXPECT_EQ(good.warnings, 0);

  for (const char* bad : {"8abc", "abc", "0", "-2", "", "1025", "99999999999999999999"}) {
    const ChildRun run = RunChildWithThreads(self, bad);
    EXPECT_EQ(run.threads, fallback) << "EGERIA_NUM_THREADS=\"" << bad << "\"";
    EXPECT_EQ(run.warnings, 1) << "EGERIA_NUM_THREADS=\"" << bad << "\"";
  }
}

}  // namespace
}  // namespace egeria
