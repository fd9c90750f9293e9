#include "src/distributed/process_launcher.h"

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "src/ckpt/checkpoint.h"
#include "src/util/logging.h"

namespace egeria {
namespace {

using Clock = std::chrono::steady_clock;

// Exit code of a rank's clean abort (it printed EGERIA_ABORT first).
constexpr int kCleanAbortExitCode = 4;
// After a clean abort, how long the survivors get to unwind, print their own
// abort lines and exit on their own before they are killed.
constexpr std::chrono::seconds kAbortGrace{2};

void MakeDirs(const std::string& path) {
  std::string partial;
  std::istringstream parts(path);
  std::string piece;
  if (!path.empty() && path[0] == '/') {
    partial = "/";
  }
  while (std::getline(parts, piece, '/')) {
    if (piece.empty()) {
      continue;
    }
    partial += piece + "/";
    if (mkdir(partial.c_str(), 0755) != 0) {
      EGERIA_CHECK_MSG(errno == EEXIST, "cannot create log dir " + partial);
    }
  }
}

// Parses "KEY k1=v1 k2=v2 ..." lines with the given prefix from a log file.
std::vector<std::map<std::string, std::string>> ParseKvLines(
    const std::string& log_path, const std::string& prefix) {
  std::vector<std::map<std::string, std::string>> out;
  std::ifstream in(log_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix + " ", 0) != 0) {
      continue;
    }
    std::map<std::string, std::string> kv;
    std::istringstream tokens(line.substr(prefix.size() + 1));
    std::string tok;
    while (tokens >> tok) {
      const size_t eq = tok.find('=');
      if (eq != std::string::npos) {
        kv[tok.substr(0, eq)] = tok.substr(eq + 1);
      }
    }
    out.push_back(std::move(kv));
  }
  return out;
}

pid_t SpawnRank(const SpawnOptions& options, int rank, const std::string& rendezvous,
                const std::string& log_path) {
  std::vector<std::string> args;
  args.push_back(options.worker_binary);
  args.push_back("--rank=" + std::to_string(rank));
  args.push_back("--world=" + std::to_string(options.world));
  args.push_back("--rendezvous=" + rendezvous);
  for (const std::string& a : options.common_args) {
    args.push_back(a);
  }
  if (static_cast<size_t>(rank) < options.per_rank_args.size()) {
    for (const std::string& a : options.per_rank_args[static_cast<size_t>(rank)]) {
      args.push_back(a);
    }
  }

  const pid_t pid = fork();
  EGERIA_CHECK_MSG(pid >= 0, "fork failed");
  if (pid == 0) {
    const int log_fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log_fd >= 0) {
      dup2(log_fd, STDOUT_FILENO);
      dup2(log_fd, STDERR_FILENO);
      close(log_fd);
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) {
      argv.push_back(a.data());
    }
    argv.push_back(nullptr);
    execv(argv[0], argv.data());
    // Exec failed; the log carries the reason, the exit code flags it.
    std::fprintf(stderr, "execv(%s) failed: %s\n", argv[0], std::strerror(errno));
    _exit(127);
  }
  return pid;
}

}  // namespace

SpawnResult SpawnWorld(const SpawnOptions& options) {
  EGERIA_CHECK(options.world >= 1);
  EGERIA_CHECK(!options.worker_binary.empty());
  EGERIA_CHECK(!options.log_dir.empty());
  MakeDirs(options.log_dir);
  const std::string rendezvous = options.log_dir + "/rendezvous";
  unlink(rendezvous.c_str());  // Never rendezvous against stale contents.

  SpawnResult result;
  result.final_world = options.world;
  result.exit_codes.assign(static_cast<size_t>(options.world), -1);
  std::vector<pid_t> pids(static_cast<size_t>(options.world), -1);
  for (int r = 0; r < options.world; ++r) {
    const std::string log_path =
        options.log_dir + "/rank_" + std::to_string(r) + ".log";
    result.log_paths.push_back(log_path);
    pids[static_cast<size_t>(r)] = SpawnRank(options, r, rendezvous, log_path);
  }

  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.timeout_s));
  int live = options.world;
  int failed_rank = -1;

  auto record_exit = [&](pid_t pid, int status) {
    for (int r = 0; r < options.world; ++r) {
      if (pids[static_cast<size_t>(r)] != pid) {
        continue;
      }
      const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                         : 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
      result.exit_codes[static_cast<size_t>(r)] = code;
      --live;
      if (code != 0 && failed_rank < 0) {
        failed_rank = r;
      }
    }
  };

  auto kill_survivors = [&]() {
    for (int r = 0; r < options.world; ++r) {
      if (result.exit_codes[static_cast<size_t>(r)] == -1) {
        kill(pids[static_cast<size_t>(r)], SIGKILL);
      }
    }
    while (live > 0) {
      int status = 0;
      const pid_t pid = waitpid(-1, &status, 0);
      if (pid <= 0) {
        break;
      }
      for (int r = 0; r < options.world; ++r) {
        if (pids[static_cast<size_t>(r)] == pid) {
          // A rank that had already exited on its own keeps its real code;
          // ranks that died to our SIGKILL stay -1 (they never finished).
          if (WIFEXITED(status)) {
            result.exit_codes[static_cast<size_t>(r)] = WEXITSTATUS(status);
          }
          --live;
        }
      }
    }
  };

  while (live > 0) {
    int status = 0;
    const pid_t pid = waitpid(-1, &status, WNOHANG);
    if (pid == 0) {
      if (Clock::now() >= deadline) {
        std::string stuck;
        for (int r = 0; r < options.world; ++r) {
          if (result.exit_codes[static_cast<size_t>(r)] == -1) {
            stuck += (stuck.empty() ? "" : ",") + std::to_string(r);
          }
        }
        kill_survivors();
        result.timed_out = true;
        result.error = "world timed out after " + std::to_string(options.timeout_s) +
                       "s; ranks still running: [" + stuck + "] (killed)";
        return result;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    EGERIA_CHECK_MSG(pid > 0, "waitpid failed");
    record_exit(pid, status);
    if (failed_rank >= 0) {
      // A clean abort was broadcast: the survivors are unwinding and report
      // their own side of it, so give them a moment to exit on their own.
      if (result.exit_codes[static_cast<size_t>(failed_rank)] == kCleanAbortExitCode) {
        const auto grace_end = std::min(deadline, Clock::now() + kAbortGrace);
        while (live > 0 && Clock::now() < grace_end) {
          const pid_t exited = waitpid(-1, &status, WNOHANG);
          if (exited > 0) {
            record_exit(exited, status);
          } else {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
          }
        }
      }
      // Fail fast: the survivors would only block in their collectives until
      // the transport deadline; kill them and report the root cause.
      kill_survivors();
      result.error = "rank " + std::to_string(failed_rank) + " exited with code " +
                     std::to_string(result.exit_codes[static_cast<size_t>(failed_rank)]) +
                     " (world killed; see " +
                     result.log_paths[static_cast<size_t>(failed_rank)] + ")";
      return result;
    }
  }

  for (int r = 0; r < options.world; ++r) {
    const auto kvs = ParseKvLines(result.log_paths[static_cast<size_t>(r)],
                                  "EGERIA_RESULT");
    result.rank_results.push_back(kvs.empty() ? std::map<std::string, std::string>{}
                                              : kvs.back());
  }
  result.reshard_timeline = ParseKvLines(result.log_paths[0], "EGERIA_RESHARD");
  result.ok = true;
  return result;
}

SpawnResult SpawnWorldWithRecovery(const SpawnOptions& options,
                                   const RecoverySpec& recovery) {
  SpawnResult last;
  double backoff_s = recovery.backoff_initial_s;
  for (int attempt = 0; attempt <= recovery.max_restarts; ++attempt) {
    SpawnOptions cur = options;
    cur.log_dir = options.log_dir + "/attempt_" + std::to_string(attempt);
    if (attempt > 0) {
      if (recovery.restart_world > 0) {
        cur.world = recovery.restart_world;
      } else if (recovery.shrink_world_on_restart) {
        // Each restart models one permanently lost machine: W-1 per attempt,
        // never below a singleton world.
        cur.world = std::max(1, options.world - attempt);
      }
      if (recovery.drop_per_rank_args_on_restart) {
        cur.per_rank_args.clear();
      }
    }
    last = SpawnWorld(cur);
    last.attempts = attempt + 1;
    if (last.ok) {
      return last;
    }
    if (attempt == recovery.max_restarts) {
      break;
    }
    std::string resume = "from scratch (no complete checkpoint yet)";
    if (!recovery.ckpt_dir.empty()) {
      if (const auto m = FindLatestCheckpoint(recovery.ckpt_dir)) {
        resume = "from " + m->dir + " (iter " + std::to_string(m->iter) + ")";
      }
    }
    EGERIA_LOG(kWarn) << "world attempt " << attempt + 1 << " failed (" << last.error
                      << "); restarting " << resume << " after "
                      << backoff_s << "s backoff";
    if (backoff_s > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff_s));
    }
    backoff_s = std::min(recovery.backoff_max_s,
                         backoff_s * recovery.backoff_multiplier);
  }
  last.error = "world failed after " + std::to_string(recovery.max_restarts + 1) +
               " attempt(s); last error: " + last.error;
  return last;
}

}  // namespace egeria
