// egeria_worker: one rank of a multi-process data-parallel world.
//
// Launched W times (by SpawnWorld, scripts/launch_dist.sh, or by hand) with a
// shared rendezvous file; each process wires itself into the TCP ring, runs
// the same per-rank training loop the in-process harness uses (TrainRank), and
// reports machine-readable results on stdout:
//
//   EGERIA_RESULT rank=.. world=.. params_hash=.. final_frontier=.. ...
//   EGERIA_RESHARD iter=.. frontier=.. payload_bytes=.. allreduce_s_per_iter=..
//
// The EGERIA_RESULT params_hash of every rank of a TCP world is bitwise-equal
// to the single-process sequential-reference run of the same workload — the
// reduction contract, across OS processes and a real wire.
//
// Failure protocol (see src/distributed/README.md "Failure model"): a rank
// whose training loop ends on a transport error prints
//
//   EGERIA_ABORT rank=.. code=.. reason=".."
//
// and exits 4. The launcher's fail-fast supervision then kills the survivors
// (who are themselves aborting after the heartbeat broadcast) and, under
// SpawnWorldWithRecovery, relaunches the world to resume from the latest
// complete checkpoint.
//
// Flags:
//   --rank=R --world=W --rendezvous=PATH   (required; env EGERIA_RANK /
//       EGERIA_WORLD / EGERIA_RENDEZVOUS are fallbacks)
//   --workload=tiny|fig10   (default tiny; see src/distributed/dist_workload.h)
//   --epochs=N              (override the workload default)
//   --egeria=0|1            (enable the freezing controller; default 0)
//   --ckpt-dir=PATH         (checkpoint root; with a complete checkpoint
//       present the rank RESUMES from it — rerunning the same command after a
//       crash continues the run, even at a different --world: elastic restart)
//   --ckpt-interval=N       (snapshot every N iterations; default 0 = off)
//   --ckpt-keep=N           (complete checkpoints retained; default 2)
//   --stop-after=N          (stop cleanly after N iterations, writing a final
//       checkpoint — stages elastic-restart drills from the command line)
//   --overlap=0|1           (bucket layout of the ZeRO-1 round: 1 = per-stage
//       buckets overlapping backward, the default; 0 = one bucket after
//       backward. Bitwise-identical results either way. Every rank of a world
//       must agree.)
//   --async-ckpt=0|1        (background checkpoint writes with deferred
//       manifest commit; default 1. Persisted state is bitwise-identical.)
//   --connect-timeout=S --io-timeout=S
//   --hb-interval=S         (heartbeat failure-detector period; default 2.0,
//       0 disables. Every rank of a world must agree.)
//   --integrity=0|1         (frame checksums + sequence numbers; default 1.
//       Every rank of a world must agree.)
//   --fault=SPEC            (test-only deterministic fault injection: comma-
//       separated kind:iter entries with kinds
//       corrupt/truncate/delay/drop/dup/hang/exit, or a single seed:S entry;
//       see src/distributed/transport/fault_injection.h. hang:0 / exit:0 fire
//       before the transport even connects. An entry may carry a rank
//       qualifier, kind@rank:iter, so one launch command can fault a single
//       rank of the world. Malformed specs are a usage error, exit 2.)
//
// Env: EGERIA_TRACE=1 writes trace_rank<r>.json at exit; EGERIA_EXPORTER=1
// starts the live HTTP exporter (/metrics, /healthz, /trace — see
// src/obs/exporter.h) on an ephemeral loopback port published to
// $EGERIA_TRACE_DIR/obs_port_rank<r>.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/distributed/dist_trainer.h"
#include "src/distributed/dist_workload.h"
#include "src/distributed/transport/fault_injection.h"
#include "src/distributed/transport/integrity_transport.h"
#include "src/distributed/transport/tcp_transport.h"
#include "src/obs/exporter.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/logging.h"

namespace egeria {
namespace {

bool FlagValue(const char* arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) {
    return false;
  }
  *out = arg + prefix.size();
  return true;
}

int EnvOrDie(const char* flag, const char* env_name, const std::string& flag_value) {
  if (!flag_value.empty()) {
    return std::atoi(flag_value.c_str());
  }
  if (const char* env = std::getenv(env_name)) {
    return std::atoi(env);
  }
  std::fprintf(stderr, "egeria_worker: missing --%s / $%s\n", flag, env_name);
  std::exit(2);
}

[[noreturn]] void HangForever() {
  for (;;) {
    sleep(3600);
  }
}

bool TruthyEnv(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr) {
    return false;
  }
  return std::strcmp(v, "1") == 0 || std::strcmp(v, "true") == 0 ||
         std::strcmp(v, "on") == 0 || std::strcmp(v, "yes") == 0;
}

std::string TraceDir() {
  const char* env_dir = std::getenv("EGERIA_TRACE_DIR");
  return env_dir != nullptr && env_dir[0] != '\0' ? env_dir : ".";
}

// Flush per-rank observability artifacts: the trace (when EGERIA_TRACE is on)
// to trace_rank<r>.json under $EGERIA_TRACE_DIR (default: cwd), and a metrics
// snapshot alongside it. Called on BOTH the clean-exit and the EGERIA_ABORT
// path — an aborting rank's trace is precisely the one worth reading.
void FlushObservability(int rank) {
  const bool want_metrics = std::getenv("EGERIA_METRICS") != nullptr;
  if (!trace::Enabled() && !want_metrics) {
    return;
  }
  const std::string dir = TraceDir();
  if (trace::Enabled()) {
    const std::string path = dir + "/trace_rank" + std::to_string(rank) + ".json";
    if (trace::Flush(path)) {
      std::printf("EGERIA_TRACE rank=%d file=%s\n", rank, path.c_str());
    } else {
      std::fprintf(stderr, "egeria_worker: trace flush to %s failed\n",
                   path.c_str());
    }
  }
  const std::string mpath = dir + "/metrics_rank" + std::to_string(rank) + ".txt";
  if (FILE* f = std::fopen(mpath.c_str(), "w")) {
    const std::string snap = obs::SnapshotText();
    std::fwrite(snap.data(), 1, snap.size(), f);
    std::fclose(f);
  }
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  std::string rank_s;
  std::string world_s;
  std::string rendezvous;
  std::string workload_name = "tiny";
  std::string epochs_s;
  std::string egeria_s = "0";
  std::string connect_timeout_s;
  std::string io_timeout_s;
  std::string hb_interval_s;
  std::string integrity_s = "1";
  std::string fault;
  std::string ckpt_dir;
  std::string ckpt_interval_s;
  std::string ckpt_keep_s;
  std::string stop_after_s;
  std::string overlap_s = "1";
  std::string async_ckpt_s = "1";
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (FlagValue(a, "rank", &rank_s) || FlagValue(a, "world", &world_s) ||
        FlagValue(a, "rendezvous", &rendezvous) ||
        FlagValue(a, "workload", &workload_name) ||
        FlagValue(a, "epochs", &epochs_s) || FlagValue(a, "egeria", &egeria_s) ||
        FlagValue(a, "ckpt-dir", &ckpt_dir) ||
        FlagValue(a, "ckpt-interval", &ckpt_interval_s) ||
        FlagValue(a, "ckpt-keep", &ckpt_keep_s) ||
        FlagValue(a, "stop-after", &stop_after_s) ||
        FlagValue(a, "overlap", &overlap_s) ||
        FlagValue(a, "async-ckpt", &async_ckpt_s) ||
        FlagValue(a, "connect-timeout", &connect_timeout_s) ||
        FlagValue(a, "io-timeout", &io_timeout_s) ||
        FlagValue(a, "hb-interval", &hb_interval_s) ||
        FlagValue(a, "integrity", &integrity_s) || FlagValue(a, "fault", &fault)) {
      continue;
    }
    std::fprintf(stderr, "egeria_worker: unknown argument %s\n", a);
    return 2;
  }
  const int rank = EnvOrDie("rank", "EGERIA_RANK", rank_s);
  const int world = EnvOrDie("world", "EGERIA_WORLD", world_s);
  // One rank per process: tag every log line and trace event with the rank
  // before any subsystem starts threads.
  SetLogRankTag(rank);
  trace::InitFromEnv();
  trace::SetProcessRank(rank);
  trace::SetProcessLabel("egeria_worker rank " + std::to_string(rank));
  if (rendezvous.empty()) {
    if (const char* env = std::getenv("EGERIA_RENDEZVOUS")) {
      rendezvous = env;
    }
  }
  if (rendezvous.empty() && world > 1) {
    std::fprintf(stderr, "egeria_worker: missing --rendezvous / $EGERIA_RENDEZVOUS\n");
    return 2;
  }

  // Strictly validated fault plan: an unknown kind or malformed iteration is
  // a usage error (exit 2), never a silently clean run.
  FaultPlan plan;
  if (!fault.empty()) {
    std::string error;
    if (!FaultPlan::Parse(fault, world, rank, &plan, &error)) {
      std::fprintf(stderr, "egeria_worker: %s\n", error.c_str());
      return 2;
    }
  }
  // Pre-wiring process faults: peers see a silent (hang) or failed (exit)
  // rank at rendezvous time.
  for (const FaultEvent& ev : plan.events) {
    if (ev.iter <= 0) {
      if (ev.kind == FaultKind::kHang) {
        HangForever();
      }
      if (ev.kind == FaultKind::kExit) {
        return 3;
      }
    }
  }

  DistWorkload w = MakeDistWorkload(workload_name);
  w.cfg.world = world;
  if (!epochs_s.empty()) {
    w.cfg.epochs = std::atoi(epochs_s.c_str());
  }
  w.cfg.enable_egeria = std::atoi(egeria_s.c_str()) != 0;
  w.cfg.reducer = DistTrainConfig::Reducer::kRingSharded;
  w.cfg.ckpt.dir = ckpt_dir;
  if (!ckpt_interval_s.empty()) {
    w.cfg.ckpt.interval_iters = std::atoll(ckpt_interval_s.c_str());
  }
  if (!ckpt_keep_s.empty()) {
    w.cfg.ckpt.keep_last = std::atoi(ckpt_keep_s.c_str());
  }
  if (!stop_after_s.empty()) {
    w.cfg.stop_after_iters = std::atoll(stop_after_s.c_str());
  }
  w.cfg.overlap_comm = std::atoi(overlap_s.c_str()) != 0;
  w.cfg.ckpt.async_save = std::atoi(async_ckpt_s.c_str()) != 0;
  // TrainRank gets the already-wrapped transport; don't double-wrap.
  w.cfg.frame_integrity = false;

  TcpTransportOptions topts;
  topts.rank = rank;
  topts.world = world;
  topts.rendezvous_file = rendezvous;
  topts.heartbeat_interval_s =
      hb_interval_s.empty() ? 2.0 : std::atof(hb_interval_s.c_str());
  if (!connect_timeout_s.empty()) {
    topts.connect_timeout_s = std::atof(connect_timeout_s.c_str());
  }
  if (!io_timeout_s.empty()) {
    topts.io_timeout_s = std::atof(io_timeout_s.c_str());
  }
  // Production path: the TCP transport's native in-pump integrity (hashing
  // overlapped with the wire — see tcp_transport.h). A rank with a --fault
  // spec keeps the decorator stack instead: the injector must corrupt BELOW
  // the checksum to be caught, which only
  // IntegrityTransport(FaultInjectingTransport(raw)) can express. Both emit
  // bit-identical wire frames, so a world may mix faulted and clean ranks.
  const bool integrity = std::atoi(integrity_s.c_str()) != 0;
  const bool decorate = !fault.empty();
  topts.frame_integrity = integrity && !decorate;
  std::unique_ptr<Transport> base = MakeTcpTransport(topts);

  FaultInjectingTransport faulty(base.get(), plan);
  IntegrityTransport checked(&faulty);
  Transport& transport =
      decorate ? (integrity ? static_cast<Transport&>(checked)
                            : static_cast<Transport&>(faulty))
               : *base;

  // Optional live telemetry: $EGERIA_EXPORTER=1 starts the per-rank HTTP
  // exporter on an ephemeral loopback port, published to
  // $EGERIA_TRACE_DIR/obs_port_rank<r> (rendezvous-file pattern). The server
  // only reads the obs registry — no collectives, so the training result is
  // bitwise-unchanged whether or not anyone scrapes.
  std::unique_ptr<obs::Exporter> exporter;
  if (TruthyEnv("EGERIA_EXPORTER")) {
    obs::ExporterOptions eopts;
    eopts.rank = rank;
    eopts.port_file = TraceDir() + "/obs_port_rank" + std::to_string(rank);
    exporter = obs::Exporter::Start(eopts);
    if (exporter != nullptr) {
      std::printf("EGERIA_EXPORTER rank=%d port=%d\n", rank, exporter->Port());
      std::fflush(stdout);
    } else {
      std::fprintf(stderr, "egeria_worker: exporter failed to start (rank %d)\n",
                   rank);
    }
  }

  FaultInjectingTransport* faulty_ptr = &faulty;
  obs::Exporter* exporter_ptr = exporter.get();
  w.cfg.iteration_hook = [rank, faulty_ptr, exporter_ptr,
                          &plan](int r, int64_t iter) {
    if (r != rank) {
      return;
    }
    if (exporter_ptr != nullptr) {
      exporter_ptr->NoteIteration(iter);
    }
    faulty_ptr->BeginIteration(iter);
    for (const FaultEvent& ev : plan.events) {
      if (ev.iter != iter) {
        continue;
      }
      if (ev.kind == FaultKind::kHang) {
        HangForever();
      }
      if (ev.kind == FaultKind::kExit) {
        std::exit(3);
      }
    }
  };

  RankTrainResult r =
      TrainRank(transport, w.make_model, *w.train, *w.val, w.cfg, nullptr);
  if (!r.status.ok()) {
    trace::AddInstantF("worker", "abort", "{\"code\":\"%s\"}",
                       r.status.code_name());
    std::printf("EGERIA_ABORT rank=%d code=%s reason=\"%s\"\n", rank,
                r.status.code_name(), r.status.message.c_str());
    std::fflush(stdout);
    FlushObservability(rank);
    return 4;
  }

  for (const DistReshardEvent& ev : r.reshard_events) {
    std::printf("EGERIA_RESHARD iter=%lld frontier=%d active_elems=%lld "
                "payload_bytes=%lld opt_state_bytes=%lld allreduce_s_per_iter=%.6f "
                "comm_hidden_s_per_iter=%.6f comm_exposed_s_per_iter=%.6f\n",
                static_cast<long long>(ev.iter), ev.frontier,
                static_cast<long long>(ev.active_elems),
                static_cast<long long>(ev.payload_bytes_per_iter),
                static_cast<long long>(ev.opt_state_bytes_per_rank),
                ev.allreduce_seconds_per_iter, ev.comm_hidden_s_per_iter,
                ev.comm_exposed_s_per_iter);
  }
  std::printf("EGERIA_RESULT rank=%d world=%d workload=%s params_hash=%016llx "
              "final_frontier=%d iterations=%lld bytes_synced=%lld "
              "bytes_full_model=%lld wire_bytes=%lld allreduce_seconds=%.6f "
              "comm_hidden_seconds=%.6f comm_exposed_seconds=%.6f "
              "final_acc=%.4f resumed_from=%lld stopped_early=%d bootstrap_end=%lld "
              "data_s=%.6f fp_s=%.6f bp_s=%.6f opt_s=%.6f train_s=%.6f\n",
              rank, world, w.name.c_str(),
              static_cast<unsigned long long>(r.params_hash), r.final_frontier,
              static_cast<long long>(r.iterations),
              static_cast<long long>(r.bytes_synced),
              static_cast<long long>(r.bytes_full_model),
              static_cast<long long>(r.wire_bytes), r.allreduce_seconds,
              r.comm_hidden_seconds, r.comm_exposed_seconds,
              r.final_display, static_cast<long long>(r.resumed_from_iter),
              r.stopped_early ? 1 : 0, static_cast<long long>(r.bootstrap_end_iter),
              r.data_seconds, r.fp_seconds,
              r.bp_seconds, r.opt_seconds, r.train_seconds);
  FlushObservability(rank);
  return 0;
}

}  // namespace
}  // namespace egeria

int main(int argc, char** argv) { return egeria::Main(argc, argv); }
