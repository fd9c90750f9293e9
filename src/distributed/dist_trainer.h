// Data-parallel training harness (the paper's Fig. 5 controller-worker layout
// at process scale): K workers hold model replicas, train on disjoint shards
// of each batch permutation, and synchronize gradients with a real all-reduce.
// Rank 0 co-locates the Egeria controller; freeze/unfreeze decisions travel as
// control-plane broadcast messages and are applied at iteration boundaries, and
// frozen stages drop out of the synchronization payload (the Fig. 10 traffic
// saving).
//
// The per-rank loop (TrainRank) runs over a byte-oriented Transport, so the
// same code serves two deployments:
//   - TrainDataParallel: the in-process harness — ranks are threads over an
//     InprocTransportGroup (or, for validation, TCP sockets between threads).
//   - tools/egeria_worker.cc: one rank per OS process over MakeTcpTransport,
//     launched by SpawnWorld / scripts/launch_dist.sh.
//
// Default synchronization is a ring reduce-scatter/all-gather with ZeRO-1
// optimizer-state sharding: each rank owns one contract chunk of the flattened
// active-parameter space, applies the optimizer update for its shard, and the
// all-gather circulates updated parameters. That round is always run by
// OverlapReducer (overlap_reducer.h), over per-stage buckets during backward
// or one bucket after it. The freeze frontier re-partitions shards, so frozen
// parameters leave both the ring payload and per-rank optimizer memory. The
// rank-0 star reduce survives as the sequential reference implementation that
// tests and bench/fig10_distributed compare against bitwise (in-process only:
// it reads peers' gradients through shared memory; it does not checkpoint).
#ifndef EGERIA_SRC_DISTRIBUTED_DIST_TRAINER_H_
#define EGERIA_SRC_DISTRIBUTED_DIST_TRAINER_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/ckpt/checkpoint.h"
#include "src/core/config.h"
#include "src/core/task.h"
#include "src/data/dataloader.h"
#include "src/distributed/transport/transport.h"
#include "src/models/chain_model.h"
#include "src/optim/lr_scheduler.h"

namespace egeria {

class GradientAllReducer;

struct DistTrainConfig {
  int world = 2;
  int epochs = 4;
  int64_t batch_size = 8;  // per worker
  TaskSpec task;
  float momentum = 0.9F;
  float weight_decay = 1e-4F;
  std::shared_ptr<LrScheduler> lr_schedule;
  uint64_t seed = 42;
  int64_t val_batches = 4;

  // Gradient synchronization + optimizer layout. Both implement the same
  // reduction contract, so they produce bitwise-identical trained weights (on
  // monotone-freezing runs; see sharded_optimizer.h for the unfreeze caveat).
  // The reference exists to be compared against: it runs in-process only and
  // does not checkpoint (TrainRank CHECK-fails when ckpt.dir is set).
  enum class Reducer {
    kRingSharded,           // ring reduce-scatter/all-gather + ZeRO-1 shards
    kSequentialReference,   // rank-0 star reduce + fully replicated optimizer
  };
  Reducer reducer = Reducer::kRingSharded;

  // How the in-process harness (TrainDataParallel) wires its ranks together.
  // kTcp runs every collective over real localhost sockets — same arithmetic,
  // actual bytes on a wire — and requires reducer == kRingSharded.
  enum class TransportKind { kInproc, kTcp };
  TransportKind transport = TransportKind::kInproc;

  // Bucket layout of the ring-sharded path's one ZeRO-1 round
  // (overlap_reducer.h). true: per-stage buckets, each stage's ring
  // reduce-scatter/step/all-gather run by the comm thread the moment that
  // stage's backward finishes, front-most ready bucket first, overlapping the
  // remaining backward. false: one bucket over the whole active space, run
  // after backward (no overlap). Bitwise-identical by the reduction contract.
  bool overlap_comm = true;

  // Coalesce adjacent per-stage buckets until each holds at least this many
  // elements. Every bucket pays fixed costs (one agreement round + per-hop
  // ring latency on clipped chunks), so models with many small stages lose
  // the overlap win to launch overhead. Coalescing is bitwise-free: the
  // bucket partition never changes element ownership or fold order (both
  // derive from the GLOBAL contract chunking), and backward runs deep to
  // front, so a merged bucket is complete exactly when its front-most stage's
  // backward finishes. 0 = one bucket per stage. Ignored without overlap_comm.
  int64_t overlap_min_bucket_elems = 16384;

  bool enable_egeria = false;
  EgeriaConfig egeria;

  // Fault tolerance: when ckpt.enabled(), every rank persists its ZeRO-1
  // momentum shard each interval, rank 0 commits the manifest (model state,
  // controller state, loop cursors) after a barrier, and a world started
  // against a directory holding a complete checkpoint resumes from it. The
  // saved world size need not match the resuming one: shards are re-folded
  // through the reduction-contract partition (elastic restart). Bitwise-resume
  // contract: resuming at the SAME world size reproduces the uninterrupted
  // run's final weights bit-for-bit; an elastic resume is bitwise-equal to any
  // other resume of the same checkpoint at the new world size (in-process or
  // multi-process).
  CheckpointOptions ckpt;

  // Stop every rank cleanly after this many iterations (a final checkpoint is
  // written when checkpointing is enabled); <0 runs to completion. All ranks
  // share the config, so the world stops in lockstep.
  int64_t stop_after_iters = -1;

  // Frame integrity: wrap every rank's transport in IntegrityTransport
  // (checksums + sequence numbers on all collective frames; see
  // transport/integrity_transport.h). Adds a 16-byte header per frame but no
  // semantics, so all bitwise pins hold with it on. The multi-process worker
  // has its own flag (egeria_worker --integrity).
  bool frame_integrity = true;

  // Test hook: invoked at the top of every iteration on every rank (fault
  // injection for the multi-process launcher tests). Null = no-op.
  std::function<void(int rank, int64_t iter)> iteration_hook;
};

// One entry per shard (re)partition in the ring-sharded path: the initial
// partition plus one per freeze-frontier move. Captures the Fig. 10 scaling
// argument: the ring payload, per-rank optimizer state, AND measured all-reduce
// seconds all shrink as stages freeze.
struct DistReshardEvent {
  int64_t iter = 0;
  int frontier = 0;
  int64_t active_elems = 0;             // flattened active-parameter elements
  int64_t payload_bytes_per_iter = 0;   // ring payload at this frontier
  int64_t opt_state_bytes_per_rank = 0; // rank 0's velocity shard bytes
  // Measured mean wall seconds rank 0 spent in ring collectives per iteration
  // while this frontier was in effect (i.e. over [iter, next event's iter)).
  double allreduce_seconds_per_iter = 0.0;
  // Overlap split of that comm time: the share hidden behind backward compute
  // vs exposed past the end of backward (hidden is ~0 without overlap_comm).
  // hidden + exposed ≈ allreduce + agreement traffic; hidden is the Fig. 10
  // win the per-stage layout buys on a real wire.
  double comm_hidden_s_per_iter = 0.0;
  double comm_exposed_s_per_iter = 0.0;
};

// What one rank's training loop produces. rank 0 additionally validates and
// carries the reshard timeline.
struct RankTrainResult {
  int rank = 0;
  uint64_t params_hash = 0;        // FNV-1a over this rank's final weights
  int final_frontier = 0;
  int64_t iterations = 0;
  int64_t bytes_synced = 0;        // logical payload (sum of active grad bytes)
  int64_t bytes_full_model = 0;    // payload if nothing were frozen
  int64_t wire_bytes = 0;          // bytes this rank pushed onto its ring link
  double allreduce_seconds = 0.0;  // wall seconds in ring collectives
  double comm_hidden_seconds = 0.0;   // comm hidden behind backward (overlap)
  double comm_exposed_seconds = 0.0;  // comm exposed past backward (overlap)
  double final_score = 0.0;        // rank 0 only
  double final_display = 0.0;      // rank 0 only
  // Per-phase wall seconds for this rank's loop, measured by the same
  // obs::ScopedPhase intervals that emit the trace spans and feed the metrics
  // registry — tools/egeria_trace reconciles merged traces against these
  // (egeria_worker prints them on its EGERIA_RESULT line).
  double data_seconds = 0.0;
  double fp_seconds = 0.0;
  double bp_seconds = 0.0;
  double opt_seconds = 0.0;        // reference reducer only: the ring path
                                   // steps on the comm thread
  double train_seconds = 0.0;      // whole-loop wall time (epoch loop only)
  int64_t resumed_from_iter = -1;  // checkpoint iteration resumed from, -1 = fresh
  bool stopped_early = false;      // stop_after_iters ended the run
  // Why the loop ended: ok() for a clean run; otherwise the first transport
  // error this rank observed (peer death, corrupt frame, coordinated abort).
  // On error the model/metrics fields reflect the last completed iteration —
  // no partial collective output is ever consumed.
  TransportStatus status;
  std::vector<DistReshardEvent> reshard_events;  // rank 0, ring-sharded only
  std::unique_ptr<ChainModel> model;             // the trained replica
};

struct DistTrainResult {
  double final_score = 0.0;
  double final_display = 0.0;
  int64_t bytes_synced = 0;        // logical payload (sum of active grad bytes)
  int64_t bytes_full_model = 0;    // payload if nothing were frozen
  int64_t wire_bytes = 0;          // bytes that traversed ring links, summed
                                   // over ranks (0 for the sequential
                                   // reference path)
  double allreduce_seconds = 0.0;  // rank 0's measured collective seconds
  double comm_hidden_seconds = 0.0;   // rank 0's comm hidden behind backward
  double comm_exposed_seconds = 0.0;  // rank 0's comm exposed past backward
  int final_frontier = 0;
  int64_t iterations = 0;
  bool replicas_consistent = false;  // replicas bit-identical at the end
  uint64_t params_hash = 0;          // FNV-1a over replica 0's final weights
  int64_t resumed_from_iter = -1;    // rank 0's resume point (-1 = fresh start)
  bool stopped_early = false;
  // First non-ok rank status (any error forces replicas_consistent = false).
  TransportStatus status;
  std::vector<DistReshardEvent> reshard_events;  // ring-sharded path only
};

// One rank's full training loop over `transport`. Collective: every rank of
// the world must call this concurrently with an identical config and a
// deterministic `make_model` (same architecture AND same seed per call; rank
// 0's initial weights are additionally broadcast so replicas start
// bit-identical even if seeding diverges). `reference_reducer` must be non-null
// iff cfg.reducer == kSequentialReference (in-process threads only); that
// reducer requires an empty cfg.ckpt.dir.
RankTrainResult TrainRank(
    Transport& transport,
    const std::function<std::unique_ptr<ChainModel>()>& make_model,
    const Dataset& train_data, const Dataset& val_data, const DistTrainConfig& cfg,
    GradientAllReducer* reference_reducer = nullptr);

// In-process harness: spawns cfg.world rank threads over the configured
// transport and aggregates their RankTrainResults.
DistTrainResult TrainDataParallel(
    const std::function<std::unique_ptr<ChainModel>()>& make_model,
    const Dataset& train_data, const Dataset& val_data, const DistTrainConfig& cfg);

}  // namespace egeria

#endif  // EGERIA_SRC_DISTRIBUTED_DIST_TRAINER_H_
