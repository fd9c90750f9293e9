// The Egeria training loop (paper Fig. 3).
//
// Life cycle: (1) bootstrapping stage — no freezing; the controller's monitor
// watches the training-loss change rate and enters the knowledge-guided stage
// once it falls below the configured threshold (the "critical period" guard).
// (2) knowledge-guided stage — the controller holds a quantized reference model;
// every n iterations the worker submits the mini-batch and the frontier
// activation for asynchronous plasticity evaluation; freeze/unfreeze decisions
// are drained and applied at iteration boundaries. The loop only calls the
// controller's per-iteration duties (controller.h), the same calls the
// distributed TrainRank makes. Frozen stages are excluded from backward
// computation, parameter updates (releasing their optimizer state), and — when
// the cache is enabled — from forward computation via cached boundary
// activations.
//
// The same Trainer also hosts the comparison baselines through FreezeHook (static
// freezing, AutoFreeze, Skip-Conv gate, FreezeOut), so every system shares one loop.
#ifndef EGERIA_SRC_CORE_TRAINER_H_
#define EGERIA_SRC_CORE_TRAINER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/ckpt/checkpoint.h"
#include "src/core/activation_cache.h"
#include "src/core/config.h"
#include "src/core/controller.h"
#include "src/core/task.h"
#include "src/data/dataloader.h"
#include "src/models/chain_model.h"
#include "src/optim/lr_scheduler.h"
#include "src/optim/optimizer.h"

namespace egeria {

struct TrainConfig {
  int epochs = 20;
  int64_t batch_size = 16;
  TaskSpec task;

  enum class Optim { kSgd, kAdam };
  Optim optimizer = Optim::kSgd;
  float momentum = 0.9F;
  float weight_decay = 1e-4F;
  std::shared_ptr<LrScheduler> lr_schedule;  // required

  // Higher-better target (see TaskMetric::score). TTA is the cumulative training
  // time at the first epoch whose validation score reaches it.
  double target_score = std::numeric_limits<double>::infinity();
  int64_t val_batches = 8;
  int64_t train_samples_limit = -1;  // subsample the train set (quick benches)
  uint64_t seed = 42;
  bool verbose = false;

  bool enable_egeria = false;
  EgeriaConfig egeria;

  // Fault tolerance: when checkpoint.enabled(), Run() snapshots the full
  // training state (model + BN stats, optimizer state, freeze frontier,
  // controller state with its bootstrap monitor, loop cursors) every
  // interval_iters iterations and — if the directory already holds a
  // complete checkpoint — resumes from the latest one instead of starting
  // over. Bitwise-resume contract: with a deterministic configuration
  // (synchronous controller), a run checkpointed at iteration k and resumed
  // produces final weights bit-identical to the uninterrupted run. Timing
  // fields of TrainResult (TTA, per-epoch seconds) cover only the resumed
  // segment.
  CheckpointOptions checkpoint;

  // Stop cleanly after this many iterations (a final checkpoint is written if
  // checkpointing is enabled); <0 runs to completion. Crash-drill hook for
  // resume tests and benches.
  int64_t stop_after_iters = -1;
};

struct FreezeEvent {
  int64_t iter = 0;
  int epoch = 0;
  bool unfreeze = false;
  int frontier_after = 0;
};

struct EpochStats {
  int epoch = 0;
  double train_loss = 0.0;
  TaskMetric val;
  double train_seconds = 0.0;      // this epoch, excluding validation
  double cum_train_seconds = 0.0;  // since start, excluding validation
  int frontier = 0;
  float lr = 0.0F;
  // Frozen-prefix forward accounting for this epoch: seconds actually spent
  // computing the frozen prefix (miss/populate iterations only when the
  // feature store serves) and the number of iterations served from the store.
  double frozen_fp_seconds = 0.0;
  int64_t fp_skips = 0;
};

struct TrainResult {
  std::vector<EpochStats> epochs;
  std::vector<FreezeEvent> freeze_events;
  std::vector<std::pair<int64_t, int>> frontier_timeline;  // (iter, frontier)

  double total_train_seconds = 0.0;
  double tta_seconds = -1.0;  // <0: target never reached
  bool reached_target = false;
  TaskMetric final_metric;
  TaskMetric best_metric;

  // Breakdown (Fig. 9) and overhead accounting (S6.5).
  double fp_seconds = 0.0;
  double bp_seconds = 0.0;
  double opt_seconds = 0.0;
  double cache_seconds = 0.0;
  double data_seconds = 0.0;
  int64_t iterations = 0;
  int64_t fp_skip_count = 0;
  // Forward seconds spent inside the frozen prefix (only measurable while the
  // frontier is within MaxForwardSkipStage; zero before any freeze). With the
  // feature store on, this collapses to the populate pass — the fig09 smoke's
  // frozen_forward_saved_s metric is the off/on difference.
  double frozen_fp_seconds = 0.0;
  // Iterations where the store was enabled but declined to serve (epoch-varying
  // augmentation signature, or a stochastic module in the prefix).
  int64_t cache_declined_iters = 0;
  int64_t evals_submitted = 0;
  int64_t bootstrap_end_iter = -1;
  CacheStats cache;
  std::vector<PlasticityRecord> plasticity;
  int final_frontier = 0;
  double last_ref_quantize_seconds = 0.0;

  // Checkpoint/restore bookkeeping: iteration the run resumed from (-1 = fresh
  // start) and whether stop_after_iters ended the run before cfg.epochs.
  int64_t resumed_from_iter = -1;
  bool stopped_early = false;
};

class Trainer;

// Baseline freezing policies plug in here; called once per iteration after the
// backward pass (gradients of active stages are available).
class FreezeHook {
 public:
  virtual ~FreezeHook() = default;
  virtual void OnIteration(Trainer& trainer, const Batch& batch, int64_t iter) = 0;
  virtual std::string Name() const = 0;
};

class Trainer {
 public:
  Trainer(ChainModel& model, const Dataset& train_data, const Dataset& val_data,
          TrainConfig cfg);
  ~Trainer();

  void SetFreezeHook(FreezeHook* hook) { hook_ = hook; }

  TrainResult Run();

  // ---- API for freezing policies / hooks ----
  void FreezeUpTo(int stage, int64_t iter);
  void UnfreezeAll(int64_t iter);
  int frontier() const { return frontier_; }
  ChainModel& model() { return model_; }
  const TrainConfig& config() const { return cfg_; }
  int64_t IterationsPerEpoch() const;
  int64_t TotalIterations() const;
  // Output of the frontmost active stage in the current iteration's forward pass.
  Tensor FrontierActivation() const;
  // Resident optimizer-state bytes. Freezing releases the frozen prefix's
  // state (the optimizer-state half of freezing's memory saving); parameters
  // re-activated by a later unfreeze restart from zero state, matching the
  // ZeRO-1 sharded path.
  int64_t OptimizerStateBytes() const { return optimizer_->StateBytes(); }

  // Runs validation (val_batches batches) in inference mode and restores training
  // mode. Also used standalone by benches.
  TaskMetric Validate();

 private:
  void ApplyDecision(const FreezeDecision& d);
  std::unique_ptr<Optimizer> MakeOptimizer() const;
  // Writes a complete checkpoint for `iter` completed iterations (manifest
  // committed last) and applies retention. Logged best-effort: a failed save
  // never aborts training.
  void SaveTrainingCheckpoint(int64_t iter);
  // Restores the latest complete checkpoint; returns the iteration to resume
  // after, or -1 when there is nothing (or nothing usable) to resume from.
  int64_t TryResume();
  // FNV hash over the frozen prefix's parameter values (stages [0, frontier_)).
  // Recomputed whenever the frontier moves or weights are restored; together
  // with the augmentation signature it forms the feature store's generation
  // token, so stale boundary activations can never be served.
  uint64_t FrozenPrefixHash();
  // Generation token for ActivationCache::SetKey: mix of the frozen-prefix
  // parameter hash and the epoch-stable augmentation signature. Never 0 (0 is
  // the cache's legacy unkeyed mode).
  uint64_t CacheGeneration() const;

  ChainModel& model_;
  const Dataset& train_data_;
  const Dataset& val_data_;
  TrainConfig cfg_;

  DataLoader loader_;
  DataLoader val_loader_;
  std::unique_ptr<Optimizer> optimizer_;
  std::unique_ptr<EgeriaController> controller_;
  std::unique_ptr<ActivationCache> cache_;
  FreezeHook* hook_ = nullptr;

  int frontier_ = 0;
  // Feature-store keying state: hash of the frozen prefix's parameters, the
  // current epoch's augmentation signature, and whether the dataset declared
  // this epoch's stream cacheable (signature stable across epochs).
  uint64_t frozen_prefix_hash_ = 0;
  uint64_t aug_signature_ = 0;
  bool store_cacheable_ = true;
  // Precision the frozen prefix's forward ACTUALLY runs at. Differs from
  // cfg_.egeria.frozen_prefix_precision when the model rejects forward
  // substitution (e.g. the encoder-decoder Transformer) — the cache key must
  // reflect the bits that were really computed.
  Precision prefix_precision_ = Precision::kFloat32;

  TrainResult result_;
};

}  // namespace egeria

#endif  // EGERIA_SRC_CORE_TRAINER_H_
