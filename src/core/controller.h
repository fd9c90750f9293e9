// The Egeria controller (paper S4.1, Figs. 5-6).
//
// The controller owns the reference model's life cycle (generation by quantizing
// training snapshots, periodic refresh), runs reference forward passes, computes
// plasticity (SP loss between the worker's hooked activation and the reference's),
// and drives the freezing policy. In async mode it runs on its own thread — the
// paper's CPU-side, non-blocking evaluation — fed through SPSC queues:
//   IQ+TOQ  -> EvalRequest { batch, A_T at frontier, stage, lr, iter }
//   ROQ     -> computed internally (A_R from the reference forward)
//   DQ      -> FreezeDecision back to the worker
// The worker never blocks: submissions are try-push (a dropped evaluation is just a
// skipped periodic sample), and decisions are drained opportunistically each
// iteration. Synchronous mode runs the same code inline for deterministic tests.
//
// Both training loops (Trainer, and TrainRank on rank 0) drive the controller
// through the same four per-iteration duties, called in this relative order:
// TakeDecisions, MaybeSnapshot, MaybeSubmitEval, UpdateBootstrap. The last one
// is the bootstrapping monitor (paper S4.2.2): no snapshot or evaluation is
// taken until the training-loss change rate falls below bootstrap_change_rate
// (or max_bootstrap_iters passes).
#ifndef EGERIA_SRC_CORE_CONTROLLER_H_
#define EGERIA_SRC_CORE_CONTROLLER_H_

#include <atomic>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/core/config.h"
#include "src/core/freezing_policy.h"
#include "src/core/spsc_queue.h"
#include "src/data/batch.h"
#include "src/models/chain_model.h"

namespace egeria {

struct EvalRequest {
  Batch batch;       // the mini-batch (IQ)
  Tensor train_act;  // A_T hooked at the frontier stage (TOQ)
  int stage = 0;
  float lr = 0.0F;
  int64_t iter = 0;
};

// One plasticity sample, kept for introspection (Fig. 4 / Fig. 12 benches, tests).
struct PlasticityRecord {
  int64_t iter = 0;
  int stage = 0;
  double raw = 0.0;
};

class EgeriaController {
 public:
  EgeriaController(const EgeriaConfig& cfg, int num_stages, bool lr_annealing);
  ~EgeriaController();

  EgeriaController(const EgeriaController&) = delete;
  EgeriaController& operator=(const EgeriaController&) = delete;

  // ---- Per-iteration duties (training thread) ----

  // Decision intake: in synchronous mode first runs the queued snapshot/eval
  // work inline; then returns the decisions produced since the last call,
  // followed by the LR-based unfreeze check's, in the order to apply them.
  std::vector<FreezeDecision> TakeDecisions(float lr, int64_t iter);

  // Submits a float snapshot of `model` (the paper's GPU->CPU copy) when the
  // knowledge-guided stage has begun and the controller wants one.
  void MaybeSnapshot(const ChainModel& model);

  // Queues a plasticity evaluation of stage `frontier` on this iteration's
  // forward pass: every eval_interval_n iterations of the knowledge-guided
  // stage, while a stage outside protected_tail is still active. Returns
  // whether the evaluation was queued.
  bool MaybeSubmitEval(const ChainModel& model, const Batch& batch, int frontier,
                       float lr, int64_t iter);

  // Bootstrapping monitor, fed each iteration's training loss until the
  // knowledge-guided stage begins: the change rate of the loss averaged over
  // windows of eval_interval_n iterations, or the max_bootstrap_iters cap.
  void UpdateBootstrap(double loss, int64_t iter);
  // Iteration the bootstrapping stage ended at; -1 while it lasts.
  int64_t BootstrapEndIter() const { return bootstrap_end_iter_; }
  bool InKnowledgeStage() const { return bootstrap_end_iter_ >= 0; }

  // ---- Worker-side primitives ----

  // Hands over a float snapshot of the training model; the controller quantizes it
  // into the reference (paper: snapshot moved off-GPU, then int8 PTQ on CPU).
  void SubmitSnapshot(std::unique_ptr<ChainModel> snapshot);

  // True when the controller wants a fresh snapshot (initial generation was done and
  // ref_update_evals evaluations have elapsed since the last refresh).
  bool WantsSnapshot() const { return wants_snapshot_.load(); }

  // Non-blocking; false if the controller is congested (the evaluation is skipped).
  bool SubmitEval(EvalRequest req);

  // Decisions produced since the last drain (freeze + unfreeze).
  std::vector<FreezeDecision> DrainDecisions();

  // Synchronous mode only: process all queued snapshots/evals inline.
  void RunPendingSync();

  bool HasReference() const { return has_reference_.load(); }
  int64_t EvalsDone() const { return evals_done_.load(); }
  double EvalSeconds() const;
  std::vector<PlasticityRecord> PlasticityHistory() const;
  int Frontier() const;

  // Generation time of the last reference build (Table 2 / S6.5 overhead).
  double LastQuantizeSeconds() const { return last_quantize_seconds_.load(); }

  // ---- Checkpoint support ----
  // Serializes the full decision state: the bootstrapping monitor, the
  // freezing policy, refresh bookkeeping, plasticity history, undrained freeze decisions, and — when a
  // reference exists — the float snapshot the current reference was quantized
  // from (quantization is deterministic, so the reference is rebuilt
  // bit-identically on restore).
  //
  // Synchronous controllers (async_controller=false) round-trip bitwise: the
  // save first runs the pending snapshot/eval work inline — exactly the
  // computation the next iteration's RunPendingSync would have done, moved
  // across an iteration boundary where nothing else computes — then persists
  // the resulting decisions (re-enqueueing them, so a save not followed by a
  // crash changes nothing). In async mode queued evaluations are not captured
  // (dropping an eval is legal by design, but bitwise resume is then not
  // guaranteed). Call RestoreState before submitting any work.
  void SaveState(std::ostream& os);
  // `make_snapshot` must produce a model structurally identical to the
  // snapshots the trainer submits (a float CloneForInference of the training
  // model); saved weights are loaded into it before the reference rebuild.
  // Returns false (and logs) on a malformed or mismatched blob.
  bool RestoreState(std::istream& is,
                    const std::function<std::unique_ptr<ChainModel>()>& make_snapshot);

 private:
  void ControllerLoop();
  void BuildReference(std::unique_ptr<ChainModel> snapshot);
  void ProcessEval(EvalRequest& req);

  EgeriaConfig cfg_;
  std::unique_ptr<InferenceFactory> factory_;

  mutable std::mutex policy_mutex_;
  FreezingPolicy policy_;

  // Serializes the controller thread's reference lifecycle (BuildReference
  // reassigns reference_/ref_snapshot_, ProcessEval mutates observer state and
  // the refresh counter) against SaveState walking those structures from the
  // training thread. Uncontended in synchronous mode; in async mode it is
  // what makes a mid-training checkpoint safe (a queued eval may still be
  // dropped — async saves are best-effort, not bitwise).
  mutable std::mutex reference_mutex_;
  std::unique_ptr<ChainModel> reference_;
  // The float snapshot reference_ was quantized from, retained so checkpoints
  // can persist (and deterministically rebuild) the reference.
  std::unique_ptr<ChainModel> ref_snapshot_;
  std::atomic<bool> has_reference_{false};
  std::atomic<bool> wants_snapshot_{true};  // initial generation
  std::atomic<int64_t> evals_done_{0};
  std::atomic<double> last_quantize_seconds_{0.0};
  int64_t evals_since_refresh_ = 0;

  SpscQueue<EvalRequest> eval_queue_;
  SpscQueue<std::unique_ptr<ChainModel>> snapshot_queue_;
  SpscQueue<FreezeDecision> decision_queue_;

  mutable std::mutex history_mutex_;
  std::vector<PlasticityRecord> history_;
  double eval_seconds_ = 0.0;

  // Bootstrapping monitor (training thread only).
  double bootstrap_prev_avg_ = -1.0;
  double bootstrap_window_sum_ = 0.0;
  int64_t bootstrap_window_count_ = 0;
  int64_t bootstrap_end_iter_ = -1;

  std::atomic<bool> stopping_{false};
  std::thread thread_;  // joinable only in async mode
};

}  // namespace egeria

#endif  // EGERIA_SRC_CORE_CONTROLLER_H_
