#include "src/core/trainer.h"

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "src/ckpt/state_dict.h"
#include "src/ckpt/wire.h"
#include "src/obs/metrics.h"
#include "src/obs/phase.h"
#include "src/obs/trace.h"
#include "src/tensor/serialize.h"
#include "src/util/logging.h"
#include "src/util/timer.h"

namespace egeria {

namespace {

std::string DefaultCacheDir(uint64_t seed) {
  const auto base = std::filesystem::temp_directory_path() / "egeria_cache";
  return (base / std::to_string(::getpid() * 1000003ULL + seed)).string();
}

}  // namespace

Trainer::Trainer(ChainModel& model, const Dataset& train_data, const Dataset& val_data,
                 TrainConfig cfg)
    : model_(model),
      train_data_(train_data),
      val_data_(val_data),
      cfg_(std::move(cfg)),
      loader_(train_data_, cfg_.batch_size, /*shuffle=*/true, cfg_.seed,
              cfg_.train_samples_limit),
      val_loader_(val_data_, cfg_.batch_size, /*shuffle=*/false, cfg_.seed + 1) {
  EGERIA_CHECK_MSG(cfg_.lr_schedule != nullptr, "TrainConfig.lr_schedule is required");
  optimizer_ = MakeOptimizer();
  if (cfg_.enable_egeria) {
    controller_ = std::make_unique<EgeriaController>(cfg_.egeria, model_.NumStages(),
                                                     cfg_.lr_schedule->IsAnnealing());
    if (cfg_.egeria.enable_cache) {
      // Persistence policy: an explicit cache_dir is the caller opting into a
      // durable store; with checkpointing on, the store lives next to the
      // checkpoints so a crash/resume cycle re-adopts it (generation keys make
      // adoption safe). Only the anonymous per-pid temp dir is ephemeral.
      std::string dir = cfg_.egeria.cache_dir;
      bool persistent = !dir.empty();
      if (dir.empty() && cfg_.checkpoint.enabled()) {
        dir = cfg_.checkpoint.dir + "/feature_store";
        persistent = true;
      }
      if (dir.empty()) {
        dir = DefaultCacheDir(cfg_.seed);
      }
      cache_ = std::make_unique<ActivationCache>(
          dir, cfg_.egeria.cache_memory_batches * cfg_.batch_size,
          cfg_.egeria.cache_max_disk_bytes, persistent);
    }
  }
}

Trainer::~Trainer() = default;

std::unique_ptr<Optimizer> Trainer::MakeOptimizer() const {
  if (cfg_.optimizer == TrainConfig::Optim::kSgd) {
    return std::make_unique<Sgd>(cfg_.momentum, cfg_.weight_decay);
  }
  return std::make_unique<Adam>(0.9F, 0.999F, 1e-8F, cfg_.weight_decay);
}

int64_t Trainer::IterationsPerEpoch() const { return loader_.NumBatches(); }

int64_t Trainer::TotalIterations() const {
  return IterationsPerEpoch() * static_cast<int64_t>(cfg_.epochs);
}

Tensor Trainer::FrontierActivation() const { return model_.StageOutput(frontier_); }

uint64_t Trainer::FrozenPrefixHash() {
  uint64_t h = kFnv64Offset;
  for (int i = 0; i < frontier_; ++i) {
    for (Parameter* p : model_.StageParams(i)) {
      h = Fnv1a64(p->value.Data(),
                  static_cast<size_t>(p->value.NumEl()) * sizeof(float), h);
    }
  }
  return h;
}

uint64_t Trainer::CacheGeneration() const {
  const uint64_t gen = Fnv1a64(&aug_signature_, sizeof(aug_signature_), frozen_prefix_hash_);
  return gen == 0 ? 1 : gen;  // 0 is ActivationCache's legacy unkeyed mode.
}

void Trainer::FreezeUpTo(int stage, int64_t iter) {
  EGERIA_CHECK(stage >= 0 && stage < model_.NumStages() - 1);
  const int old_frontier = frontier_;
  bool sub_applied = cfg_.egeria.frozen_prefix_precision != Precision::kFloat32;
  for (int i = 0; i <= stage; ++i) {
    model_.SetStageFrozen(i, true);
    if (cfg_.egeria.frozen_prefix_precision != Precision::kFloat32) {
      // Frozen stages never see backward or updates again until an unfreeze,
      // so their forwards can run through the reduced-precision kernels (the
      // chain model keeps the clone until the precision is reset below).
      sub_applied = model_.SetStageForwardPrecision(i, cfg_.egeria.frozen_prefix_precision) &&
                    sub_applied;
    }
  }
  prefix_precision_ =
      sub_applied ? cfg_.egeria.frozen_prefix_precision : Precision::kFloat32;
  frontier_ = stage + 1;
  frozen_prefix_hash_ = FrozenPrefixHash();
  if (cfg_.release_frozen_optimizer_state && frontier_ > old_frontier) {
    // The newly frozen params are the prefix of the previously active list
    // that the new active list no longer contains.
    std::vector<Parameter*> was_active = model_.ParamsFrom(old_frontier);
    const size_t still_active = model_.ParamsFrom(frontier_).size();
    EGERIA_CHECK(was_active.size() >= still_active);
    was_active.resize(was_active.size() - still_active);
    optimizer_->ReleaseState(was_active);
  }
  if (frontier_observer_ && frontier_ != old_frontier) {
    frontier_observer_(old_frontier, frontier_, iter);
  }
  result_.freeze_events.push_back({iter, static_cast<int>(iter / IterationsPerEpoch()),
                                   /*unfreeze=*/false, frontier_});
  result_.frontier_timeline.emplace_back(iter, frontier_);
  if (cfg_.verbose) {
    EGERIA_LOG(kInfo) << "iter " << iter << ": froze stages [0," << stage
                      << "], frontier=" << frontier_;
  }
}

void Trainer::UnfreezeAll(int64_t iter) {
  const int old_frontier = frontier_;
  for (int i = 0; i < model_.NumStages(); ++i) {
    model_.SetStageFrozen(i, false);
    model_.SetStageForwardPrecision(i, Precision::kFloat32);
  }
  frontier_ = 0;
  frozen_prefix_hash_ = 0;
  prefix_precision_ = Precision::kFloat32;
  if (frontier_observer_ && old_frontier != 0) {
    frontier_observer_(old_frontier, 0, iter);
  }
  if (cache_ != nullptr) {
    cache_->Clear();  // Prefix weights will change; cached activations are stale.
  }
  result_.freeze_events.push_back({iter, static_cast<int>(iter / IterationsPerEpoch()),
                                   /*unfreeze=*/true, 0});
  result_.frontier_timeline.emplace_back(iter, 0);
  if (cfg_.verbose) {
    EGERIA_LOG(kInfo) << "iter " << iter << ": unfroze all layers";
  }
}

void Trainer::ApplyDecision(const FreezeDecision& d) {
  if (d.kind == FreezeDecision::Kind::kFreezeUpTo) {
    FreezeUpTo(d.stage, d.iter);
  } else {
    UnfreezeAll(d.iter);
  }
}

void Trainer::MaybeSubmitEval(const Batch& batch, float lr, int64_t iter) {
  if (controller_ == nullptr || !knowledge_stage_) {
    return;
  }
  if (iter % cfg_.egeria.eval_interval_n != 0) {
    return;
  }
  if (frontier_ >= model_.NumStages() - 1 - cfg_.egeria.protected_tail + 1) {
    return;  // Nothing left that may freeze.
  }
  EvalRequest req;
  req.batch = batch;
  req.train_act = model_.StageOutput(frontier_);
  req.stage = frontier_;
  req.lr = lr;
  req.iter = iter;
  if (controller_->SubmitEval(std::move(req))) {
    ++result_.evals_submitted;
  }
}

void Trainer::UpdateBootstrap(double loss, int64_t iter) {
  // Change rate of the window-averaged training loss, sampled every n iterations
  // (paper: permissively 10%). Entering the knowledge-guided stage triggers the
  // first reference snapshot.
  bootstrap_window_sum_ += loss;
  ++bootstrap_window_count_;
  if (cfg_.egeria.max_bootstrap_iters >= 0 && iter >= cfg_.egeria.max_bootstrap_iters) {
    knowledge_stage_ = true;
    result_.bootstrap_end_iter = iter;
    return;
  }
  if (iter % cfg_.egeria.eval_interval_n != 0) {
    return;
  }
  const double avg = bootstrap_window_sum_ / static_cast<double>(bootstrap_window_count_);
  bootstrap_window_sum_ = 0.0;
  bootstrap_window_count_ = 0;
  if (bootstrap_prev_avg_ > 0.0) {
    const double rate = std::abs(bootstrap_prev_avg_ - avg) / bootstrap_prev_avg_;
    if (rate < cfg_.egeria.bootstrap_change_rate) {
      knowledge_stage_ = true;
      result_.bootstrap_end_iter = iter;
      if (cfg_.verbose) {
        EGERIA_LOG(kInfo) << "bootstrapping stage ended at iter " << iter;
      }
    }
  }
  bootstrap_prev_avg_ = avg;
}

namespace {
constexpr uint32_t kTrainerStateMagic = 0x52544745;  // 'EGTR'
constexpr uint32_t kTrainerStateVersion = 1;
}  // namespace

void Trainer::SaveTrainingCheckpoint(int64_t iter) {
  obs::ScopedPhase ckpt_phase("ckpt", "trainer_save",
                              &obs::GetHistogram("ckpt.save_s"));
  CkptManifest m;
  m.kind = "trainer";
  m.iter = iter;
  m.world = 1;
  m.frontier = frontier_;
  m.next_frontier = frontier_;
  m.dir = CheckpointStepDir(cfg_.checkpoint.dir, iter);
  if (!EnsureDir(m.dir)) {
    return;
  }

  // Model state dict + optimizer state share one checkpoint file (the "#field"
  // optimizer keys cannot collide with state-dict names).
  Checkpoint state = ExportModelState(model_);
  std::vector<Parameter*> params;
  std::vector<std::string> names;
  auto named = NamedParams(model_);
  for (auto& [name, p] : named) {
    names.push_back(std::move(name));
    params.push_back(p);
  }
  optimizer_->ExportState(params, names, state);
  bool ok = SaveCheckpoint(m.dir + "/model.state", state) &&
            AddManifestFile(m, "model.state");

  {
    std::ofstream os(m.dir + "/trainer.state", std::ios::binary | std::ios::trunc);
    wire::Write(os, kTrainerStateMagic);
    wire::Write(os, kTrainerStateVersion);
    wire::Write(os, iter);
    wire::Write(os, static_cast<int32_t>(frontier_));
    wire::Write(os, static_cast<uint8_t>(knowledge_stage_ ? 1 : 0));
    wire::Write(os, bootstrap_prev_avg_);
    wire::Write(os, bootstrap_window_sum_);
    wire::Write(os, bootstrap_window_count_);
    wire::Write(os, result_.bootstrap_end_iter);
    ok = ok && static_cast<bool>(os);
  }
  ok = ok && AddManifestFile(m, "trainer.state");

  if (controller_ != nullptr) {
    {
      std::ofstream os(m.dir + "/controller.state", std::ios::binary | std::ios::trunc);
      controller_->SaveState(os);
      ok = ok && static_cast<bool>(os);
    }
    ok = ok && AddManifestFile(m, "controller.state");
  }

  if (!ok || !CommitManifest(m)) {
    EGERIA_LOG(kError) << "checkpoint at iter " << iter
                       << " failed; training continues uncheckpointed";
    return;
  }
  ApplyRetention(cfg_.checkpoint.dir, cfg_.checkpoint.keep_last);
  if (cfg_.verbose) {
    EGERIA_LOG(kInfo) << "checkpointed iter " << iter << " -> " << m.dir;
  }
}

int64_t Trainer::TryResume() {
  const auto m = FindLatestCheckpoint(cfg_.checkpoint.dir);
  if (!m) {
    return -1;
  }
  if (m->kind != "trainer") {
    EGERIA_LOG(kError) << m->dir << " is a '" << m->kind
                       << "' checkpoint; Trainer cannot resume from it";
    return -1;
  }
  Checkpoint state;
  if (!LoadCheckpoint(m->dir + "/model.state", state)) {
    // Nothing restored yet: a fresh start from scratch is still sound.
    return -1;
  }
  // From here on the restore mutates live state (model weights first), so a
  // failure must be fatal: returning -1 would silently train a "fresh" run
  // from half-restored weights. These paths only fire when the checkpoint
  // does not match the configured model/optimizer — an operator error worth
  // stopping on, not papering over.
  EGERIA_CHECK_MSG(LoadModelState(state, model_),
                   m->dir + ": checkpoint does not match this model architecture");
  std::vector<Parameter*> params;
  std::vector<std::string> names;
  auto named = NamedParams(model_);
  for (auto& [name, p] : named) {
    names.push_back(std::move(name));
    params.push_back(p);
  }
  EGERIA_CHECK_MSG(optimizer_->ImportState(params, names, state),
                   m->dir + ": optimizer state does not match this configuration");

  std::ifstream is(m->dir + "/trainer.state", std::ios::binary);
  uint32_t magic = 0;
  uint32_t version = 0;
  int64_t iter = 0;
  int32_t frontier = 0;
  uint8_t knowledge_stage = 0;
  EGERIA_CHECK_MSG(wire::Read(is, magic) && magic == kTrainerStateMagic &&
                       wire::Read(is, version) && version == kTrainerStateVersion &&
                       wire::Read(is, iter) && wire::Read(is, frontier) &&
                       wire::Read(is, knowledge_stage) &&
                       wire::Read(is, bootstrap_prev_avg_) &&
                       wire::Read(is, bootstrap_window_sum_) &&
                       wire::Read(is, bootstrap_window_count_) &&
                       wire::Read(is, result_.bootstrap_end_iter),
                   m->dir + ": malformed trainer.state");
  EGERIA_CHECK(iter == m->iter);
  EGERIA_CHECK(frontier >= 0 && frontier < model_.NumStages());
  knowledge_stage_ = knowledge_stage != 0;

  // Reapply the freeze frontier (and the frozen prefix's reduced-precision
  // forward substitution) exactly as FreezeUpTo left it.
  frontier_ = frontier;
  bool sub_applied =
      frontier_ > 0 && cfg_.egeria.frozen_prefix_precision != Precision::kFloat32;
  for (int i = 0; i < model_.NumStages(); ++i) {
    model_.SetStageFrozen(i, i < frontier_);
    if (i < frontier_ && cfg_.egeria.frozen_prefix_precision != Precision::kFloat32) {
      sub_applied = model_.SetStageForwardPrecision(i, cfg_.egeria.frozen_prefix_precision) &&
                    sub_applied;
    }
  }
  prefix_precision_ =
      sub_applied ? cfg_.egeria.frozen_prefix_precision : Precision::kFloat32;
  // Restored weights, same prefix => same hash as the interrupted run, so a
  // persistent feature store's manifest matches and its entries are adopted.
  frozen_prefix_hash_ = FrozenPrefixHash();

  if (controller_ != nullptr) {
    EGERIA_CHECK_MSG(m->HasFile("controller.state"),
                     m->dir + ": Egeria enabled but no controller state saved");
    std::ifstream cs(m->dir + "/controller.state", std::ios::binary);
    const bool restored = controller_->RestoreState(cs, [this] {
      InferenceFactory float_factory;
      return model_.CloneForInference(float_factory);
    });
    EGERIA_CHECK_MSG(restored, m->dir + ": controller state restore failed");
  }
  EGERIA_LOG(kInfo) << "resumed from " << m->dir << " (iter " << iter << ", frontier "
                    << frontier_ << ")";
  return iter;
}

TaskMetric Trainer::Validate() {
  const TaskMetric metric =
      ValidateModel(model_, val_loader_, cfg_.task, cfg_.val_batches);
  model_.SetTraining(true);
  return metric;
}

TrainResult Trainer::Run() {
  result_ = TrainResult();
  model_.SetTraining(true);
  // Observability: tracing is env-gated (EGERIA_TRACE=1) so any binary built
  // on Trainer can be traced; the metrics registry is always on (atomic
  // updates, no allocation past the first lookup). Every phase below is
  // measured once via obs::ScopedPhase, which feeds the TrainResult seconds
  // field, the registry histogram, and the trace span from the same interval
  // — the three can never disagree (see src/obs/README.md).
  trace::InitFromEnv();
  trace::SetThreadName("trainer");
  obs::InstallDumpSignalHandler();
  obs::Histogram& data_hist = obs::GetHistogram("trainer.data_s");
  obs::Histogram& fp_hist = obs::GetHistogram("trainer.fp_s");
  obs::Histogram& bp_hist = obs::GetHistogram("trainer.bp_s");
  obs::Histogram& opt_hist = obs::GetHistogram("trainer.opt_s");
  obs::Histogram& cache_hist = obs::GetHistogram("trainer.cache_s");
  obs::Histogram& frozen_fp_hist = obs::GetHistogram("trainer.frozen_fp_s");
  obs::Counter& fp_skip_counter = obs::GetCounter("cache.fp_skips");
  obs::Counter& decline_counter = obs::GetCounter("cache.declined_iters");
  obs::Counter& iter_counter = obs::GetCounter("trainer.iterations");
  double cum_train_seconds = 0.0;
  int64_t iter = 0;
  // Without Egeria there is no bootstrap gate to pass.
  knowledge_stage_ = false;

  int start_epoch = 0;
  int64_t start_batch = 0;
  if (!cfg_.checkpoint.dir.empty() && cfg_.checkpoint.resume) {
    const int64_t resumed = TryResume();
    if (resumed >= 0) {
      iter = resumed;
      start_epoch = static_cast<int>(iter / IterationsPerEpoch());
      start_batch = iter % IterationsPerEpoch();
      result_.resumed_from_iter = resumed;
    }
  }
  bool stop = false;

  for (int epoch = start_epoch; epoch < cfg_.epochs && !stop; ++epoch) {
    loader_.StartEpoch(epoch);
    // Cacheability: the store may only serve an epoch whose sample stream is
    // epoch-deterministic. The dataset promises that by keeping its
    // augmentation signature constant across epochs; probing (epoch, epoch+1)
    // detects epoch-varying augmentation without run history, so the decision
    // is identical on a resumed run.
    aug_signature_ = train_data_.AugmentationSignature(epoch);
    store_cacheable_ = aug_signature_ == train_data_.AugmentationSignature(epoch + 1);
    double epoch_loss = 0.0;
    int64_t epoch_batches = 0;
    double epoch_frozen_fp_seconds = 0.0;
    int64_t epoch_fp_skips = 0;
    WallTimer epoch_timer;
    // The split forward over a frozen prefix: ForwardPrefix (its seconds
    // accounted as frozen-prefix forward), then ForwardFrom the frontier.
    // Returns the boundary activation; the logits land in *logits.
    auto split_forward = [&](const Tensor& input, Tensor* logits) {
      double prefix_seconds = 0.0;
      obs::ScopedPhase prefix_phase("trainer", "frozen_fp", &frozen_fp_hist,
                                    &prefix_seconds);
      Tensor boundary = model_.ForwardPrefix(frontier_ - 1, input);
      prefix_phase.Stop();
      result_.frozen_fp_seconds += prefix_seconds;
      epoch_frozen_fp_seconds += prefix_seconds;
      *logits = model_.ForwardFrom(frontier_, boundary);
      return boundary;
    };

    for (int64_t b = epoch == start_epoch ? start_batch : 0; b < loader_.NumBatches();
         ++b) {
      ++iter;
      const float lr = cfg_.lr_schedule->LrAt(iter);

      // --- Decision intake (Egeria) ---
      if (controller_ != nullptr) {
        if (!cfg_.egeria.async_controller) {
          controller_->RunPendingSync();
        }
        for (const FreezeDecision& d : controller_->DrainDecisions()) {
          ApplyDecision(d);
        }
        if (auto d = controller_->OnLr(lr, iter)) {
          ApplyDecision(*d);
        }
        if (knowledge_stage_ && controller_->WantsSnapshot()) {
          // Float snapshot (the paper's GPU->CPU copy); the controller quantizes it.
          InferenceFactory float_factory;
          controller_->SubmitSnapshot(model_.CloneForInference(float_factory));
        }
      }

      // --- Data ---
      obs::ScopedPhase data_phase("trainer", "data", &data_hist,
                                  &result_.data_seconds);
      Batch batch = loader_.GetBatch(b);
      data_phase.Stop();

      // --- Forward (with optional frozen-prefix skip) ---
      // When a frozen prefix exists and its boundary can seed ForwardFrom, the
      // forward is split into ForwardPrefix + ForwardFrom (bitwise identical to
      // the unsplit pass — same modules, same inputs, same order) so the time
      // spent inside the frozen prefix is measured separately whether the
      // feature store is on or off; the off/on difference is the
      // frozen_forward_saved_s bench metric. The store serves only when the
      // epoch stream is cacheable and the prefix is deterministic; otherwise it
      // declines and the prefix is recomputed.
      model_.SetBatch(batch);
      Tensor logits;
      // The fp phase covers the whole forward block, including the nested
      // cache and frozen-prefix intervals below — same semantics the bespoke
      // fp_seconds accumulator always had; the nested spans show up inside
      // the fp span on the trace timeline.
      obs::ScopedPhase fp_phase("trainer", "fp", &fp_hist, &result_.fp_seconds);
      const bool skippable_frontier =
          frontier_ > 0 && frontier_ <= model_.MaxForwardSkipStage();
      const bool serve = cache_ != nullptr && skippable_frontier && store_cacheable_ &&
                         model_.PrefixForwardDeterministic(frontier_);
      if (serve) {
        Tensor cached;
        {
          obs::ScopedPhase cache_phase("cache", "lookup", &cache_hist,
                                       &result_.cache_seconds);
          cache_->SetKey(frontier_ - 1, prefix_precision_, CacheGeneration());
          if (cache_->HasAll(batch.sample_ids)) {
            cached = cache_->FetchBatch(batch.sample_ids);
          }
        }
        if (cached.Defined()) {
          trace::AddInstant("cache", "fp_skip");
          fp_skip_counter.Add(1);
          logits = model_.ForwardFrom(frontier_, cached);
          ++result_.fp_skip_count;
          ++epoch_fp_skips;
        } else {
          const Tensor boundary = split_forward(batch.input, &logits);
          obs::ScopedPhase store_phase("cache", "store", &cache_hist,
                                       &result_.cache_seconds);
          cache_->StoreBatch(batch.sample_ids, boundary);
        }
        {
          obs::ScopedPhase prefetch_phase("cache", "prefetch_submit",
                                          &cache_hist, &result_.cache_seconds);
          cache_->PrefetchAsync(
              loader_.UpcomingIndices(b + 1, cfg_.egeria.prefetch_batches));
        }
      } else if (skippable_frontier) {
        if (cache_ != nullptr) {
          trace::AddInstant("cache", "decline");
          decline_counter.Add(1);
          ++result_.cache_declined_iters;
        }
        split_forward(batch.input, &logits);
      } else {
        logits = model_.ForwardFrom(0, batch.input);
      }
      fp_phase.Stop();

      // --- Loss ---
      LossResult loss = TaskLoss(cfg_.task, logits, batch);
      epoch_loss += loss.loss;
      ++epoch_batches;

      // --- Plasticity evaluation submission (async, non-blocking) ---
      // Valid on cache-skipped iterations too: ForwardFrom(frontier, cached) still
      // computes the frontier stage, so StageOutput(frontier) is a genuine A_T.
      MaybeSubmitEval(batch, lr, iter);

      // --- Backward + update (active stages only) ---
      {
        obs::ScopedPhase bp_phase("trainer", "bp", &bp_hist, &result_.bp_seconds);
        for (Parameter* p : model_.ParamsFrom(frontier_)) {
          p->grad.Zero_();
        }
        model_.BackwardTo(frontier_, loss.grad);
      }

      {
        obs::ScopedPhase opt_phase("trainer", "opt", &opt_hist,
                                   &result_.opt_seconds);
        optimizer_->Step(model_.ParamsFrom(frontier_), lr);
      }

      // --- Bootstrapping monitor ---
      if (controller_ != nullptr && !knowledge_stage_) {
        UpdateBootstrap(loss.loss, iter);
      }

      // --- Baseline hooks ---
      if (hook_ != nullptr) {
        hook_->OnIteration(*this, batch, iter);
      }
      ++result_.iterations;
      iter_counter.Add(1);
      obs::MaybeDumpOnSignal("trainer");

      // --- Checkpoint + crash-drill stop (end of iteration: weights, optimizer
      // state, and the controller's decision state are all consistent here) ---
      const bool at_interval =
          cfg_.checkpoint.enabled() && iter % cfg_.checkpoint.interval_iters == 0;
      if (at_interval) {
        SaveTrainingCheckpoint(iter);
      }
      if (cfg_.stop_after_iters >= 0 && iter >= cfg_.stop_after_iters) {
        if (cfg_.checkpoint.enabled() && !at_interval) {
          SaveTrainingCheckpoint(iter);
        }
        result_.stopped_early = true;
        stop = true;
        break;
      }
    }
    if (stop) {
      break;  // Partial epoch: no epoch stats, no validation.
    }

    const double epoch_seconds = epoch_timer.ElapsedSeconds();
    cum_train_seconds += epoch_seconds;

    EpochStats es;
    es.epoch = epoch;
    es.train_loss = epoch_loss / static_cast<double>(std::max<int64_t>(1, epoch_batches));
    es.val = Validate();
    es.train_seconds = epoch_seconds;
    es.cum_train_seconds = cum_train_seconds;
    es.frontier = frontier_;
    es.lr = cfg_.lr_schedule->LrAt(iter);
    es.frozen_fp_seconds = epoch_frozen_fp_seconds;
    es.fp_skips = epoch_fp_skips;
    result_.epochs.push_back(es);

    if (cfg_.verbose) {
      EGERIA_LOG(kInfo) << "epoch " << epoch << " loss=" << es.train_loss << " val("
                        << es.val.unit << ")=" << es.val.display
                        << " frontier=" << frontier_ << " t=" << cum_train_seconds << "s";
    }
    if (!result_.reached_target && es.val.score >= cfg_.target_score) {
      result_.reached_target = true;
      result_.tta_seconds = cum_train_seconds;
    }
    if (result_.epochs.size() == 1 || es.val.score > result_.best_metric.score) {
      result_.best_metric = es.val;
    }
  }

  result_.total_train_seconds = cum_train_seconds;
  result_.final_metric = result_.epochs.empty() ? TaskMetric{} : result_.epochs.back().val;
  result_.final_frontier = frontier_;
  if (controller_ != nullptr) {
    result_.plasticity = controller_->PlasticityHistory();
    result_.last_ref_quantize_seconds = controller_->LastQuantizeSeconds();
  }
  if (cache_ != nullptr) {
    result_.cache = cache_->Stats();
  }
  return result_;
}

}  // namespace egeria
