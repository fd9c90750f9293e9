// Activation cache (store/fetch/prefetch/invalidation), SPSC queue behaviour,
// controller end-to-end decision flow in synchronous mode, and the controller's
// bootstrapping monitor.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <thread>

#include "src/core/activation_cache.h"
#include "src/core/controller.h"
#include "src/core/module_partitioner.h"
#include "src/core/spsc_queue.h"
#include "src/models/resnet.h"
#include "src/util/rng.h"

namespace egeria {
namespace {

std::string TempCacheDir(const char* tag) {
  return ::testing::TempDir() + "/egeria_cache_test_" + tag;
}

TEST(ActivationCache, StoreFetchRoundTrip) {
  ActivationCache cache(TempCacheDir("rt"), /*memory_entries=*/64);
  cache.SetStage(2);
  Rng rng(1);
  Tensor act = Tensor::Randn({4, 3, 2, 2}, rng);
  std::vector<int64_t> ids{10, 20, 30, 40};
  cache.StoreBatch(ids, act);
  ASSERT_TRUE(cache.HasAll(ids));
  Tensor fetched = cache.FetchBatch(ids);
  ASSERT_TRUE(fetched.Defined());
  for (int64_t i = 0; i < act.NumEl(); ++i) {
    EXPECT_EQ(fetched.Data()[i], act.Data()[i]);
  }
}

TEST(ActivationCache, FetchInDifferentOrderReassembles) {
  ActivationCache cache(TempCacheDir("order"), 64);
  cache.SetStage(0);
  Rng rng(2);
  Tensor act = Tensor::Randn({3, 2}, rng);
  cache.StoreBatch({1, 2, 3}, act);
  Tensor fetched = cache.FetchBatch({3, 1, 2});
  ASSERT_TRUE(fetched.Defined());
  EXPECT_EQ(fetched.At(0, 0), act.At(2, 0));
  EXPECT_EQ(fetched.At(1, 0), act.At(0, 0));
  EXPECT_EQ(fetched.At(2, 0), act.At(1, 0));
}

TEST(ActivationCache, MissingIdReturnsUndefined) {
  ActivationCache cache(TempCacheDir("miss"), 64);
  cache.SetStage(0);
  Rng rng(3);
  cache.StoreBatch({1, 2}, Tensor::Randn({2, 4}, rng));
  EXPECT_FALSE(cache.HasAll({1, 2, 3}));
  EXPECT_FALSE(cache.FetchBatch({1, 3}).Defined());
  EXPECT_GT(cache.Stats().misses, 0);
}

TEST(ActivationCache, MemoryEvictionFallsBackToDisk) {
  // Memory keeps only 2 slices; older entries must still be served from disk.
  ActivationCache cache(TempCacheDir("evict"), /*memory_entries=*/2);
  cache.SetStage(1);
  Rng rng(4);
  Tensor act = Tensor::Randn({5, 3}, rng);
  cache.StoreBatch({1, 2, 3, 4, 5}, act);
  ASSERT_TRUE(cache.HasAll({1, 2, 3, 4, 5}));
  Tensor fetched = cache.FetchBatch({1, 2, 3, 4, 5});
  ASSERT_TRUE(fetched.Defined());
  EXPECT_GT(cache.Stats().disk_hits, 0);
  for (int64_t i = 0; i < act.NumEl(); ++i) {
    EXPECT_EQ(fetched.Data()[i], act.Data()[i]);
  }
}

TEST(ActivationCache, StageChangeInvalidates) {
  ActivationCache cache(TempCacheDir("stage"), 64);
  cache.SetStage(0);
  Rng rng(5);
  cache.StoreBatch({7}, Tensor::Randn({1, 4}, rng));
  ASSERT_TRUE(cache.HasAll({7}));
  cache.SetStage(1);  // Frontier advanced: old boundary is useless.
  EXPECT_FALSE(cache.HasAll({7}));
  cache.SetStage(1);  // No-op.
}

TEST(ActivationCache, ClearDropsEverything) {
  ActivationCache cache(TempCacheDir("clear"), 64);
  cache.SetStage(3);
  Rng rng(6);
  cache.StoreBatch({1, 2}, Tensor::Randn({2, 4}, rng));
  cache.Clear();
  EXPECT_FALSE(cache.HasAll({1}));
  EXPECT_EQ(cache.stage(), 3);  // Stage survives Clear (same frontier, new weights).
}

TEST(ActivationCache, PrefetchLoadsIntoMemory) {
  ActivationCache cache(TempCacheDir("prefetch"), /*memory_entries=*/2);
  cache.SetStage(0);
  Rng rng(7);
  Tensor act = Tensor::Randn({4, 8}, rng);
  cache.StoreBatch({1, 2, 3, 4}, act);  // Memory holds only {3, 4} afterwards.
  cache.PrefetchAsync({1, 2});
  // Prefetch is async; poll until it lands.
  for (int i = 0; i < 100 && cache.Stats().prefetch_loads < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(cache.Stats().prefetch_loads, 1);
  Tensor fetched = cache.FetchBatch({1, 2});
  ASSERT_TRUE(fetched.Defined());
}

TEST(ActivationCache, DiskBudgetStopsStores) {
  // Budget allows ~1 slice of 4 floats.
  ActivationCache cache(TempCacheDir("budget"), 64, /*max_disk_bytes=*/20);
  cache.SetStage(0);
  Rng rng(8);
  cache.StoreBatch({1, 2, 3}, Tensor::Randn({3, 4}, rng));
  EXPECT_FALSE(cache.HasAll({1, 2, 3}));  // Later stores were dropped.
}

TEST(SpscQueue, FifoOrderAndCapacity) {
  SpscQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));  // Full: producer drops.
  EXPECT_EQ(*q.TryPop(), 1);
  EXPECT_EQ(*q.TryPop(), 2);
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(SpscQueue, PopForTimesOut) {
  SpscQueue<int> q(1);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.PopFor(std::chrono::milliseconds(20)).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(15));
}

TEST(SpscQueue, CrossThreadDelivery) {
  SpscQueue<int> q(128);
  std::thread producer([&] {
    for (int i = 0; i < 1000; ++i) {
      while (!q.TryPush(i)) {
        std::this_thread::yield();
      }
    }
  });
  int expected = 0;
  while (expected < 1000) {
    if (auto v = q.PopFor(std::chrono::milliseconds(100))) {
      EXPECT_EQ(*v, expected);
      ++expected;
    }
  }
  producer.join();
}

class ControllerTest : public ::testing::Test {
 protected:
  std::unique_ptr<StageChainModel> MakeModel() {
    Rng rng(11);
    CifarResNetConfig mcfg;
    mcfg.blocks_per_stage = 1;
    mcfg.base_width = 4;
    return PartitionIntoChain("m", BuildCifarResNetBlocks(mcfg, rng),
                              PartitionConfig{.target_modules = 4});
  }

  EgeriaConfig SyncConfig() {
    EgeriaConfig cfg;
    cfg.async_controller = false;
    cfg.window_w = 3;
    cfg.ref_update_evals = 100;  // No refresh during the test.
    return cfg;
  }
};

TEST_F(ControllerTest, ProducesFreezeDecisionSynchronously) {
  auto model = MakeModel();
  EgeriaController controller(SyncConfig(), model->NumStages(), /*annealing=*/true);
  EXPECT_TRUE(controller.WantsSnapshot());
  InferenceFactory float_factory;
  controller.SubmitSnapshot(model->CloneForInference(float_factory));
  controller.RunPendingSync();
  EXPECT_TRUE(controller.HasReference());

  // Identical model & reference (modulo int8) with frozen weights: plasticity is
  // constant, so after 3 (tolerance) + window evaluations the stage must freeze.
  Rng rng(12);
  model->SetTraining(false);  // Keep BN deterministic across evals.
  Batch batch;
  batch.input = Tensor::Randn({4, 3, 8, 8}, rng);
  std::vector<FreezeDecision> decisions;
  for (int64_t iter = 1; iter <= 12 && decisions.empty(); ++iter) {
    model->ForwardFrom(0, batch.input);
    EvalRequest req;
    req.batch = batch;
    req.train_act = model->StageOutput(0);
    req.stage = 0;
    req.lr = 0.1F;
    req.iter = iter;
    ASSERT_TRUE(controller.SubmitEval(std::move(req)));
    controller.RunPendingSync();
    decisions = controller.DrainDecisions();
  }
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].kind, FreezeDecision::Kind::kFreezeUpTo);
  EXPECT_EQ(decisions[0].stage, 0);
  EXPECT_EQ(controller.Frontier(), 1);
  EXPECT_GE(controller.EvalsDone(), 6);
  EXPECT_FALSE(controller.PlasticityHistory().empty());
  EXPECT_GT(controller.LastQuantizeSeconds(), 0.0);
}

TEST_F(ControllerTest, RequestsSnapshotRefresh) {
  auto model = MakeModel();
  EgeriaConfig cfg = SyncConfig();
  cfg.ref_update_evals = 2;
  EgeriaController controller(cfg, model->NumStages(), true);
  InferenceFactory float_factory;
  controller.SubmitSnapshot(model->CloneForInference(float_factory));
  controller.RunPendingSync();
  EXPECT_FALSE(controller.WantsSnapshot());

  Rng rng(13);
  model->SetTraining(false);
  Batch batch;
  batch.input = Tensor::Randn({2, 3, 8, 8}, rng);
  for (int64_t iter = 1; iter <= 2; ++iter) {
    model->ForwardFrom(0, batch.input);
    EvalRequest req;
    req.batch = batch;
    req.train_act = model->StageOutput(0);
    req.stage = 0;
    req.lr = 0.1F;
    req.iter = iter;
    controller.SubmitEval(std::move(req));
    controller.RunPendingSync();
  }
  EXPECT_TRUE(controller.WantsSnapshot());
}

// The bootstrapping monitor (paper S4.2.2): the knowledge-guided stage starts
// once the change rate of the window-averaged training loss falls below
// bootstrap_change_rate; until then no evaluation is submitted.
TEST_F(ControllerTest, BootstrapEndsWhenLossChangeRateFallsBelowThreshold) {
  auto model = MakeModel();
  EgeriaConfig cfg = SyncConfig();
  cfg.eval_interval_n = 2;
  cfg.bootstrap_change_rate = 0.1;
  EgeriaController controller(cfg, model->NumStages(), true);
  Rng rng(14);
  Batch batch;
  batch.input = Tensor::Randn({2, 3, 8, 8}, rng);
  model->ForwardFrom(0, batch.input);
  // Window averages 10, 6 (rate 0.4), 5.8 (rate 0.033 < 0.1): ends at iter 6.
  const double losses[] = {10.0, 10.0, 6.0, 6.0, 5.8, 5.8};
  for (int64_t iter = 1; iter <= 6; ++iter) {
    EXPECT_FALSE(controller.InKnowledgeStage()) << "iter " << iter;
    EXPECT_FALSE(controller.MaybeSubmitEval(*model, batch, 0, 0.1F, iter));
    controller.UpdateBootstrap(losses[iter - 1], iter);
  }
  EXPECT_TRUE(controller.InKnowledgeStage());
  EXPECT_EQ(controller.BootstrapEndIter(), 6);
  controller.UpdateBootstrap(100.0, 7);  // Ended for good.
  EXPECT_EQ(controller.BootstrapEndIter(), 6);
  EXPECT_TRUE(controller.MaybeSubmitEval(*model, batch, 0, 0.1F, 8));
  EXPECT_FALSE(controller.MaybeSubmitEval(*model, batch, 0, 0.1F, 9));  // Off-interval.
  // Nothing left that may freeze: the last stage is the protected tail.
  EXPECT_FALSE(
      controller.MaybeSubmitEval(*model, batch, model->NumStages() - 1, 0.1F, 10));
}

TEST_F(ControllerTest, BootstrapEndsAtMaxBootstrapIters) {
  auto model = MakeModel();
  EgeriaConfig cfg = SyncConfig();
  cfg.eval_interval_n = 2;
  cfg.max_bootstrap_iters = 3;
  EgeriaController controller(cfg, model->NumStages(), true);
  // The loss halves every iteration, so the change rate never ends it.
  double loss = 16.0;
  for (int64_t iter = 1; iter <= 2; ++iter, loss /= 2) {
    controller.UpdateBootstrap(loss, iter);
    EXPECT_FALSE(controller.InKnowledgeStage());
  }
  controller.UpdateBootstrap(loss, 3);
  EXPECT_TRUE(controller.InKnowledgeStage());
  EXPECT_EQ(controller.BootstrapEndIter(), 3);
}

// A checkpoint taken in the middle of the bootstrapping stage (and in the
// middle of an averaging window) carries the monitor: the restored controller
// ends the stage at the same iteration as one that never stopped.
TEST_F(ControllerTest, BootstrapSurvivesSaveRestoreMidWindow) {
  auto model = MakeModel();
  EgeriaConfig cfg = SyncConfig();
  cfg.eval_interval_n = 4;
  auto loss = [](int64_t iter) { return 1.0 + 9.0 / static_cast<double>(iter); };
  EgeriaController whole(cfg, model->NumStages(), true);
  for (int64_t iter = 1; iter <= 40 && !whole.InKnowledgeStage(); ++iter) {
    whole.UpdateBootstrap(loss(iter), iter);
  }
  ASSERT_TRUE(whole.InKnowledgeStage());
  const int64_t end_iter = whole.BootstrapEndIter();
  ASSERT_GT(end_iter, 10) << "the save below must fall inside the bootstrap";

  EgeriaController first(cfg, model->NumStages(), true);
  for (int64_t iter = 1; iter <= 10; ++iter) {
    first.UpdateBootstrap(loss(iter), iter);
  }
  ASSERT_FALSE(first.InKnowledgeStage());
  std::stringstream blob;
  first.SaveState(blob);
  EgeriaController resumed(cfg, model->NumStages(), true);
  InferenceFactory float_factory;
  ASSERT_TRUE(resumed.RestoreState(
      blob, [&] { return model->CloneForInference(float_factory); }));
  EXPECT_FALSE(resumed.InKnowledgeStage());
  for (int64_t iter = 11; iter <= 40 && !resumed.InKnowledgeStage(); ++iter) {
    resumed.UpdateBootstrap(loss(iter), iter);
  }
  EXPECT_EQ(resumed.BootstrapEndIter(), end_iter);
}

// Controller state version 1 (no bootstrap monitor) is rejected at the header.
TEST_F(ControllerTest, RestoreRejectsVersion1State) {
  auto model = MakeModel();
  EgeriaController saved(SyncConfig(), model->NumStages(), true);
  std::stringstream blob;
  saved.SaveState(blob);
  std::string bytes = blob.str();
  const uint32_t v1 = 1;
  std::memcpy(bytes.data() + sizeof(uint32_t), &v1, sizeof(v1));  // after the magic
  std::stringstream patched(bytes);
  EgeriaController restored(SyncConfig(), model->NumStages(), true);
  InferenceFactory float_factory;
  EXPECT_FALSE(restored.RestoreState(
      patched, [&] { return model->CloneForInference(float_factory); }));
}

}  // namespace
}  // namespace egeria
