// Distributed substrate: network model, communication scheduler properties
// (ByteScheduler <= FIFO; Egeria reduces both compute and traffic), real all-reduce
// correctness (ring vs sequential reference, bitwise), shard repartitioning under
// freezing, and the data-parallel harness.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "src/ckpt/checkpoint.h"
#include "src/core/module_partitioner.h"
#include "src/data/synthetic_image.h"
#include "src/distributed/allreduce.h"
#include "src/distributed/comm_scheduler.h"
#include "src/distributed/dist_trainer.h"
#include "src/distributed/dist_workload.h"
#include "src/distributed/flat_view.h"
#include "src/distributed/network_model.h"
#include "src/distributed/reduction_contract.h"
#include "src/distributed/transport/inproc_transport.h"
#include "src/distributed/transport/ring_schedule.h"
#include "src/distributed/transport/tcp_transport.h"
#include "src/models/resnet.h"
#include "src/optim/lr_scheduler.h"
#include "src/util/rng.h"

namespace egeria {
namespace {

ClusterConfig TwoByTwo() {
  ClusterConfig cfg;
  cfg.num_nodes = 2;
  cfg.gpus_per_node = 2;
  return cfg;
}

TEST(NetworkModel, ZeroForSingleGpuOrNoBytes) {
  ClusterConfig single;
  single.num_nodes = 1;
  single.gpus_per_node = 1;
  EXPECT_DOUBLE_EQ(NetworkModel(single).AllReduceSeconds(1 << 20), 0.0);
  EXPECT_DOUBLE_EQ(NetworkModel(TwoByTwo()).AllReduceSeconds(0), 0.0);
}

TEST(NetworkModel, MonotoneInBytesAndNodes) {
  NetworkModel net(TwoByTwo());
  EXPECT_LT(net.AllReduceSeconds(1 << 20), net.AllReduceSeconds(1 << 22));
  ClusterConfig wider = TwoByTwo();
  wider.num_nodes = 5;
  EXPECT_LT(net.AllReduceSeconds(1 << 22),
            NetworkModel(wider).AllReduceSeconds(1 << 22));
}

std::vector<StageCost> SyntheticStages() {
  // Front-light, deep-heavy (CNN-like): 6 stages.
  std::vector<StageCost> stages;
  for (int i = 0; i < 6; ++i) {
    StageCost s;
    s.fp_seconds = 0.002 + 0.001 * i;
    s.bp_seconds = 2.0 * s.fp_seconds;
    s.grad_bytes = int64_t{200000} * (i + 1);
    stages.push_back(s);
  }
  return stages;
}

TEST(CommScheduler, ByteSchedulerNeverSlowerThanFifo) {
  NetworkModel net(TwoByTwo());
  const auto stages = SyntheticStages();
  const auto fifo = SimulateIteration(stages, net, CommPolicy::kFifo);
  const auto bs = SimulateIteration(stages, net, CommPolicy::kByteScheduler);
  EXPECT_LE(bs.iteration_seconds, fifo.iteration_seconds + 1e-9);
  EXPECT_GT(fifo.iteration_seconds, 0.0);
}

TEST(CommScheduler, FreezingReducesIterationTimeAndTraffic) {
  NetworkModel net(TwoByTwo());
  const auto stages = SyntheticStages();
  for (CommPolicy policy : {CommPolicy::kFifo, CommPolicy::kByteScheduler}) {
    const auto full = SimulateIteration(stages, net, policy, 0);
    const auto frozen2 = SimulateIteration(stages, net, policy, 2);
    const auto frozen2_cached =
        SimulateIteration(stages, net, policy, 2, /*prefix_fp_cached=*/true);
    EXPECT_LT(frozen2.iteration_seconds, full.iteration_seconds);
    EXPECT_LT(frozen2.comm_seconds, full.comm_seconds);
    EXPECT_LE(frozen2_cached.iteration_seconds, frozen2.iteration_seconds + 1e-12);
  }
}

TEST(CommScheduler, NoCommMeansComputeBound) {
  ClusterConfig single;
  single.num_nodes = 1;
  single.gpus_per_node = 1;
  NetworkModel net(single);
  const auto stages = SyntheticStages();
  const auto t = SimulateIteration(stages, net, CommPolicy::kFifo);
  double compute = 0.0;
  for (const auto& s : stages) {
    compute += s.fp_seconds + s.bp_seconds;
  }
  EXPECT_NEAR(t.iteration_seconds, compute, 1e-9);
  EXPECT_DOUBLE_EQ(t.exposed_comm_seconds, 0.0);
}

TEST(CommScheduler, ExposedCommShrinksWithPriorityScheduling) {
  // Communication-heavy regime so scheduling matters.
  ClusterConfig cfg = TwoByTwo();
  cfg.inter_node_gbps = 2.0;
  NetworkModel net(cfg);
  const auto stages = SyntheticStages();
  const auto fifo = SimulateIteration(stages, net, CommPolicy::kFifo);
  const auto bs = SimulateIteration(stages, net, CommPolicy::kByteScheduler);
  EXPECT_GT(fifo.exposed_comm_seconds, 0.0);
  EXPECT_LT(bs.exposed_comm_seconds, fifo.exposed_comm_seconds + 1e-9);
}

TEST(AllReduce, AveragesGradientsAcrossRanks) {
  const int world = 3;
  GradientAllReducer reducer(world);
  std::vector<std::unique_ptr<Parameter>> params;
  for (int r = 0; r < world; ++r) {
    auto p = std::make_unique<Parameter>("w", Tensor::Zeros({4}));
    p->grad.Fill_(static_cast<float>(r + 1));  // grads 1, 2, 3 -> mean 2.
    params.push_back(std::move(p));
  }
  std::vector<std::thread> threads;
  std::vector<std::vector<Parameter*>> lists(world);
  for (int r = 0; r < world; ++r) {
    lists[static_cast<size_t>(r)] = {params[static_cast<size_t>(r)].get()};
    threads.emplace_back(
        [&, r] { reducer.AllReduce(r, lists[static_cast<size_t>(r)]); });
  }
  for (auto& t : threads) {
    t.join();
  }
  for (int r = 0; r < world; ++r) {
    for (int64_t i = 0; i < 4; ++i) {
      EXPECT_FLOAT_EQ(params[static_cast<size_t>(r)]->grad.At(i), 2.0F);
    }
  }
  EXPECT_EQ(reducer.TotalBytesReduced(), 4 * 4);
}

// ---- Ring reducer vs sequential reference (the reduction contract) ----
//
// The ring schedule runs over a byte-oriented Transport; both backends — the
// in-process mailbox transport and real localhost TCP sockets — must match the
// sequential reference reducer BITWISE at every world size. Ranks are threads
// here even for the TCP backend (sockets don't care), which keeps the pin
// tests fast; tests/distributed_process_test.cc covers ranks as OS processes.

enum class TransportCase { kInproc, kTcp };

const char* TransportName(TransportCase c) {
  return c == TransportCase::kInproc ? "inproc" : "tcp";
}

// Runs `body(rank, transport)` on `world` rank threads wired by the given
// transport backend.
void RunWorld(TransportCase kind, int world,
              const std::function<void(int, Transport&)>& body) {
  std::vector<std::thread> threads;
  if (kind == TransportCase::kInproc) {
    InprocTransportGroup group(world);
    for (int r = 0; r < world; ++r) {
      threads.emplace_back([&, r] { body(r, group.Get(r)); });
    }
    for (auto& t : threads) {
      t.join();
    }
    return;
  }
  char tmpl[] = "/tmp/egeria-ring-test-XXXXXX";
  ASSERT_NE(nullptr, mkdtemp(tmpl));
  const std::string rendezvous = std::string(tmpl) + "/rendezvous";
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      TcpTransportOptions opts;
      opts.rank = r;
      opts.world = world;
      opts.rendezvous_file = rendezvous;
      std::unique_ptr<Transport> transport = MakeTcpTransport(opts);
      body(r, *transport);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  unlink(rendezvous.c_str());
  rmdir(tmpl);
}

// The control-plane primitives behave identically on both backends: Broadcast
// delivers rank 0's bytes everywhere (empty payloads included) and Barrier
// releases no rank before every rank arrived.
TEST(Transport, BroadcastAndBarrierAgreeAcrossBackends) {
  for (TransportCase kind : {TransportCase::kInproc, TransportCase::kTcp}) {
    for (int world : {2, 3}) {
      std::atomic<int> arrived{0};
      RunWorld(kind, world, [&](int rank, Transport& transport) {
        const uint32_t root_word = 0xABCD1234U;
        std::vector<uint8_t> msg;
        ASSERT_TRUE(transport
                        .Broadcast(rank == 0 ? &root_word : nullptr,
                                   rank == 0 ? sizeof(root_word) : 0, &msg)
                        .ok());
        ASSERT_EQ(msg.size(), sizeof(root_word));
        uint32_t got = 0;
        std::memcpy(&got, msg.data(), sizeof(got));
        EXPECT_EQ(got, root_word) << TransportName(kind) << " rank " << rank;
        std::vector<uint8_t> empty;
        ASSERT_TRUE(transport.Broadcast(nullptr, 0, &empty).ok());
        EXPECT_TRUE(empty.empty());
        // Everyone checks in before the barrier; nobody may observe a count
        // below `world` after it.
        arrived.fetch_add(1);
        ASSERT_TRUE(transport.Barrier().ok());
        EXPECT_EQ(arrived.load(), world) << TransportName(kind) << " rank " << rank;
      });
    }
  }
}

// Counts the ring steps and bytes a wrapped transport carries.
class CountingTransport : public Transport {
 public:
  explicit CountingTransport(Transport& base) : base_(base) {}
  int Rank() const override { return base_.Rank(); }
  int World() const override { return base_.World(); }
  TransportStatus RingExchange(const void* send_buf, int64_t send_bytes,
                               void* recv_buf, int64_t recv_bytes) override {
    ++ring_steps;
    ring_bytes += send_bytes;
    return base_.RingExchange(send_buf, send_bytes, recv_buf, recv_bytes);
  }
  TransportStatus Barrier() override { return base_.Barrier(); }
  TransportStatus Broadcast(const void* data, int64_t bytes,
                            std::vector<uint8_t>* out) override {
    return base_.Broadcast(data, bytes, out);
  }
  void LocalAbort(const TransportStatus& reason) override { base_.LocalAbort(reason); }

  int ring_steps = 0;
  int64_t ring_bytes = 0;

 private:
  Transport& base_;
};

// RingReduce folds one small value per rank around the ring: every rank ends
// on the fold of all W contributions after W-1 steps of sizeof(T) bytes, for
// both combines the runtime uses (the bucket agreement's max and the
// checkpoint status's lowest failing rank).
TEST(RingReduce, EveryRankHoldsTheFoldOfAllRanks) {
  struct Status {
    int32_t code = 0;
    int32_t rank = -1;
  };
  const auto lowest_failure = [](Status a, Status b) {
    return b.code != 0 && (a.code == 0 || b.rank < a.rank) ? b : a;
  };
  for (int world = 1; world <= 4; ++world) {
    SCOPED_TRACE("world " + std::to_string(world));
    std::vector<int32_t> maxes(static_cast<size_t>(world));
    std::vector<Status> worst(static_cast<size_t>(world));
    int32_t want_max = 0;
    for (int r = 0; r < world; ++r) {
      want_max = std::max(want_max, (r * 3 + 1) % 4);
    }
    RunWorld(TransportCase::kInproc, world, [&](int rank, Transport& base) {
      CountingTransport transport(base);
      // Contributions not monotone in rank: 1, 0, 3, 2.
      int32_t m = (rank * 3 + 1) % 4;
      ASSERT_TRUE(RingReduce(transport, &m, [](int32_t a, int32_t b) {
                    return std::max(a, b);
                  }).ok());
      maxes[static_cast<size_t>(rank)] = m;
      EXPECT_EQ(transport.ring_steps, world - 1);
      EXPECT_EQ(transport.ring_bytes,
                (world - 1) * static_cast<int64_t>(sizeof(int32_t)));
      // Ranks 1 and W-1 fail, each with its own code: the fold keeps rank 1's
      // entry (rank 0's at W=1), code and rank together.
      Status st;
      if (rank == 1 || rank == world - 1) {
        st.code = 100 + rank;
        st.rank = rank;
      }
      ASSERT_TRUE(RingReduce(transport, &st, lowest_failure).ok());
      worst[static_cast<size_t>(rank)] = st;
      EXPECT_EQ(transport.ring_steps, 2 * (world - 1));
      EXPECT_EQ(transport.ring_bytes,
                (world - 1) * static_cast<int64_t>(sizeof(int32_t) + sizeof(Status)));
    });
    const int32_t want_rank = world == 1 ? 0 : 1;
    for (int r = 0; r < world; ++r) {
      EXPECT_EQ(maxes[static_cast<size_t>(r)], want_max) << "rank " << r;
      EXPECT_EQ(worst[static_cast<size_t>(r)].rank, want_rank) << "rank " << r;
      EXPECT_EQ(worst[static_cast<size_t>(r)].code, 100 + want_rank) << "rank " << r;
    }
  }
}

// One "replica": a list of parameters with randomly filled gradients.
using ParamSet = std::vector<std::unique_ptr<Parameter>>;

ParamSet MakeParams(const std::vector<int64_t>& sizes, Rng& rng) {
  ParamSet set;
  for (size_t i = 0; i < sizes.size(); ++i) {
    auto p = std::make_unique<Parameter>("p" + std::to_string(i),
                                         Tensor::Zeros({sizes[i]}));
    for (int64_t j = 0; j < sizes[i]; ++j) {
      p->grad.At(j) = rng.NextUniform(-2.0F, 2.0F);
    }
    set.push_back(std::move(p));
  }
  return set;
}

void CopyGrads(const ParamSet& src, ParamSet& dst) {
  ASSERT_EQ(src.size(), dst.size());
  for (size_t i = 0; i < src.size(); ++i) {
    std::memcpy(dst[i]->grad.Data(), src[i]->grad.Data(),
                static_cast<size_t>(src[i]->grad.NumEl()) * sizeof(float));
  }
}

std::vector<Parameter*> Suffix(const ParamSet& set, size_t first) {
  std::vector<Parameter*> out;
  for (size_t i = first; i < set.size(); ++i) {
    out.push_back(set[i].get());
  }
  return out;
}

// Per-round bitwise comparison state for one transport backend's ring run.
struct RingRunStats {
  int64_t payload_rank0 = 0;
  int64_t wire_sum = 0;
};

// Runs the reference star reduce on `ref` and ring RS+AG over `kind` on
// `ring_set` (both restricted to params [first, end)), then asserts every
// rank's every gradient is bitwise-identical across the two reducers.
RingRunStats ReduceBothAndExpectBitwiseEqual(TransportCase kind, int world,
                                             std::vector<ParamSet>& ref,
                                             std::vector<ParamSet>& ring_set,
                                             size_t first,
                                             GradientAllReducer& reference) {
  std::vector<std::vector<Parameter*>> ref_lists(static_cast<size_t>(world));
  std::vector<std::vector<Parameter*>> ring_lists(static_cast<size_t>(world));
  for (int r = 0; r < world; ++r) {
    ref_lists[static_cast<size_t>(r)] = Suffix(ref[static_cast<size_t>(r)], first);
    ring_lists[static_cast<size_t>(r)] = Suffix(ring_set[static_cast<size_t>(r)], first);
  }
  {
    std::vector<std::thread> threads;
    for (int r = 0; r < world; ++r) {
      threads.emplace_back([&, r] {
        reference.AllReduce(r, ref_lists[static_cast<size_t>(r)]);
      });
    }
    for (auto& t : threads) {
      t.join();
    }
  }
  RingRunStats stats;
  std::mutex stats_mutex;
  RunWorld(kind, world, [&](int rank, Transport& transport) {
    RingAllReducer ring(transport);
    FlatParamView view(ring_lists[static_cast<size_t>(rank)],
                       FlatParamView::Field::kGrad);
    ASSERT_TRUE(ring.ReduceScatterAverageRange(view, 0, view.NumEl()).ok());
    ASSERT_TRUE(ring.AllGatherRange(view, 0, view.NumEl()).ok());
    std::lock_guard<std::mutex> lock(stats_mutex);
    stats.wire_sum += ring.TotalWireBytes();
    if (rank == 0) {
      stats.payload_rank0 = ring.TotalBytesReduced();
    }
  });
  for (int r = 0; r < world; ++r) {
    for (size_t p = first; p < ref[0].size(); ++p) {
      const Tensor& a = ref[static_cast<size_t>(r)][p]->grad;
      const Tensor& b = ring_set[static_cast<size_t>(r)][p]->grad;
      EXPECT_EQ(0, std::memcmp(a.Data(), b.Data(),
                               static_cast<size_t>(a.NumEl()) * sizeof(float)))
          << "transport=" << TransportName(kind) << " world=" << world
          << " rank=" << r << " param=" << p;
    }
  }
  return stats;
}

TEST(RingAllReduce, BitwiseMatchesSequentialReference) {
  // Total 29 elements: not divisible by any tested world size, so every run
  // exercises uneven contract chunks — over BOTH transport backends.
  const std::vector<int64_t> sizes = {5, 7, 3, 11, 2, 1};
  for (TransportCase kind : {TransportCase::kInproc, TransportCase::kTcp}) {
    for (int world : {2, 3, 4}) {
      Rng rng(1234 + static_cast<uint64_t>(world));
      std::vector<ParamSet> ref;
      std::vector<ParamSet> ring_set;
      for (int r = 0; r < world; ++r) {
        ref.push_back(MakeParams(sizes, rng));
        ring_set.push_back(MakeParams(sizes, rng));
        CopyGrads(ref.back(), ring_set.back());
      }
      GradientAllReducer reference(world);
      const RingRunStats stats =
          ReduceBothAndExpectBitwiseEqual(kind, world, ref, ring_set, 0, reference);
      EXPECT_EQ(reference.TotalBytesReduced(), stats.payload_rank0);
      // Ring wire traffic is exactly 2(W-1)/W of the payload per link; summed
      // over the W links that is 2(W-1) x payload for reduce-scatter+all-gather.
      const int64_t total = 29;
      EXPECT_EQ(stats.wire_sum,
                2 * (world - 1) * total * static_cast<int64_t>(sizeof(float)));
    }
  }
}

TEST(RingAllReduce, RepartitionMidRunStaysBitwise) {
  // A rank drops newly frozen stages mid-run: round 0 reduces the full list,
  // later rounds reduce shrinking suffixes. The ring must re-chunk the smaller
  // flat space and stay bitwise-identical to the reference at every round, on
  // both transport backends.
  const std::vector<int64_t> sizes = {6, 1, 9, 4, 7, 2};  // total 29
  for (TransportCase kind : {TransportCase::kInproc, TransportCase::kTcp}) {
    for (int world : {2, 3, 4}) {
      Rng rng(77 + static_cast<uint64_t>(world));
      std::vector<ParamSet> ref;
      std::vector<ParamSet> ring_set;
      for (int r = 0; r < world; ++r) {
        ref.push_back(MakeParams(sizes, rng));
        ring_set.push_back(MakeParams(sizes, rng));
        CopyGrads(ref.back(), ring_set.back());
      }
      GradientAllReducer reference(world);
      for (size_t frozen_params : {size_t{0}, size_t{2}, size_t{3}, size_t{5}}) {
        // Fresh local gradients each round, identical across reducers.
        for (int r = 0; r < world; ++r) {
          for (auto& p : ref[static_cast<size_t>(r)]) {
            for (int64_t j = 0; j < p->grad.NumEl(); ++j) {
              p->grad.At(j) = rng.NextUniform(-2.0F, 2.0F);
            }
          }
          CopyGrads(ref[static_cast<size_t>(r)], ring_set[static_cast<size_t>(r)]);
        }
        ReduceBothAndExpectBitwiseEqual(kind, world, ref, ring_set, frozen_params,
                                        reference);
      }
    }
  }
}

TEST(RingAllReduce, TinyPayloadLeavesEmptyChunks) {
  // Fewer elements than ranks: the trailing contract chunks are empty and the
  // ring must still terminate (zero-length frames keep the schedule in
  // lockstep on the wire) and match the reference bitwise.
  const std::vector<int64_t> sizes = {2, 1};
  const int world = 4;
  for (TransportCase kind : {TransportCase::kInproc, TransportCase::kTcp}) {
    Rng rng(9);
    std::vector<ParamSet> ref;
    std::vector<ParamSet> ring_set;
    for (int r = 0; r < world; ++r) {
      ref.push_back(MakeParams(sizes, rng));
      ring_set.push_back(MakeParams(sizes, rng));
      CopyGrads(ref.back(), ring_set.back());
    }
    GradientAllReducer reference(world);
    ReduceBothAndExpectBitwiseEqual(kind, world, ref, ring_set, 0, reference);
  }
}

TEST(RingAllReduce, WorldOneIsIdentity) {
  Rng rng(5);
  ParamSet set = MakeParams({4, 3}, rng);
  ParamSet orig = MakeParams({4, 3}, rng);
  CopyGrads(set, orig);
  InprocTransportGroup group(1);
  RingAllReducer ring(group.Get(0));
  auto list = Suffix(set, 0);
  FlatParamView view(list, FlatParamView::Field::kGrad);
  ASSERT_TRUE(ring.ReduceScatterAverageRange(view, 0, view.NumEl()).ok());
  ASSERT_TRUE(ring.AllGatherRange(view, 0, view.NumEl()).ok());
  const Span owned = ChunkSpan(view.NumEl(), 1, 0);
  EXPECT_EQ(owned.begin, 0);
  EXPECT_EQ(owned.end, 7);
  for (size_t p = 0; p < set.size(); ++p) {
    EXPECT_EQ(0, std::memcmp(set[p]->grad.Data(), orig[p]->grad.Data(),
                             static_cast<size_t>(set[p]->grad.NumEl()) * sizeof(float)));
  }
  EXPECT_EQ(ring.TotalWireBytes(), 0);
}

class DistTrainerTest : public ::testing::Test {
 protected:
  static std::unique_ptr<ChainModel> MakeModel() {
    Rng rng(41);
    CifarResNetConfig mcfg;
    mcfg.blocks_per_stage = 1;
    mcfg.base_width = 4;
    mcfg.num_classes = 4;
    return PartitionIntoChain("r", BuildCifarResNetBlocks(mcfg, rng),
                              PartitionConfig{.target_modules = 3});
  }
};

TEST_F(DistTrainerTest, ReplicasStayConsistentAndLearn) {
  SyntheticImageConfig dcfg;
  dcfg.num_classes = 4;
  dcfg.num_samples = 128;
  dcfg.height = 10;
  dcfg.width = 10;
  dcfg.noise_std = 0.4F;
  SyntheticImageDataset train(dcfg);
  auto vcfg = dcfg;
  vcfg.sample_salt = 999999;
  vcfg.num_samples = 32;
  SyntheticImageDataset val(vcfg);

  DistTrainConfig cfg;
  cfg.world = 2;
  cfg.epochs = 6;
  cfg.batch_size = 8;
  cfg.task.kind = TaskKind::kClassification;
  cfg.lr_schedule = std::make_shared<ConstantLr>(0.05F);
  DistTrainResult r = TrainDataParallel(MakeModel, train, val, cfg);
  EXPECT_TRUE(r.replicas_consistent);
  EXPECT_GT(r.final_display, 0.6);
  EXPECT_EQ(r.bytes_synced, r.bytes_full_model);  // Nothing frozen.
}

TEST_F(DistTrainerTest, EgeriaCutsSynchronizationTraffic) {
  SyntheticImageConfig dcfg;
  dcfg.num_classes = 4;
  dcfg.num_samples = 128;
  dcfg.height = 10;
  dcfg.width = 10;
  dcfg.noise_std = 0.4F;
  SyntheticImageDataset train(dcfg);
  auto vcfg = dcfg;
  vcfg.sample_salt = 999999;
  vcfg.num_samples = 32;
  SyntheticImageDataset val(vcfg);

  DistTrainConfig cfg;
  cfg.world = 2;
  cfg.epochs = 20;
  cfg.batch_size = 8;
  cfg.task.kind = TaskKind::kClassification;
  cfg.lr_schedule = std::make_shared<ConstantLr>(0.05F);
  cfg.enable_egeria = true;
  cfg.egeria.tolerance_coef = 0.4;  // Short run: loosen the slope tolerance.
  cfg.egeria.async_controller = false;
  cfg.egeria.eval_interval_n = 4;
  cfg.egeria.window_w = 3;
  cfg.egeria.enable_cache = false;
  cfg.egeria.ref_update_evals = 2;
  DistTrainResult r = TrainDataParallel(MakeModel, train, val, cfg);
  EXPECT_TRUE(r.replicas_consistent);
  EXPECT_GT(r.final_frontier, 0) << "controller froze nothing";
  EXPECT_LT(r.bytes_synced, r.bytes_full_model);
}

// The ZeRO-1 ring path and the replicated reference path implement the same
// reduction contract and the same compiled SGD arithmetic, so whole training
// runs must agree bitwise — with and without freezing mid-run.
TEST_F(DistTrainerTest, ShardedPathBitwiseMatchesReferencePath) {
  SyntheticImageConfig dcfg;
  dcfg.num_classes = 4;
  dcfg.num_samples = 128;
  dcfg.height = 10;
  dcfg.width = 10;
  dcfg.noise_std = 0.4F;
  SyntheticImageDataset train(dcfg);
  auto vcfg = dcfg;
  vcfg.sample_salt = 999999;
  vcfg.num_samples = 32;
  SyntheticImageDataset val(vcfg);

  for (int world : {2, 3}) {
    DistTrainConfig cfg;
    cfg.world = world;
    cfg.epochs = 4;
    cfg.batch_size = 8;
    cfg.task.kind = TaskKind::kClassification;
    cfg.lr_schedule = std::make_shared<ConstantLr>(0.05F);
    cfg.reducer = DistTrainConfig::Reducer::kSequentialReference;
    DistTrainResult ref = TrainDataParallel(MakeModel, train, val, cfg);
    cfg.reducer = DistTrainConfig::Reducer::kRingSharded;
    DistTrainResult ring = TrainDataParallel(MakeModel, train, val, cfg);
    // Same schedule, real sockets: the TCP backend must not change a single bit.
    cfg.transport = DistTrainConfig::TransportKind::kTcp;
    DistTrainResult tcp = TrainDataParallel(MakeModel, train, val, cfg);

    EXPECT_TRUE(ref.replicas_consistent);
    EXPECT_TRUE(ring.replicas_consistent);
    EXPECT_TRUE(tcp.replicas_consistent);
    EXPECT_EQ(ref.params_hash, ring.params_hash) << "world=" << world;
    EXPECT_EQ(ref.params_hash, tcp.params_hash) << "world=" << world;
    EXPECT_EQ(ref.bytes_synced, ring.bytes_synced);
    EXPECT_EQ(ring.wire_bytes, tcp.wire_bytes);
    EXPECT_EQ(ref.wire_bytes, 0);   // reference path reports no ring traffic
    EXPECT_GT(ring.wire_bytes, 0);
    EXPECT_DOUBLE_EQ(ref.final_score, ring.final_score);
    EXPECT_DOUBLE_EQ(ref.final_score, tcp.final_score);
  }
}

TEST_F(DistTrainerTest, EgeriaShardedRunMatchesReferenceAndShrinksState) {
  SyntheticImageConfig dcfg;
  dcfg.num_classes = 4;
  dcfg.num_samples = 128;
  dcfg.height = 10;
  dcfg.width = 10;
  dcfg.noise_std = 0.4F;
  SyntheticImageDataset train(dcfg);
  auto vcfg = dcfg;
  vcfg.sample_salt = 999999;
  vcfg.num_samples = 32;
  SyntheticImageDataset val(vcfg);

  DistTrainConfig cfg;
  cfg.world = 2;
  cfg.epochs = 20;
  cfg.batch_size = 8;
  cfg.task.kind = TaskKind::kClassification;
  cfg.lr_schedule = std::make_shared<ConstantLr>(0.05F);
  cfg.enable_egeria = true;
  cfg.egeria.tolerance_coef = 0.4;
  cfg.egeria.async_controller = false;
  cfg.egeria.eval_interval_n = 4;
  cfg.egeria.window_w = 3;
  cfg.egeria.enable_cache = false;
  cfg.egeria.ref_update_evals = 2;

  cfg.reducer = DistTrainConfig::Reducer::kRingSharded;
  DistTrainResult ring = TrainDataParallel(MakeModel, train, val, cfg);
  cfg.reducer = DistTrainConfig::Reducer::kSequentialReference;
  DistTrainResult ref = TrainDataParallel(MakeModel, train, val, cfg);
  // The whole freezing run again over real sockets: mid-run freeze + reshard
  // (momentum migration as ring messages) must reproduce the weights bitwise.
  cfg.reducer = DistTrainConfig::Reducer::kRingSharded;
  cfg.transport = DistTrainConfig::TransportKind::kTcp;
  DistTrainResult tcp = TrainDataParallel(MakeModel, train, val, cfg);

  // Identical training: same freeze timeline, same weights, bit for bit.
  EXPECT_TRUE(ring.replicas_consistent);
  EXPECT_GT(ring.final_frontier, 0) << "controller froze nothing";
  EXPECT_EQ(ring.final_frontier, ref.final_frontier);
  EXPECT_EQ(ring.params_hash, ref.params_hash);
  EXPECT_TRUE(tcp.replicas_consistent);
  EXPECT_EQ(tcp.final_frontier, ring.final_frontier);
  EXPECT_EQ(tcp.params_hash, ring.params_hash);
  ASSERT_EQ(tcp.reshard_events.size(), ring.reshard_events.size());
  for (size_t i = 0; i < ring.reshard_events.size(); ++i) {
    EXPECT_EQ(tcp.reshard_events[i].iter, ring.reshard_events[i].iter);
    EXPECT_EQ(tcp.reshard_events[i].frontier, ring.reshard_events[i].frontier);
    EXPECT_EQ(tcp.reshard_events[i].payload_bytes_per_iter,
              ring.reshard_events[i].payload_bytes_per_iter);
  }

  // The freeze->reshard protocol: the initial partition plus one event per
  // frontier move; every move strictly shrinks the active space, the ring
  // payload, and the per-rank optimizer state (Fig. 10's scaling argument).
  ASSERT_GE(ring.reshard_events.size(), 2U) << "no reshard after freezing";
  EXPECT_EQ(ring.reshard_events[0].frontier, 0);
  for (size_t i = 1; i < ring.reshard_events.size(); ++i) {
    const DistReshardEvent& prev = ring.reshard_events[i - 1];
    const DistReshardEvent& ev = ring.reshard_events[i];
    EXPECT_GT(ev.frontier, prev.frontier);
    EXPECT_LT(ev.active_elems, prev.active_elems);
    EXPECT_LT(ev.payload_bytes_per_iter, prev.payload_bytes_per_iter);
    EXPECT_LT(ev.opt_state_bytes_per_rank, prev.opt_state_bytes_per_rank);
  }
  EXPECT_EQ(ref.reshard_events.size(), 0U);
  EXPECT_LT(ring.bytes_synced, ring.bytes_full_model);

  // ZeRO-1 memory claim: each rank holds ~1/world of the active velocity.
  const DistReshardEvent& first = ring.reshard_events[0];
  EXPECT_LE(first.opt_state_bytes_per_rank,
            first.active_elems * static_cast<int64_t>(sizeof(float)) / cfg.world +
                static_cast<int64_t>(sizeof(float)));
}

// ---- Checkpoint/restore: the bitwise-resume contract at harness level ----

std::string MakeCkptDir(const std::string& label) {
  std::string tmpl =
      (std::filesystem::temp_directory_path() / ("egeria-" + label + "-XXXXXX"))
          .string();
  EXPECT_NE(nullptr, mkdtemp(tmpl.data()));
  return tmpl;
}

// A world that dies mid-run (here: a clean lockstep stop standing in for the
// crash) and restarts against the same checkpoint directory must finish with
// final weights bit-identical to the uninterrupted run — including freeze
// decisions and shard repartitions that happen AFTER the resume point.
TEST(DistResume, SameWorldResumeBitwiseMatchesUninterrupted) {
  DistWorkload w = MakeDistWorkload("tiny");
  w.cfg.world = 3;
  w.cfg.enable_egeria = true;
  const DistTrainResult ref = TrainDataParallel(w.make_model, *w.train, *w.val, w.cfg);
  ASSERT_TRUE(ref.replicas_consistent);
  ASSERT_GT(ref.final_frontier, 0) << "workload no longer freezes; test is hollow";

  const std::string dir = MakeCkptDir("dresume");
  DistWorkload crash = MakeDistWorkload("tiny");
  crash.cfg.world = 3;
  crash.cfg.enable_egeria = true;
  crash.cfg.ckpt.dir = dir;
  crash.cfg.ckpt.interval_iters = 7;
  crash.cfg.stop_after_iters = 37;
  const DistTrainResult stopped =
      TrainDataParallel(crash.make_model, *crash.train, *crash.val, crash.cfg);
  EXPECT_TRUE(stopped.stopped_early);
  ASSERT_LT(stopped.iterations, ref.iterations);

  DistWorkload resume = MakeDistWorkload("tiny");
  resume.cfg.world = 3;
  resume.cfg.enable_egeria = true;
  resume.cfg.ckpt.dir = dir;
  resume.cfg.ckpt.interval_iters = 7;
  const DistTrainResult resumed =
      TrainDataParallel(resume.make_model, *resume.train, *resume.val, resume.cfg);
  EXPECT_EQ(resumed.resumed_from_iter, 37);
  EXPECT_TRUE(resumed.replicas_consistent);
  EXPECT_EQ(resumed.final_frontier, ref.final_frontier);
  EXPECT_EQ(resumed.params_hash, ref.params_hash)
      << "resume diverged from the uninterrupted run";
  EXPECT_EQ(resumed.iterations, ref.iterations);
  std::filesystem::remove_all(dir);
}

// The star reference reducer does not checkpoint: a config that asks it to is
// rejected at entry instead of silently running without saves.
TEST(DistResumeDeathTest, ReferenceReducerRejectsCheckpointDir) {
  DistWorkload w = MakeDistWorkload("tiny");
  w.cfg.world = 2;
  w.cfg.reducer = DistTrainConfig::Reducer::kSequentialReference;
  w.cfg.ckpt.dir = MakeCkptDir("refckpt");
  w.cfg.ckpt.interval_iters = 4;
  EXPECT_DEATH(TrainDataParallel(w.make_model, *w.train, *w.val, w.cfg),
               "does not checkpoint");
  std::filesystem::remove_all(w.cfg.ckpt.dir);
}

// Elastic restart: a world-4 checkpoint resumed at world 3. The saved momentum
// shards are re-folded through the reduction-contract partition, so any two
// resumes of the same checkpoint at the new world size — inproc threads or
// real TCP sockets — must agree bitwise.
TEST(DistResume, ElasticResumeWorld4To3AgreesAcrossTransports) {
  const std::string dir_a = MakeCkptDir("elasticA");
  const std::string dir_b = MakeCkptDir("elasticB");

  DistWorkload stage = MakeDistWorkload("tiny");
  stage.cfg.world = 4;
  stage.cfg.enable_egeria = true;
  stage.cfg.ckpt.dir = dir_a;
  stage.cfg.ckpt.interval_iters = 6;
  stage.cfg.stop_after_iters = 24;
  const DistTrainResult staged =
      TrainDataParallel(stage.make_model, *stage.train, *stage.val, stage.cfg);
  ASSERT_TRUE(staged.stopped_early);
  // Clone the checkpoint before any resume appends newer steps to it.
  std::filesystem::copy(dir_a, dir_b, std::filesystem::copy_options::recursive);
  const auto latest = FindLatestCheckpoint(dir_b);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->iter, 24);
  EXPECT_EQ(latest->world, 4);  // Written by world 4, about to resume at 3.

  auto resume_at_3 = [](const std::string& dir,
                        DistTrainConfig::TransportKind transport) {
    DistWorkload w = MakeDistWorkload("tiny");
    w.cfg.world = 3;
    w.cfg.enable_egeria = true;
    w.cfg.transport = transport;
    w.cfg.ckpt.dir = dir;
    w.cfg.ckpt.interval_iters = 6;
    return TrainDataParallel(w.make_model, *w.train, *w.val, w.cfg);
  };
  const DistTrainResult inproc =
      resume_at_3(dir_a, DistTrainConfig::TransportKind::kInproc);
  const DistTrainResult tcp = resume_at_3(dir_b, DistTrainConfig::TransportKind::kTcp);

  EXPECT_EQ(inproc.resumed_from_iter, 24);
  EXPECT_EQ(tcp.resumed_from_iter, 24);
  EXPECT_TRUE(inproc.replicas_consistent);
  EXPECT_TRUE(tcp.replicas_consistent);
  EXPECT_EQ(inproc.params_hash, tcp.params_hash)
      << "elastic resume is transport-dependent";
  EXPECT_EQ(inproc.final_frontier, tcp.final_frontier);
  std::filesystem::remove_all(dir_a);
  std::filesystem::remove_all(dir_b);
}

}  // namespace
}  // namespace egeria
