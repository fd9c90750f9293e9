// Backward-overlapped bucketed reduction (overlap_reducer.h): the tentpole
// bitwise contract. The overlapped per-stage bucket rounds must produce values,
// gradients, and momentum bitwise-identical to one whole-space round
// — at worlds 2/3/4, over BOTH transport backends, with empty buckets, bucket
// extents that do not divide by the world size, and (at harness level) mid-run
// freeze/reshard. Also covers the failure path (a corrupt frame mid-overlap
// surfaces as a typed error from FinishRound, never a hang) and the async
// checkpoint path (background writes persist bitwise-identical state).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/ckpt/checkpoint.h"
#include "src/distributed/allreduce.h"
#include "src/distributed/dist_trainer.h"
#include "src/distributed/dist_workload.h"
#include "src/distributed/flat_view.h"
#include "src/distributed/overlap_reducer.h"
#include "src/distributed/transport/fault_injection.h"
#include "src/distributed/transport/inproc_transport.h"
#include "src/distributed/transport/integrity_transport.h"
#include "src/distributed/transport/tcp_transport.h"
#include "src/obs/metrics.h"
#include "src/optim/sharded_optimizer.h"
#include "src/util/rng.h"

namespace egeria {
namespace {

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
  char tmpl[] = "/tmp/egeria-overlap-test-XXXXXX";
  ASSERT_NE(nullptr, mkdtemp(tmpl));
  const std::string rendezvous = std::string(tmpl) + "/rendezvous";
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      TcpTransportOptions opts;
      opts.rank = r;
      opts.world = world;
      opts.rendezvous_file = rendezvous;
      opts.io_timeout_s = 30.0;  // backstop: these tests must not hang
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

using ParamSet = std::vector<std::unique_ptr<Parameter>>;

// One replica: values identical across ranks (replicas start in sync), grads
// distinct per (rank, round). Sizes may be zero — an empty bucket.
ParamSet MakeReplica(const std::vector<int64_t>& sizes, int rank) {
  ParamSet set;
  for (size_t i = 0; i < sizes.size(); ++i) {
    auto p = std::make_unique<Parameter>("p" + std::to_string(i),
                                         Tensor::Zeros({std::max<int64_t>(sizes[i], 0)}));
    Rng vrng(1000 + static_cast<uint64_t>(i));  // same values on every rank
    for (int64_t j = 0; j < sizes[i]; ++j) {
      p->value.At(j) = vrng.NextUniform(-1.0F, 1.0F);
    }
    (void)rank;
    set.push_back(std::move(p));
  }
  return set;
}

void FillGrads(ParamSet& set, int rank, int round) {
  for (size_t i = 0; i < set.size(); ++i) {
    Rng grng(17 + static_cast<uint64_t>(rank) * 131 +
             static_cast<uint64_t>(round) * 1009 + static_cast<uint64_t>(i));
    for (int64_t j = 0; j < set[i]->grad.NumEl(); ++j) {
      set[i]->grad.At(j) = grng.NextUniform(-2.0F, 2.0F);
    }
  }
}

std::vector<Parameter*> Raw(const ParamSet& set) {
  std::vector<Parameter*> out;
  for (const auto& p : set) {
    out.push_back(p.get());
  }
  return out;
}

std::vector<OverlapReducer::Bucket> StageBuckets(const std::vector<int64_t>& sizes) {
  std::vector<OverlapReducer::Bucket> buckets;
  int64_t offset = 0;
  for (size_t i = 0; i < sizes.size(); ++i) {
    buckets.push_back(
        OverlapReducer::Bucket{static_cast<int>(i), offset, offset + sizes[i]});
    offset += sizes[i];
  }
  return buckets;
}

// The core pin: several overlapped rounds (momentum accumulating across
// rounds) against whole-space rounds, every world size, both
// backends, with an empty bucket in the middle and a total (29) that no
// tested world size divides.
TEST(OverlapReducerBitwise, BucketRoundsMatchSequentialFullSpaceRounds) {
  const std::vector<int64_t> sizes = {5, 7, 0, 3, 11, 2, 1};  // total 29
  const int rounds = 3;
  const float lr = 0.05F;
  for (TransportCase kind : {TransportCase::kInproc, TransportCase::kTcp}) {
    for (int world : {2, 3, 4}) {
      // Per-rank final states, gathered for cross-path comparison.
      std::vector<std::vector<float>> overlap_values(static_cast<size_t>(world));
      std::vector<std::vector<float>> seq_values(static_cast<size_t>(world));
      std::vector<std::vector<float>> overlap_grads(static_cast<size_t>(world));
      std::vector<std::vector<float>> seq_grads(static_cast<size_t>(world));

      auto run = [&](bool overlapped, std::vector<std::vector<float>>& out_values,
                     std::vector<std::vector<float>>& out_grads) {
        RunWorld(kind, world, [&](int rank, Transport& transport) {
          ParamSet set = MakeReplica(sizes, rank);
          std::vector<Parameter*> params = Raw(set);
          FlatParamView grads(params, FlatParamView::Field::kGrad);
          FlatParamView values(params, FlatParamView::Field::kValue);
          RingAllReducer ring(transport);
          ShardedSgd opt(0.9F, 1e-4F);
          std::pair<int64_t, int64_t> shard{0, 0};
          ASSERT_TRUE(opt.Reshard(transport, 0, values.NumEl(), &shard).ok());
          OverlapReducer reducer(transport, ring, opt);
          for (int round = 0; round < rounds; ++round) {
            FillGrads(set, rank, round);
            if (overlapped) {
              reducer.BeginRound(&grads, &values, StageBuckets(sizes),
                                 shard.first, shard.second, lr);
              // Stand-in for backward: notify deep-to-front (ready sets grow
              // as suffixes of the bucket order), with rank-skewed pacing so
              // the agreement scheduler sees genuinely divergent ready sets.
              for (int stage = static_cast<int>(sizes.size()) - 1; stage >= 0;
                   --stage) {
                if ((rank + round + stage) % world == 0) {
                  usleep(300);
                }
                reducer.NotifyStageReady(stage);
              }
              ASSERT_TRUE(reducer.FinishRound().ok())
                  << TransportName(kind) << " world " << world;
            } else {
              ASSERT_TRUE(
                  ring.ReduceScatterAverageRange(grads, 0, grads.NumEl()).ok());
              opt.Step(values, grads, shard.first, shard.second, lr);
              ASSERT_TRUE(ring.AllGatherRange(values, 0, values.NumEl()).ok());
            }
          }
          std::vector<float> v(static_cast<size_t>(values.NumEl()));
          std::vector<float> g(static_cast<size_t>(grads.NumEl()));
          values.CopyOut(0, values.NumEl(), v.data());
          grads.CopyOut(0, grads.NumEl(), g.data());
          out_values[static_cast<size_t>(rank)] = std::move(v);
          out_grads[static_cast<size_t>(rank)] = std::move(g);
        });
      };
      run(true, overlap_values, overlap_grads);
      run(false, seq_values, seq_grads);

      for (int r = 0; r < world; ++r) {
        ASSERT_EQ(overlap_values[static_cast<size_t>(r)].size(),
                  seq_values[static_cast<size_t>(r)].size());
        EXPECT_EQ(0, std::memcmp(overlap_values[static_cast<size_t>(r)].data(),
                                 seq_values[static_cast<size_t>(r)].data(),
                                 overlap_values[static_cast<size_t>(r)].size() *
                                     sizeof(float)))
            << "values diverged: " << TransportName(kind) << " world " << world
            << " rank " << r;
        EXPECT_EQ(0, std::memcmp(overlap_grads[static_cast<size_t>(r)].data(),
                                 seq_grads[static_cast<size_t>(r)].data(),
                                 overlap_grads[static_cast<size_t>(r)].size() *
                                     sizeof(float)))
            << "reduced grads diverged: " << TransportName(kind) << " world "
            << world << " rank " << r;
        // All replicas identical after the all-gather (both paths).
        EXPECT_EQ(overlap_values[static_cast<size_t>(r)],
                  overlap_values[0]);
      }
    }
  }
}

// Harness-level pin over whole freezing training runs: overlap on vs off vs
// the sequential reference reducer, with the Egeria controller moving the
// frontier mid-run (buckets leave the schedule as stages freeze, shards
// repartition). Worlds 2/3/4, and the overlapped path again over real TCP.
TEST(OverlapTrainer, FreezingRunBitwiseAcrossOverlapModesAndTransports) {
  for (int world : {2, 3, 4}) {
    SCOPED_TRACE("world " + std::to_string(world));
    auto run = [&](DistTrainConfig::Reducer reducer, bool overlap,
                   DistTrainConfig::TransportKind transport) {
      DistWorkload w = MakeDistWorkload("tiny");
      w.cfg.world = world;
      w.cfg.enable_egeria = true;
      w.cfg.reducer = reducer;
      w.cfg.overlap_comm = overlap;
      w.cfg.transport = transport;
      // One bucket per stage (no coalescing): the harness-level pin must
      // drive the multi-bucket agreement path, not a single merged round.
      w.cfg.overlap_min_bucket_elems = 0;
      return TrainDataParallel(w.make_model, *w.train, *w.val, w.cfg);
    };
    const DistTrainResult ref =
        run(DistTrainConfig::Reducer::kSequentialReference, false,
            DistTrainConfig::TransportKind::kInproc);
    obs::Counter& buckets = obs::GetCounter("comm.buckets");
    const int64_t buckets_before = buckets.Get();
    const DistTrainResult seq = run(DistTrainConfig::Reducer::kRingSharded, false,
                                    DistTrainConfig::TransportKind::kInproc);
    // overlap_comm=false is the one-bucket layout of the same round: one
    // bucket per rank per iteration, through freezes and reshards, whatever
    // overlap_min_bucket_elems says.
    EXPECT_EQ(buckets.Get() - buckets_before, seq.iterations * world);
    const DistTrainResult ovl = run(DistTrainConfig::Reducer::kRingSharded, true,
                                    DistTrainConfig::TransportKind::kInproc);
    const DistTrainResult tcp = run(DistTrainConfig::Reducer::kRingSharded, true,
                                    DistTrainConfig::TransportKind::kTcp);

    ASSERT_TRUE(ref.replicas_consistent);
    ASSERT_TRUE(seq.replicas_consistent);
    ASSERT_TRUE(ovl.replicas_consistent);
    ASSERT_TRUE(tcp.replicas_consistent);
    EXPECT_GT(ovl.final_frontier, 0)
        << "controller froze nothing; the mid-run reshard path went untested";
    EXPECT_EQ(ovl.params_hash, ref.params_hash) << "overlap vs reference";
    EXPECT_EQ(ovl.params_hash, seq.params_hash) << "overlap vs sequential ring";
    EXPECT_EQ(tcp.params_hash, ovl.params_hash) << "overlap inproc vs tcp";
    EXPECT_EQ(ovl.final_frontier, ref.final_frontier);
    EXPECT_EQ(ovl.bytes_synced, seq.bytes_synced);
    // Same collectives, same wire: overlapping changes when bytes move, not
    // how many (modulo the agreement frames, counted outside the ring).
    EXPECT_EQ(ovl.wire_bytes, seq.wire_bytes);
  }
}

// Failure path: a frame corrupted mid-overlap (the comm thread is inside a
// bucket round when the integrity layer trips) must surface as a typed error
// from FinishRound on the affected ranks and unwind every rank — no hang, no
// crash, no partial state consumed.
TEST(OverlapReducerFaults, CorruptFrameMidOverlapSurfacesTypedErrorEverywhere) {
  const std::vector<int64_t> sizes = {5, 7, 3, 11, 2, 1};
  const int world = 3;
  const int faulty = 1;
  FaultPlan plan;
  std::string perror;
  ASSERT_TRUE(FaultPlan::Parse("corrupt:1", world, faulty, &plan, &perror))
      << perror;
  std::vector<TransportStatus> finish(static_cast<size_t>(world));
  RunWorld(TransportCase::kInproc, world, [&](int rank, Transport& base) {
    FaultPlan mine = rank == faulty ? plan : FaultPlan{};
    FaultInjectingTransport injector(&base, mine);
    IntegrityTransport checked(&injector);
    injector.BeginIteration(1);
    ParamSet set = MakeReplica(sizes, rank);
    std::vector<Parameter*> params = Raw(set);
    FillGrads(set, rank, 0);
    FlatParamView grads(params, FlatParamView::Field::kGrad);
    FlatParamView values(params, FlatParamView::Field::kValue);
    RingAllReducer ring(checked);
    ShardedSgd opt(0.9F, 1e-4F);
    std::pair<int64_t, int64_t> shard{0, 0};
    const TransportStatus rs = opt.Reshard(checked, 0, values.NumEl(), &shard);
    if (!rs.ok()) {
      finish[static_cast<size_t>(rank)] = rs;  // fault hit the reshard itself
      return;
    }
    OverlapReducer reducer(checked, ring, opt);
    reducer.BeginRound(&grads, &values, StageBuckets(sizes), shard.first,
                       shard.second, 0.05F);
    for (int stage = static_cast<int>(sizes.size()) - 1; stage >= 0; --stage) {
      reducer.NotifyStageReady(stage);
    }
    finish[static_cast<size_t>(rank)] = reducer.FinishRound();
  });
  // Every rank unwound with a typed error (the corrupting rank's neighbor
  // detects the checksum; the poisoned group aborts the rest).
  int checksum_reports = 0;
  for (int r = 0; r < world; ++r) {
    const TransportStatus& st = finish[static_cast<size_t>(r)];
    EXPECT_FALSE(st.ok()) << "rank " << r << " never observed the corruption";
    EXPECT_TRUE(st.code == TransportError::kChecksum ||
                st.code == TransportError::kSequence ||
                st.code == TransportError::kAborted ||
                st.code == TransportError::kPeerClosed)
        << "rank " << r << ": " << st.message;
    if (st.code == TransportError::kChecksum) {
      ++checksum_reports;
    }
  }
  EXPECT_GE(checksum_reports, 1) << "nobody attributed the corrupt frame";
}

// Async checkpointing persists bitwise the same bytes the inline save would
// have: same manifests (per-file sizes AND content hashes), and a resume from
// either reproduces the uninterrupted run exactly.
TEST(AsyncCheckpoint, BackgroundSavePersistsBitwiseIdenticalState) {
  auto make_dir = [](const std::string& label) {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / ("egeria-" + label + "-XXXXXX"))
            .string();
    EXPECT_NE(nullptr, mkdtemp(tmpl.data()));
    return tmpl;
  };
  const std::string dir_async = make_dir("async");
  const std::string dir_sync = make_dir("sync");

  auto stage = [&](const std::string& dir, bool async_save) {
    DistWorkload w = MakeDistWorkload("tiny");
    w.cfg.world = 3;
    w.cfg.enable_egeria = true;
    w.cfg.ckpt.dir = dir;
    w.cfg.ckpt.interval_iters = 4;
    w.cfg.ckpt.async_save = async_save;
    w.cfg.stop_after_iters = 10;
    return TrainDataParallel(w.make_model, *w.train, *w.val, w.cfg);
  };
  const DistTrainResult a = stage(dir_async, true);
  const DistTrainResult s = stage(dir_sync, false);
  ASSERT_TRUE(a.stopped_early);
  ASSERT_TRUE(s.stopped_early);
  EXPECT_EQ(a.params_hash, s.params_hash);

  const auto ma = FindLatestCheckpoint(dir_async);
  const auto ms = FindLatestCheckpoint(dir_sync);
  ASSERT_TRUE(ma.has_value());
  ASSERT_TRUE(ms.has_value());
  EXPECT_EQ(ma->iter, 10);
  EXPECT_EQ(ms->iter, ma->iter);
  // Same files, same bytes, same content hashes — capture-then-background
  // write changed WHEN the bytes landed, not WHICH bytes.
  std::map<std::string, std::pair<int64_t, uint64_t>> af;
  for (const ManifestFile& f : ma->files) {
    af[f.name] = {f.bytes, f.fnv};
  }
  ASSERT_EQ(ms->files.size(), af.size());
  for (const ManifestFile& f : ms->files) {
    const auto it = af.find(f.name);
    ASSERT_NE(it, af.end()) << "async manifest missing " << f.name;
    EXPECT_EQ(it->second.first, f.bytes) << f.name;
    if (f.name == "controller.state") {
      // Serializes measured eval wall-seconds — nondeterministic between ANY
      // two runs (sync included), so content equality is not expected here.
      continue;
    }
    EXPECT_EQ(it->second.second, f.fnv)
        << f.name << " persisted different bytes under the async writer";
  }

  // Both resumes continue to the same final weights as each other.
  auto resume = [&](const std::string& dir, bool async_save) {
    DistWorkload w = MakeDistWorkload("tiny");
    w.cfg.world = 3;
    w.cfg.enable_egeria = true;
    w.cfg.ckpt.dir = dir;
    w.cfg.ckpt.interval_iters = 4;
    w.cfg.ckpt.async_save = async_save;
    return TrainDataParallel(w.make_model, *w.train, *w.val, w.cfg);
  };
  const DistTrainResult ra = resume(dir_async, true);
  const DistTrainResult rs = resume(dir_sync, false);
  EXPECT_EQ(ra.resumed_from_iter, 10);
  EXPECT_EQ(rs.resumed_from_iter, 10);
  EXPECT_TRUE(ra.replicas_consistent);
  EXPECT_EQ(ra.params_hash, rs.params_hash)
      << "async-saved checkpoint resumed to different weights";
  std::filesystem::remove_all(dir_async);
  std::filesystem::remove_all(dir_sync);
}

}  // namespace
}  // namespace egeria
