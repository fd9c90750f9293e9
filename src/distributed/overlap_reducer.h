// The ZeRO-1 gradient round: every ring-sharded TrainRank iteration runs one
// round here — ring reduce-scatter of the gradients, the owner-shard optimizer
// step, ring all-gather of the updated values — split into BUCKETS that a
// dedicated comm thread processes as backward hands them over.
//
// Two bucket layouts, chosen by the trainer (DistTrainConfig::overlap_comm):
//  - per stage (overlap on): one contiguous range per unfrozen stage, in
//    ParamsFrom order, adjacent small stages coalesced; frozen stages have no
//    bucket at all. The trainer's backward fires a per-stage observer the
//    moment a stage's gradients are final, so a stage's bucket round runs
//    while the main thread keeps computing the remaining (earlier) stages'
//    backward — the paper's Fig. 10 "composes with ByteScheduler" claim, made
//    real on the byte Transport instead of simulated by comm_scheduler.cc.
//  - one bucket (overlap off): the whole active space, labelled with the
//    frontier stage, so it is ready only when backward has finished. This is
//    the classic post-backward round; a lone bucket skips the agreement ring,
//    so its transport calls are exactly the 2(W-1) ring steps.
//
// Bitwise contract. A bucket round circulates the intersection of the GLOBAL
// reduction-contract chunks with the bucket range (allreduce.h,
// ReduceScatterAverageRange), so every element keeps the chunk owner and fold
// order it has in the full-space round; buckets are disjoint and cover the
// space, so the union of bucket rounds is bitwise-equal to the one-bucket
// round — and hence to the sequential reference reducer — regardless of the
// layout and of the order buckets are processed in.
//
// Scheduling. Ranks may reach readiness at different times, but every
// collective needs all ranks on the same bucket. Before each bucket round
// (except the last, whose choice is forced) the comm threads run a ring
// agreement (RingReduce, transport/ring_schedule.h): each rank circulates the
// index of its front-most (minimum stage) locally-ready unprocessed bucket
// and everyone takes the max. Backward readiness grows from the back of the
// model, so each rank's ready set is a suffix of the bucket order and the
// max-of-mins is ready (or imminently ready) on every rank — deadlock-free, and it
// implements exactly comm_scheduler.cc's ByteScheduler priority: among ready
// buckets, front stages go first (they gate the next iteration's forward).
// The choice only affects timing, never bits (buckets are disjoint).
//
// Threading. The comm thread is the transport's ONLY user from BeginRound
// until FinishRound returns; the trainer does all its other collectives
// (control broadcast, checkpoint rendezvous, reshard) outside that window.
// Bucket ranges are published under the mutex before backward writes later
// stages' gradients, and a bucket's values are written only after that
// stage's backward finished reading them — no data races by construction.
#ifndef EGERIA_SRC_DISTRIBUTED_OVERLAP_REDUCER_H_
#define EGERIA_SRC_DISTRIBUTED_OVERLAP_REDUCER_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "src/distributed/allreduce.h"
#include "src/distributed/flat_view.h"
#include "src/distributed/transport/transport.h"
#include "src/optim/sharded_optimizer.h"

namespace egeria {

class OverlapReducer {
 public:
  // One slice of the ACTIVE flat space ([begin, end) are offsets into the
  // FlatParamView over ParamsFrom(frontier)), ready once `stage` finished
  // backward. Buckets must be disjoint, ascending, and identical across ranks
  // (they derive from shared model geometry + the broadcast frontier).
  struct Bucket {
    int stage = 0;
    int64_t begin = 0;
    int64_t end = 0;
  };

  // Per-round overlap accounting (all ranks measure; rank 0's is reported).
  struct RoundStats {
    double comm_seconds = 0.0;     // wall seconds inside ring collectives
    double exposed_seconds = 0.0;  // FinishRound block time (comm NOT hidden)
    double hidden_seconds = 0.0;   // max(0, comm - exposed): hidden behind bp
  };

  // `ring` and `opt` must outlive this reducer; the comm thread calls into
  // both. The thread is parked between rounds.
  OverlapReducer(Transport& transport, RingAllReducer& ring, ShardedSgd& opt);
  ~OverlapReducer();

  OverlapReducer(const OverlapReducer&) = delete;
  OverlapReducer& operator=(const OverlapReducer&) = delete;

  // Arms one overlapped round. `grads`/`values` must stay valid through
  // FinishRound; [shard_begin, shard_end) is this rank's optimizer shard in
  // active-space coordinates. Call immediately before BackwardTo; the
  // transport belongs to the comm thread until FinishRound returns.
  void BeginRound(FlatParamView* grads, FlatParamView* values,
                  std::vector<Bucket> buckets, int64_t shard_begin,
                  int64_t shard_end, float lr);

  // Marks `stage`'s bucket ready (wire this as the model's stage-backward
  // observer). Stages without a bucket (frozen, or no parameters) are
  // ignored. Cheap: one mutex hop + notify.
  void NotifyStageReady(int stage);

  // Blocks until every bucket's collectives completed (or the round aborted),
  // then returns the transport back to the caller. Returns the first
  // transport error of the round; on error the round is abandoned and the
  // views hold partial state that must not be consumed.
  TransportStatus FinishRound();

  const RoundStats& LastRound() const { return last_round_; }
  double TotalHiddenSeconds() const { return total_hidden_seconds_; }
  double TotalExposedSeconds() const { return total_exposed_seconds_; }

 private:
  void CommThreadMain();
  // One agreement + bucket round; returns false when the round is complete or
  // aborted.
  bool ProcessNextBucket();

  Transport& transport_;
  RingAllReducer& ring_;
  ShardedSgd& opt_;

  std::mutex mutex_;
  std::condition_variable cv_;       // comm thread waits: work / readiness
  std::condition_variable done_cv_;  // main thread waits: round completion
  bool shutdown_ = false;
  bool round_active_ = false;   // BeginRound .. FinishRound (API window)
  bool round_running_ = false;  // BeginRound .. comm thread drained/aborted

  // Round state (valid while round_active_).
  FlatParamView* grads_ = nullptr;
  FlatParamView* values_ = nullptr;
  std::vector<Bucket> buckets_;
  std::vector<bool> ready_;
  std::vector<bool> done_;
  int64_t shard_begin_ = 0;
  int64_t shard_end_ = 0;
  float lr_ = 0.0F;
  int remaining_ = 0;  // non-empty buckets still to process
  TransportStatus round_status_;
  double round_comm_start_ = 0.0;  // ring_.CommSeconds() at BeginRound

  RoundStats last_round_;
  double total_hidden_seconds_ = 0.0;
  double total_exposed_seconds_ = 0.0;

  std::thread comm_thread_;
};

}  // namespace egeria

#endif  // EGERIA_SRC_DISTRIBUTED_OVERLAP_REDUCER_H_
