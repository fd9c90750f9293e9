#include "src/distributed/overlap_reducer.h"

#include <algorithm>

#include "src/distributed/transport/ring_schedule.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/logging.h"
#include "src/util/timer.h"

namespace egeria {

OverlapReducer::OverlapReducer(Transport& transport, RingAllReducer& ring,
                               ShardedSgd& opt)
    : transport_(transport), ring_(ring), opt_(opt) {
  comm_thread_ = std::thread([this] { CommThreadMain(); });
}

OverlapReducer::~OverlapReducer() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // A round abandoned without FinishRound (the trainer unwound on an error
    // elsewhere) would leave the comm thread blocked on readiness forever.
    shutdown_ = true;
  }
  cv_.notify_all();
  comm_thread_.join();
}

void OverlapReducer::BeginRound(FlatParamView* grads, FlatParamView* values,
                                std::vector<Bucket> buckets, int64_t shard_begin,
                                int64_t shard_end, float lr) {
  std::lock_guard<std::mutex> lock(mutex_);
  EGERIA_CHECK_MSG(!round_active_, "OverlapReducer round already in flight");
  grads_ = grads;
  values_ = values;
  buckets_ = std::move(buckets);
  ready_.assign(buckets_.size(), false);
  done_.assign(buckets_.size(), false);
  shard_begin_ = shard_begin;
  shard_end_ = shard_end;
  lr_ = lr;
  remaining_ = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i].end > buckets_[i].begin) {
      ++remaining_;
    } else {
      done_[i] = true;  // Zero-parameter stage: nothing to circulate.
    }
  }
  round_status_ = TransportStatus::Ok();
  round_comm_start_ = ring_.CommSeconds();
  last_round_ = RoundStats{};
  round_active_ = true;
  round_running_ = true;
  cv_.notify_all();
}

void OverlapReducer::NotifyStageReady(int stage) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!round_active_) {
    return;  // Backward outside a round (reference reducer, warmup probes).
  }
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i].stage == stage) {
      ready_[i] = true;
      cv_.notify_all();
      return;
    }
  }
}

TransportStatus OverlapReducer::FinishRound() {
  WallTimer exposed_timer;
  std::unique_lock<std::mutex> lock(mutex_);
  EGERIA_CHECK_MSG(round_active_, "FinishRound without BeginRound");
  done_cv_.wait(lock, [&] { return !round_running_; });
  round_active_ = false;
  last_round_.exposed_seconds = exposed_timer.ElapsedSeconds();
  last_round_.comm_seconds += ring_.CommSeconds() - round_comm_start_;
  last_round_.hidden_seconds =
      std::max(0.0, last_round_.comm_seconds - last_round_.exposed_seconds);
  total_hidden_seconds_ += last_round_.hidden_seconds;
  total_exposed_seconds_ += last_round_.exposed_seconds;
  return round_status_;
}

void OverlapReducer::CommThreadMain() {
  trace::SetThreadName("comm");
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return shutdown_ || round_running_; });
      if (shutdown_) {
        return;
      }
    }
    // One "round" span per backward pass on the comm-thread track; the bucket
    // spans inside it are what should visibly overlap the trainer's bp span
    // on the merged timeline.
    trace::Span round_span("comm", "round");
    while (ProcessNextBucket()) {
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      round_running_ = false;
    }
    done_cv_.notify_all();
  }
}

bool OverlapReducer::ProcessNextBucket() {
  int chosen = -1;
  bool forced = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] {
      if (shutdown_ || remaining_ == 0 || !round_status_.ok()) {
        return true;
      }
      for (size_t i = 0; i < buckets_.size(); ++i) {
        if (ready_[i] && !done_[i]) {
          return true;
        }
      }
      return false;
    });
    if (shutdown_ || remaining_ == 0 || !round_status_.ok()) {
      return false;
    }
    // Front-most locally-ready unprocessed bucket (buckets are in stage
    // order): the ByteScheduler priority — front stages gate the next
    // iteration's forward, so they go first among what's ready.
    for (size_t i = 0; i < buckets_.size(); ++i) {
      if (ready_[i] && !done_[i]) {
        chosen = static_cast<int>(i);
        break;
      }
    }
    // One unprocessed bucket left: the choice is forced, and it is forced to
    // the SAME index on every rank (all ranks process the identical bucket
    // list in the identical agreed order, so their done sets match round for
    // round). Skip the agreement traffic — with coalesced schedules of 1-3
    // buckets this removes most of it.
    forced = remaining_ == 1;
  }

  WallTimer agree_timer;
  int32_t acc = chosen;
  if (!forced) {
    EGERIA_TRACE_SCOPE("comm", "bucket_agree");
    // Agreement round: circulate each rank's candidate, take the max. Ready
    // sets grow from the back of the bucket order (backward order), so the
    // max-of-mins is in (or about to enter) every rank's ready set — every
    // rank converges on the same bucket without any rank waiting on an
    // un-notified one indefinitely. Bits are unaffected by the choice
    // (disjoint buckets).
    TransportStatus st = RingReduce(
        transport_, &acc, [](int32_t a, int32_t b) { return std::max(a, b); });
    if (!st.ok()) {
      std::lock_guard<std::mutex> lock(mutex_);
      round_status_ = std::move(st);
      return false;
    }
  }

  Bucket bucket;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    last_round_.comm_seconds += agree_timer.ElapsedSeconds();
    chosen = acc;
    EGERIA_CHECK_MSG(chosen >= 0 && chosen < static_cast<int>(buckets_.size()) &&
                         !done_[static_cast<size_t>(chosen)],
                     "overlap bucket agreement desync");
    // The agreed bucket may still be in flight locally (a peer's backward ran
    // ahead); its notification is imminent — wait for it.
    cv_.wait(lock, [&] { return shutdown_ || ready_[static_cast<size_t>(chosen)]; });
    if (shutdown_) {
      return false;
    }
    bucket = buckets_[static_cast<size_t>(chosen)];
  }

  // The bucket's ZeRO-1 round, over global-contract chunk intersections:
  // reduce-scatter the bucket's gradients, step the shard∩bucket slice,
  // all-gather the updated values. Same arithmetic as the whole-space round
  // restricted to [begin, end).
  trace::Span bucket_span("comm", "bucket");
  if (bucket_span.active()) {
    bucket_span.SetArgs("{\"stage\":%d,\"elems\":%lld}", bucket.stage,
                        static_cast<long long>(bucket.end - bucket.begin));
  }
  obs::GetCounter("comm.buckets").Add(1);
  TransportStatus st;
  {
    EGERIA_TRACE_SCOPE("comm", "reduce_scatter");
    st = ring_.ReduceScatterAverageRange(*grads_, bucket.begin, bucket.end);
  }
  if (st.ok()) {
    const int64_t sb = std::max(shard_begin_, bucket.begin);
    const int64_t se = std::min(shard_end_, bucket.end);
    if (sb < se) {
      EGERIA_TRACE_SCOPE("comm", "shard_step");
      opt_.Step(*values_, *grads_, sb, se, lr_);
    }
    EGERIA_TRACE_SCOPE("comm", "all_gather");
    st = ring_.AllGatherRange(*values_, bucket.begin, bucket.end);
  }

  std::lock_guard<std::mutex> lock(mutex_);
  if (!st.ok()) {
    round_status_ = std::move(st);
    return false;
  }
  done_[static_cast<size_t>(chosen)] = true;
  --remaining_;
  return remaining_ > 0;
}

}  // namespace egeria
