// The flit-level wormhole engine as it was when one binary heap held every
// in-flight flit event: each transmission was one push and one pop, ordered
// by (time, seq). WormholeEngine now keeps one FIFO lane per distinct
// channel flit time and merges the lane heads; this copy is kept, renamed
// and otherwise unchanged, as the test oracle that schedule must reproduce
// exactly (sim_engine_test compares deliveries, end time, busy time and
// budget trips), as LatencyModel is kept for CompiledModel.
//
// Flow control is stated on WormholeEngine; the memory layout is the same
// structure-of-arrays arena.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"

namespace coc {

class HeapWormholeEngine {
 public:
  /// One delivered message, reported through the Run() callback.
  struct Delivery {
    std::int64_t msg;
    double gen_time;
    double deliver_time;
    std::uint64_t user_tag;
  };

  /// Upper bound on flits per message. Counters are 32-bit, so the bound is
  /// a sanity limit (a million-flit wormhole message is a config bug), not a
  /// storage ceiling like the old std::int16_t/250 one.
  static constexpr std::int32_t kMaxFlits = 1 << 20;

  /// Creates an engine over a fixed set of channels with the given per-flit
  /// transmission times.
  explicit HeapWormholeEngine(std::vector<double> channel_flit_times);

  /// Creates an empty engine; call Reset(channel_flit_times) before use.
  HeapWormholeEngine() = default;

  /// Re-initializes the engine for a new channel set, discarding all
  /// messages and statistics but keeping every container's capacity — the
  /// arena-reuse entry point for sweeps that run many simulations back to
  /// back.
  void Reset(const std::vector<double>& channel_flit_times);

  /// Discards all messages and statistics, keeping the channel set and all
  /// container capacity.
  void Reset();

  /// Registers a message to be injected at gen_time. `path` is the channel
  /// sequence from source to destination (`length` > 0 entries).
  /// `depth_after[k]` is the input-buffer depth (flits) at the downstream
  /// end of path[k]; 0 means unbounded. `store_forward` lists path positions
  /// whose channel the header may only request after the *whole* message has
  /// accumulated in that position's input buffer — this models the
  /// concentrator/dispatcher devices, which concentrate a message before
  /// re-injecting it (the buffer feeding a store-and-forward position must
  /// be unbounded). `user_tag` is opaque round-trip data for the caller.
  /// All messages must be added before Run(). Returns the message id.
  std::int64_t AddMessage(double gen_time, const std::int32_t* path,
                          const std::int32_t* depth_after, std::size_t length,
                          std::int32_t flits, std::uint64_t user_tag,
                          const std::int32_t* store_forward = nullptr,
                          std::size_t store_forward_count = 0);

  /// Container convenience overload (tests, small callers).
  std::int64_t AddMessage(double gen_time,
                          const std::vector<std::int32_t>& path,
                          const std::vector<std::int32_t>& depth_after,
                          int flits, std::uint64_t user_tag,
                          const std::vector<std::int32_t>& store_forward = {});

  /// Guard rails on one Run: a hard event-count budget and a cooperative
  /// deadline. Both default off (one predictable branch per event); a
  /// tripped limit throws SimBudgetError / DeadlineExceeded with the
  /// delivered-message count as partial progress. The engine keeps its
  /// consistent delivered/busy-time state, so the caller may still read
  /// partial statistics; Reset() reuses the arena as usual afterwards.
  struct RunLimits {
    std::int64_t max_events = 0;  ///< processed events; 0 = unlimited
    Deadline deadline;            ///< checked every kDeadlineStride events
  };

  /// Events between cooperative deadline probes: amortizes the clock read
  /// (or injected-check decrement) to noise while bounding overshoot.
  static constexpr std::int64_t kDeadlineStride = 1 << 13;

  /// Runs the simulation to completion (all registered messages delivered),
  /// invoking on_deliver once per message in delivery-time order. The
  /// callback is a template parameter, so the call is direct — no type
  /// erasure on the hot path.
  template <typename OnDeliver>
  void Run(OnDeliver&& on_deliver) {
    Run(static_cast<OnDeliver&&>(on_deliver), RunLimits{});
  }

  /// Same, under RunLimits (sim budgets and per-scenario deadlines).
  template <typename OnDeliver>
  void Run(OnDeliver&& on_deliver, const RunLimits& limits) {
    // Generation events: when messages were added in gen_time order (the
    // traffic generator's case), they are consumed from a sorted cursor so
    // the heap only ever holds in-flight flit events — an order of
    // magnitude smaller, which shrinks every heap operation. A generation
    // tied with a flit arrival fires first, exactly like the former
    // all-events-in-one-heap schedule where generations carried the
    // smallest sequence numbers.
    std::size_t gen_cursor = 0;
    if (!gen_sorted_) {
      ScheduleGenerations();  // rare: out-of-order AddMessage calls
      gen_cursor = messages_.size();
    }
    std::int64_t events = 0;
    for (;;) {
      const bool have_gen = gen_cursor < messages_.size();
      if (!have_gen && event_heap_.empty()) break;
      if (limits.max_events > 0 && events >= limits.max_events) {
        throw SimBudgetError("simulation exceeded its event budget (" +
                             std::to_string(limits.max_events) + " events, " +
                             Progress() + ")");
      }
      if (limits.deadline.Enabled() && (events % kDeadlineStride) == 0) {
        limits.deadline.Check("simulation", Progress());
      }
      ++events;
      if (have_gen &&
          (event_heap_.empty() ||
           messages_[gen_cursor].gen_time <= event_heap_.front().time)) {
        // Generation: the header requests the injection channel. All flits
        // of the message are available at the source from this moment on.
        const auto msg = static_cast<std::int64_t>(gen_cursor++);
        Request(msg, 0, messages_[static_cast<std::size_t>(msg)].gen_time);
        continue;
      }
      const Event e = PopEvent();
      if (e.pos < 0) {
        Request(e.msg, 0, e.time);
      } else if (OnArrive(e)) {
        const MsgMeta& m = messages_[static_cast<std::size_t>(e.msg)];
        on_deliver(Delivery{e.msg, m.gen_time, e.time, m.user_tag});
      }
    }
  }

  /// Total time channel `ch` spent transmitting flits (for utilization).
  double ChannelBusyTime(std::int32_t ch) const {
    return busy_time_[static_cast<std::size_t>(ch)];
  }

  std::int64_t delivered_count() const { return delivered_; }
  /// Simulated time of the last delivery.
  double end_time() const { return end_time_; }

 private:
  /// Per-message constants and links; the per-position state lives in the
  /// flat arenas below, at indices [base, base + len).
  struct MsgMeta {
    double gen_time;
    std::uint64_t user_tag;
    std::int64_t base;         // offset into the per-position arenas
    std::int64_t next_waiter;  // intrusive FIFO link while queued, else -1
    std::int32_t len;          // path length
    std::int32_t flits;
    std::int32_t header_pos;   // position being requested/acquired
  };

  struct ChannelState {
    std::int64_t owner = -1;
    std::int64_t waiter_head = -1;  // intrusive FIFO through next_waiter
    std::int64_t waiter_tail = -1;
  };

  struct Event {
    double time;
    std::uint64_t seq;
    std::int64_t msg;
    std::int32_t pos;   // path position; -1 for generation events
    std::int32_t flit;  // arriving flit; ignored for generation events
  };

  /// Min-heap order on (time, seq) — identical to the former
  /// priority_queue<Event, vector, greater> schedule.
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  Event PopEvent() {
    std::pop_heap(event_heap_.begin(), event_heap_.end(), EventAfter{});
    const Event e = event_heap_.back();
    event_heap_.pop_back();
    return e;
  }

  /// Partial-progress note for RunLimits failures — deterministic for a
  /// deterministic schedule, so injected budget/deadline errors are
  /// bit-identical across runs and thread counts.
  std::string Progress() const {
    return std::to_string(delivered_) + " of " +
           std::to_string(messages_.size()) + " messages delivered";
  }

  void Schedule(double time, std::int64_t msg, std::int32_t pos,
                std::int32_t flit);
  void ScheduleGenerations();
  void Request(std::int64_t msg, std::int32_t pos, double now);
  void ReleaseChannel(std::int32_t ch, double now);
  /// Attempts to start the next flit of `msg` on path position `pos`;
  /// cascades upstream when a buffer slot frees.
  void TrySend(std::int64_t msg, std::int32_t pos, double now);
  /// Processes one flit arrival; returns true when it completed a delivery
  /// (the caller then invokes the delivery callback).
  bool OnArrive(const Event& e);

  std::vector<double> flit_time_;
  std::vector<double> busy_time_;
  std::vector<ChannelState> channels_;
  std::vector<MsgMeta> messages_;
  // Structure-of-arrays arenas, indexed by MsgMeta::base + position.
  std::vector<std::int32_t> path_;
  std::vector<std::int32_t> depth_after_;
  std::vector<std::int32_t> sent_;          // flits started per position
  std::vector<std::int32_t> arrived_;       // flits arrived per position
  std::vector<std::uint8_t> granted_;       // channel ownership per position
  std::vector<std::uint8_t> store_forward_; // request only after full arrival
  std::vector<Event> event_heap_;
  std::uint64_t seq_ = 0;
  std::int64_t delivered_ = 0;
  double end_time_ = 0;
  bool gen_sorted_ = true;  // AddMessage calls came in gen_time order
};

}  // namespace coc
