// Flit-level discrete-event wormhole engine.
//
// Topology-agnostic: a message is a sequence of channels (its precomputed
// deterministic route) plus per-position input-buffer depths; the engine
// enforces wormhole flow control exactly (paper assumption 6):
//
//   * a message's header acquires channels hop by hop; channels are granted
//     FIFO and held exclusively until the tail flit passes;
//   * flit f starts on channel k only when (a) it has fully crossed channel
//     k-1, (b) channel k finished flit f-1, and (c) the single-flit input
//     buffer at channel k's downstream has room (its previous occupant
//     started on channel k+1);
//   * when blocked, the message stalls in place holding every acquired
//     channel (no virtual channels);
//   * channel k is released when the tail starts on channel k+1 (for
//     unit buffers; deeper buffers release on tail arrival, modelling the
//     store-and-forward concentrate/dispatch buffers).
//
// Every flit transmission is one event, so the schedule is exact up to the
// unit-buffer tail handoff rule above.
//
// Event queue. A flit starting on channel ch at `now` arrives one flit time
// later, and `now` never decreases, so the events of channels sharing a flit
// time are created in (time, seq) order: each distinct flit time gets a FIFO
// lane, and a min-heap of the lanes' heads picks the next event (4 lanes on
// the presets). `seq` must still break ties between lanes (by lane,
// same-time grants would reorder), so events pop in the (time, seq) order of
// the all-events heap this replaced, kept in tests/oracle/. A head's key is
// one 128-bit integer (a non-negative time's bits above `seq`), compared
// without branches. Generations: a cursor in (gen_time, id) order, ahead of
// equal-time events.
//
// Memory layout (the zero-allocation hot path). Message state lives in one
// flat arena of 20-byte `Hop` records, one per path position, indexed by
// `MsgMeta::base + position` (a send reads its own hop and its two
// neighbours). AddMessage appends to it (amortized O(1), no per-message
// heap blocks), channel waiter queues are an intrusive singly-linked FIFO
// threaded through `MsgMeta::next_waiter` (a message waits on at most one
// channel at a time), and each lane is a ring buffer that doubles when
// full. After Reset() every container keeps its capacity, so a warmed-up
// engine replays a same-shaped workload with zero heap allocations — the
// counting-allocator test (tests/sim_alloc_test.cc) enforces this.
//
// Run() is templated on the delivery callback, so the per-delivery call is
// direct (inlined at the call site) instead of going through std::function.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"

namespace coc {

class WormholeEngine {
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
  explicit WormholeEngine(std::vector<double> channel_flit_times);

  /// Creates an empty engine; call Reset(channel_flit_times) before use.
  WormholeEngine() = default;

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
  /// All messages must be added before Run(). Returns the message id; a
  /// negative or non-finite `gen_time` throws and adds nothing.
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
    if (!gen_sorted_) OrderGenerations();  // rare: out-of-order AddMessage
    std::size_t gen_cursor = 0;
    std::int64_t events = 0;
    for (;;) {
      const bool have_gen = gen_cursor < messages_.size();
      if (!have_gen && heads_.empty()) break;
      if (limits.max_events > 0 && events >= limits.max_events) {
        throw SimBudgetError("simulation exceeded its event budget (" +
                             std::to_string(limits.max_events) + " events, " +
                             Progress() + ")");
      }
      if (limits.deadline.Enabled() && (events % kDeadlineStride) == 0) {
        limits.deadline.Check("simulation", Progress());
      }
      ++events;
      if (have_gen) {
        // Generation: the header requests the injection channel. All flits
        // of the message are available at the source from this moment on.
        const auto msg = gen_sorted_ ? gen_cursor : gen_order_[gen_cursor];
        const double gen_time = messages_[msg].gen_time;
        if (heads_.empty() ||
            gen_time <= std::bit_cast<double>(heads_.front().time)) {
          ++gen_cursor;
          Request(static_cast<std::int64_t>(msg), 0, gen_time);
          continue;
        }
      }
      const Event e = PopEvent();
      if (OnArrive(e)) {
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
  /// hop arena, at indices [base, base + len).
  struct MsgMeta {
    double gen_time;
    std::uint64_t user_tag;
    std::int64_t base;         // offset into hops_
    std::int64_t next_waiter;  // intrusive FIFO link while queued, else -1
    std::int32_t len;          // path length
    std::int32_t flits;
    std::int32_t header_pos;   // position being requested/acquired
  };

  /// One path position of one message: its channel and the flow state.
  struct Hop {
    std::int32_t ch;
    std::int32_t sent;           // flits started on ch
    std::int32_t arrived;        // flits that fully crossed ch
    std::int32_t depth;          // buffer after ch in flits; 0 = unbounded
    std::uint16_t lane;          // lanes_ index of ch's flit time
    std::uint8_t granted;        // this message owns ch
    std::uint8_t store_forward;  // request ch only after full arrival
  };
  static_assert(sizeof(Hop) == 20);

  struct ChannelState {
    std::int64_t owner = -1;
    std::int64_t waiter_head = -1;  // intrusive FIFO through next_waiter
    std::int64_t waiter_tail = -1;
  };

  struct Event {
    double time;
    std::uint64_t seq;
    std::int64_t msg;
    std::int32_t pos;   // path position
    std::int32_t flit;  // arriving flit
  };

  /// One flit time's pending events: `size` from `head` in a power-of-two ring.
  struct Lane {
    double time;  // the flit time of every channel on this lane
    std::vector<Event> ring;
    std::size_t head = 0, size = 0;
  };

  /// A non-empty lane's head key in the merge heap.
  struct Head {
    std::uint64_t time;  // bit pattern of a finite, non-negative time
    std::uint64_t seq;
    std::int32_t lane;
  };

  /// Bit patterns of non-negative doubles order as the doubles do.
  static auto Bits(double t) { return std::bit_cast<std::uint64_t>(t); }
  /// Min-heap order on (time, seq), the order the oracle heap pins.
  static constexpr auto After = [](const Head& a, const Head& b) {
    using Key = unsigned __int128;
    return (Key{a.time} << 64 | a.seq) > (Key{b.time} << 64 | b.seq);
  };

  Event PopEvent() {
    Lane& lane = lanes_[static_cast<std::size_t>(heads_.front().lane)];
    const Event e = lane.ring[lane.head];
    lane.head = (lane.head + 1) & (lane.ring.size() - 1);
    if (--lane.size == 0) {
      std::pop_heap(heads_.begin(), heads_.end(), After);
      heads_.pop_back();
      return e;
    }
    // The lane's next event is its new key: sift it down from the root.
    const Event& next = lane.ring[lane.head];
    const Head h{Bits(next.time), next.seq, heads_.front().lane};
    std::size_t i = 0;
    for (std::size_t c = 1; c < heads_.size(); i = c, c = 2 * c + 1) {
      c += c + 1 < heads_.size() && After(heads_[c], heads_[c + 1]);
      if (!After(h, heads_[c])) break;
      heads_[i] = heads_[c];
    }
    heads_[i] = h;
    return e;
  }

  /// Partial-progress note for RunLimits failures — deterministic for a
  /// deterministic schedule, so injected budget/deadline errors are
  /// bit-identical across runs and thread counts.
  std::string Progress() const {
    return std::to_string(delivered_) + " of " +
           std::to_string(messages_.size()) + " messages delivered";
  }

  /// Sets flit_time_ and one lane per distinct time (throws first past 2^16).
  void AssignLanes(const std::vector<double>& channel_flit_times);
  void OrderGenerations();  // gen_order_: ids sorted by (gen_time, id)
  void Request(std::int64_t msg, std::int32_t pos, double now);
  void ReleaseChannel(std::int32_t ch, double now);
  /// Sends what it can of `msg` from path position `pos` upstream: the next
  /// flit at `pos`, then, each send having freed a buffer slot, at pos - 1,
  /// and so on, until a position cannot send. Returns whether it sent.
  bool TrySend(std::int64_t msg, std::int32_t pos, double now);
  /// Processes one flit arrival; returns true when it completed a delivery
  /// (the caller then invokes the delivery callback).
  bool OnArrive(const Event& e);

  std::vector<double> flit_time_;
  std::vector<double> busy_time_;
  std::vector<ChannelState> channels_;
  std::vector<MsgMeta> messages_;
  std::vector<Hop> hops_;                // indexed by MsgMeta::base + position
  std::vector<std::uint16_t> lane_of_;   // lane of each channel
  std::vector<Lane> lanes_;
  std::vector<Head> heads_;             // merge heap of non-empty lanes
  std::vector<std::size_t> gen_order_;  // used when !gen_sorted_
  std::uint64_t seq_ = 0;
  std::int64_t delivered_ = 0;
  double end_time_ = 0;
  bool gen_sorted_ = true;  // AddMessage calls came in gen_time order
};

}  // namespace coc
