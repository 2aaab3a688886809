#include "sim/wormhole_engine.h"

#include <cmath>
#include <iterator>
#include <stdexcept>

namespace coc {

namespace {

void ValidateFlitTimes(const std::vector<double>& times) {
  for (double t : times) {
    if (!(t > 0)) {
      throw std::invalid_argument("channel flit times must be positive");
    }
  }
}

}  // namespace

WormholeEngine::WormholeEngine(std::vector<double> channel_flit_times) {
  AssignLanes(channel_flit_times);
  Reset();
}

void WormholeEngine::Reset(const std::vector<double>& channel_flit_times) {
  // A sweep resets to the same table every run: keep its lanes.
  if (channel_flit_times != flit_time_) AssignLanes(channel_flit_times);
  Reset();  // (re)sizes busy_time_ / channels_ to the new channel count
}

void WormholeEngine::AssignLanes(const std::vector<double>& flit_times) {
  ValidateFlitTimes(flit_times);
  std::vector<double> times;  // channels come in runs of equal flit times
  std::unique_copy(flit_times.begin(), flit_times.end(),
                   std::back_inserter(times));
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  if (times.size() > std::size_t{1} << 16) {
    throw std::invalid_argument("more than 2^16 distinct flit times");
  }
  flit_time_.assign(flit_times.begin(), flit_times.end());
  lane_of_.clear();
  std::uint16_t lane = 0;
  for (std::size_t ch = 0; ch < flit_time_.size(); ++ch) {
    if (ch == 0 || flit_time_[ch] != flit_time_[ch - 1]) {  // a new run
      lane = static_cast<std::uint16_t>(
          std::lower_bound(times.begin(), times.end(), flit_time_[ch]) -
          times.begin());
    }
    lane_of_.push_back(lane);
  }
  lanes_.resize(times.size());
  for (std::size_t i = 0; i < times.size(); ++i) lanes_[i].time = times[i];
}

void WormholeEngine::Reset() {
  messages_.clear();
  hops_.clear();
  for (Lane& lane : lanes_) lane.head = lane.size = 0;
  heads_.clear();
  busy_time_.assign(flit_time_.size(), 0.0);
  channels_.assign(flit_time_.size(), ChannelState{});
  seq_ = 0;
  delivered_ = 0;
  end_time_ = 0;
  gen_sorted_ = true;
}

std::int64_t WormholeEngine::AddMessage(double gen_time,
                                        const std::int32_t* path,
                                        const std::int32_t* depth_after,
                                        std::size_t length, std::int32_t flits,
                                        std::uint64_t user_tag,
                                        const std::int32_t* store_forward,
                                        std::size_t store_forward_count) {
  if (!(gen_time >= 0 && std::isfinite(gen_time))) {
    throw std::invalid_argument("generation time must be finite and >= 0");
  }
  if (length == 0) throw std::invalid_argument("message path is empty");
  if (flits < 1 || flits > kMaxFlits) {
    throw std::invalid_argument("flits must be in [1, WormholeEngine::kMaxFlits]");
  }
  for (std::size_t i = 0; i < length; ++i) {
    if (path[i] < 0 ||
        static_cast<std::size_t>(path[i]) >= channels_.size()) {
      throw std::invalid_argument("path references unknown channel");
    }
  }
  // Validate store-forward positions against the *input* arrays before
  // touching the arena, so a throw leaves the engine unchanged.
  for (std::size_t i = 0; i < store_forward_count; ++i) {
    const std::int32_t pos = store_forward[i];
    if (pos < 1 || static_cast<std::size_t>(pos) >= length) {
      throw std::invalid_argument("store-forward position out of range");
    }
    if (depth_after[static_cast<std::size_t>(pos) - 1] != 0) {
      throw std::invalid_argument(
          "store-forward position requires an unbounded feeding buffer");
    }
  }
  const std::int64_t base = static_cast<std::int64_t>(hops_.size());
  for (std::size_t i = 0; i < length; ++i) {
    hops_.push_back(Hop{path[i], 0, 0, depth_after[i],
                        lane_of_[static_cast<std::size_t>(path[i])], 0, 0});
  }
  Hop* const first = &hops_[static_cast<std::size_t>(base)];
  for (std::size_t i = 0; i < store_forward_count; ++i) {
    first[store_forward[i]].store_forward = 1;
  }
  if (!messages_.empty() && gen_time < messages_.back().gen_time) {
    gen_sorted_ = false;
  }
  messages_.push_back(MsgMeta{gen_time, user_tag, base, -1,
                              static_cast<std::int32_t>(length), flits, 0});
  return static_cast<std::int64_t>(messages_.size()) - 1;
}

std::int64_t WormholeEngine::AddMessage(
    double gen_time, const std::vector<std::int32_t>& path,
    const std::vector<std::int32_t>& depth_after, int flits,
    std::uint64_t user_tag, const std::vector<std::int32_t>& store_forward) {
  if (depth_after.size() != path.size()) {
    throw std::invalid_argument("depth_after size mismatch");
  }
  return AddMessage(gen_time, path.data(), depth_after.data(), path.size(),
                    static_cast<std::int32_t>(flits), user_tag,
                    store_forward.data(), store_forward.size());
}

void WormholeEngine::OrderGenerations() {
  gen_order_.clear();
  for (std::size_t i = 0; i < messages_.size(); ++i) gen_order_.push_back(i);
  std::sort(gen_order_.begin(), gen_order_.end(), [this](auto a, auto b) {
    return std::pair(messages_[a].gen_time, a) <
           std::pair(messages_[b].gen_time, b);
  });
}

void WormholeEngine::Request(std::int64_t msg, std::int32_t pos, double now) {
  MsgMeta& m = messages_[static_cast<std::size_t>(msg)];
  Hop& hop = hops_[static_cast<std::size_t>(m.base + pos)];
  ChannelState& ch = channels_[static_cast<std::size_t>(hop.ch)];
  if (ch.owner < 0) {
    ch.owner = msg;
    hop.granted = 1;
    TrySend(msg, pos, now);
  } else {
    // Append to the channel's intrusive FIFO; a message waits on at most
    // one channel at a time, so one link field per message suffices.
    m.next_waiter = -1;
    if (ch.waiter_tail < 0) {
      ch.waiter_head = ch.waiter_tail = msg;
    } else {
      messages_[static_cast<std::size_t>(ch.waiter_tail)].next_waiter = msg;
      ch.waiter_tail = msg;
    }
  }
}

void WormholeEngine::ReleaseChannel(std::int32_t ch_id, double now) {
  ChannelState& ch = channels_[static_cast<std::size_t>(ch_id)];
  ch.owner = -1;
  if (ch.waiter_head >= 0) {
    const std::int64_t next = ch.waiter_head;
    MsgMeta& m = messages_[static_cast<std::size_t>(next)];
    ch.waiter_head = m.next_waiter;
    if (ch.waiter_head < 0) ch.waiter_tail = -1;
    m.next_waiter = -1;
    ch.owner = next;
    hops_[static_cast<std::size_t>(m.base + m.header_pos)].granted = 1;
    TrySend(next, m.header_pos, now);
  }
}

bool WormholeEngine::TrySend(std::int64_t msg, std::int32_t pos, double now) {
  const MsgMeta& m = messages_[static_cast<std::size_t>(msg)];
  // Hops do not move during Run(), so the pointer outlives the releases.
  Hop* hop = &hops_[static_cast<std::size_t>(m.base + pos)];
  // A pass that does not return sent a flit, which freed a buffer slot
  // upstream: the previous position may proceed.
  for (bool sent = false;; --pos, --hop, sent = true) {
    if (!hop->granted) return sent;
    const std::int32_t f = hop->sent;
    if (f >= m.flits) return sent;
    // (a) flit f must have fully crossed the previous channel (the source
    // holds the whole message, so position 0 is always supplied).
    if (pos > 0 && hop[-1].arrived <= f) return sent;
    // (b) the channel must have finished transmitting flit f-1.
    if (hop->arrived < f) return sent;
    // (c) room in the downstream input buffer: its previous occupants must
    // have moved on (depth 0 = unbounded concentrate/dispatch buffer).
    if (pos < m.len - 1 && hop->depth > 0 && hop[1].sent + hop->depth <= f) {
      return sent;
    }
    // Send flit f.
    hop->sent = f + 1;
    Lane& lane = lanes_[hop->lane];
    busy_time_[static_cast<std::size_t>(hop->ch)] += lane.time;
    const double at = now + lane.time;
    if (lane.size == 0) {
      heads_.push_back(Head{Bits(at), seq_, hop->lane});
      std::push_heap(heads_.begin(), heads_.end(), After);
    }
    if (lane.size == lane.ring.size()) {  // full: unwrap, then double
      std::rotate(lane.ring.begin(), lane.ring.begin() + lane.head,
                  lane.ring.end());
      lane.head = 0;
      lane.ring.resize(std::max<std::size_t>(16, 2 * lane.ring.size()));
    }
    lane.ring[(lane.head + lane.size++) & (lane.ring.size() - 1)] =
        Event{at, seq_++, msg, pos, f};
    if (pos == 0) return true;
    if (f == m.flits - 1) {
      // Tail left the buffer between pos-1 and pos: with a unit buffer the
      // upstream channel is released exactly now (tail handoff rule). The
      // tail crossed pos-1 first, so a pass there could send nothing.
      if (hop[-1].depth == 1) ReleaseChannel(hop[-1].ch, now);
      return true;
    }
  }
}

bool WormholeEngine::OnArrive(const Event& e) {
  MsgMeta& m = messages_[static_cast<std::size_t>(e.msg)];
  Hop* hop = &hops_[static_cast<std::size_t>(m.base + e.pos)];
  const std::int32_t last = m.len - 1;
  const bool tail = e.flit == m.flits - 1;
  hop->arrived = e.flit + 1;

  // The header requests the next channel as soon as it lands in the next
  // input buffer — except at store-and-forward positions (concentrator /
  // dispatcher devices), where injection begins only once the whole
  // message has accumulated, i.e. on tail arrival.
  if (e.pos < last && (hop[1].store_forward ? tail : e.flit == 0)) {
    m.header_pos = e.pos + 1;
    Request(e.msg, e.pos + 1, e.time);
  }
  // The arrival enables (a) for this flit on the next channel and (b) for
  // the next flit on this channel. A send at e.pos + 1 already tried e.pos
  // in its cascade, and nothing has enabled e.pos since.
  if (e.pos == last || !TrySend(e.msg, e.pos + 1, e.time)) {
    TrySend(e.msg, e.pos, e.time);
  }

  if (tail) {
    // Tail fully crossed channel at position e.pos.
    if (e.pos == last) {
      ReleaseChannel(hop->ch, e.time);
      ++delivered_;
      end_time_ = e.time;
      return true;
    }
    if (hop->depth != 1) {
      // Deep (or unbounded) buffer: the tail vacated the channel and the
      // buffer can hold it, so the channel frees immediately.
      ReleaseChannel(hop->ch, e.time);
    }
  }
  return false;
}

}  // namespace coc
