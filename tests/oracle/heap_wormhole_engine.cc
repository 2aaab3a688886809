#include "oracle/heap_wormhole_engine.h"

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

HeapWormholeEngine::HeapWormholeEngine(std::vector<double> channel_flit_times) {
  ValidateFlitTimes(channel_flit_times);
  flit_time_ = std::move(channel_flit_times);
  Reset();
}

void HeapWormholeEngine::Reset(const std::vector<double>& channel_flit_times) {
  ValidateFlitTimes(channel_flit_times);
  flit_time_.assign(channel_flit_times.begin(), channel_flit_times.end());
  Reset();  // (re)sizes busy_time_ / channels_ to the new channel count
}

void HeapWormholeEngine::Reset() {
  messages_.clear();
  path_.clear();
  depth_after_.clear();
  sent_.clear();
  arrived_.clear();
  granted_.clear();
  store_forward_.clear();
  event_heap_.clear();
  busy_time_.assign(flit_time_.size(), 0.0);
  channels_.assign(flit_time_.size(), ChannelState{});
  seq_ = 0;
  delivered_ = 0;
  end_time_ = 0;
  gen_sorted_ = true;
}

std::int64_t HeapWormholeEngine::AddMessage(double gen_time,
                                        const std::int32_t* path,
                                        const std::int32_t* depth_after,
                                        std::size_t length, std::int32_t flits,
                                        std::uint64_t user_tag,
                                        const std::int32_t* store_forward,
                                        std::size_t store_forward_count) {
  if (length == 0) throw std::invalid_argument("message path is empty");
  if (flits < 1 || flits > kMaxFlits) {
    throw std::invalid_argument("flits must be in [1, HeapWormholeEngine::kMaxFlits]");
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
  const std::int64_t base = static_cast<std::int64_t>(path_.size());
  path_.insert(path_.end(), path, path + length);
  depth_after_.insert(depth_after_.end(), depth_after, depth_after + length);
  sent_.resize(sent_.size() + length, 0);
  arrived_.resize(arrived_.size() + length, 0);
  granted_.resize(granted_.size() + length, 0);
  store_forward_.resize(store_forward_.size() + length, 0);
  for (std::size_t i = 0; i < store_forward_count; ++i) {
    store_forward_[static_cast<std::size_t>(base + store_forward[i])] = 1;
  }
  if (!messages_.empty() && gen_time < messages_.back().gen_time) {
    gen_sorted_ = false;
  }
  messages_.push_back(MsgMeta{gen_time, user_tag, base, -1,
                              static_cast<std::int32_t>(length), flits, 0});
  return static_cast<std::int64_t>(messages_.size()) - 1;
}

std::int64_t HeapWormholeEngine::AddMessage(
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

void HeapWormholeEngine::Schedule(double time, std::int64_t msg, std::int32_t pos,
                              std::int32_t flit) {
  event_heap_.push_back(Event{time, seq_++, msg, pos, flit});
  std::push_heap(event_heap_.begin(), event_heap_.end(), EventAfter{});
}

void HeapWormholeEngine::ScheduleGenerations() {
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(messages_.size());
       ++i) {
    Schedule(messages_[static_cast<std::size_t>(i)].gen_time, i, -1, 0);
  }
}

void HeapWormholeEngine::Request(std::int64_t msg, std::int32_t pos, double now) {
  MsgMeta& m = messages_[static_cast<std::size_t>(msg)];
  ChannelState& ch = channels_[static_cast<std::size_t>(
      path_[static_cast<std::size_t>(m.base + pos)])];
  if (ch.owner < 0) {
    ch.owner = msg;
    granted_[static_cast<std::size_t>(m.base + pos)] = 1;
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

void HeapWormholeEngine::ReleaseChannel(std::int32_t ch_id, double now) {
  ChannelState& ch = channels_[static_cast<std::size_t>(ch_id)];
  ch.owner = -1;
  if (ch.waiter_head >= 0) {
    const std::int64_t next = ch.waiter_head;
    MsgMeta& m = messages_[static_cast<std::size_t>(next)];
    ch.waiter_head = m.next_waiter;
    if (ch.waiter_head < 0) ch.waiter_tail = -1;
    m.next_waiter = -1;
    ch.owner = next;
    granted_[static_cast<std::size_t>(m.base + m.header_pos)] = 1;
    TrySend(next, m.header_pos, now);
  }
}

void HeapWormholeEngine::TrySend(std::int64_t msg, std::int32_t pos, double now) {
  MsgMeta& m = messages_[static_cast<std::size_t>(msg)];
  const auto p = static_cast<std::size_t>(m.base + pos);
  if (!granted_[p]) return;
  const std::int32_t f = sent_[p];
  if (f >= m.flits) return;
  // (a) flit f must have fully crossed the previous channel (the source
  // holds the whole message, so position 0 is always supplied).
  if (pos > 0 && arrived_[p - 1] <= f) return;
  // (b) the channel must have finished transmitting flit f-1.
  if (arrived_[p] < f) return;
  // (c) room in the downstream input buffer: its previous occupants must
  // have moved on (depth 0 = unbounded concentrate/dispatch buffer).
  if (pos < m.len - 1) {
    const std::int32_t depth = depth_after_[p];
    if (depth > 0 && sent_[p + 1] + depth <= f) return;
  }
  // Send flit f.
  sent_[p] = f + 1;
  const std::int32_t ch = path_[p];
  const double t = flit_time_[static_cast<std::size_t>(ch)];
  busy_time_[static_cast<std::size_t>(ch)] += t;
  Schedule(now + t, msg, pos, f);
  // Tail left the buffer between pos-1 and pos: with a unit buffer the
  // upstream channel is released exactly now (tail handoff rule).
  if (f == m.flits - 1 && pos > 0 && depth_after_[p - 1] == 1) {
    ReleaseChannel(path_[p - 1], now);
  }
  // A buffer slot freed upstream: the previous position may proceed.
  if (pos > 0) TrySend(msg, pos - 1, now);
}

bool HeapWormholeEngine::OnArrive(const Event& e) {
  MsgMeta& m = messages_[static_cast<std::size_t>(e.msg)];
  const auto p = static_cast<std::size_t>(m.base + e.pos);
  const std::int32_t last = m.len - 1;
  arrived_[p] = e.flit + 1;

  if (e.pos < last) {
    // The header requests the next channel as soon as it lands in the next
    // input buffer — except at store-and-forward positions (concentrator /
    // dispatcher devices), where injection begins only once the whole
    // message has accumulated, i.e. on tail arrival.
    const bool request_now = store_forward_[p + 1] ? e.flit == m.flits - 1
                                                   : e.flit == 0;
    if (request_now) {
      m.header_pos = e.pos + 1;
      Request(e.msg, e.pos + 1, e.time);
    }
  }
  // The arrival enables (a) for this flit on the next channel and (b) for
  // the next flit on this channel.
  if (e.pos < last) TrySend(e.msg, e.pos + 1, e.time);
  TrySend(e.msg, e.pos, e.time);

  if (e.flit == m.flits - 1) {
    // Tail fully crossed channel at position e.pos.
    if (e.pos == last) {
      ReleaseChannel(path_[p], e.time);
      ++delivered_;
      end_time_ = e.time;
      return true;
    }
    if (depth_after_[p] != 1) {
      // Deep (or unbounded) buffer: the tail vacated the channel and the
      // buffer can hold it, so the channel frees immediately.
      ReleaseChannel(path_[p], e.time);
    }
  }
  return false;
}

}  // namespace coc
