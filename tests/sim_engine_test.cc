// Exact-schedule tests for the flit-level wormhole engine: hand-computed
// pipelines, contention, FIFO fairness, release semantics, conservation,
// determinism, and equality with the all-events heap it replaced.
#include <cmath>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "oracle/heap_wormhole_engine.h"
#include "sim/wormhole_engine.h"

namespace coc {
namespace {

using Delivery = WormholeEngine::Delivery;

std::vector<Delivery> RunAll(WormholeEngine& e) {
  std::vector<Delivery> out;
  e.Run([&out](const Delivery& d) { out.push_back(d); });
  return out;
}

TEST(WormholeEngine, SingleChannelMessageTakesMFlitTimes) {
  WormholeEngine e({2.0});
  e.AddMessage(0.0, {0}, {1}, /*flits=*/5, 0);
  const auto d = RunAll(e);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_DOUBLE_EQ(d[0].deliver_time, 5 * 2.0);
}

TEST(WormholeEngine, HomogeneousPipelineClassicFormula) {
  // L channels of per-flit time t: latency = (L + M - 1) t.
  for (int links = 1; links <= 5; ++links) {
    std::vector<double> times(static_cast<std::size_t>(links), 1.5);
    WormholeEngine e(times);
    std::vector<std::int32_t> path, depth;
    for (int i = 0; i < links; ++i) {
      path.push_back(i);
      depth.push_back(1);
    }
    e.AddMessage(0.0, path, depth, /*flits=*/8, 0);
    const auto d = RunAll(e);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_DOUBLE_EQ(d[0].deliver_time, (links + 8 - 1) * 1.5) << links;
  }
}

TEST(WormholeEngine, BottleneckDominatesDrainRate) {
  // Channels 1.0 then 2.0: hand recurrence gives delivery 2M + 1.
  WormholeEngine e({1.0, 2.0});
  e.AddMessage(0.0, {0, 1}, {1, 1}, /*flits=*/4, 0);
  const auto d = RunAll(e);
  EXPECT_DOUBLE_EQ(d[0].deliver_time, 2 * 4 + 1.0);
}

TEST(WormholeEngine, FastThenSlowEqualsSlowThenFastForSingleMessage) {
  WormholeEngine a({1.0, 3.0});
  a.AddMessage(0.0, {0, 1}, {1, 1}, 6, 0);
  const double t1 = RunAll(a)[0].deliver_time;
  WormholeEngine b({3.0, 1.0});
  b.AddMessage(0.0, {0, 1}, {1, 1}, 6, 0);
  const double t2 = RunAll(b)[0].deliver_time;
  // Drain is bottleneck-limited either way; header sees the same sum.
  EXPECT_DOUBLE_EQ(t1, 3 * 6 + 1.0);
  EXPECT_DOUBLE_EQ(t2, t1);
}

TEST(WormholeEngine, FifoContentionOnSharedChannel) {
  // Two 2-flit messages on one unit channel. A: [0,2]. B arrives at 0.5,
  // granted at A's release (2.0), delivered at 4.0.
  WormholeEngine e({1.0});
  e.AddMessage(0.0, {0}, {1}, 2, 0);
  e.AddMessage(0.5, {0}, {1}, 2, 1);
  const auto d = RunAll(e);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_DOUBLE_EQ(d[0].deliver_time, 2.0);
  EXPECT_DOUBLE_EQ(d[1].deliver_time, 4.0);
  EXPECT_EQ(d[1].user_tag, 1u);
}

TEST(WormholeEngine, GrantOrderIsFifoNotShortestJob) {
  // Three messages request the same channel while busy; they are served in
  // request order regardless of length.
  WormholeEngine e({1.0});
  e.AddMessage(0.0, {0}, {1}, 10, 0);  // holds [0, 10)
  e.AddMessage(1.0, {0}, {1}, 1, 1);
  e.AddMessage(2.0, {0}, {1}, 5, 2);
  const auto d = RunAll(e);
  ASSERT_EQ(d.size(), 3u);
  EXPECT_EQ(d[0].user_tag, 0u);
  EXPECT_EQ(d[1].user_tag, 1u);
  EXPECT_DOUBLE_EQ(d[1].deliver_time, 11.0);
  EXPECT_EQ(d[2].user_tag, 2u);
  EXPECT_DOUBLE_EQ(d[2].deliver_time, 16.0);
}

TEST(WormholeEngine, UpstreamChannelHeldUntilTailHandsOff) {
  // Msg A takes channels {0, 1}; msg B needs channel 0 only. With unit
  // buffers channel 0 frees when A's tail starts on channel 1.
  // A (M=3, t=1 both): tail starts on ch1 at t=3 => B granted at 3,
  // delivered 3 + 3 = 6.
  WormholeEngine e({1.0, 1.0});
  e.AddMessage(0.0, {0, 1}, {1, 1}, 3, 0);
  e.AddMessage(0.0, {0}, {1}, 3, 1);
  const auto d = RunAll(e);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_DOUBLE_EQ(d[0].deliver_time, 4.0);  // (2 + 3 - 1) * 1
  EXPECT_EQ(d[1].user_tag, 1u);
  EXPECT_DOUBLE_EQ(d[1].deliver_time, 6.0);
}

TEST(WormholeEngine, BlockedMessageStallsHoldingChannels) {
  // Msg A occupies channel 2 for a long time. Msg B's path is {0, 1, 2}:
  // its header blocks waiting for 2 while holding 0 and 1, so msg C
  // (path {0}) must wait for B's tail to clear channel 0.
  WormholeEngine e({1.0, 1.0, 1.0});
  e.AddMessage(0.0, {2}, {1}, 20, 0);        // holds ch2 during [0, 20)
  e.AddMessage(1.0, {0, 1, 2}, {1, 1, 1}, 4, 1);
  e.AddMessage(2.0, {0}, {1}, 1, 2);
  const auto d = RunAll(e);
  ASSERT_EQ(d.size(), 3u);
  auto by_tag = [&d](std::uint64_t tag) {
    for (const auto& del : d) {
      if (del.user_tag == tag) return del.deliver_time;
    }
    return -1.0;
  };
  EXPECT_DOUBLE_EQ(by_tag(0), 20.0);
  // B: header crosses 0,1 by t=3, waits for ch2 until 20, then the 4-flit
  // pipeline drains: delivery at 24.
  EXPECT_DOUBLE_EQ(by_tag(1), 24.0);
  // C had to wait for B's tail to hand off channel 0, which happens at 22
  // as B's pipeline drains; C then needs one more flit time.
  EXPECT_DOUBLE_EQ(by_tag(2), 23.0);
}

TEST(WormholeEngine, DeepBufferDecouplesUpstream) {
  // Same scenario but channel 1's downstream buffer (before ch2) is
  // unbounded: B's flits accumulate there, channels 0 and 1 release early,
  // and C proceeds without waiting for ch2.
  WormholeEngine e({1.0, 1.0, 1.0});
  e.AddMessage(0.0, {2}, {1}, 20, 0);
  e.AddMessage(1.0, {0, 1, 2}, {1, 0, 1}, 4, 1);
  e.AddMessage(2.0, {0}, {1}, 1, 2);
  const auto d = RunAll(e);
  ASSERT_EQ(d.size(), 3u);
  // C is delivered long before A finishes.
  EXPECT_EQ(d[0].user_tag, 2u);
  EXPECT_LT(d[0].deliver_time, 10.0);
}

TEST(WormholeEngine, SingleMessageLatencyFormulaHeterogeneousPaths) {
  // For a lone message the exact schedule collapses to
  //   delivery = sum_j t_j + (M - 1) * max_j t_j
  // regardless of where the bottleneck sits.
  struct Case {
    std::vector<double> times;
    int flits;
  };
  const Case cases[] = {
      {{1, 3, 1}, 4}, {{3, 1, 1}, 4},       {{1, 1, 3}, 4},
      {{2, 2, 2}, 7}, {{0.5, 4, 2, 1}, 10}, {{5}, 3},
  };
  for (const auto& c : cases) {
    WormholeEngine e(c.times);
    std::vector<std::int32_t> path, depth;
    double sum = 0, mx = 0;
    for (std::size_t i = 0; i < c.times.size(); ++i) {
      path.push_back(static_cast<std::int32_t>(i));
      depth.push_back(1);
      sum += c.times[i];
      mx = std::max(mx, c.times[i]);
    }
    e.AddMessage(0.0, path, depth, c.flits, 0);
    std::vector<Delivery> d;
    e.Run([&d](const Delivery& del) { d.push_back(del); });
    EXPECT_NEAR(d[0].deliver_time, sum + (c.flits - 1) * mx, 1e-9)
        << "times.size=" << c.times.size() << " M=" << c.flits;
  }
}

TEST(WormholeEngine, LongMessageBeyondOldInt16Ceiling) {
  // The seed engine capped messages at 250 flits (int16 counters); the
  // arena engine's counters are 32-bit, bounded only by kMaxFlits.
  WormholeEngine e({1.0, 1.0});
  e.AddMessage(0.0, {0, 1}, {1, 1}, 4096, 0);
  std::vector<Delivery> d;
  e.Run([&d](const Delivery& del) { d.push_back(del); });
  EXPECT_DOUBLE_EQ(d[0].deliver_time, (2 + 4096 - 1) * 1.0);
}

TEST(WormholeEngine, BackToBackMessagesOnPipelineThroughput) {
  // K messages through the same 2-channel pipeline: after the first
  // delivery at (2 + M - 1) t, each further message adds M t (the channel
  // is released when the predecessor's tail starts on channel 1, i.e.
  // every M t).
  WormholeEngine e({1.0, 1.0});
  const int kMessages = 5, kFlits = 4;
  for (int i = 0; i < kMessages; ++i) {
    e.AddMessage(0.0, {0, 1}, {1, 1}, kFlits, static_cast<std::uint64_t>(i));
  }
  std::vector<Delivery> d;
  e.Run([&d](const Delivery& del) { d.push_back(del); });
  ASSERT_EQ(d.size(), static_cast<std::size_t>(kMessages));
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_DOUBLE_EQ(d[static_cast<std::size_t>(i)].deliver_time,
                     (2 + kFlits - 1) + i * kFlits)
        << i;
  }
}

TEST(WormholeEngine, SingleFlitMessage) {
  WormholeEngine e({1.0, 2.0, 1.0});
  e.AddMessage(0.0, {0, 1, 2}, {1, 1, 1}, 1, 0);
  const auto d = RunAll(e);
  EXPECT_DOUBLE_EQ(d[0].deliver_time, 4.0);  // pure store-and-forward of 1 flit
}

TEST(WormholeEngine, BusyTimeAccounting) {
  WormholeEngine e({2.0, 1.0});
  e.AddMessage(0.0, {0, 1}, {1, 1}, 5, 0);
  RunAll(e);
  EXPECT_DOUBLE_EQ(e.ChannelBusyTime(0), 5 * 2.0);
  EXPECT_DOUBLE_EQ(e.ChannelBusyTime(1), 5 * 1.0);
}

TEST(WormholeEngine, ConservationManyRandomMessages) {
  WormholeEngine e(std::vector<double>(16, 1.0));
  std::uint64_t state = 12345;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  const int kCount = 500;
  for (int i = 0; i < kCount; ++i) {
    // Random strictly-increasing channel sequences: like up*/down* routes,
    // they respect a global resource order, so the workload is
    // deadlock-free by construction (arbitrary random paths are not).
    std::vector<std::int32_t> path;
    std::int32_t c = static_cast<std::int32_t>(next() % 8);
    for (int j = 0; j < 3; ++j) {
      path.push_back(c);
      c += 1 + static_cast<std::int32_t>(next() % 3);
    }
    e.AddMessage(static_cast<double>(next() % 1000) * 0.1, path, {1, 1, 1},
                 1 + static_cast<int>(next() % 8), i);
  }
  const auto d = RunAll(e);
  EXPECT_EQ(d.size(), static_cast<std::size_t>(kCount));
  EXPECT_EQ(e.delivered_count(), kCount);
  // Latency is always positive and finite.
  for (const auto& del : d) {
    EXPECT_GT(del.deliver_time, del.gen_time);
    EXPECT_TRUE(std::isfinite(del.deliver_time));
  }
}

TEST(WormholeEngine, DeterministicReplay) {
  auto run = [] {
    WormholeEngine e({1.0, 1.5, 2.0, 1.0});
    for (int i = 0; i < 50; ++i) {
      e.AddMessage(0.3 * i, {i % 4, (i + 1) % 4}, {1, 1}, 4, i);
    }
    double sum = 0;
    e.Run([&sum](const Delivery& d) { sum += d.deliver_time; });
    return sum;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(WormholeEngine, StoreForwardSerializesFully) {
  // sf at position 1 with an unbounded feeding buffer: the header may only
  // request channel 1 after the tail arrived, so delivery = M t0 + M t1.
  WormholeEngine e({1.0, 2.0});
  e.AddMessage(0.0, {0, 1}, {0, 1}, 4, 0, {1});
  std::vector<Delivery> d;
  e.Run([&d](const Delivery& del) { d.push_back(del); });
  EXPECT_DOUBLE_EQ(d[0].deliver_time, 4 * 1.0 + 4 * 2.0);
}

TEST(WormholeEngine, StoreForwardReleasesFeedingChannelEarly) {
  // With sf + deep buffer, the feeding channel frees at tail arrival even
  // though the downstream channel is busy with another message.
  WormholeEngine e({1.0, 5.0});
  e.AddMessage(0.0, {1}, {1}, 10, 0);            // occupies ch1 in [0, 50)
  e.AddMessage(0.0, {0, 1}, {0, 1}, 4, 1, {1});  // sf into ch1
  e.AddMessage(0.0, {0}, {1}, 2, 2);             // wants ch0 after msg 1
  std::vector<Delivery> d;
  e.Run([&d](const Delivery& del) { d.push_back(del); });
  ASSERT_EQ(d.size(), 3u);
  // Msg 2 proceeds right after msg 1's tail arrives into the sf buffer
  // (t=4), long before ch1 frees at t=50.
  EXPECT_EQ(d[0].user_tag, 2u);
  EXPECT_DOUBLE_EQ(d[0].deliver_time, 6.0);
}

TEST(WormholeEngine, StoreForwardSingleFlitMessage) {
  WormholeEngine e({1.0, 2.0});
  e.AddMessage(0.0, {0, 1}, {0, 1}, 1, 0, {1});
  std::vector<Delivery> d;
  e.Run([&d](const Delivery& del) { d.push_back(del); });
  EXPECT_DOUBLE_EQ(d[0].deliver_time, 3.0);
}

TEST(WormholeEngine, StoreForwardValidation) {
  WormholeEngine e({1.0, 1.0});
  // Position 0 cannot be store-and-forward (no feeding buffer).
  EXPECT_THROW(e.AddMessage(0, {0, 1}, {0, 1}, 2, 0, {0}),
               std::invalid_argument);
  // The feeding buffer must be unbounded.
  EXPECT_THROW(e.AddMessage(0, {0, 1}, {1, 1}, 2, 0, {1}),
               std::invalid_argument);
  EXPECT_THROW(e.AddMessage(0, {0, 1}, {0, 1}, 2, 0, {2}),
               std::invalid_argument);
}

TEST(WormholeEngine, RejectsNonPositiveFlitTimes) {
  EXPECT_THROW(WormholeEngine({1.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(WormholeEngine({-2.0}), std::invalid_argument);
}

TEST(WormholeEngine, RejectsMalformedMessages) {
  WormholeEngine e({1.0});
  EXPECT_THROW(e.AddMessage(0, {}, {}, 4, 0), std::invalid_argument);
  EXPECT_THROW(e.AddMessage(0, {0}, {1, 1}, 4, 0), std::invalid_argument);
  EXPECT_THROW(e.AddMessage(0, {0}, {1}, 0, 0), std::invalid_argument);
  EXPECT_THROW(e.AddMessage(0, {0}, {1}, WormholeEngine::kMaxFlits + 1, 0),
               std::invalid_argument);
  EXPECT_THROW(e.AddMessage(0, {5}, {1}, 4, 0), std::invalid_argument);
  // Generation times are finite and non-negative: the lane heads order
  // times by their bit patterns.
  for (const double gen : {std::nan(""), HUGE_VAL, -HUGE_VAL, -1.0}) {
    EXPECT_THROW(e.AddMessage(gen, {0}, {1}, 4, 0), std::invalid_argument)
        << gen;
  }
  // Each throw left the engine unchanged: the first message is still id 0.
  EXPECT_EQ(e.AddMessage(-0.0, {0}, {1}, 4, 0), 0);
  const auto d = RunAll(e);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_DOUBLE_EQ(d[0].deliver_time, 4.0);
}

TEST(WormholeEngine, RejectsMoreDistinctFlitTimesThanLanes) {
  // A hop names its lane in 16 bits. A table past 2^16 distinct times is
  // refused before the engine changes, so the old table still runs.
  WormholeEngine e({1.0});
  std::vector<double> times;
  for (int i = 0; i <= 1 << 16; ++i) times.push_back(1.0 + i / 1024.0);
  EXPECT_THROW(e.Reset(times), std::invalid_argument);
  EXPECT_THROW(WormholeEngine{times}, std::invalid_argument);
  times.pop_back();
  EXPECT_NO_THROW(WormholeEngine{times});
  e.AddMessage(0.0, {0}, {1}, 3, 0);
  EXPECT_DOUBLE_EQ(RunAll(e)[0].deliver_time, 3.0);
}

// ---------------------------------------------------------------------------
// Differential check: the delay lanes must pop exactly the (time, seq) order
// of the heap over all events they replaced (tests/oracle). Dyadic flit
// times make equal times on different lanes frequent, so a merge that broke
// those ties any other way than by seq would show here.

struct RandomMessage {
  double gen_time;
  std::vector<std::int32_t> path, depth, store_forward;
  int flits;
};

struct RandomCase {
  std::vector<double> times;
  std::vector<RandomMessage> messages;
  std::int64_t events = 0;  // a full run: one generation + flits x hops each
};

RandomCase MakeRandomCase(std::uint64_t seed) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + 1;
  auto next = [&state](std::uint64_t bound) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return (state >> 33) % bound;
  };
  RandomCase c;
  const bool many_times = seed % 4 == 1;   // >= 64 distinct flit times
  const bool out_of_order = seed % 4 == 2; // AddMessage not in gen order
  const std::size_t channels = many_times ? 64 + next(64) : 8 + next(32);
  const double dyadic[] = {0.25, 0.5, 0.75, 1.0, 1.5};
  for (std::size_t ch = 0; ch < channels; ++ch) {
    c.times.push_back(many_times ? 0.25 + static_cast<double>(ch) / 64
                                 : dyadic[next(5)]);
  }
  const int count = 10 + static_cast<int>(next(110));
  double gen = 0;
  for (int i = 0; i < count; ++i) {
    RandomMessage m;
    gen += 0.25 * static_cast<double>(next(9));  // zero gaps: equal gens
    m.gen_time = out_of_order ? 0.25 * static_cast<double>(next(200)) : gen;
    // Strictly increasing channels keep the workload deadlock-free.
    for (auto ch = static_cast<std::int32_t>(next(channels / 2));
         ch < static_cast<std::int32_t>(channels) && m.path.size() < 6;
         ch += 1 + static_cast<std::int32_t>(next(3))) {
      m.path.push_back(ch);
      m.depth.push_back(static_cast<std::int32_t>(next(3)));  // 0, 1 or 2
    }
    for (std::size_t pos = 1; pos < m.path.size(); ++pos) {
      if (m.depth[pos - 1] == 0 && next(2) == 0) {
        m.store_forward.push_back(static_cast<std::int32_t>(pos));
      }
    }
    m.flits = 1 + static_cast<int>(next(40));
    c.events += 1 + static_cast<std::int64_t>(m.flits) *
                        static_cast<std::int64_t>(m.path.size());
    c.messages.push_back(std::move(m));
  }
  return c;
}

// Shaped like the presets: 4 flit times, one twice another as t_cs of one
// network is twice t_cn of another (0.5 + 0.5 ties 1.0); 5-16 link paths of
// 32-flit messages; inter-cluster-like messages pass two unbounded C/D
// buffers, store-and-forward in odd seeds; and generations dense enough
// that several messages queue for each shared channel.
RandomCase MakePresetShapedCase(std::uint64_t seed) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + 7;
  auto next = [&state](std::uint64_t bound) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return (state >> 33) % bound;
  };
  RandomCase c;
  const double times[] = {0.5, 0.5625, 1.0, 1.125};
  const std::size_t channels = 40 + next(24);
  for (std::size_t ch = 0; ch < channels; ++ch) {
    c.times.push_back(times[next(4)]);
  }
  const int count = 40 + static_cast<int>(next(80));
  double gen = 0;
  for (int i = 0; i < count; ++i) {
    RandomMessage m;
    gen += 0.5 * static_cast<double>(next(8));
    m.gen_time = gen;
    const auto len = static_cast<std::int32_t>(5 + next(12));
    // Strictly increasing channels keep the workload deadlock-free.
    auto ch = static_cast<std::int32_t>(
        next(channels - 2 * static_cast<std::size_t>(len) + 1));
    for (std::int32_t pos = 0; pos < len; ++pos) {
      m.path.push_back(ch);
      m.depth.push_back(1);
      ch += 1 + static_cast<std::int32_t>(next(2));
    }
    if (next(4) != 0) {  // through a concentrator and a dispatcher
      const auto cd = {1 + static_cast<std::int32_t>(next(2)),
                       len - 1 - static_cast<std::int32_t>(next(2))};
      for (const std::int32_t pos : cd) {
        m.depth[static_cast<std::size_t>(pos) - 1] = 0;
        if (seed % 2 == 1) m.store_forward.push_back(pos);
      }
    }
    m.flits = 32;
    c.events += 1 + 32 * static_cast<std::int64_t>(len);
    c.messages.push_back(std::move(m));
  }
  return c;
}

struct Outcome {
  struct Record {
    std::int64_t msg;
    double gen_time, deliver_time;
    std::uint64_t user_tag;
    bool operator==(const Record&) const = default;
  };
  std::vector<Record> deliveries;
  double end_time = 0;
  std::int64_t delivered = 0;
  std::vector<double> busy;
  std::string budget_error;
};

template <typename Engine>
Outcome RunRandomCase(const RandomCase& c, std::int64_t max_events) {
  Engine engine(c.times);
  for (std::size_t i = 0; i < c.messages.size(); ++i) {
    const RandomMessage& m = c.messages[i];
    engine.AddMessage(m.gen_time, m.path, m.depth, m.flits, i,
                      m.store_forward);
  }
  Outcome out;
  typename Engine::RunLimits limits;
  limits.max_events = max_events;
  try {
    engine.Run(
        [&out](const auto& d) {
          out.deliveries.push_back(
              {d.msg, d.gen_time, d.deliver_time, d.user_tag});
        },
        limits);
  } catch (const SimBudgetError& e) {
    out.budget_error = e.what();
  }
  out.end_time = engine.end_time();
  out.delivered = engine.delivered_count();
  for (std::size_t ch = 0; ch < c.times.size(); ++ch) {
    out.busy.push_back(engine.ChannelBusyTime(static_cast<std::int32_t>(ch)));
  }
  return out;
}

TEST(WormholeEngine, LanesReproduceTheHeapScheduleExactly) {
  for (std::uint64_t seed = 0; seed < 240; ++seed) {
    const RandomCase c = MakeRandomCase(seed);
    const Outcome lanes = RunRandomCase<WormholeEngine>(c, 0);
    const Outcome heap = RunRandomCase<HeapWormholeEngine>(c, 0);
    ASSERT_EQ(heap.deliveries.size(), c.messages.size()) << seed;
    std::size_t differing = 0;
    for (std::size_t i = 0; i < heap.deliveries.size(); ++i) {
      differing += i >= lanes.deliveries.size() ||
                   !(lanes.deliveries[i] == heap.deliveries[i]);
    }
    EXPECT_EQ(differing, 0u) << "seed " << seed;
    EXPECT_EQ(lanes.deliveries.size(), heap.deliveries.size()) << seed;
    EXPECT_EQ(lanes.end_time, heap.end_time) << seed;
    EXPECT_EQ(lanes.delivered, heap.delivered) << seed;
    EXPECT_EQ(lanes.busy, heap.busy) << seed;

    // A budget short of the full run trips both at the same point.
    const auto budget = 1 + static_cast<std::int64_t>(
                                (seed * 7919) %
                                static_cast<std::uint64_t>(c.events - 1));
    const Outcome lanes_cut = RunRandomCase<WormholeEngine>(c, budget);
    const Outcome heap_cut = RunRandomCase<HeapWormholeEngine>(c, budget);
    ASSERT_FALSE(heap_cut.budget_error.empty()) << seed;
    EXPECT_EQ(lanes_cut.budget_error, heap_cut.budget_error) << seed;
    EXPECT_EQ(lanes_cut.delivered, heap_cut.delivered) << seed;
    EXPECT_TRUE(lanes_cut.deliveries == heap_cut.deliveries) << seed;
    EXPECT_EQ(lanes_cut.busy, heap_cut.busy) << seed;
  }
}

TEST(WormholeEngine, PresetShapedRunsReproduceTheHeapScheduleExactly) {
  // The send cascade walks up to 16 positions here, through C/D buffers
  // and waiter FIFOs; the same equalities as the random cases above.
  for (std::uint64_t seed = 0; seed < 48; ++seed) {
    const RandomCase c = MakePresetShapedCase(seed);
    const Outcome lanes = RunRandomCase<WormholeEngine>(c, 0);
    const Outcome heap = RunRandomCase<HeapWormholeEngine>(c, 0);
    ASSERT_EQ(heap.deliveries.size(), c.messages.size()) << seed;
    EXPECT_TRUE(lanes.deliveries == heap.deliveries) << seed;
    EXPECT_EQ(lanes.end_time, heap.end_time) << seed;
    EXPECT_EQ(lanes.delivered, heap.delivered) << seed;
    EXPECT_EQ(lanes.busy, heap.busy) << seed;

    const auto budget = 1 + static_cast<std::int64_t>(
                                (seed * 7919) %
                                static_cast<std::uint64_t>(c.events - 1));
    const Outcome lanes_cut = RunRandomCase<WormholeEngine>(c, budget);
    const Outcome heap_cut = RunRandomCase<HeapWormholeEngine>(c, budget);
    ASSERT_FALSE(heap_cut.budget_error.empty()) << seed;
    EXPECT_EQ(lanes_cut.budget_error, heap_cut.budget_error) << seed;
    EXPECT_EQ(lanes_cut.delivered, heap_cut.delivered) << seed;
    EXPECT_TRUE(lanes_cut.deliveries == heap_cut.deliveries) << seed;
    EXPECT_EQ(lanes_cut.busy, heap_cut.busy) << seed;
  }
}

}  // namespace
}  // namespace coc
