// Tests for the sharded execution engine: SPSC mailboxes, the ShardSet
// lockstep scheduler, Every() ticker handles, shard-bound packet pools,
// and microflow-cache generation wraparound.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/packet.h"
#include "sdn/flow_table.h"
#include "sdn/microflow_cache.h"
#include "sdn/shard_map.h"
#include "sim/mailbox.h"
#include "sim/shard_set.h"
#include "sim/simulator.h"

namespace iotsec {
namespace {

// ---------------------------------------------------------------------------
// Simulator::Every tickers: the only cancellable events.

TEST(SimulatorPendingTest, HandleOutlivesSimulator) {
  sim::EventHandle h;
  {
    sim::Simulator s;
    h = s.Every(50, [] {});
    EXPECT_TRUE(h.Pending());
  }
  h.Cancel();  // must not touch freed simulator state
  EXPECT_FALSE(h.Pending());
}

TEST(SimulatorTickerTest, CancelFromOwnCallbackStopsTicker) {
  sim::Simulator s;
  int fires = 0;
  sim::EventHandle h;
  h = s.Every(10, [&] {
    if (++fires == 2) h.Cancel();
  });
  s.RunUntil(100);
  EXPECT_EQ(fires, 2);
  EXPECT_FALSE(h.Pending());
  EXPECT_EQ(s.NextEventTime(), ~SimTime{0});  // no tick left queued
  EXPECT_EQ(s.EventsProcessed(), 2u);
}

TEST(SimulatorTickerTest, CallbackHoldingOwnHandleIsFreed) {
  // The callback keeps its own handle alive; the handle shares only the
  // cancelled flag with the tick, so neither case leaks the closure.
  auto self = std::make_shared<sim::EventHandle>();
  std::weak_ptr<sim::EventHandle> watch = self;
  sim::Simulator s;
  *self = s.Every(10, [self] { self->Cancel(); });
  self.reset();
  EXPECT_FALSE(watch.expired());
  s.RunUntil(10);  // cancelled inside its own tick: dropped, not re-queued
  EXPECT_TRUE(watch.expired());

  auto kept = std::make_shared<sim::EventHandle>();
  watch = kept;
  {
    sim::Simulator other;
    *kept = other.Every(10, [kept] {});
    kept.reset();
    other.RunUntil(35);
    EXPECT_FALSE(watch.expired());  // still ticking
  }
  EXPECT_TRUE(watch.expired());  // freed with the simulator's queue
}

TEST(SimulatorTickerTest, TicksAndOneShotsAtSameInstantKeepOrder) {
  // A tick is queued when Every() is called and re-queued after its
  // callback returns, so it draws its insertion sequence after whatever
  // the callback scheduled.
  sim::Simulator s;
  std::vector<std::string> order;
  s.Every(10, [&] {
    order.push_back("tick@" + std::to_string(s.Now()));
    if (s.Now() == 10) {
      s.At(20, [&] { order.push_back("inner@20"); });
    }
  });
  s.At(10, [&] { order.push_back("a@10"); });
  s.At(20, [&] { order.push_back("b@20"); });
  s.RunUntil(20);
  EXPECT_EQ(order, (std::vector<std::string>{"tick@10", "a@10", "b@20",
                                             "inner@20", "tick@20"}));
}

// ---------------------------------------------------------------------------
// SPSC mailbox.

TEST(MailboxTest, DrainReturnsPushedEvents) {
  sim::SpscMailbox box;
  for (int i = 0; i < 10; ++i) {
    box.Push({/*when=*/static_cast<SimTime>(100 + i), /*src=*/0,
              /*src_seq=*/static_cast<std::uint64_t>(i), [] {}});
  }
  std::vector<sim::CrossShardEvent> out;
  box.Drain(out);
  ASSERT_EQ(out.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)].src_seq,
              static_cast<std::uint64_t>(i));
  }
  EXPECT_TRUE(box.Empty());
}

TEST(MailboxTest, OverflowSpillsWithoutLoss) {
  sim::SpscMailbox box(/*capacity=*/8);
  constexpr int kEvents = 100;  // far past the ring capacity
  for (int i = 0; i < kEvents; ++i) {
    box.Push({/*when=*/1, /*src=*/0, /*src_seq=*/static_cast<std::uint64_t>(i),
              [] {}});
  }
  EXPECT_GT(box.OverflowCount(), 0u);
  std::vector<sim::CrossShardEvent> out;
  box.Drain(out);
  EXPECT_EQ(out.size(), static_cast<std::size_t>(kEvents));
  std::vector<bool> seen(kEvents, false);
  for (const auto& ev : out) seen[static_cast<std::size_t>(ev.src_seq)] = true;
  for (int i = 0; i < kEvents; ++i) {
    EXPECT_TRUE(seen[static_cast<std::size_t>(i)]) << i;
  }
}

// ---------------------------------------------------------------------------
// ShardSet lockstep scheduling.

TEST(ShardSetTest, PostBeforeRunSchedulesDirectly) {
  sim::ShardSet::Options opt;
  opt.shards = 2;
  opt.use_threads = false;
  sim::ShardSet set(opt);
  int fired = 0;
  set.Post(1, 50, [&] { ++fired; });
  set.RunUntil(100);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(set.cross_shard_events(), 0u);  // direct schedule, no mailbox
}

TEST(ShardSetTest, CrossShardPostDeliversThroughMailbox) {
  sim::ShardSet::Options opt;
  opt.shards = 2;
  opt.quantum = 100;
  opt.use_threads = false;
  sim::ShardSet set(opt);
  std::vector<SimTime> fired_at;
  // Shard 0 event posts to shard 1 one quantum out.
  set.sim(0).At(10, [&] {
    set.Post(1, set.sim(0).Now() + 100, [&] {
      fired_at.push_back(set.sim(1).Now());
    });
  });
  set.RunUntil(1000);
  ASSERT_EQ(fired_at.size(), 1u);
  EXPECT_EQ(fired_at[0], 110u);
  EXPECT_EQ(set.cross_shard_events(), 1u);
  EXPECT_EQ(set.late_posts(), 0u);
}

TEST(ShardSetTest, LatePostClampedAndCounted) {
  sim::ShardSet::Options opt;
  opt.shards = 2;
  opt.quantum = 100;
  opt.use_threads = false;
  sim::ShardSet set(opt);
  SimTime fired_at = 0;
  set.sim(0).At(10, [&] {
    // Violates the lookahead contract: asks for delivery inside the
    // current quantum. Must be clamped to the quantum end, not lost.
    set.Post(1, 20, [&] { fired_at = set.sim(1).Now(); });
  });
  set.RunUntil(500);
  EXPECT_EQ(fired_at, 100u);
  EXPECT_EQ(set.late_posts(), 1u);
}

TEST(ShardSetTest, IdleQuantaSkippedButEventsStillFire) {
  sim::ShardSet::Options opt;
  opt.shards = 2;
  opt.quantum = 100;
  opt.use_threads = false;
  sim::ShardSet set(opt);
  std::vector<int> order;
  set.sim(0).At(1000000, [&] { order.push_back(0); });
  set.sim(1).At(2000000, [&] { order.push_back(1); });
  set.RunUntil(3000000);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(set.Now(), 3000000u);
  // The whole idle span must not have been walked quantum by quantum.
  EXPECT_LT(set.quanta_run(), 100u);
}

// The core determinism property at engine level: same program, same
// seed-derived schedule => identical delivery order, threads or not.
TEST(ShardSetTest, ThreadedMatchesInlineDeliveryOrder) {
  const auto run = [](bool threads) {
    sim::ShardSet::Options opt;
    opt.shards = 4;
    opt.quantum = 100;
    opt.use_threads = threads;
    sim::ShardSet set(opt);
    std::vector<std::uint64_t> log;
    // Every shard posts to every other shard at staggered times; shard 0
    // records deliveries (only shard 0's thread touches the log).
    for (int src = 0; src < 4; ++src) {
      for (int i = 0; i < 20; ++i) {
        const auto when = static_cast<SimTime>(10 + 7 * i + src);
        set.sim(src).At(when, [&set, &log, src, i] {
          const auto now = set.sim(src).Now();
          set.Post(0, now + 100,
                   [&set, &log, src, i] {
                     log.push_back((static_cast<std::uint64_t>(
                                        set.sim(0).Now())
                                    << 16) |
                                   (static_cast<std::uint64_t>(src) << 8) |
                                   static_cast<std::uint64_t>(i));
                   });
        });
      }
    }
    set.RunUntil(10000);
    return log;
  };
  const auto inline_log = run(false);
  const auto threaded_log = run(true);
  EXPECT_EQ(inline_log.size(), 80u);
  EXPECT_EQ(inline_log, threaded_log);
}

TEST(ShardMapTest, StableAndBalanced) {
  // Placement must be a pure function of the id...
  EXPECT_EQ(sdn::ShardOfDevice(42, 8), sdn::ShardOfDevice(42, 8));
  EXPECT_EQ(sdn::ShardOfDevice(42, 1), 0);
  // ...and sequential ids must spread across shards (the hash exists so
  // id-assignment order doesn't pile devices onto one worker).
  std::vector<int> counts(8, 0);
  for (DeviceId id = 0; id < 8000; ++id) {
    const int s = sdn::ShardOfDevice(id, 8);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 8);
    ++counts[static_cast<std::size_t>(s)];
  }
  for (const int c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

// ---------------------------------------------------------------------------
// PacketPool thread binding.

TEST(PacketPoolShardTest, ForeignReleaseDeletesInsteadOfRecycling) {
  net::PacketPool pool;
  net::PacketPool::BindToThisThread(&pool);
  auto pkt = net::MakePacket(Bytes{1, 2, 3});

  // Drop the last reference on a thread NOT bound to this pool: the
  // packet must be freed outright (touching the foreign free list would
  // race), and counted.
  std::thread other([p = std::move(pkt)]() mutable { p.reset(); });
  other.join();

  EXPECT_EQ(pool.ForeignReleases(), 1u);
  EXPECT_EQ(pool.FreeCount(), 0u);

  // Same-thread release recycles as before.
  auto pkt2 = net::MakePacket(Bytes{4, 5});
  pkt2.reset();
  EXPECT_EQ(pool.FreeCount(), 1u);
  EXPECT_EQ(pool.ForeignReleases(), 1u);
  net::PacketPool::BindToThisThread(nullptr);
}

TEST(PacketPoolShardTest, CurrentFollowsBinding) {
  EXPECT_EQ(&net::PacketPool::Current(), &net::PacketPool::Global());
  net::PacketPool pool;
  net::PacketPool::BindToThisThread(&pool);
  EXPECT_EQ(&net::PacketPool::Current(), &pool);
  net::PacketPool::BindToThisThread(nullptr);
  EXPECT_EQ(&net::PacketPool::Current(), &net::PacketPool::Global());
}

// ---------------------------------------------------------------------------
// Microflow cache generation wraparound.

TEST(MicroflowGenerationTest, WraparoundDoesNotServeStaleEntry) {
  sdn::MicroflowCache cache(64);
  sdn::FlowKey key;
  key.in_port = 7;
  key.ip_src = 0x0a000001;
  sdn::FlowEntry entry;

  // A verdict recorded under the all-ones generation...
  const std::uint64_t gen_max = ~std::uint64_t{0};
  cache.Insert(key, &entry, gen_max);
  const sdn::FlowEntry* out = nullptr;
  EXPECT_TRUE(cache.Find(key, gen_max, &out));
  EXPECT_EQ(out, &entry);

  // ...must read as stale at generation 0 (a wrapped counter), never as
  // a hit against a table that has since changed.
  out = nullptr;
  EXPECT_FALSE(cache.Find(key, 0, &out));
  EXPECT_EQ(cache.stats().stale, 1u);

  // Re-inserting under the new generation heals the slot.
  cache.Insert(key, &entry, 0);
  EXPECT_TRUE(cache.Find(key, 0, &out));
  EXPECT_EQ(out, &entry);
}

TEST(MicroflowGenerationTest, ResizeClearsAndRoundsUp) {
  sdn::MicroflowCache cache(64);
  sdn::FlowKey key;
  key.in_port = 3;
  sdn::FlowEntry entry;
  cache.Insert(key, &entry, 1);
  const sdn::FlowEntry* out = nullptr;
  ASSERT_TRUE(cache.Find(key, 1, &out));

  cache.Resize(1000);  // -> 1024 slots, all verdicts dropped
  EXPECT_EQ(cache.SlotCount(), 1024u);
  EXPECT_FALSE(cache.Find(key, 1, &out));
}

}  // namespace
}  // namespace iotsec
