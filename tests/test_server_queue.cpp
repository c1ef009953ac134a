// Unit + stress tests for the bounded job queue: non-blocking admission
// with explicit rejection when full, FIFO drain, close semantics, and a
// multi-producer/multi-consumer stress run (this file builds into the
// tsan-labelled binary).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "server/job_queue.hpp"

namespace mdd::server {
namespace {

TEST(BoundedQueue, TryPushRejectsWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_EQ(q.capacity(), 2u);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  int spill = 3;
  EXPECT_FALSE(q.try_push(std::move(spill)));
  // try_push only moves on success — a rejected item is still usable
  // (the service builds the `overloaded` reply from it).
  EXPECT_EQ(spill, 3);

  const auto s = q.stats();
  EXPECT_EQ(s.high_water, 2u);
  EXPECT_EQ(s.depth, 2u);
  EXPECT_EQ(s.capacity, 2u);
}

TEST(BoundedQueue, ZeroCapacityClampsToOne) {
  BoundedQueue<int> q(0);
  EXPECT_EQ(q.capacity(), 1u);
  EXPECT_TRUE(q.try_push(7));
  EXPECT_FALSE(q.try_push(8));
}

TEST(BoundedQueue, CloseStopsAdmissionButDrainsFifo) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.try_push(10));
  EXPECT_TRUE(q.try_push(20));
  EXPECT_TRUE(q.try_push(30));
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.try_push(40));

  // Queued work still drains, in order, before the terminal nullopt.
  EXPECT_EQ(q.pop(), 10);
  EXPECT_EQ(q.pop(), 20);
  EXPECT_EQ(q.pop(), 30);
  EXPECT_EQ(q.pop(), std::nullopt);
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(BoundedQueue, PopBlocksUntilPush) {
  BoundedQueue<int> q(1);
  std::atomic<bool> got{false};
  std::thread consumer([&] {
    const auto v = q.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 99);
    got.store(true);
  });
  // The consumer is (very likely) parked in pop() by now; either way the
  // push must wake it.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(got.load());
  EXPECT_TRUE(q.try_push(99));
  consumer.join();
  EXPECT_TRUE(got.load());
}

TEST(BoundedQueue, CloseWakesAllBlockedPoppers) {
  BoundedQueue<int> q(1);
  constexpr std::size_t kPoppers = 4;
  std::atomic<std::size_t> woke{0};
  std::vector<std::thread> poppers;
  for (std::size_t i = 0; i < kPoppers; ++i)
    poppers.emplace_back([&] {
      EXPECT_EQ(q.pop(), std::nullopt);
      ++woke;
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  for (std::thread& t : poppers) t.join();
  EXPECT_EQ(woke.load(), kPoppers);
}

TEST(BoundedQueueStress, ProducersAndConsumersConserveItems) {
  // 4 producers push 500 items each through a deliberately tight queue;
  // producers spin on try_push rejection (the clients' retry loop), so
  // every item is eventually admitted exactly once. 4 consumers drain
  // until close; the union of consumed items must be exactly the set
  // produced — nothing lost, nothing duplicated.
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kConsumers = 4;
  constexpr int kPerProducer = 500;
  BoundedQueue<int> q(8);

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p)
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        int item = static_cast<int>(p) * kPerProducer + i;
        while (!q.try_push(std::move(item)))
          std::this_thread::yield();
      }
    });

  std::mutex seen_mutex;
  std::vector<int> seen;
  std::vector<std::thread> consumers;
  for (std::size_t c = 0; c < kConsumers; ++c)
    consumers.emplace_back([&] {
      std::vector<int> mine;
      while (auto v = q.pop()) mine.push_back(*v);
      std::lock_guard<std::mutex> lock(seen_mutex);
      seen.insert(seen.end(), mine.begin(), mine.end());
    });

  for (std::thread& t : producers) t.join();
  q.close();
  for (std::thread& t : consumers) t.join();

  ASSERT_EQ(seen.size(), kProducers * kPerProducer);
  std::vector<bool> present(kProducers * kPerProducer, false);
  for (int v : seen) {
    ASSERT_GE(v, 0);
    ASSERT_LT(static_cast<std::size_t>(v), present.size());
    EXPECT_FALSE(present[static_cast<std::size_t>(v)]) << "duplicate " << v;
    present[static_cast<std::size_t>(v)] = true;
  }
  const auto s = q.stats();
  EXPECT_LE(s.high_water, q.capacity());
  EXPECT_EQ(s.depth, 0u);
}

}  // namespace
}  // namespace mdd::server
