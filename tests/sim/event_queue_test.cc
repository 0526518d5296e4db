#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

namespace eva {
namespace {

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue queue;
  queue.Push(30.0, SimEventType::kRound);
  queue.Push(10.0, SimEventType::kArrival, 7);
  queue.Push(20.0, SimEventType::kInstanceReady, 3);

  ASSERT_EQ(queue.Size(), 3u);
  SimEvent event = queue.Pop();
  EXPECT_EQ(event.time, 10.0);
  EXPECT_EQ(event.type, SimEventType::kArrival);
  EXPECT_EQ(event.a, 7);
  event = queue.Pop();
  EXPECT_EQ(event.time, 20.0);
  EXPECT_EQ(event.type, SimEventType::kInstanceReady);
  event = queue.Pop();
  EXPECT_EQ(event.time, 30.0);
  EXPECT_TRUE(queue.Empty());
}

TEST(EventQueueTest, EqualTimesBreakTiesFifo) {
  EventQueue queue;
  queue.Push(5.0, SimEventType::kLaunchDone, 1);
  queue.Push(5.0, SimEventType::kCheckpointDone, 2);
  queue.Push(5.0, SimEventType::kCompletionCheck, 3);

  EXPECT_EQ(queue.Pop().a, 1);
  EXPECT_EQ(queue.Pop().a, 2);
  EXPECT_EQ(queue.Pop().a, 3);
}

TEST(EventQueueTest, CarriesVersionPayload) {
  EventQueue queue;
  queue.Push(1.0, SimEventType::kLaunchDone, 42, 9);
  const SimEvent event = queue.Pop();
  EXPECT_EQ(event.a, 42);
  EXPECT_EQ(event.version, 9);
}

TEST(EventQueueTest, CountsEverPushed) {
  EventQueue queue;
  EXPECT_EQ(queue.pushed(), 0u);
  queue.Push(1.0, SimEventType::kRound);
  queue.Push(2.0, SimEventType::kRound);
  queue.Pop();
  EXPECT_EQ(queue.pushed(), 2u);  // Pops do not decrement.
}

TEST(EventQueueTest, InterleavedPushPopKeepsOrder) {
  EventQueue queue;
  queue.Push(10.0, SimEventType::kArrival, 1);
  queue.Push(30.0, SimEventType::kArrival, 3);
  EXPECT_EQ(queue.Pop().a, 1);
  queue.Push(20.0, SimEventType::kArrival, 2);
  EXPECT_EQ(queue.Pop().a, 2);
  EXPECT_EQ(queue.Pop().a, 3);
}

// Completion checks re-armed at decreasing times must stay totally ordered
// against the other queued events, including a push landing between
// already-queued checks.
TEST(EventQueueTest, DecreasingTimeChecksOrderAgainstOtherEvents) {
  EventQueue queue;
  // Decreasing-time check pushes interleaved with other events on both
  // sides.
  queue.Push(25.0, SimEventType::kRound, 100);
  queue.Push(40.0, SimEventType::kCompletionCheck, 1);
  queue.Push(30.0, SimEventType::kCompletionCheck, 2);
  queue.Push(10.0, SimEventType::kCompletionCheck, 3);
  queue.Push(5.0, SimEventType::kArrival, 200);
  // A check landing between the queued ones.
  queue.Push(35.0, SimEventType::kCompletionCheck, 4);
  EXPECT_EQ(queue.Size(), 6u);

  EXPECT_EQ(queue.Pop().a, 200);  // t=5 arrival.
  EXPECT_EQ(queue.Pop().a, 3);    // t=10 check.
  EXPECT_EQ(queue.Pop().a, 100);  // t=25 round.
  EXPECT_EQ(queue.Pop().a, 2);    // t=30 check.
  EXPECT_EQ(queue.Pop().a, 4);    // t=35 check (pushed out of order).
  EXPECT_EQ(queue.Pop().a, 1);    // t=40 check.
  EXPECT_TRUE(queue.Empty());
}

TEST(EventQueueTest, EqualTimeChecksPopFifo) {
  EventQueue queue;
  queue.Push(10.0, SimEventType::kCompletionCheck, 1);
  queue.Push(10.0, SimEventType::kLaunchDone, 2);
  queue.Push(10.0, SimEventType::kCompletionCheck, 3);
  // Same time, non-arrival: FIFO by sequence number.
  EXPECT_EQ(queue.Pop().a, 1);
  EXPECT_EQ(queue.Pop().a, 2);
  EXPECT_EQ(queue.Pop().a, 3);
  // Arrivals still outrank all non-arrivals at the same timestamp.
  queue.Push(20.0, SimEventType::kCompletionCheck, 4);
  queue.Push(20.0, SimEventType::kArrival, 5);
  EXPECT_EQ(queue.Pop().a, 5);
  EXPECT_EQ(queue.Pop().a, 4);
}

}  // namespace
}  // namespace eva
