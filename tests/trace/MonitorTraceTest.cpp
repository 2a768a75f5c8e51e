//===- tests/trace/MonitorTraceTest.cpp -----------------------------------==//
//
// Pins the monitor's trace surface across the thin-lock rewrite: the
// uncontended acquire instant, the reentrant depth payload, the contended
// Complete span plus the thin->fat MonitorInflate transition, wait/notify
// events with their notified/all payloads, and the TraceProfile
// contended-monitor and inflation aggregation built from a real run.
//
//===----------------------------------------------------------------------===//

#include "runtime/Monitor.h"
#include "trace/Trace.h"
#include "trace/TraceSession.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

using namespace ren::trace;
using ren::runtime::Monitor;
using ren::runtime::Synchronized;

namespace {

/// Events of one kind attributed to one monitor id, in drain order.
std::vector<TraceEvent> eventsFor(const TraceSession &Session, EventKind Kind,
                                  uint64_t Id) {
  std::vector<TraceEvent> Out;
  for (const TraceEvent &E : Session.events())
    if (E.Kind == Kind && E.A == Id)
      Out.push_back(E);
  return Out;
}

} // namespace

TEST(MonitorTraceTest, UncontendedAcquireIsOneInstantEvent) {
  if (!kTraceCompiled)
    GTEST_SKIP() << "tracing compiled out (REN_TRACE_DISABLED)";
  Monitor M;
  const uint64_t Id = objectId(&M);
  TraceSession Session;
  Session.start();
  M.enter();
  M.exit();
  Session.stop();

  auto Acquires = eventsFor(Session, EventKind::MonitorAcquire, Id);
  ASSERT_EQ(Acquires.size(), 1u);
  EXPECT_EQ(Acquires[0].Ph, Phase::Instant);
  EXPECT_STREQ(Acquires[0].Name, "monitor.acquire");
  // A thin-path acquire must not report contention or inflate the lock.
  EXPECT_TRUE(eventsFor(Session, EventKind::MonitorContended, Id).empty());
  EXPECT_TRUE(eventsFor(Session, EventKind::MonitorInflate, Id).empty());
}

TEST(MonitorTraceTest, ReentrantAcquireCarriesRecursionDepth) {
  if (!kTraceCompiled)
    GTEST_SKIP() << "tracing compiled out (REN_TRACE_DISABLED)";
  Monitor M;
  const uint64_t Id = objectId(&M);
  TraceSession Session;
  Session.start();
  M.enter();
  M.enter(); // depth 2
  M.enter(); // depth 3
  M.exit();
  M.exit();
  M.exit();
  Session.stop();

  auto Acquires = eventsFor(Session, EventKind::MonitorAcquire, Id);
  ASSERT_EQ(Acquires.size(), 3u);
  EXPECT_EQ(Acquires[1].B, 2u);
  EXPECT_EQ(Acquires[2].B, 3u);
}

TEST(MonitorTraceTest, ContendedEnterEmitsSpanInflateAndProfileRow) {
  if (!kTraceCompiled)
    GTEST_SKIP() << "tracing compiled out (REN_TRACE_DISABLED)";
  Monitor M;
  const uint64_t Id = objectId(&M);
  TraceSession Session;
  Session.start();
  M.enter();
  std::thread Blocked([&M] {
    M.enter(); // provably contended: queued behind the holder
    M.exit();
  });
  // contendedAcquirers() counts threads inside the queued slow path; once
  // it reads 1 the peer is committed to the contended protocol, making the
  // MonitorContended span deterministic rather than probabilistic.
  while (M.contendedAcquirers() < 1)
    std::this_thread::yield();
  // Give the peer a beat to actually push its wait node so the thin->fat
  // inflate transition fires too (spin on 1 CPU ends in a queued park).
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  M.exit();
  Blocked.join();
  Session.stop();

  uint32_t MainTid = TraceRegistry::get().threadBuffer().tid();
  auto Contended = eventsFor(Session, EventKind::MonitorContended, Id);
  ASSERT_EQ(Contended.size(), 1u);
  EXPECT_EQ(Contended[0].Ph, Phase::Complete);
  EXPECT_NE(Contended[0].Tid, MainTid);
  EXPECT_GT(Contended[0].Dur, 0u);

  // The entry queue went empty -> populated at least once, on this monitor.
  auto Inflates = eventsFor(Session, EventKind::MonitorInflate, Id);
  ASSERT_GE(Inflates.size(), 1u);
  EXPECT_EQ(Inflates[0].Ph, Phase::Instant);
  EXPECT_STREQ(Inflates[0].Name, "monitor.inflate");

  // The same stream drives the profile aggregation.
  TraceProfile Profile = Session.profile();
  ASSERT_EQ(Profile.ContendedMonitors.size(), 1u);
  EXPECT_EQ(Profile.ContendedMonitors[0].Monitor, Id);
  EXPECT_EQ(Profile.ContendedMonitors[0].Contended, 1u);
  EXPECT_GT(Profile.ContendedMonitors[0].TotalBlockedNs, 0u);
  EXPECT_GE(Profile.MonitorInflations, 1u);
  EXPECT_EQ(Profile.MonitorBlocked.count(), 1u);
  EXPECT_NE(Profile.summary().find("inflations"), std::string::npos);
}

TEST(MonitorTraceTest, TimedWaitRecordsTimeoutVsNotifiedPayload) {
  if (!kTraceCompiled)
    GTEST_SKIP() << "tracing compiled out (REN_TRACE_DISABLED)";
  Monitor M;
  const uint64_t Id = objectId(&M);
  TraceSession Session;
  Session.start();
  {
    Synchronized Sync(M);
    EXPECT_FALSE(M.waitFor(1)); // expires: span payload B = 0
  }
  std::atomic<bool> Woke{false};
  std::thread Notifier([&] {
    while (!Woke.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      Synchronized Sync(M);
      M.notifyAll();
    }
  });
  {
    Synchronized Sync(M);
    bool Notified = false;
    while (!Notified)
      Notified = M.waitFor(100);
  }
  Woke.store(true);
  Notifier.join();
  Session.stop();

  auto Waits = eventsFor(Session, EventKind::MonitorWait, Id);
  ASSERT_GE(Waits.size(), 2u);
  for (const TraceEvent &E : Waits) {
    EXPECT_EQ(E.Ph, Phase::Complete);
    EXPECT_STREQ(E.Name, "monitor.wait");
  }
  // First recorded wait is the deterministic timeout; some notified wait
  // must carry B = 1 (earlier attempts in the loop may legitimately time
  // out before the notifier lands).
  EXPECT_EQ(Waits.front().B, 0u);
  bool SawNotified = false;
  for (const TraceEvent &E : Waits)
    SawNotified = SawNotified || E.B == 1;
  EXPECT_TRUE(SawNotified);
}

TEST(MonitorTraceTest, NotifyInstantsDistinguishOneFromAll) {
  if (!kTraceCompiled)
    GTEST_SKIP() << "tracing compiled out (REN_TRACE_DISABLED)";
  Monitor M;
  const uint64_t Id = objectId(&M);
  TraceSession Session;
  Session.start();
  {
    Synchronized Sync(M);
    M.notifyOne();
    M.notifyAll();
  }
  Session.stop();

  auto Notifies = eventsFor(Session, EventKind::MonitorNotify, Id);
  ASSERT_EQ(Notifies.size(), 2u);
  EXPECT_EQ(Notifies[0].Ph, Phase::Instant);
  EXPECT_EQ(Notifies[0].B, 0u) << "notifyOne payload";
  EXPECT_EQ(Notifies[1].B, 1u) << "notifyAll payload";
}
