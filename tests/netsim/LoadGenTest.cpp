//===- tests/netsim/LoadGenTest.cpp ---------------------------------------==//
//
// Unit tests for the open-loop load generator: the coordinated-omission
// accounting (a stalled server must surface the wait behind it in recorded
// latencies), the stop path, and the process-global report slot the
// harness plugin reads.
//
//===----------------------------------------------------------------------===//

#include "netsim/LoadGen.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

using namespace ren::netsim;

namespace {

Bytes echoHandler(const Bytes &Request) { return Request; }

} // namespace

//===----------------------------------------------------------------------===//
// LoadGen
//===----------------------------------------------------------------------===//

TEST(LoadGenTest, UnpacedRunCompletesAndValidatesEverything) {
  Server Srv("echo", echoHandler, 2);
  LoadGenOptions Opts;
  Opts.Requests = 400;
  Opts.Connections = 8;
  Opts.MaxInFlight = 32;
  Opts.PayloadBytes = 24;
  Opts.Validate = [](const Bytes &Resp) { return Resp.size() == 24; };
  LoadReport R = LoadGen(Srv, Opts).run();

  EXPECT_EQ(R.Sent, 400u);
  EXPECT_EQ(R.Completed, 400u);
  EXPECT_EQ(R.Failed, 0u);
  EXPECT_EQ(R.Valid, 400u);
  EXPECT_EQ(R.Histogram.count(), 400u);
  EXPECT_GT(R.sustainedRps(), 0.0);
  EXPECT_GT(R.P50, 0u);
  EXPECT_LE(R.P50, R.P99);
  EXPECT_LE(R.P99, R.P999);
  EXPECT_LE(R.P999, R.MaxNanos);
  EXPECT_EQ(Srv.requestsHandled(), 400u);
}

TEST(LoadGenTest, StalledServerLatenciesIncludeScheduledWait) {
  // Coordinated omission: the first request stalls the (single-shard)
  // server a known interval. With MaxInFlight=1, every request scheduled
  // during the stall cannot even be sent; intended-time accounting must
  // charge that wait to their latencies anyway.
  constexpr uint64_t StallNanos = 60 * 1000 * 1000; // 60ms
  std::atomic<bool> Stalled{false};
  Server Srv("stall",
             [&](const Bytes &Request) {
               if (!Stalled.exchange(true))
                 std::this_thread::sleep_for(
                     std::chrono::nanoseconds(StallNanos));
               return Request;
             },
             1);

  LoadGenOptions Opts;
  Opts.Requests = 50;
  Opts.RatePerSec = 1000.0; // 1ms schedule: ~49 arrivals land in the stall
  Opts.Connections = 4;
  Opts.MaxInFlight = 1;
  Opts.KeepSamples = true;
  LoadReport R = LoadGen(Srv, Opts).run();

  ASSERT_EQ(R.Completed, 50u);
  ASSERT_EQ(R.Samples.size(), 50u);

  // The generator demonstrably fell behind its schedule...
  EXPECT_GE(R.MaxSendDelayNanos, StallNanos / 2);
  // ...and the recorded latencies include the scheduled-send wait: the
  // handler is instant after the stall, so only intended-time accounting
  // can produce many multi-millisecond samples.
  unsigned Delayed = 0;
  for (const LoadSample &Smp : R.Samples) {
    EXPECT_GE(Smp.SentNs, Smp.ScheduledNs);
    EXPECT_GE(Smp.intendedLatency(), Smp.sendDelay());
    if (Smp.intendedLatency() >= 5 * 1000 * 1000)
      ++Delayed;
  }
  EXPECT_GE(Delayed, 10u)
      << "stall-era requests did not inherit their queueing delay";
  // The distribution's tail carries the stall, not the service time.
  EXPECT_GE(R.P99, StallNanos / 4);
  EXPECT_GE(R.MaxNanos, StallNanos / 2);
}

TEST(LoadGenTest, StopAbortsSendingButResolvesEverySentRequest) {
  // Slow-ish handler so the run is still in progress when stop() lands.
  Server Srv("slow",
             [](const Bytes &Request) {
               std::this_thread::sleep_for(std::chrono::microseconds(200));
               return Request;
             },
             1);
  LoadGenOptions Opts;
  Opts.Requests = 100000; // far more than can finish before stop()
  Opts.Connections = 4;
  Opts.MaxInFlight = 16;
  LoadGen Gen(Srv, Opts);

  LoadReport R;
  std::thread Runner([&] { R = Gen.run(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  Gen.stop();
  Runner.join();

  EXPECT_LT(R.Sent, Opts.Requests) << "stop() did not abort the schedule";
  EXPECT_EQ(R.Completed + R.Failed, R.Sent)
      << "a sent request was left unresolved";
  EXPECT_EQ(R.Histogram.count(), R.Sent);
}

TEST(LoadGenTest, PublishesReportForTheHarnessPlugin) {
  uint64_t Before = loadReportVersion();
  Server Srv("echo", echoHandler, 1);
  LoadGenOptions Opts;
  Opts.Requests = 50;
  Opts.Connections = 2;
  LoadReport R = LoadGen(Srv, Opts).run();

  EXPECT_EQ(loadReportVersion(), Before + 1);
  LoadReport Last = lastLoadReport();
  EXPECT_EQ(Last.Service, "echo");
  EXPECT_EQ(Last.Completed, R.Completed);
  EXPECT_EQ(Last.P99, R.P99);
  EXPECT_TRUE(Last.Samples.empty()) << "global slot must not keep samples";
}

TEST(LoadGenTest, PerRequestDeadlinesResolveMissesAsFailures) {
  // A handler slower than the deadline: every request must resolve as a
  // failure (whichever expiry path fires), never hang — Sent is fully
  // accounted and the open-loop schedule keeps moving.
  Server Slow("deadline-slow",
              [](const Bytes &Request) {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
                return Request;
              },
              1);
  LoadGenOptions Opts;
  Opts.Requests = 40;
  Opts.Connections = 2;
  Opts.MaxInFlight = 4;
  Opts.DeadlineNanos = 200'000; // 0.2ms against a 1ms handler
  LoadReport R = LoadGen(Slow, Opts).run();
  EXPECT_EQ(R.Sent, 40u);
  EXPECT_EQ(R.Completed + R.Failed, R.Sent);
  EXPECT_EQ(R.Completed, 0u) << "a 1ms response beat a 0.2ms deadline";
  EXPECT_EQ(R.Failed, R.Sent);

  // A generous deadline changes nothing about a healthy run.
  Server Fast("deadline-fast", echoHandler, 1);
  Opts.DeadlineNanos = 1'000'000'000;
  LoadReport R2 = LoadGen(Fast, Opts).run();
  EXPECT_EQ(R2.Completed, R2.Sent);
  EXPECT_EQ(R2.Failed, 0u);
}
