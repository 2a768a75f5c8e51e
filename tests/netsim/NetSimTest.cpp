//===- tests/netsim/NetSimTest.cpp ----------------------------------------==//

#include "netsim/NetSim.h"

#include "metrics/Metrics.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

using namespace ren::netsim;
using namespace ren::metrics;

namespace {

Bytes toBytes(const std::string &S) { return Bytes(S.begin(), S.end()); }
std::string toString(const Bytes &B) {
  return std::string(B.begin(), B.end());
}

/// Echo with an "echo:" prefix.
Bytes echoHandler(const Bytes &Request) {
  std::string Body = "echo:" + toString(Request);
  return toBytes(Body);
}

} // namespace

TEST(ByteBufferTest, RoundTripsScalarsAndStrings) {
  ByteBuffer W;
  W.writeU32(0xDEADBEEF);
  W.writeU64(0x0123456789ABCDEFULL);
  W.writeString("hello, wire");
  ByteBuffer R(W.takeBytes());
  EXPECT_EQ(R.readU32(), 0xDEADBEEFu);
  EXPECT_EQ(R.readU64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(R.readString(), "hello, wire");
  EXPECT_EQ(R.remaining(), 0u);
}

TEST(ByteBufferTest, EmptyString) {
  ByteBuffer W;
  W.writeString("");
  ByteBuffer R(W.takeBytes());
  EXPECT_EQ(R.readString(), "");
}

TEST(ServerTest, SingleRequestResponse) {
  Server Srv("echo", echoHandler, 2);
  auto Conn = Srv.connect();
  auto Response = Conn->call(toBytes("ping"));
  EXPECT_EQ(toString(Response.get()), "echo:ping");
  Conn->close();
}

TEST(ServerTest, PipelinedRequestsAllAnswered) {
  Server Srv("echo", echoHandler, 2);
  auto Conn = Srv.connect();
  std::vector<ren::futures::Future<Bytes>> Responses;
  for (int I = 0; I < 100; ++I)
    Responses.push_back(Conn->call(toBytes("r" + std::to_string(I))));
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(toString(Responses[I].get()), "echo:r" + std::to_string(I));
  EXPECT_EQ(Srv.requestsHandled(), 100u);
  Conn->close();
}

TEST(ServerTest, MultipleConnectionsAreIndependent) {
  Server Srv("echo", echoHandler, 2);
  auto A = Srv.connect();
  auto B = Srv.connect();
  auto RA = A->call(toBytes("a"));
  auto RB = B->call(toBytes("b"));
  EXPECT_EQ(toString(RA.get()), "echo:a");
  EXPECT_EQ(toString(RB.get()), "echo:b");
  A->close();
  B->close();
}

TEST(ServerTest, ConcurrentClientsFloodServer) {
  Server Srv("echo", echoHandler, 3);
  constexpr int Clients = 4;
  constexpr int PerClient = 50;
  std::vector<std::thread> Threads;
  std::atomic<int> Correct{0};
  for (int C = 0; C < Clients; ++C)
    Threads.emplace_back([&] {
      auto Conn = Srv.connect();
      for (int I = 0; I < PerClient; ++I) {
        auto R = Conn->call(toBytes(std::to_string(I)));
        if (toString(R.get()) == "echo:" + std::to_string(I))
          Correct.fetch_add(1);
      }
      Conn->close();
    });
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(Correct.load(), Clients * PerClient);
  EXPECT_EQ(Srv.requestsHandled(),
            static_cast<uint64_t>(Clients) * PerClient);
}

TEST(ServerTest, CallAfterCloseFailsFast) {
  Server Srv("echo", echoHandler, 1);
  auto Conn = Srv.connect();
  Conn->close();
  auto R = Conn->call(toBytes("x"));
  EXPECT_TRUE(R.await().isFailure());
}

TEST(ServerTest, CloseDrainsQueuedFramesBeforeClosing) {
  // Regression: the pre-reactor teardown joined splice threads while
  // frames could still sit in the outbound queue, silently dropping
  // responses for requests that were accepted before close(). The
  // contract now is drain-before-close: every frame queued before the
  // close marker is processed and its response delivered, *then* the
  // connection closes. A slow handler makes the race window real.
  Server Srv("slow-echo",
             [](const Bytes &Request) {
               std::this_thread::sleep_for(std::chrono::microseconds(300));
               return echoHandler(Request);
             },
             1);
  auto Conn = Srv.connect();
  constexpr int Queued = 32;
  std::vector<ren::futures::Future<Bytes>> Responses;
  for (int I = 0; I < Queued; ++I)
    Responses.push_back(Conn->call(toBytes(std::to_string(I))));
  // Close immediately: nearly all frames are still queued behind the
  // slow handler.
  Conn->close();
  for (int I = 0; I < Queued; ++I) {
    ASSERT_TRUE(Responses[I].isCompleted())
        << "close() returned before the drain finished";
    const auto &R = Responses[I].await();
    ASSERT_TRUE(R.isSuccess())
        << "queued frame " << I << " was dropped by close: " << R.error();
    EXPECT_EQ(toString(R.value()), "echo:" + std::to_string(I));
  }
  EXPECT_EQ(Srv.requestsHandled(), static_cast<uint64_t>(Queued));
  // Post-close calls fail fast; the drained frames already answered.
  EXPECT_TRUE(Conn->call(toBytes("late")).await().isFailure());
}

TEST(ServerTest, ParkedShardWakesForLateRequest) {
  // An idle shard spins 64 yields and then parks with no timeout, so the
  // producer's notify is the only thing that can wake it. Sleeping far
  // past the spin sends the request to a shard that is already parked.
  Server Srv("echo", echoHandler, 1);
  auto Conn = Srv.connect();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  auto Response = Conn->call(toBytes("late"));
  // Bounded wait: a lost wakeup fails here in seconds, not at the ctest
  // timeout.
  auto GiveUp = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!Response.isCompleted() && std::chrono::steady_clock::now() < GiveUp)
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  if (!Response.isCompleted()) {
    // close() would wait on the same lost wakeup; the server's shutdown
    // unparks the shard instead.
    (void)Conn.release();
    FAIL() << "a parked shard missed the wakeup for a late request";
  }
  EXPECT_EQ(toString(Response.get()), "echo:late");
  Conn->close();
}

TEST(ServerTest, RpcCountsMonitorMetrics) {
  MetricSnapshot Before = MetricsRegistry::get().snapshot();
  {
    Server Srv("echo", echoHandler, 2);
    auto Conn = Srv.connect();
    for (int I = 0; I < 20; ++I)
      Conn->call(toBytes("x")).get();
    Conn->close();
  }
  MetricSnapshot D =
      MetricSnapshot::delta(Before, MetricsRegistry::get().snapshot());
  EXPECT_GT(D.get(Metric::Synch), 0u);
  EXPECT_GT(D.get(Metric::Wait), 0u);
  EXPECT_GT(D.get(Metric::Notify), 0u);
  EXPECT_GE(D.get(Metric::Atomic), 20u) << "future completions";
}
