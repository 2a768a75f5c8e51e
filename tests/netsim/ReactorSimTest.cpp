//===- tests/netsim/ReactorSimTest.cpp ------------------------------------==//
//
// Deterministic-simulation unit tests: a Deterministic server spawns no
// threads; the test drives it with pump/runUntilIdle and checks seeded
// event ordering, the virtual clock, and inline drain-before-close.
//
//===----------------------------------------------------------------------===//

#include "netsim/NetSim.h"
#include "netsim/Reactor.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace ren::netsim;

namespace {

Bytes toBytes(const std::string &S) { return Bytes(S.begin(), S.end()); }
std::string toString(const Bytes &B) {
  return std::string(B.begin(), B.end());
}

ServerOptions simOptions(unsigned Shards, uint64_t Seed) {
  ServerOptions Opts;
  Opts.Shards = Shards;
  Opts.Deterministic = true;
  Opts.Seed = Seed;
  return Opts;
}

Bytes echoHandler(const Bytes &Request) {
  std::string Body = "echo:" + toString(Request);
  return toBytes(Body);
}

/// Runs a fixed multi-connection workload on a sim server and returns the
/// global completion order as (connection, request) pairs. Callbacks run
/// inline on the pumping thread, so a plain vector is race-free.
std::vector<std::pair<unsigned, unsigned>>
completionOrder(uint64_t Seed, unsigned Conns, unsigned PerConn) {
  Server Srv("sim", echoHandler, simOptions(2, Seed));
  std::vector<std::pair<unsigned, unsigned>> Order;
  std::vector<std::unique_ptr<ClientConnection>> Pool;
  for (unsigned C = 0; C < Conns; ++C)
    Pool.push_back(Srv.connect());
  for (unsigned C = 0; C < Conns; ++C)
    for (unsigned R = 0; R < PerConn; ++R)
      Pool[C]
          ->call(toBytes(std::to_string(C) + ":" + std::to_string(R)))
          .onComplete(ren::futures::InlineExecutor::get(),
                      [&Order, C, R](const ren::futures::Try<Bytes> &T) {
                        ASSERT_TRUE(T.isSuccess());
                        Order.emplace_back(C, R);
                      });
  Srv.runUntilIdle();
  for (auto &Conn : Pool)
    Conn->close();
  return Order;
}

} // namespace

TEST(ReactorSimTest, EchoRoundTripUnderExplicitPump) {
  Server Srv("sim", echoHandler, simOptions(1, 42));
  auto Conn = Srv.connect();
  auto Response = Conn->call(toBytes("ping"));
  EXPECT_FALSE(Response.isCompleted()) << "no thread may run the handler";
  EXPECT_FALSE(Srv.idle());
  EXPECT_EQ(Srv.runUntilIdle(), 1u);
  ASSERT_TRUE(Response.isCompleted());
  EXPECT_EQ(toString(Response.get()), "echo:ping");
  EXPECT_TRUE(Srv.idle());
  Conn->close();
}

TEST(ReactorSimTest, VirtualClockAdvancesPerFrame) {
  Server Srv("sim", echoHandler, simOptions(1, 42));
  auto Conn = Srv.connect();
  EXPECT_EQ(Srv.virtualNanos(), 0u);

  // Wire = 8-byte id envelope + payload; each request frame advances the
  // clock by kSimFrameNanos + kSimByteNanos per wire byte.
  const std::string Payload(24, 'x');
  Conn->call(toBytes(Payload));
  Srv.runUntilIdle();
  const uint64_t PerFrame =
      Reactor::kSimFrameNanos + Reactor::kSimByteNanos * (8 + 24);
  EXPECT_EQ(Srv.virtualNanos(), PerFrame);

  Conn->call(toBytes(Payload));
  Conn->call(toBytes(Payload));
  Srv.runUntilIdle();
  EXPECT_EQ(Srv.virtualNanos(), 3 * PerFrame);

  // The close marker is not a request: it must not advance the clock.
  Conn->close();
  EXPECT_EQ(Srv.virtualNanos(), 3 * PerFrame);
}

TEST(ReactorSimTest, PumpHonorsMaxFrames) {
  Server Srv("sim", echoHandler, simOptions(2, 7));
  auto Conn = Srv.connect();
  std::vector<ren::futures::Future<Bytes>> Responses;
  for (int I = 0; I < 10; ++I)
    Responses.push_back(Conn->call(toBytes(std::to_string(I))));
  EXPECT_EQ(Srv.pump(3), 3u);
  EXPECT_FALSE(Srv.idle());
  EXPECT_EQ(Srv.runUntilIdle(), 7u);
  for (auto &R : Responses)
    EXPECT_TRUE(R.isCompleted());
  EXPECT_EQ(Srv.requestsHandled(), 10u);
  Conn->close();
}

TEST(ReactorSimTest, PerConnectionFifoSurvivesSeededInterleaving) {
  for (uint64_t Seed : {1ull, 99ull, 0xfeedULL}) {
    auto Order = completionOrder(Seed, 6, 12);
    ASSERT_EQ(Order.size(), 6u * 12u);
    std::vector<unsigned> NextPerConn(6, 0);
    for (auto [C, R] : Order) {
      EXPECT_EQ(R, NextPerConn[C])
          << "seed " << Seed << ": connection " << C
          << " completed out of FIFO order";
      ++NextPerConn[C];
    }
  }
}

TEST(ReactorSimTest, SameSeedSameSchedule) {
  auto A = completionOrder(0xabcdef, 8, 10);
  auto B = completionOrder(0xabcdef, 8, 10);
  EXPECT_EQ(A, B) << "identical seeds must replay the identical schedule";
}

TEST(ReactorSimTest, DifferentSeedsExploreDifferentSchedules) {
  auto A = completionOrder(1, 8, 10);
  auto B = completionOrder(2, 8, 10);
  // Deterministic, not flaky: both runs are fully determined by their
  // seeds; these two seeds produce different cross-connection orders.
  EXPECT_NE(A, B);
}

TEST(ReactorSimTest, CloseDrainsInlineWithoutExplicitPump) {
  Server Srv("sim", echoHandler, simOptions(2, 3));
  auto Conn = Srv.connect();
  std::vector<ren::futures::Future<Bytes>> Responses;
  for (int I = 0; I < 10; ++I)
    Responses.push_back(Conn->call(toBytes(std::to_string(I))));
  // No pump: close() must drive the simulation itself until the queued
  // frames (and the marker behind them) are processed.
  Conn->close();
  for (int I = 0; I < 10; ++I) {
    ASSERT_TRUE(Responses[I].isCompleted());
    EXPECT_EQ(toString(Responses[I].get()),
              "echo:" + std::to_string(I));
  }
  EXPECT_EQ(Srv.requestsHandled(), 10u);
  auto Late = Conn->call(toBytes("late"));
  EXPECT_TRUE(Late.await().isFailure());
}

TEST(ReactorSimTest, VirtualTimeIsReproducible) {
  auto RunOnce = [] {
    Server Srv("sim", echoHandler, simOptions(4, 0x5eed));
    std::vector<std::unique_ptr<ClientConnection>> Pool;
    for (unsigned C = 0; C < 5; ++C)
      Pool.push_back(Srv.connect());
    for (unsigned C = 0; C < 5; ++C)
      for (unsigned R = 0; R < 9; ++R)
        Pool[C]->call(Bytes(1 + C * 7 + R, static_cast<uint8_t>(R)));
    Srv.runUntilIdle();
    uint64_t Nanos = Srv.virtualNanos();
    for (auto &Conn : Pool)
      Conn->close();
    return Nanos;
  };
  uint64_t First = RunOnce();
  EXPECT_GT(First, 0u);
  EXPECT_EQ(First, RunOnce());
}
