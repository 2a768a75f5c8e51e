//===- workloads/renaissance/FinagleBenchmarks.cpp ------------------------==//
//
// Part of Renaissance-C++, a reproduction of the PLDI'19 Renaissance paper.
//
// The network benchmarks of Table 1: finagle-http ("simulates a high
// server load"; network stack + message passing) and finagle-chirper ("a
// microblogging service"; network stack, futures, atomics — the paper's
// escape-analysis-with-atomics case study, and the most atomic-heavy
// benchmark in Figure 2).
//
//===----------------------------------------------------------------------===//

#include "workloads/renaissance/RenaissanceBenchmarks.h"

#include "netsim/LoadGen.h"
#include "netsim/NetSim.h"
#include "runtime/Atomic.h"
#include "support/Rng.h"

#include <memory>
#include <mutex>
#include <thread>

using namespace ren;
using namespace ren::harness;
using namespace ren::workloads;
using netsim::ByteBuffer;
using netsim::Bytes;

namespace {

//===----------------------------------------------------------------------===//
// finagle-http
//===----------------------------------------------------------------------===//

class FinagleHttpBenchmark : public Benchmark {
  // The reactor carries connections without per-connection threads, so
  // "high server load" can mean a realistic fan-in: many connections, an
  // in-flight window, an open-loop (unpaced) generator.
  static constexpr unsigned kConnections = 64;
  static constexpr unsigned kRequests = 2400;
  static constexpr unsigned kServerShards = 2;
  static constexpr unsigned kMaxInFlight = 64;

public:
  BenchmarkInfo info() const override {
    return {"finagle-http", Suite::Renaissance,
            "High-load HTTP-style request flood over the loopback network",
            "network stack, message passing", 2, 3};
  }

  void runIteration() override {
    // An HTTP-ish service: parse a path, dispatch, render a body.
    netsim::Server Srv("http", [](const Bytes &Request) {
      ByteBuffer In(Request);
      std::string Path = In.readString();
      ByteBuffer Out;
      Out.writeU32(200);
      Out.writeString("<html>" + Path + "</html>");
      return Out.takeBytes();
    }, kServerShards);

    netsim::LoadGenOptions Opts;
    Opts.Requests = kRequests;
    Opts.Connections = kConnections;
    Opts.MaxInFlight = kMaxInFlight;
    Opts.MakeRequest = [](uint64_t Seq) {
      ByteBuffer Req;
      Req.writeString("/user/" + std::to_string(Seq % kConnections) +
                      "/item/" + std::to_string(Seq));
      return Req.takeBytes();
    };
    Opts.Validate = [](const Bytes &Resp) {
      ByteBuffer In(Resp);
      if (In.readU32() != 200)
        return false;
      std::string Body = In.readString();
      return Body.rfind("<html>/user/", 0) == 0 &&
             Body.size() > sizeof("<html></html>");
    };

    // run() publishes the report; the harness's CountersPlugin picks up
    // p50/p99/p999 and sustained rps for this iteration.
    netsim::LoadGen Gen(Srv, Opts);
    Succeeded = Gen.run().Valid;
  }

  uint64_t checksum() const override { return Succeeded; }

private:
  uint64_t Succeeded = 0;
};

//===----------------------------------------------------------------------===//
// finagle-chirper: a microblog (post / follow / feed) with future
// composition on the client and atomic statistics on the server.
//===----------------------------------------------------------------------===//

class FinagleChirperBenchmark : public Benchmark {
  static constexpr unsigned kUsers = 48;
  static constexpr unsigned kClients = 4;
  static constexpr unsigned kConnsPerClient = 8;
  static constexpr unsigned kOpsPerClient = 300;
  static constexpr unsigned kServerShards = 3;

  enum Command : uint32_t { CmdPost = 1, CmdFollow = 2, CmdFeed = 3 };

public:
  BenchmarkInfo info() const override {
    return {"finagle-chirper", Suite::Renaissance,
            "Microblogging service over the loopback network",
            "network stack, futures, atomics", 2, 3};
  }

  void setUp() override {
    Posts.assign(kUsers, {});
    Follows.assign(kUsers, {});
    for (unsigned U = 0; U < kUsers; ++U)
      PostCounter.push_back(std::make_unique<runtime::Atomic<uint64_t>>(0));
  }

  void runIteration() override {
    // Server state lock: coarse per-user striping via the posts vectors.
    std::vector<std::mutex> UserLocks(kUsers);

    netsim::Server Srv("chirper", [&](const Bytes &Request) {
      ByteBuffer In(Request);
      uint32_t Cmd = In.readU32();
      uint32_t User = In.readU32();
      ByteBuffer Out;
      switch (Cmd) {
      case CmdPost: {
        std::string Message = In.readString();
        {
          std::lock_guard<std::mutex> Guard(UserLocks[User]);
          Posts[User].push_back(Message);
        }
        // The java.util.Random/AtomicLong-style CAS statistics path.
        PostCounter[User]->getAndAdd(1);
        TotalPosts.getAndAdd(1);
        Out.writeU32(1);
        break;
      }
      case CmdFollow: {
        uint32_t Target = In.readU32();
        std::lock_guard<std::mutex> Guard(UserLocks[User]);
        Follows[User].push_back(Target);
        Out.writeU32(1);
        break;
      }
      case CmdFeed: {
        // Feed: latest post of every followee.
        std::vector<uint32_t> Sources;
        {
          std::lock_guard<std::mutex> Guard(UserLocks[User]);
          Sources = Follows[User];
        }
        std::string Feed;
        for (uint32_t S : Sources) {
          std::lock_guard<std::mutex> Guard(UserLocks[S]);
          if (!Posts[S].empty())
            Feed += Posts[S].back() + "|";
        }
        FeedsServed.getAndAdd(1);
        Out.writeU32(static_cast<uint32_t>(Feed.size()));
        Out.writeString(Feed);
        break;
      }
      default:
        Out.writeU32(0);
      }
      return Out.takeBytes();
    }, kServerShards);

    std::vector<std::thread> Clients;
    runtime::Atomic<uint64_t> FeedBytes{0};
    for (unsigned C = 0; C < kClients; ++C)
      Clients.emplace_back([&, C] {
        // Several connections per client, rotated per op: the reactor
        // makes connections cheap, and the same op stream is identical
        // regardless of which connection carries each request, so the
        // checksum stays deterministic.
        std::vector<std::unique_ptr<netsim::ClientConnection>> Pool;
        for (unsigned P = 0; P < kConnsPerClient; ++P)
          Pool.push_back(Srv.connect());
        runtime::SharedRandom Rng(0xC41B + C);
        uint64_t LocalFeedBytes = 0;
        for (unsigned Op = 0; Op < kOpsPerClient; ++Op) {
          auto &Conn = Pool[Op % kConnsPerClient];
          uint32_t User = Rng.nextInt(kUsers);
          double Dice = Rng.nextDouble();
          if (Dice < 0.4) {
            ByteBuffer Req;
            Req.writeU32(CmdPost);
            Req.writeU32(User);
            Req.writeString("chirp " + std::to_string(Op) + " from " +
                            std::to_string(C));
            Conn->call(Req.takeBytes()).get();
          } else if (Dice < 0.6) {
            ByteBuffer Req;
            Req.writeU32(CmdFollow);
            Req.writeU32(User);
            Req.writeU32(Rng.nextInt(kUsers));
            Conn->call(Req.takeBytes()).get();
          } else {
            ByteBuffer Req;
            Req.writeU32(CmdFeed);
            Req.writeU32(User);
            // Future composition: parse the feed length via map.
            auto Size = Conn->call(Req.takeBytes())
                            .map([](const Bytes &Resp) {
                              ByteBuffer In(Resp);
                              return In.readU32();
                            });
            LocalFeedBytes += Size.get();
          }
        }
        FeedBytes.getAndAdd(LocalFeedBytes);
        for (auto &Conn : Pool)
          Conn->close();
      });
    for (auto &C : Clients)
      C.join();
    ServedFeeds = FeedsServed.load();
    PostsMade = TotalPosts.load();
  }

  void tearDown() override {
    Posts.clear();
    Follows.clear();
    PostCounter.clear();
  }

  uint64_t checksum() const override { return PostsMade + ServedFeeds; }

private:
  std::vector<std::vector<std::string>> Posts;
  std::vector<std::vector<uint32_t>> Follows;
  std::vector<std::unique_ptr<runtime::Atomic<uint64_t>>> PostCounter;
  runtime::Atomic<uint64_t> TotalPosts{0};
  runtime::Atomic<uint64_t> FeedsServed{0};
  uint64_t ServedFeeds = 0;
  uint64_t PostsMade = 0;
};

} // namespace

std::unique_ptr<Benchmark> ren::workloads::makeFinagleHttp() {
  return std::make_unique<FinagleHttpBenchmark>();
}
std::unique_ptr<Benchmark> ren::workloads::makeFinagleChirper() {
  return std::make_unique<FinagleChirperBenchmark>();
}
