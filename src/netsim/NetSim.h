//===- netsim/NetSim.h - In-process loopback network ------------*- C++ -*-===//
//
// Part of Renaissance-C++, a reproduction of the PLDI'19 Renaissance paper.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An in-process "network": byte-frame request/response between client and
/// server endpoints, the substrate of finagle-http and finagle-chirper.
///
/// The paper encodes network benchmarks "as multiple threads that exercise
/// the network stack within a single process (using the loopback
/// interface)". Since the reactor rewrite, the stack is readiness-driven:
/// requests are serialized into byte frames, pushed onto lock-free
/// per-connection MPSC queues, drained by a small number of reactor shard
/// event loops (see Reactor.h), and responses are demuxed back onto
/// futures — no per-connection threads, so connection counts scale to the
/// tens of thousands the Finagle workloads assume.
///
/// Server/ClientConnection keep the original public surface; ServerOptions
/// additionally exposes the shard count, the reactor's drain budget and
/// handler-offload knobs, and the single-threaded deterministic-simulation
/// mode (seeded event ordering, virtual time) that the differential test
/// layer drives. The reactor keeps no timers: requests carry no deadline,
/// and a connection lives until its client closes it.
///
//===----------------------------------------------------------------------===//

#ifndef REN_NETSIM_NETSIM_H
#define REN_NETSIM_NETSIM_H

#include "futures/Future.h"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace ren {
namespace netsim {

/// A wire frame.
using Bytes = std::vector<uint8_t>;

/// Little-endian serialization cursor over a byte frame.
class ByteBuffer {
public:
  ByteBuffer() = default;
  explicit ByteBuffer(Bytes Data) : Data(std::move(Data)) {}

  void writeU32(uint32_t V);
  void writeU64(uint64_t V);
  void writeString(const std::string &S);

  uint32_t readU32();
  uint64_t readU64();
  std::string readString();

  /// Remaining unread bytes.
  size_t remaining() const { return Data.size() - ReadPos; }

  const Bytes &bytes() const { return Data; }
  Bytes takeBytes() { return std::move(Data); }

private:
  Bytes Data;
  size_t ReadPos = 0;
};

/// Handles one request payload and produces a response payload. With
/// handler offload enabled (the real-mode default), a handler may run on
/// an executor thread concurrently with other connections' handlers —
/// handlers that mutate shared state must synchronize, exactly as Finagle
/// service functions must.
using Handler = std::function<Bytes(const Bytes &)>;

class Connection;
class Reactor;
class Server;

/// Server (and reactor) construction parameters.
struct ServerOptions {
  /// Reactor event-loop shards (each one thread in real mode);
  /// connections are assigned round-robin.
  unsigned Shards = 1;
  /// Deterministic-simulation mode: no threads; the caller drives the
  /// reactor with Server::pump / Server::runUntilIdle on a single thread
  /// under seeded event ordering and virtual time.
  bool Deterministic = false;
  /// Seed for the simulation's event-ordering RNG.
  uint64_t Seed = 0x5eedc0de;
  /// Frames a shard drains from one connection per round before the
  /// connection is requeued behind the round's other ready connections.
  unsigned DrainBudget = 32;
  /// Route slow handlers through the per-shard executor seam so they do
  /// not head-of-line-block their shard (real mode; deterministic mode
  /// always runs handlers inline for byte-identical simulation).
  bool OffloadHandlers = true;
  /// Executor threads per shard when offload is enabled.
  unsigned OffloadThreads = 1;
  /// A connection whose handler-latency EWMA exceeds this (ns) has its
  /// requests offloaded instead of run inline.
  uint64_t OffloadThresholdNanos = 20000;
};

/// A client connection handle: request/response with future-based
/// dispatch. Thin owner of a reactor Connection.
class ClientConnection {
public:
  ~ClientConnection();

  ClientConnection(const ClientConnection &) = delete;
  ClientConnection &operator=(const ClientConnection &) = delete;

  /// Sends \p Request and returns a future response.
  futures::Future<Bytes> call(Bytes Request);

  /// Closes the connection (idempotent). Drain-before-close: requests
  /// already queued are still handled and their responses delivered
  /// before the close completes.
  void close();

private:
  friend class Server;
  explicit ClientConnection(std::shared_ptr<Connection> Conn);

  std::shared_ptr<Connection> Conn;
};

/// A server endpoint: a sharded reactor running \p Handler.
class Server {
public:
  /// Starts a reactor with \p Shards event-loop shards for service
  /// \p Name. (Pre-reactor code passed a worker count here; shards play
  /// the same capacity role without per-connection threads.)
  Server(std::string Name, Handler Handle, unsigned Shards);

  /// Full-control constructor (shard count, deterministic mode, seed).
  Server(std::string Name, Handler Handle, ServerOptions Opts);

  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Opens a connection to this server. Connections must be closed
  /// before the server is destroyed.
  std::unique_ptr<ClientConnection> connect();

  const std::string &name() const { return Name; }

  /// Total requests handled so far (exact once traffic quiesces).
  uint64_t requestsHandled();

  /// Number of reactor shards backing this server.
  unsigned shards() const;

  /// True when constructed in deterministic-simulation mode.
  bool deterministic() const;

  //===--------------------------------------------------------------===//
  // Deterministic-simulation driving (Deterministic servers only)
  //===--------------------------------------------------------------===//

  /// Processes up to \p MaxFrames queued frames in seeded order.
  size_t pump(size_t MaxFrames = SIZE_MAX);

  /// Pumps until every queue is empty. \returns frames processed.
  size_t runUntilIdle();

  /// The simulation's virtual clock (deterministic per schedule).
  uint64_t virtualNanos() const;

  /// True when nothing is queued (sim mode only).
  bool idle() const;

private:
  std::string Name;
  std::unique_ptr<Reactor> Core;
};

} // namespace netsim
} // namespace ren

#endif // REN_NETSIM_NETSIM_H
