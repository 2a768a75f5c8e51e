//===- netsim/Reactor.h - Event-driven loopback reactor ---------*- C++ -*-===//
//
// Part of Renaissance-C++, a reproduction of the PLDI'19 Renaissance paper.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The readiness-driven core of the loopback network. Where the original
/// netsim spent one pump thread and one splice thread per connection, the
/// reactor runs a small fixed number of *shards*, each an event loop over
/// a Poller. A connection is a passive state machine: client threads push
/// wire frames onto its lock-free MPSC inbound queue (forkjoin/MpscQueue)
/// and deliver an edge-triggered readiness event; the owning shard drains
/// the queue in FIFO order, runs the request through the server handler,
/// and demuxes the response envelope back onto the future that the call
/// registered — no per-connection thread anywhere, so tens of thousands
/// of concurrent connections cost tens of megabytes, not tens of
/// thousands of stacks.
///
/// Edge-trigger protocol (per connection): a producer that pushes a frame
/// arms the connection with one exchange; only the false->true edge
/// enqueues a readiness node, so a flood of producers costs one poller
/// event. The shard disarms *before* its final emptiness re-check (with a
/// seq_cst fence against the producer's push+arm sequence), so a frame
/// that races the disarm is either seen by the re-check or re-arms and
/// re-notifies — never stranded.
///
/// Two mechanisms carry the reactor from the 10^4-connection regime
/// toward 10^5-10^6:
///
///  - *Budgeted batch draining*: a shard drains at most
///    ServerOptions::DrainBudget frames per connection per round, then
///    requeues the connection behind the rest of the round's batch — one
///    chatty connection cannot starve the other 10^5 on its shard. A
///    requeued connection stays armed, so the seq_cst disarm/re-check
///    fence pair is paid once per *drained* connection, not once per
///    budget slice.
///
///  - *Handler offload*: each shard owns a small ForkJoinPool executor
///    seam. Handlers stay inline while cheap; when a connection's
///    per-connection latency EWMA crosses OffloadThresholdNanos, its
///    requests are dispatched to the executor and the connection is
///    parked (stays armed, not requeued) until the completion re-notifies
///    the poller — a slow tenant head-of-line-blocks only itself, never
///    its shard. FIFO per connection is preserved because at most one
///    offloaded frame is in flight and the queue is not touched behind
///    it. Offload is a no-op in deterministic mode (byte-identical sim).
///
/// Deterministic-simulation mode: constructed with
/// ServerOptions::Deterministic, the reactor spawns no threads and runs
/// on SimPollers. A single driving thread issues calls and then pumps the
/// reactor explicitly; the pump picks the next ready connection with a
/// seeded RNG (exploring cross-connection orderings) while preserving
/// per-connection FIFO, and advances a virtual clock per frame. Same
/// seed, same schedule, same virtual time — the proof substrate the
/// differential and regression tests in tests/netsim build on.
///
//===----------------------------------------------------------------------===//

#ifndef REN_NETSIM_REACTOR_H
#define REN_NETSIM_REACTOR_H

#include "forkjoin/ForkJoinPool.h"
#include "forkjoin/MpscQueue.h"
#include "futures/Future.h"
#include "netsim/NetSim.h"
#include "netsim/Poller.h"
#include "support/Rng.h"

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace ren {
namespace netsim {

/// A queued wire frame: an intrusive MPSC node carrying the id-prefixed
/// envelope plus the promise the response demuxes onto (for close
/// markers, the promise acks that the drain finished). Owned by the queue
/// from push until the shard processes and frees it.
struct FrameNode : forkjoin::MpscNode {
  enum class Kind : uint8_t { Request, CloseMarker };
  Kind FrameKind = Kind::Request;
  Bytes Wire;
  futures::Promise<Bytes> Reply;
};

/// One client<->server connection: a passive state machine owned by a
/// reactor shard. Thread-safe on the producer side (call/close may come
/// from any thread; in deterministic mode, from the single driving
/// thread); all Rx state below the marked line is touched only by the
/// owning shard.
class Connection {
public:
  ~Connection();

  Connection(const Connection &) = delete;
  Connection &operator=(const Connection &) = delete;

  /// Sends \p Request and returns a future response. After close() the
  /// call fails fast; a call racing close() may be failed by the shard
  /// with the same "connection closed" error.
  futures::Future<Bytes> call(Bytes Request);

  /// Drain-before-close: enqueues a close marker *behind* every frame
  /// already pushed and blocks until the shard has processed them all —
  /// requests queued before close() still get their responses, and only
  /// then does the connection close. Idempotent. In deterministic mode
  /// this pumps the simulation inline instead of blocking.
  void close();

  bool isOpen() const {
    return ClientOpen.load(std::memory_order_acquire);
  }

  uint32_t id() const { return ConnId; }

  /// Frames this connection's shard has fully processed (shard-private
  /// counter; read it only after the connection quiesced, e.g. post
  /// close()).
  uint64_t framesHandled() const { return FramesHandled; }

private:
  friend class Reactor;
  Connection(Reactor &Owner, unsigned ShardIndex, uint32_t ConnId);

  /// Pushes \p Frame and delivers the readiness edge if this push
  /// transitioned the connection empty -> non-empty.
  void submit(FrameNode *Frame);

  Reactor &Owner;
  const unsigned ShardIndex;
  const uint32_t ConnId;

  ReadyNode Node; ///< intrusive readiness event, enqueued at most once
  forkjoin::MpscQueue Inbound;
  std::atomic<bool> Armed{false};
  std::atomic<bool> ClientOpen{true};
  std::atomic<uint64_t> NextRequestId{1};
  /// EWMA of recent handler latencies (ns). Updated with relaxed atomics
  /// from the shard (inline runs) and executor threads (offloaded runs);
  /// the offload policy reads it per dequeue.
  std::atomic<uint64_t> EwmaNanos{0};

  // --- shard-private state machine below this line ---
  enum class RxState : uint8_t { Idle, Dispatching, Responding };
  RxState State = RxState::Idle;
  bool PeerClosed = false;
  /// The response demux table: request id -> promise, registered when
  /// the shard reads the request header, erased when the response
  /// envelope comes back from the handler. Offloaded frames bypass it
  /// (their promise travels in the executor task).
  std::unordered_map<uint64_t, futures::Promise<Bytes>> Pending;
  uint64_t FramesHandled = 0;
};

/// The reactor: shards, pollers, and the connection registry.
class Reactor {
public:
  Reactor(Handler Handle, ServerOptions Opts);
  ~Reactor();

  Reactor(const Reactor &) = delete;
  Reactor &operator=(const Reactor &) = delete;

  /// Opens a connection, assigning it to a shard round-robin.
  std::shared_ptr<Connection> open();

  /// Total request frames handled across all shards (racy snapshot while
  /// traffic is in flight, exact once quiesced).
  uint64_t requestsHandled() const;

  unsigned shards() const { return static_cast<unsigned>(Shards.size()); }
  bool deterministic() const { return Opts.Deterministic; }

  //===--------------------------------------------------------------===//
  // Deterministic-simulation driving (Deterministic reactors only)
  //===--------------------------------------------------------------===//

  /// Processes up to \p MaxFrames frames in seeded-random cross-connection
  /// order (FIFO within each connection). \returns frames processed.
  size_t pump(size_t MaxFrames = SIZE_MAX);

  /// Pumps until no connection is ready. \returns frames processed.
  size_t runUntilIdle() { return pump(SIZE_MAX); }

  /// True when no frame is queued anywhere (sim mode).
  bool idle() const;

  /// The simulation's virtual clock: advances a deterministic amount per
  /// processed frame (kSimFrameNanos + size * kSimByteNanos).
  uint64_t virtualNanos() const { return SimNanos; }

  static constexpr uint64_t kSimFrameNanos = 1000;
  static constexpr uint64_t kSimByteNanos = 2;

private:
  friend class Connection;

  struct Shard {
    std::unique_ptr<Poller> Events;
    /// Executor seam for slow handlers (real mode, OffloadHandlers).
    std::unique_ptr<forkjoin::ForkJoinPool> Exec;
    std::thread Loop; ///< real mode only
    std::atomic<uint64_t> Handled{0};
    /// Retired connections whose memory cannot be released yet: the
    /// client still holds the handle, or a late producer may still hold
    /// a raw pointer (Armed). Swept incrementally at the bottom of every
    /// round — a bounded slice per pass, resumed at SweepCursor, so a
    /// mass teardown (10^6 clients closing before dropping their
    /// handles) costs O(N) total instead of O(N^2).
    std::vector<std::shared_ptr<Connection>> Graveyard;
    size_t SweepCursor = 0;
  };

  void shardLoop(Shard &S);

  /// Drains up to DrainBudget frames from \p C with the disarm/re-check
  /// protocol. \returns true when the connection must be requeued on the
  /// shard's run queue (budget exhausted with frames left, still armed);
  /// false when fully drained (disarmed) or parked on an offload.
  bool drainBudgeted(Shard &S, Connection &C);

  /// Processes one frame on \p C's state machine: decode, register the
  /// demux entry, dispatch the handler, encode, demux onto the future.
  /// Takes ownership of \p Frame.
  void processFrame(Shard &S, Connection &C, FrameNode *Frame);

  /// True when \p Frame should run on the shard's executor instead of
  /// inline (request frames on slow-EWMA connections, real mode only).
  bool shouldOffload(const Shard &S, const Connection &C,
                     const FrameNode *Frame) const;

  /// Hands \p Frame to the shard executor and parks \p C (stays armed;
  /// the completion re-notifies the poller). Takes ownership of \p Frame.
  void dispatchOffload(Shard &S, Connection &C, FrameNode *Frame);

  /// Executor-side continuation of dispatchOffload.
  void runOffloaded(Shard &S, Connection &C, FrameNode *Frame);

  /// Moves \p C from the registry to \p S's graveyard.
  void retire(Shard &S, Connection &C);

  /// Releases graveyard connections nobody can reach anymore.
  void sweepGraveyard(Shard &S);

  /// Folds \p SampleNanos into \p C's handler-latency EWMA.
  static void foldEwma(Connection &C, uint64_t SampleNanos);

  /// Sim mode: refill SimReady from the shards' SimPollers.
  void gatherSimReady();

  Handler Handle;
  ServerOptions Opts;
  std::vector<std::unique_ptr<Shard>> Shards;

  std::atomic<uint32_t> NextConnId{1};
  std::atomic<unsigned> NextShard{0};

  /// Registry keeping connections alive while reachable: readiness nodes
  /// carry raw Connection pointers, so a connection must outlive any
  /// event that may still name it. Closed connections move to their
  /// shard's graveyard and are released once the client handle is
  /// gone and the connection is disarmed.
  std::mutex ConnLock;
  std::unordered_map<uint32_t, std::shared_ptr<Connection>> Registry;

  // Sim-mode state (single driving thread).
  Xoshiro256StarStar SimRng;
  uint64_t SimNanos = 0;
  std::vector<Connection *> SimReady;
};

} // namespace netsim
} // namespace ren

#endif // REN_NETSIM_REACTOR_H
