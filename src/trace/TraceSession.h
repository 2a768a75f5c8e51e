//===- trace/TraceSession.h - Collection, export, profiling ----*- C++ -*-===//
//
// Part of Renaissance-C++, a reproduction of the PLDI'19 Renaissance paper.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// TraceSession: the collection side of ren::trace. A session enables
/// recording, periodically (or finally) drains every per-thread buffer,
/// and renders the result two ways:
///
///  - Chrome `trace_event` JSON, loadable in chrome://tracing or Perfetto,
///    for timeline inspection of contention windows and park storms;
///  - a compact TraceProfile: the top contended monitors (count / total /
///    max blocked time), a park-latency histogram, per-worker
///    fork/steal/overflow/idle counts and executor task queue latencies —
///    the per-benchmark behavioural detail the companion evaluation paper
///    (arXiv:1903.10267) reads off DiSL traces.
///
//===----------------------------------------------------------------------===//

#ifndef REN_TRACE_TRACESESSION_H
#define REN_TRACE_TRACESESSION_H

#include "support/Histogram.h"
#include "trace/Trace.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace ren {
namespace trace {

/// Aggregate contention statistics for one monitor (keyed by address).
struct MonitorContention {
  uint64_t Monitor = 0;        ///< Monitor address (opaque id).
  uint64_t Contended = 0;      ///< Contended acquisitions.
  uint64_t TotalBlockedNs = 0; ///< Sum of blocked durations.
  uint64_t MaxBlockedNs = 0;   ///< Worst single blocked duration.
};

/// Per-thread fork/join and parking activity.
struct WorkerActivity {
  uint32_t Tid = 0;
  uint64_t Forks = 0;     ///< Tasks pushed onto the local deque.
  uint64_t Steals = 0;    ///< Successful steals performed by this thread.
  uint64_t Stolen = 0;    ///< Tasks stolen *from* this thread's deque.
  uint64_t Overflows = 0; ///< Tasks it pushed to the external queue.
  uint64_t IdleParks = 0; ///< Idle park episodes.
  uint64_t IdleNs = 0;    ///< Total idle-parked time.
};

/// The compact aggregate profile distilled from a drained event stream.
struct TraceProfile {
  std::vector<MonitorContention> ContendedMonitors; ///< Sorted, worst first.
  Histogram ParkLatency;
  uint64_t ParkNsTotal = 0; ///< Exact sum of ParkLatency's samples.
  Histogram MonitorBlocked;
  Histogram GcPause; ///< Managed-heap reclaim pass durations.
  uint64_t GcPauseNsTotal = 0; ///< Exact sum of GcPause's samples.
  std::vector<WorkerActivity> Workers; ///< Sorted by Tid.
  uint64_t MonitorInflations = 0; ///< Thin -> fat monitor transitions.
  uint64_t CasFailures = 0;
  uint64_t Bootstraps = 0;
  uint64_t MhSimplifies = 0; ///< Handles that took the direct-invoke path.
  uint64_t TaskRuns = 0;
  uint64_t TaskQueueNsTotal = 0;
  uint64_t TaskQueueNsMax = 0;
  std::array<uint64_t, kNumEventKinds> KindCounts = {};
  uint64_t Events = 0;
  uint64_t Dropped = 0;

  /// Human-readable multi-line summary (the --trace-summary output).
  std::string summary() const;
};

/// Builds the aggregate profile from a drained event stream.
TraceProfile buildProfile(const std::vector<TraceEvent> &Events,
                          uint64_t Dropped);

/// Renders events as a Chrome trace_event JSON document (object form, with
/// a "traceEvents" array sorted by timestamp). Timestamps are microseconds
/// as Chrome expects; sub-microsecond precision is kept as fractions.
std::string toChromeJson(const std::vector<TraceEvent> &Events);

/// One tracing window: start() enables recording (discarding stale events),
/// drain() incrementally collects, stop() disables and does a final drain.
/// At most one session may be active at a time.
class TraceSession {
public:
  TraceSession() = default;
  ~TraceSession();

  TraceSession(const TraceSession &) = delete;
  TraceSession &operator=(const TraceSession &) = delete;

  /// Discards previously published events and enables recording.
  void start();

  /// Collects newly published events from every thread buffer. Callable
  /// while writers are active.
  void drain();

  /// Disables recording and performs a final drain. Idempotent.
  void stop();

  bool active() const { return Active; }

  /// Events drained so far (sorted only on export).
  const std::vector<TraceEvent> &events() const { return Events; }

  /// Records lost to ring laps or torn reads since start().
  uint64_t dropped() const { return Dropped; }

  /// Chrome trace JSON of everything drained so far.
  std::string chromeJson() const { return toChromeJson(Events); }

  /// Writes chromeJson() to \p Path. \returns false on I/O failure.
  bool writeChromeJson(const std::string &Path) const;

  /// Aggregate profile of everything drained so far.
  TraceProfile profile() const { return buildProfile(Events, Dropped); }

private:
  std::vector<TraceEvent> Events;
  uint64_t Dropped = 0;
  bool Active = false;
};

} // namespace trace
} // namespace ren

#endif // REN_TRACE_TRACESESSION_H
