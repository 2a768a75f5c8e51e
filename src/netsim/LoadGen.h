//===- netsim/LoadGen.h - Open-loop load generator --------------*- C++ -*-===//
//
// Part of Renaissance-C++, a reproduction of the PLDI'19 Renaissance paper.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An open-loop, coordinated-omission-safe load generator for the netsim
/// reactor. Latencies land in the suite's log-linear ren::Histogram.
///
/// Open-loop: every request has a *scheduled* send time fixed up front
/// (arrival index / arrival rate), independent of how fast the server
/// answers. Coordinated-omission safety follows from intended-time
/// accounting: recorded latency is completion minus the **scheduled**
/// time, never minus the actual send time — if the generator falls behind
/// (server stall backing up the in-flight window), the queueing delay the
/// late requests suffered is part of their latency, exactly as a real
/// user would experience it. A closed-loop harness that measures service
/// time only would silently drop that wait; the unit test in
/// tests/netsim/LoadGenTest.cpp pins the difference. Requests carry no
/// deadline: a stuck server stalls the schedule at the in-flight window,
/// and stop() is the way to abort a run.
///
/// Reports surface p50/p99/p999/max latency and sustained requests/sec;
/// publishLoadReport exposes the last report process-globally so the
/// harness's CountersPlugin can attach the numbers to benchmark
/// iterations without plumbing.
///
//===----------------------------------------------------------------------===//

#ifndef REN_NETSIM_LOADGEN_H
#define REN_NETSIM_LOADGEN_H

#include "netsim/NetSim.h"
#include "support/Histogram.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace ren {
namespace netsim {

/// Load generator parameters.
struct LoadGenOptions {
  /// Total requests to schedule.
  uint64_t Requests = 10000;
  /// Open-loop arrival rate; 0 means unpaced (each request's intended
  /// time is its actual send time — a throughput run, no CO concept).
  double RatePerSec = 0.0;
  /// Connections to spread requests over, round-robin.
  unsigned Connections = 1;
  /// In-flight window: sends stall while this many are outstanding
  /// (0 = unbounded). The stall time is charged to the waiting requests'
  /// latencies via intended-time accounting.
  unsigned MaxInFlight = 1024;
  /// Default request payload size (MakeRequest overrides).
  size_t PayloadBytes = 32;
  /// Optional request factory, called with the request sequence number.
  std::function<Bytes(uint64_t)> MakeRequest;
  /// Optional response validator; successes it accepts count as Valid.
  std::function<bool(const Bytes &)> Validate;
  /// Keep per-request (scheduled, sent, done) samples in the report.
  bool KeepSamples = false;
};

/// One per-request sample (KeepSamples mode).
struct LoadSample {
  uint64_t ScheduledNs = 0; ///< intended send time
  uint64_t SentNs = 0;      ///< actual send time (>= scheduled when the
                            ///< generator fell behind)
  uint64_t DoneNs = 0;      ///< completion time
  bool Ok = false;

  uint64_t intendedLatency() const { return DoneNs - ScheduledNs; }
  uint64_t sendDelay() const { return SentNs - ScheduledNs; }
};

/// The scalar fields of a load-generator run's report.
struct LoadSummary {
  std::string Service;
  uint64_t Sent = 0;
  uint64_t Completed = 0; ///< futures that resolved successfully
  uint64_t Failed = 0;    ///< futures that resolved with an error
  uint64_t Valid = 0;     ///< successes the Validate hook accepted
  uint64_t ElapsedNanos = 0;

  /// Intended-time latency distribution.
  uint64_t P50 = 0, P99 = 0, P999 = 0, MaxNanos = 0;
  /// Worst scheduler lag (actual send - scheduled send): how far the
  /// generator fell behind its open-loop schedule.
  uint64_t MaxSendDelayNanos = 0;

  double sustainedRps() const {
    return ElapsedNanos == 0
               ? 0.0
               : static_cast<double>(Completed) * 1e9 /
                     static_cast<double>(ElapsedNanos);
  }
};

/// The outcome of one load-generator run.
struct LoadReport : LoadSummary {
  ren::Histogram Histogram;
  std::vector<LoadSample> Samples; ///< KeepSamples mode only
};

/// Drives an open-loop request schedule against a (real-mode) Server.
class LoadGen {
public:
  LoadGen(Server &Target, LoadGenOptions Opts);

  /// Runs the full schedule on the calling thread and returns the
  /// report. Also publishes the report via publishLoadReport.
  LoadReport run();

  /// Aborts an in-progress run (thread-safe): the generator stops
  /// sending, closes its connections, and every already-sent request
  /// still resolves (response or failure) before run() returns.
  void stop();

private:
  Server &Target;
  LoadGenOptions Opts;
  std::atomic<bool> StopFlag{false};
};

/// Publishes \p R as the process-global last load report and bumps the
/// publication counter. Thread-safe.
void publishLoadReport(const LoadReport &R);

/// Monotonic publication counter (0 = never published).
uint64_t loadReportVersion();

/// Snapshot of the last published report (sample vector omitted).
LoadReport lastLoadReport();

} // namespace netsim
} // namespace ren

#endif // REN_NETSIM_LOADGEN_H
