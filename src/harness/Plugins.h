//===- harness/Plugins.h - Counter snapshot and stock plugins ---*- C++ -*-===//
//
// Part of Renaissance-C++, a reproduction of the PLDI'19 Renaissance paper.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ready-made plugins for the harness's §2.2 plugin interface, and the one
/// counter snapshot that they and the CLI's --stats read. The paper's
/// conclusion proposes the suite for GC and profiler studies; the
/// CountersPlugin is the natural first tool for that direction: it tracks
/// per-iteration allocation, heap traffic and reclaim pauses against wall
/// time, the quantities GC research starts from. A study that wants a
/// forced reclaim between iterations calls runtime::heap::reclaim() from
/// its own plugin.
///
//===----------------------------------------------------------------------===//

#ifndef REN_HARNESS_PLUGINS_H
#define REN_HARNESS_PLUGINS_H

#include "harness/Harness.h"
#include "netsim/LoadGen.h"
#include "runtime/Heap.h"
#include "trace/Trace.h"

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace ren {
namespace harness {

/// Every counter source of the runtime at one instant: the Table 2 event
/// counters, the managed heap, STM commits and aborts, and the netsim
/// load-report publication count. delta() applies each substrate's own
/// interval rule (MetricSnapshot::delta, HeapStats::delta with its gauges
/// and high-water mark).
struct Counters {
  metrics::MetricSnapshot Metrics;
  runtime::heap::HeapStats Heap;
  /// Gauges at the snapshot; a delta carries End's values, because the
  /// heap's byte counters subtract.
  uint64_t HeapLiveBytes = 0;
  double HeapOccupancyPercent = 0.0;
  uint64_t StmCommits = 0;
  uint64_t StmAborts = 0;
  /// netsim::loadReportVersion(): in a delta, the number of load reports
  /// the interval published.
  uint64_t LoadReports = 0;

  static Counters take();
  static Counters delta(const Counters &Begin, const Counters &End);

  /// Every counter as (name, value), in print order. Names carry the layer
  /// prefixes suitebench reports under: runtime., runtime.heap., stm. and
  /// netsim.
  std::vector<std::pair<std::string, double>> named() const;
};

/// Records the Counters delta of every iteration. An iteration that ran a
/// netsim LoadGen (LoadGen::run publishes its report process-globally)
/// also gets that report's coordinated-omission-safe p50/p99/p999 latency
/// and sustained requests/sec, with no plumbing from the benchmark body.
class CountersPlugin : public Plugin {
public:
  struct IterationCounters {
    std::string Benchmark;
    unsigned Iteration = 0;
    bool Warmup = false;
    uint64_t Nanos = 0;
    Counters Delta;
    /// The scalar fields of the report the iteration published, if any.
    std::optional<netsim::LoadSummary> Load;
  };

  void beforeIteration(const BenchmarkInfo &, unsigned, bool) override {
    Before = Counters::take();
  }

  void afterIteration(const BenchmarkInfo &Info, unsigned Index,
                      bool Warmup, uint64_t Nanos) override {
    IterationCounters Rec;
    Rec.Benchmark = Info.Name;
    Rec.Iteration = Index;
    Rec.Warmup = Warmup;
    Rec.Nanos = Nanos;
    Rec.Delta = Counters::delta(Before, Counters::take());
    if (Rec.Delta.LoadReports > 0)
      Rec.Load = netsim::lastLoadReport(); // the histogram stays behind
    Records.push_back(std::move(Rec));
  }

  const std::vector<IterationCounters> &records() const { return Records; }

private:
  Counters Before;
  std::vector<IterationCounters> Records;
};

/// Emits harness lifecycle events into the tracer and keeps a local record
/// of per-iteration spans.
///
/// Each benchmark run becomes a Begin/End "run" pair named after the
/// benchmark (interned once per run), and every iteration a Begin/End
/// "iteration" pair with the index and warmup flag as args — all on the
/// harness thread, so the pairs nest and balance per tid, which is what
/// chrome://tracing requires to draw them as stacked spans. The recorded
/// spans use the tracer's clock (the same wallNanos the Runner times
/// iterations with), so Span durations bound IterationRecord::Nanos from
/// above: the span additionally covers only the Runner's own bookkeeping
/// between the plugin hooks and the timed region.
class TracePlugin : public Plugin {
public:
  struct IterationSpan {
    std::string Benchmark;
    unsigned Index = 0;
    bool Warmup = false;
    uint64_t BeginNs = 0;
    uint64_t EndNs = 0;

    uint64_t durationNanos() const { return EndNs - BeginNs; }
  };

  void beforeRun(const BenchmarkInfo &Info) override {
    RunName = trace::internName(Info.Name);
    trace::mark(trace::EventKind::Run, trace::Phase::Begin, RunName);
  }

  void beforeIteration(const BenchmarkInfo &Info, unsigned Index,
                       bool Warmup) override {
    Open.Benchmark = Info.Name;
    Open.Index = Index;
    Open.Warmup = Warmup;
    Open.BeginNs = trace::nowNanos();
    trace::mark(trace::EventKind::Iteration, trace::Phase::Begin,
                "iteration", Index, Warmup);
  }

  void afterIteration(const BenchmarkInfo &, unsigned Index, bool Warmup,
                      uint64_t) override {
    trace::mark(trace::EventKind::Iteration, trace::Phase::End, "iteration",
                Index, Warmup);
    Open.EndNs = trace::nowNanos();
    Spans.push_back(Open);
  }

  void afterRun(const BenchmarkInfo &) override {
    trace::mark(trace::EventKind::Run, trace::Phase::End, RunName);
    RunName = "run";
  }

  /// Per-iteration spans recorded so far (kept even when tracing is off).
  const std::vector<IterationSpan> &spans() const { return Spans; }

private:
  const char *RunName = "run";
  IterationSpan Open;
  std::vector<IterationSpan> Spans;
};

} // namespace harness
} // namespace ren

#endif // REN_HARNESS_PLUGINS_H
