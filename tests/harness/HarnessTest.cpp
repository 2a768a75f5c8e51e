//===- tests/harness/HarnessTest.cpp --------------------------------------==//

#include "harness/Harness.h"

#include "harness/Plugins.h"
#include "memsim/MemSim.h"
#include "runtime/Alloc.h"
#include "support/Clock.h"
#include "trace/TraceSession.h"

#include <gtest/gtest.h>

using namespace ren::harness;

namespace {

/// A deterministic toy benchmark recording its lifecycle.
class ToyBenchmark : public Benchmark {
public:
  BenchmarkInfo info() const override {
    return {"toy", Suite::Renaissance, "toy", "none", 2, 3};
  }
  void setUp() override { ++SetUps; }
  void runIteration() override {
    ++Runs;
    ren::metrics::count(ren::metrics::Metric::Object, 10);
  }
  void tearDown() override { ++TearDowns; }
  uint64_t checksum() const override { return 42; }

  int SetUps = 0, Runs = 0, TearDowns = 0;
};

/// A plugin that records the events it sees.
class RecordingPlugin : public Plugin {
public:
  void beforeRun(const BenchmarkInfo &) override { ++BeforeRuns; }
  void beforeIteration(const BenchmarkInfo &, unsigned, bool W) override {
    W ? ++WarmupIters : ++SteadyIters;
  }
  void afterIteration(const BenchmarkInfo &, unsigned, bool,
                      uint64_t Nanos) override {
    TotalNanos += Nanos;
  }
  void afterRun(const BenchmarkInfo &) override { ++AfterRuns; }

  int BeforeRuns = 0, AfterRuns = 0, WarmupIters = 0, SteadyIters = 0;
  uint64_t TotalNanos = 0;
};

} // namespace

TEST(HarnessTest, LifecycleOrderAndCounts) {
  ToyBenchmark B;
  Runner R;
  RunResult Result = R.run(B);
  EXPECT_EQ(B.SetUps, 1);
  EXPECT_EQ(B.Runs, 5) << "2 warmup + 3 measured";
  EXPECT_EQ(B.TearDowns, 1);
  EXPECT_EQ(Result.Iterations.size(), 5u);
  EXPECT_TRUE(Result.Iterations[0].Warmup);
  EXPECT_TRUE(Result.Iterations[1].Warmup);
  EXPECT_FALSE(Result.Iterations[2].Warmup);
  EXPECT_EQ(Result.Checksum, 42u);
}

TEST(HarnessTest, OverridesChangeIterationCounts) {
  ToyBenchmark B;
  Runner::Options Opts;
  Opts.WarmupOverride = 1;
  Opts.MeasuredOverride = 4;
  Runner R(Opts);
  RunResult Result = R.run(B);
  EXPECT_EQ(B.Runs, 5);
  unsigned Warmups = 0;
  for (const auto &I : Result.Iterations)
    Warmups += I.Warmup ? 1 : 0;
  EXPECT_EQ(Warmups, 1u);
}

TEST(HarnessTest, SteadyDeltaCoversOnlySteadyIterations) {
  ToyBenchmark B;
  Runner R;
  RunResult Result = R.run(B);
  // 3 steady iterations x 10 objects.
  EXPECT_EQ(Result.SteadyDelta.get(ren::metrics::Metric::Object), 30u);
}

TEST(HarnessTest, PluginsSeeAllEvents) {
  ToyBenchmark B;
  RecordingPlugin P;
  Runner R;
  R.addPlugin(P);
  R.run(B);
  EXPECT_EQ(P.BeforeRuns, 1);
  EXPECT_EQ(P.AfterRuns, 1);
  EXPECT_EQ(P.WarmupIters, 2);
  EXPECT_EQ(P.SteadyIters, 3);
}

TEST(HarnessTest, MeanSteadyNanosAveragesSteadyOnly) {
  RunResult R;
  R.Iterations = {{0, true, 1000}, {1, false, 10}, {2, false, 20}};
  EXPECT_DOUBLE_EQ(R.meanSteadyNanos(), 15.0);
  RunResult Empty;
  EXPECT_DOUBLE_EQ(Empty.meanSteadyNanos(), 0.0);
}

TEST(HarnessTest, RegistryRegistersAndCreates) {
  Registry R;
  R.add([] { return std::make_unique<ToyBenchmark>(); });
  EXPECT_EQ(R.size(), 1u);
  EXPECT_TRUE(R.contains("toy"));
  EXPECT_FALSE(R.contains("nonexistent"));
  auto B = R.create("toy");
  ASSERT_NE(B, nullptr);
  EXPECT_EQ(B->info().Name, "toy");
  EXPECT_EQ(R.names(Suite::Renaissance).size(), 1u);
  EXPECT_EQ(R.names(Suite::DaCapo).size(), 0u);
}

TEST(HarnessTest, SuiteNames) {
  EXPECT_STREQ(suiteName(Suite::Renaissance), "renaissance");
  EXPECT_STREQ(suiteName(Suite::DaCapo), "dacapo");
  EXPECT_STREQ(suiteName(Suite::ScalaBench), "scalabench");
  EXPECT_STREQ(suiteName(Suite::SpecJvm2008), "specjvm2008");
}

TEST(HarnessTest, CsvAndJsonReporters) {
  ToyBenchmark B;
  Runner R;
  std::vector<RunResult> Results = {R.run(B)};
  std::string Csv = toCsv(Results);
  EXPECT_NE(Csv.find("benchmark,suite,iteration,warmup,nanos"),
            std::string::npos);
  EXPECT_NE(Csv.find("toy,renaissance,0,true"), std::string::npos);
  std::string Json = toJson(Results);
  EXPECT_NE(Json.find("\"benchmark\":\"toy\""), std::string::npos);
  EXPECT_NE(Json.find("\"checksum\":42"), std::string::npos);
  EXPECT_NE(Json.find("\"idynamic\""), std::string::npos);
}

namespace {

/// A benchmark whose only work is traced memory accesses.
class TracingBenchmark : public Benchmark {
public:
  BenchmarkInfo info() const override {
    return {"tracing", Suite::Renaissance, "t", "none", 0, 1};
  }
  void runIteration() override {
    // Larger than the simulated LLC slice (2MB), so even a re-run over a
    // warm simulated cache keeps missing.
    std::vector<int> Data(1 << 20);
    for (size_t I = 0; I < Data.size(); I += 16)
      ren::memsim::traceData(&Data[I], sizeof(int));
  }
};

} // namespace

TEST(HarnessTest, TraceMemoryOptionControlsCacheMisses) {
  TracingBenchmark B;
  Runner::Options On;
  On.WarmupOverride = 1;
  On.MeasuredOverride = 1;
  Runner WithTrace(On);
  RunResult Traced = WithTrace.run(B);
  EXPECT_GT(Traced.SteadyDelta.get(ren::metrics::Metric::CacheMiss), 0u);

  Runner::Options Off = On;
  Off.TraceMemory = false;
  Runner WithoutTrace(Off);
  RunResult Untraced = WithoutTrace.run(B);
  EXPECT_EQ(Untraced.SteadyDelta.get(ren::metrics::Metric::CacheMiss), 0u);
}

TEST(HarnessTest, ZeroWarmupRunsEveryIterationSteady) {
  // A zero-warmup configuration must measure from the very first
  // operation: no iteration flagged warmup, and the steady delta covering
  // all of them.
  class NoWarmup : public Benchmark {
  public:
    BenchmarkInfo info() const override {
      return {"nowarmup", Suite::Renaissance, "n", "none", 0, 4};
    }
    void runIteration() override {
      ren::metrics::count(ren::metrics::Metric::Object, 7);
    }
  };
  NoWarmup B;
  RecordingPlugin P;
  Runner R;
  R.addPlugin(P);
  RunResult Result = R.run(B);
  ASSERT_EQ(Result.Iterations.size(), 4u);
  for (const auto &I : Result.Iterations)
    EXPECT_FALSE(I.Warmup);
  EXPECT_EQ(P.WarmupIters, 0);
  EXPECT_EQ(P.SteadyIters, 4);
  EXPECT_EQ(Result.SteadyDelta.get(ren::metrics::Metric::Object), 28u);
}

TEST(HarnessTest, ZeroWarmupViaOverrideOnWarmingBenchmark) {
  // WarmupOverride cannot express "zero" (0 means keep the default), so
  // zero warmup comes from the benchmark's own configuration; verify an
  // explicit 1/1 override still takes effect alongside it.
  ToyBenchmark B; // default 2 warmup + 3 measured
  Runner::Options Opts;
  Opts.WarmupOverride = 1;
  Opts.MeasuredOverride = 1;
  RunResult Result = Runner(Opts).run(B);
  ASSERT_EQ(Result.Iterations.size(), 2u);
  EXPECT_TRUE(Result.Iterations[0].Warmup);
  EXPECT_FALSE(Result.Iterations[1].Warmup);
}

namespace {

/// Records the exact event sequence as strings, for ordering assertions.
class EventOrderPlugin : public Plugin {
public:
  void beforeRun(const BenchmarkInfo &) override {
    Events.push_back("beforeRun");
  }
  void beforeIteration(const BenchmarkInfo &, unsigned Index,
                       bool Warmup) override {
    Events.push_back("before:" + std::to_string(Index) +
                     (Warmup ? ":w" : ":s"));
  }
  void afterIteration(const BenchmarkInfo &, unsigned Index, bool Warmup,
                      uint64_t) override {
    Events.push_back("after:" + std::to_string(Index) +
                     (Warmup ? ":w" : ":s"));
  }
  void afterRun(const BenchmarkInfo &) override {
    Events.push_back("afterRun");
  }
  std::vector<std::string> Events;
};

} // namespace

TEST(HarnessTest, PluginEventsPairAndNest) {
  // The §2.2 plugin contract: beforeRun first, afterRun last, and every
  // beforeIteration immediately paired with its afterIteration — same
  // index, same warmup flag, nothing interleaved between them.
  ToyBenchmark B;
  EventOrderPlugin P;
  Runner R;
  R.addPlugin(P);
  R.run(B);
  ASSERT_EQ(P.Events.size(), 2u + 2u * 5u);
  EXPECT_EQ(P.Events.front(), "beforeRun");
  EXPECT_EQ(P.Events.back(), "afterRun");
  const char *Expected[] = {"before:0:w", "after:0:w", "before:1:w",
                            "after:1:w", "before:2:s", "after:2:s",
                            "before:3:s", "after:3:s", "before:4:s",
                            "after:4:s"};
  for (size_t I = 0; I < 10; ++I)
    EXPECT_EQ(P.Events[1 + I], Expected[I]) << "event " << I;
}

TEST(HarnessTest, MultiplePluginsSeeEventsInAttachOrder) {
  ToyBenchmark B;
  EventOrderPlugin First, Second;
  Runner R;
  R.addPlugin(First).addPlugin(Second);
  R.run(B);
  EXPECT_EQ(First.Events, Second.Events);
}

TEST(HarnessTest, SnapshotDeltasAcrossWarmupSteadyTransition) {
  // A benchmark that allocates a different amount per iteration (iteration
  // i allocates 10^i objects, i starting at 1): the steady delta must be
  // exactly the sum over the steady iterations — warmup contributions
  // (which hit the same global counters) must be excluded.
  class Ramp : public Benchmark {
  public:
    BenchmarkInfo info() const override {
      return {"ramp", Suite::Renaissance, "r", "none", 2, 2};
    }
    void runIteration() override {
      ++Iteration;
      uint64_t Amount = 1;
      for (int I = 0; I < Iteration; ++I)
        Amount *= 10;
      ren::metrics::count(ren::metrics::Metric::Object, Amount);
    }
    int Iteration = 0;
  };
  Ramp B;
  ren::harness::CountersPlugin Plugin;
  Runner R;
  R.addPlugin(Plugin);
  RunResult Result = R.run(B);
  // Warmup allocated 10 + 100; steady allocated 1000 + 10000.
  EXPECT_EQ(Result.SteadyDelta.get(ren::metrics::Metric::Object), 11000u);
  // The per-iteration plugin deltas see each amount individually, across
  // the warmup -> steady boundary.
  ASSERT_EQ(Plugin.records().size(), 4u);
  auto Objects = [&Plugin](size_t I) {
    return Plugin.records()[I].Delta.Metrics.get(
        ren::metrics::Metric::Object);
  };
  EXPECT_EQ(Objects(0), 10u);
  EXPECT_EQ(Objects(1), 100u);
  EXPECT_EQ(Objects(2), 1000u);
  EXPECT_EQ(Objects(3), 10000u);
  EXPECT_TRUE(Plugin.records()[1].Warmup);
  EXPECT_FALSE(Plugin.records()[2].Warmup);
}

TEST(CountersPluginTest, RecordsPerIterationAllocations) {
  class Allocates : public Benchmark {
  public:
    BenchmarkInfo info() const override {
      return {"alloc", Suite::Renaissance, "a", "none", 1, 2};
    }
    void runIteration() override {
      ren::runtime::noteObjectAlloc(100);
      ren::runtime::noteArrayAlloc(5);
    }
  };
  Allocates B;
  ren::harness::CountersPlugin Plugin;
  Runner R;
  R.addPlugin(Plugin);
  RunResult Result = R.run(B);
  ASSERT_EQ(Plugin.records().size(), 3u);
  EXPECT_TRUE(Plugin.records()[0].Warmup);
  for (size_t I = 0; I < Plugin.records().size(); ++I) {
    const auto &Rec = Plugin.records()[I];
    EXPECT_EQ(Rec.Delta.Metrics.get(ren::metrics::Metric::Object), 100u);
    EXPECT_EQ(Rec.Delta.Metrics.get(ren::metrics::Metric::Array), 5u);
    EXPECT_EQ(Rec.Benchmark, "alloc");
    EXPECT_EQ(Rec.Iteration, I);
    // The operation time the harness measured, so rates need no clock of
    // their own.
    EXPECT_EQ(Rec.Nanos, Result.Iterations[I].Nanos);
    EXPECT_GT(Rec.Nanos, 0u);
  }
}

//===----------------------------------------------------------------------===//
// TracePlugin: harness iteration boundaries in the event tracer.
//===----------------------------------------------------------------------===//

namespace {

/// Stamps the tracer's clock in its own before/after hooks, so a plugin
/// attached before the TracePlugin brackets the trace spans.
class StampPlugin : public Plugin {
public:
  void beforeIteration(const BenchmarkInfo &, unsigned, bool) override {
    BeforeNs.push_back(ren::wallNanos());
  }
  void afterIteration(const BenchmarkInfo &, unsigned, bool,
                      uint64_t) override {
    AfterNs.push_back(ren::wallNanos());
  }
  std::vector<uint64_t> BeforeNs, AfterNs;
};

} // namespace

TEST(TracePluginTest, EmitsBalancedRunAndIterationEvents) {
  if (!ren::trace::kTraceCompiled)
    GTEST_SKIP() << "tracing compiled out (REN_TRACE_DISABLED)";
  ToyBenchmark B;
  ren::harness::TracePlugin Tracer;
  ren::trace::TraceSession Session;
  Session.start();
  Runner R;
  R.addPlugin(Tracer);
  R.run(B);
  Session.stop();

  // The harness thread's Run/Iteration events, in publication order: one
  // Begin/End "run" pair named after the benchmark wrapping five balanced
  // iteration pairs whose args carry the index and warmup flag.
  uint32_t Tid = ren::trace::TraceRegistry::get().threadBuffer().tid();
  std::vector<const ren::trace::TraceEvent *> Seq;
  for (const ren::trace::TraceEvent &E : Session.events())
    if (E.Tid == Tid && (E.Kind == ren::trace::EventKind::Run ||
                         E.Kind == ren::trace::EventKind::Iteration))
      Seq.push_back(&E);
  ASSERT_EQ(Seq.size(), 2u + 2u * 5u);
  EXPECT_EQ(Seq.front()->Kind, ren::trace::EventKind::Run);
  EXPECT_EQ(Seq.front()->Ph, ren::trace::Phase::Begin);
  EXPECT_STREQ(Seq.front()->Name, "toy");
  EXPECT_EQ(Seq.back()->Kind, ren::trace::EventKind::Run);
  EXPECT_EQ(Seq.back()->Ph, ren::trace::Phase::End);
  EXPECT_STREQ(Seq.back()->Name, "toy");
  for (unsigned I = 0; I < 5; ++I) {
    const ren::trace::TraceEvent *Begin = Seq[1 + 2 * I];
    const ren::trace::TraceEvent *End = Seq[2 + 2 * I];
    EXPECT_EQ(Begin->Kind, ren::trace::EventKind::Iteration);
    EXPECT_EQ(Begin->Ph, ren::trace::Phase::Begin);
    EXPECT_EQ(Begin->A, I) << "args.a must carry the iteration index";
    EXPECT_EQ(Begin->B, I < 2 ? 1u : 0u) << "args.b must carry warmup";
    EXPECT_EQ(End->Kind, ren::trace::EventKind::Iteration);
    EXPECT_EQ(End->Ph, ren::trace::Phase::End);
    EXPECT_EQ(End->A, I);
    EXPECT_GE(End->Ts, Begin->Ts);
  }
}

TEST(TracePluginTest, SpansMatchIterationRecordTimings) {
  // Each recorded span wraps the Runner's own timed region, so it bounds
  // IterationRecord::Nanos from above — and only by the Runner's hook
  // bookkeeping, far under the tolerance.
  class Busy : public Benchmark {
  public:
    BenchmarkInfo info() const override {
      return {"busy", Suite::Renaissance, "b", "none", 1, 2};
    }
    void runIteration() override {
      volatile uint64_t Sink = 0;
      for (uint64_t I = 0; I < 200000; ++I)
        Sink = Sink + I;
    }
  };
  Busy B;
  ren::harness::TracePlugin Tracer;
  Runner R;
  R.addPlugin(Tracer);
  RunResult Result = R.run(B);

  constexpr uint64_t kToleranceNs = 50'000'000; // 50ms of harness slack
  ASSERT_EQ(Tracer.spans().size(), Result.Iterations.size());
  for (size_t I = 0; I < Tracer.spans().size(); ++I) {
    const auto &Span = Tracer.spans()[I];
    const IterationRecord &Rec = Result.Iterations[I];
    EXPECT_EQ(Span.Benchmark, "busy");
    EXPECT_EQ(Span.Index, Rec.Index);
    EXPECT_EQ(Span.Warmup, Rec.Warmup);
    EXPECT_GE(Span.durationNanos(), Rec.Nanos)
        << "span must contain the timed region (iteration " << I << ")";
    EXPECT_LT(Span.durationNanos() - Rec.Nanos, kToleranceNs)
        << "span exceeds the iteration by more than hook bookkeeping";
  }
}

TEST(TracePluginTest, HooksRunInAttachOrderRelativeToOtherPlugins) {
  // A plugin attached before the TracePlugin observes timestamps that
  // bracket the trace span edges: its beforeIteration stamp precedes the
  // span's BeginNs, and its afterIteration stamp precedes the span's
  // EndNs (both hooks run in attach order).
  ToyBenchmark B;
  StampPlugin Stamps;
  ren::harness::TracePlugin Tracer;
  Runner R;
  R.addPlugin(Stamps).addPlugin(Tracer);
  R.run(B);
  ASSERT_EQ(Tracer.spans().size(), 5u);
  ASSERT_EQ(Stamps.BeforeNs.size(), 5u);
  ASSERT_EQ(Stamps.AfterNs.size(), 5u);
  for (size_t I = 0; I < 5; ++I) {
    const auto &Span = Tracer.spans()[I];
    EXPECT_LE(Stamps.BeforeNs[I], Span.BeginNs);
    EXPECT_GE(Span.EndNs, Stamps.AfterNs[I]);
    EXPECT_LE(Span.BeginNs, Stamps.AfterNs[I]);
  }
}

TEST(TracePluginTest, RecordsSpansEvenWhenTracingDisabled) {
  // The local span record (used by tests and the timing comparison above)
  // must not depend on the global tracer being enabled; only the published
  // events are gated.
  ren::trace::setEnabled(false);
  ren::trace::TraceRegistry::get().discardAll();
  ToyBenchmark B;
  ren::harness::TracePlugin Tracer;
  Runner R;
  R.addPlugin(Tracer);
  R.run(B);
  ASSERT_EQ(Tracer.spans().size(), 5u);
  for (const auto &Span : Tracer.spans())
    EXPECT_GT(Span.EndNs, 0u);
  std::vector<ren::trace::TraceEvent> Drained;
  ren::trace::TraceRegistry::get().drainAll(Drained);
  for (const ren::trace::TraceEvent &E : Drained)
    EXPECT_NE(E.Kind, ren::trace::EventKind::Iteration)
        << "disabled tracer must not publish iteration events";
}

//===----------------------------------------------------------------------===//
// Counters: one snapshot of every counter source.
//===----------------------------------------------------------------------===//

TEST(CountersTest, DeltaSubtractsCountsAndCarriesEndGauges) {
  Counters Begin, End;
  Begin.Heap.BytesAllocated = 100;
  End.Heap.BytesAllocated = 400;
  End.Heap.SlabsInUse = 3;
  Begin.HeapLiveBytes = 90;
  End.HeapLiveBytes = 300;
  End.HeapOccupancyPercent = 12.5;
  Begin.StmCommits = 10;
  End.StmCommits = 13;
  Counters D = Counters::delta(Begin, End);
  EXPECT_EQ(D.Heap.BytesAllocated, 300u);
  EXPECT_EQ(D.StmCommits, 3u);
  // Gauges are the end-of-interval values, not differences.
  EXPECT_EQ(D.Heap.SlabsInUse, 3u);
  EXPECT_EQ(D.HeapLiveBytes, 300u);
  EXPECT_EQ(D.HeapOccupancyPercent, 12.5);
}

//===----------------------------------------------------------------------===//
// CountersPlugin: load-generator reports attached to iterations.
//===----------------------------------------------------------------------===//

TEST(CountersPluginTest, RecordsLoadReportPerIteration) {
  class DrivesLoad : public Benchmark {
  public:
    BenchmarkInfo info() const override {
      return {"netload", Suite::Renaissance, "n", "none", 1, 2};
    }
    void runIteration() override {
      ren::netsim::Server Srv(
          "plugin-echo", [](const ren::netsim::Bytes &B) { return B; }, 1);
      ren::netsim::LoadGenOptions Opts;
      Opts.Requests = 64;
      Opts.Connections = 4;
      ren::netsim::LoadGen(Srv, Opts).run();
    }
  };
  DrivesLoad B;
  ren::harness::CountersPlugin Plugin;
  Runner R;
  R.addPlugin(Plugin);
  R.run(B);

  // One record per iteration (1 warmup + 2 steady), each carrying the
  // published report's numbers.
  ASSERT_EQ(Plugin.records().size(), 3u);
  EXPECT_TRUE(Plugin.records()[0].Warmup);
  EXPECT_FALSE(Plugin.records()[1].Warmup);
  for (const auto &Rec : Plugin.records()) {
    EXPECT_EQ(Rec.Benchmark, "netload");
    EXPECT_EQ(Rec.Delta.LoadReports, 1u);
    ASSERT_TRUE(Rec.Load.has_value());
    EXPECT_EQ(Rec.Load->Service, "plugin-echo");
    EXPECT_EQ(Rec.Load->Completed, 64u);
    EXPECT_EQ(Rec.Load->Failed, 0u);
    EXPECT_GT(Rec.Load->P50, 0u);
    EXPECT_LE(Rec.Load->P50, Rec.Load->P99);
    EXPECT_LE(Rec.Load->P99, Rec.Load->P999);
    EXPECT_LE(Rec.Load->P999, Rec.Load->MaxNanos);
    EXPECT_GT(Rec.Load->sustainedRps(), 0.0);
  }
}

TEST(CountersPluginTest, IterationsWithoutLoadGetNoReport) {
  // The version snapshot means benchmarks that never run a LoadGen do not
  // pick up a stale report published by an earlier benchmark.
  ToyBenchmark B;
  ren::harness::CountersPlugin Plugin;
  Runner R;
  R.addPlugin(Plugin);
  R.run(B);
  ASSERT_EQ(Plugin.records().size(), 5u);
  for (const auto &Rec : Plugin.records()) {
    EXPECT_EQ(Rec.Delta.LoadReports, 0u);
    EXPECT_FALSE(Rec.Load.has_value());
  }
}

//===----------------------------------------------------------------------===//
// CountersPlugin: managed-heap deltas per iteration.
//===----------------------------------------------------------------------===//

namespace {

/// Allocates a fixed number of substrate blocks per iteration and frees
/// them, so the expected per-iteration heap delta is exactly computable.
class HeapChurnBenchmark : public Benchmark {
public:
  static constexpr unsigned kObjects = 50;
  struct Payload {
    uint64_t Data[6] = {};
  };

  BenchmarkInfo info() const override {
    return {"heap-churn", Suite::Renaissance, "h", "none", 1, 2};
  }
  void runIteration() override {
    std::vector<ren::runtime::Ref<Payload>> Objs;
    for (unsigned I = 0; I < kObjects; ++I)
      Objs.push_back(ren::runtime::newObject<Payload>());
  }
};

} // namespace

TEST(CountersPluginTest, HeapDeltaIsolatesEachIteration) {
  HeapChurnBenchmark B;
  ren::harness::CountersPlugin Plugin;
  Runner R;
  R.addPlugin(Plugin);
  R.run(B);
  ASSERT_EQ(Plugin.records().size(), 3u); // 1 warmup + 2 steady
  EXPECT_TRUE(Plugin.records()[0].Warmup);
  EXPECT_FALSE(Plugin.records()[1].Warmup);
  uint64_t BlockBytes = ren::runtime::heap::blockBytesFor(
      sizeof(HeapChurnBenchmark::Payload));
  for (const auto &Rec : Plugin.records()) {
    EXPECT_EQ(Rec.Benchmark, "heap-churn");
    // Every iteration allocated exactly kObjects blocks of this class
    // (the Ref vector itself lives on malloc, not the substrate), and
    // freed them before the after-iteration snapshot.
    EXPECT_EQ(Rec.Delta.Heap.BytesAllocated,
              uint64_t(HeapChurnBenchmark::kObjects) * BlockBytes);
    EXPECT_EQ(Rec.Delta.Heap.BytesAllocated, Rec.Delta.Heap.BytesFreed);
    EXPECT_GT(Rec.Nanos, 0u);
  }
}

TEST(CountersPluginTest, HooksRunInAttachOrderWithOtherPlugins) {
  // Attached after the RecordingPlugin, the CountersPlugin's hooks run
  // second on the same iteration events — same count, same ordering
  // contract the harness gives every plugin (§2.2).
  HeapChurnBenchmark B;
  RecordingPlugin First;
  ren::harness::CountersPlugin Second;
  Runner R;
  R.addPlugin(First);
  R.addPlugin(Second);
  R.run(B);
  EXPECT_EQ(First.WarmupIters + First.SteadyIters,
            static_cast<int>(Second.records().size()));
}
