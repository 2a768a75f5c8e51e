//===- harness/Harness.h - Benchmark harness (paper §2.2) -------*- C++ -*-===//
//
// Part of Renaissance-C++, a reproduction of the PLDI'19 Renaissance paper.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark harness: registry, warmup/steady-state protocol, plugin
/// interface, and reporters.
///
/// Mirrors the Renaissance harness described in §2.2: benchmarks run as
/// repeated operations inside one process; execution before the configured
/// warmup count is *warm-up*, the rest is *steady-state* and is what every
/// experiment in this repository measures. Custom measurement plugins can
/// "latch onto benchmark execution events" — the CountersPlugin
/// (harness/Plugins.h) records every runtime counter per iteration that way.
///
//===----------------------------------------------------------------------===//

#ifndef REN_HARNESS_HARNESS_H
#define REN_HARNESS_HARNESS_H

#include "metrics/Metrics.h"

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace ren {
namespace harness {

/// Which suite a benchmark belongs to (paper §4.1).
enum class Suite { Renaissance, DaCapo, ScalaBench, SpecJvm2008 };

/// Short lower-case suite name ("renaissance", "dacapo", ...).
const char *suiteName(Suite S);

/// Static description of one benchmark.
struct BenchmarkInfo {
  std::string Name;
  Suite BenchmarkSuite = Suite::Renaissance;
  std::string Description;
  std::string Focus; ///< Table 1 "Focus" column.
  unsigned WarmupIterations = 2;
  unsigned MeasuredIterations = 3;
};

/// A runnable benchmark. Lifecycle: setUp, N x runIteration, tearDown.
class Benchmark {
public:
  virtual ~Benchmark();

  /// Static metadata.
  virtual BenchmarkInfo info() const = 0;

  /// One-time setup (data generation, service start).
  virtual void setUp() {}

  /// One benchmark operation; its wall time is the measured quantity.
  virtual void runIteration() = 0;

  /// One-time teardown.
  virtual void tearDown() {}

  /// A checksum-style result for validation; must be deterministic across
  /// runs for a fixed configuration (paper goal: deterministic execution).
  virtual uint64_t checksum() const { return 0; }
};

/// Observer latching onto benchmark execution events (paper §2.2).
class Plugin {
public:
  virtual ~Plugin();

  virtual void beforeRun(const BenchmarkInfo &) {}
  virtual void beforeIteration(const BenchmarkInfo &, unsigned /*Index*/,
                               bool /*Warmup*/) {}
  virtual void afterIteration(const BenchmarkInfo &, unsigned /*Index*/,
                              bool /*Warmup*/, uint64_t /*Nanos*/) {}
  virtual void afterRun(const BenchmarkInfo &) {}
};

/// Timing record of one operation.
struct IterationRecord {
  unsigned Index = 0;
  bool Warmup = false;
  uint64_t Nanos = 0;
};

/// The outcome of one benchmark run.
struct RunResult {
  BenchmarkInfo Info;
  std::vector<IterationRecord> Iterations;
  /// Metric delta covering exactly the steady-state iterations.
  metrics::MetricSnapshot SteadyDelta;
  uint64_t Checksum = 0;

  /// Mean steady-state operation time in nanoseconds.
  double meanSteadyNanos() const;

  /// Normalized Table 2 metrics for the steady state.
  metrics::NormalizedMetrics normalized() const {
    return metrics::normalize(SteadyDelta);
  }
};

/// The process-global benchmark registry.
class Registry {
public:
  using Factory = std::function<std::unique_ptr<Benchmark>()>;

  static Registry &get();

  /// Registers a factory; names must be unique.
  void add(Factory MakeBenchmark);

  /// All registered benchmark names, in registration order, optionally
  /// filtered by suite.
  std::vector<std::string> names() const;
  std::vector<std::string> names(Suite S) const;

  /// Instantiates a benchmark by name (first match across suites; names
  /// are unique within a suite). Asserts the name exists.
  std::unique_ptr<Benchmark> create(const std::string &Name) const;

  /// Instantiates a suite-qualified benchmark (e.g. the paper has a
  /// "sunflow" in both DaCapo and SPECjvm2008).
  std::unique_ptr<Benchmark> create(Suite S, const std::string &Name) const;

  /// True if \p Name is registered in any suite.
  bool contains(const std::string &Name) const;

  /// True if \p Name is registered in suite \p S.
  bool contains(Suite S, const std::string &Name) const;

  size_t size() const { return Entries.size(); }

private:
  struct Entry {
    BenchmarkInfo Info;
    Factory MakeBenchmark;
  };
  std::vector<Entry> Entries;
};

/// Runs benchmarks through the warmup/steady-state protocol with plugins.
class Runner {
public:
  /// Overrides applied to every run (0 = keep the benchmark's default).
  struct Options {
    unsigned WarmupOverride = 0;
    unsigned MeasuredOverride = 0;
    bool TraceMemory = true; ///< enable the cache simulator during runs
  };

  Runner() = default;
  explicit Runner(Options RunOptions) : Opts(RunOptions) {}

  /// Attaches a plugin (not owned).
  Runner &addPlugin(Plugin &P) {
    Plugins.push_back(&P);
    return *this;
  }

  /// Runs \p B through its full lifecycle.
  RunResult run(Benchmark &B);

  /// Looks up \p Name in the registry and runs it.
  RunResult runByName(const std::string &Name);

private:
  Options Opts = Options();
  std::vector<Plugin *> Plugins;
};

/// Renders a set of run results as a CSV document (one row per iteration).
std::string toCsv(const std::vector<RunResult> &Results);

/// Renders a set of run results as a JSON document.
std::string toJson(const std::vector<RunResult> &Results);

} // namespace harness
} // namespace ren

#endif // REN_HARNESS_HARNESS_H
