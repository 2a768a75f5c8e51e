//===- bench/BenchSupport.h - Shared experiment plumbing --------*- C++ -*-===//
//
// Part of Renaissance-C++, a reproduction of the PLDI'19 Renaissance paper.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the table/figure regeneration binaries: running the
/// whole registry with the metrics plugin, enumerating benchmarks in the
/// paper's suite order, and the measurement-noise model used to feed the
/// significance tests.
///
//===----------------------------------------------------------------------===//

#ifndef REN_BENCH_BENCHSUPPORT_H
#define REN_BENCH_BENCHSUPPORT_H

#include "harness/Harness.h"
#include "harness/Plugins.h"
#include "jit/Experiment.h"
#include "trace/TraceSession.h"
#include "workloads/Workloads.h"

#include <memory>
#include <string>
#include <vector>

namespace ren {
namespace bench {

/// (suite, benchmark-name) in registration order.
struct BenchmarkId {
  harness::Suite Suite;
  std::string Name;
};

/// Returns the registry with all four suites registered (singleton).
harness::Registry &registry();

/// All benchmarks in paper order (Renaissance, DaCapo, ScalaBench, SPEC).
std::vector<BenchmarkId> allBenchmarks();

/// Runs every benchmark once through the harness with the metrics plugin
/// and returns steady-state results in allBenchmarks() order. \p Quick
/// shrinks the protocol to 1 warmup + 1 measured iteration. Honors
/// REN_TRACE (see ScopedBenchTrace), so every figure/table binary built on
/// this helper can emit a Chrome trace without its own wiring.
std::vector<harness::RunResult> collectAllMetrics(bool Quick);

/// Environment-driven tracing for the figure/table binaries: if REN_TRACE
/// is set to a file path, the constructor starts a TraceSession (with a
/// TracePlugin the caller should attach to its Runner) drained by a
/// PeriodicDrainer, and the destructor writes the Chrome trace JSON
/// there; if REN_TRACE_SUMMARY is also set, the aggregate profile is
/// printed to stderr. Inactive (and free) when the variable is unset.
class ScopedBenchTrace {
public:
  ScopedBenchTrace();
  ~ScopedBenchTrace();

  ScopedBenchTrace(const ScopedBenchTrace &) = delete;
  ScopedBenchTrace &operator=(const ScopedBenchTrace &) = delete;

  bool active() const { return Session != nullptr; }

  /// The plugin to attach to Runners while the guard is live.
  harness::TracePlugin &plugin() { return Plugin; }

private:
  std::string Path;
  std::unique_ptr<trace::TraceSession> Session;
  std::unique_ptr<trace::PeriodicDrainer> Drainer;
  harness::TracePlugin Plugin;
};

/// The paper executes each configuration 15 times on real hardware; our
/// interpreter is deterministic, so run-to-run variance is modelled as a
/// seeded log-normal perturbation (sigma ~ 1.5%, documented in DESIGN.md).
/// Returns \p N samples around \p BaseCycles.
std::vector<double> noisySamples(uint64_t BaseCycles, unsigned N,
                                 uint64_t Seed, double Sigma = 0.015);

/// The impact measurement of §6 for one benchmark and one optimization:
/// mean relative change when the pass is disabled, with Welch's p-value
/// over the winsorized 15-sample sets.
struct ImpactCell {
  double Impact = 0.0; ///< (mean_without - mean_with) / mean_with
  double PValue = 1.0;
};

/// Computes the impact cell from the two deterministic cycle counts.
ImpactCell impactCell(uint64_t CyclesWith, uint64_t CyclesWithout,
                      uint64_t Seed);

/// Runs the benchmark's kernel under graal and all seven leave-one-out
/// configurations. Row layout follows OptConfig::passShortNames().
struct BenchmarkImpactRow {
  BenchmarkId Id;
  uint64_t BaselineCycles = 0;
  std::vector<ImpactCell> Cells; ///< one per pass short name
};

/// Computes the full Figure 5 data set.
std::vector<BenchmarkImpactRow> computeImpactMatrix();

/// Host-parallelism snapshot recorded into the bench JSON context by the
/// parallel-streams benchmarks. \p ThreadsUsed is the widest pool the
/// benchmark actually ran. When the host advertises <= 1 hardware thread
/// (SerialHost), parallel speedups measure scheduling overhead rather
/// than scaling; parallelHostInfo prints a one-line stderr warning in
/// that case so the numbers are never read as scaling data.
struct ParallelHostInfo {
  unsigned HardwareConcurrency = 0; ///< std::thread::hardware_concurrency()
  unsigned ThreadsUsed = 0;
  bool SerialHost = false; ///< HardwareConcurrency <= 1
};

ParallelHostInfo parallelHostInfo(unsigned ThreadsUsed);

/// The host snapshot as JSON fields:
/// "num_cpus": N, "threads_used": T, "serial_host": true|false.
std::string hostJsonFields(const ParallelHostInfo &Host);

/// One cell of a self-timed binary's raw JSON.
struct RawCell {
  std::string Name;
  double ItemsPerSecond = 0.0; ///< the quantity the baseline gate compares
  std::string Fields;          ///< preformatted ", \"key\": value" pairs
};

/// Writes the raw JSON that tools/bench_merge.py reads,
/// {"context": {Context}, "benchmarks": [Cells]}, to \p OutPath, or to
/// stdout when it is empty. \p Context is preformatted "\"key\": value"
/// pairs. \returns false (after a message on stderr) if \p OutPath cannot
/// be opened.
bool writeRawJson(const std::string &OutPath, const std::string &Context,
                  const std::vector<RawCell> &Cells);

} // namespace bench
} // namespace ren

#endif // REN_BENCH_BENCHSUPPORT_H
