//===- bench/BenchSupport.cpp ----------------------------------------------==//

#include "BenchSupport.h"

#include "stats/Stats.h"
#include "support/Rng.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

using namespace ren;
using namespace ren::bench;
using namespace ren::harness;

Registry &ren::bench::registry() {
  static Registry *R = [] {
    auto *Reg = new Registry();
    workloads::registerAllBenchmarks(*Reg);
    return Reg;
  }();
  return *R;
}

std::vector<BenchmarkId> ren::bench::allBenchmarks() {
  std::vector<BenchmarkId> Out;
  for (Suite S : {Suite::Renaissance, Suite::DaCapo, Suite::ScalaBench,
                  Suite::SpecJvm2008})
    for (const std::string &Name : registry().names(S))
      Out.push_back(BenchmarkId{S, Name});
  return Out;
}

ren::bench::ScopedBenchTrace::ScopedBenchTrace() {
  const char *Env = std::getenv("REN_TRACE");
  if (!Env || !Env[0])
    return;
  Path = Env;
  Session = std::make_unique<trace::TraceSession>();
  Session->start();
  Drainer = std::make_unique<trace::PeriodicDrainer>(*Session);
}

ren::bench::ScopedBenchTrace::~ScopedBenchTrace() {
  if (!Session)
    return;
  Drainer.reset();
  Session->stop();
  if (!Session->writeChromeJson(Path)) {
    std::fprintf(stderr, "warning: cannot write REN_TRACE file '%s'\n",
                 Path.c_str());
    return;
  }
  std::fprintf(stderr, "trace: %zu events (%llu dropped) -> %s\n",
               Session->events().size(),
               static_cast<unsigned long long>(Session->dropped()),
               Path.c_str());
  if (std::getenv("REN_TRACE_SUMMARY"))
    std::fputs(Session->profile().summary().c_str(), stderr);
}

std::vector<RunResult> ren::bench::collectAllMetrics(bool Quick) {
  Runner::Options Opts;
  if (Quick) {
    Opts.WarmupOverride = 1;
    Opts.MeasuredOverride = 1;
  }
  ScopedBenchTrace Trace;
  Runner R(Opts);
  if (Trace.active())
    R.addPlugin(Trace.plugin());
  std::vector<RunResult> Results;
  for (const BenchmarkId &Id : allBenchmarks()) {
    auto B = registry().create(Id.Suite, Id.Name);
    Results.push_back(R.run(*B));
  }
  return Results;
}

std::vector<double> ren::bench::noisySamples(uint64_t BaseCycles, unsigned N,
                                             uint64_t Seed, double Sigma) {
  Xoshiro256StarStar Rng(Seed);
  std::vector<double> Samples;
  Samples.reserve(N);
  for (unsigned I = 0; I < N; ++I)
    Samples.push_back(static_cast<double>(BaseCycles) *
                      std::exp(Sigma * Rng.nextGaussian()));
  return Samples;
}

ImpactCell ren::bench::impactCell(uint64_t CyclesWith,
                                  uint64_t CyclesWithout, uint64_t Seed) {
  constexpr unsigned kExecutions = 15; // paper supplemental §C
  std::vector<double> With =
      stats::winsorize(noisySamples(CyclesWith, kExecutions, Seed), 0.1);
  std::vector<double> Without = stats::winsorize(
      noisySamples(CyclesWithout, kExecutions, Seed ^ 0x517EC0DE), 0.1);
  ImpactCell Cell;
  Cell.Impact = (stats::mean(Without) - stats::mean(With)) /
                stats::mean(With);
  Cell.PValue = stats::welchTTest(With, Without).PValue;
  return Cell;
}

ParallelHostInfo ren::bench::parallelHostInfo(unsigned ThreadsUsed) {
  ParallelHostInfo Info;
  Info.HardwareConcurrency = std::thread::hardware_concurrency();
  Info.ThreadsUsed = ThreadsUsed;
  Info.SerialHost = Info.HardwareConcurrency <= 1;
  if (Info.SerialHost)
    std::fprintf(stderr,
                 "warning: hardware_concurrency() reports %u CPU(s); "
                 "parallel rows (threads_used=%u) measure scheduling "
                 "overhead, not scaling\n",
                 Info.HardwareConcurrency, ThreadsUsed);
  return Info;
}

std::string ren::bench::hostJsonFields(const ParallelHostInfo &Host) {
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf),
                "\"num_cpus\": %u, \"threads_used\": %u, "
                "\"serial_host\": %s",
                Host.HardwareConcurrency, Host.ThreadsUsed,
                Host.SerialHost ? "true" : "false");
  return Buf;
}

bool ren::bench::writeRawJson(const std::string &OutPath,
                              const std::string &Context,
                              const std::vector<RawCell> &Cells) {
  std::FILE *Out = stdout;
  if (!OutPath.empty()) {
    Out = std::fopen(OutPath.c_str(), "w");
    if (!Out) {
      std::fprintf(stderr, "cannot open --out file '%s'\n", OutPath.c_str());
      return false;
    }
  }
  std::fprintf(Out, "{\n  \"context\": {%s},\n  \"benchmarks\": [\n",
               Context.c_str());
  for (size_t I = 0; I < Cells.size(); ++I)
    std::fprintf(Out,
                 "    {\"name\": \"%s\", \"items_per_second\": %.6g%s}%s\n",
                 Cells[I].Name.c_str(), Cells[I].ItemsPerSecond,
                 Cells[I].Fields.c_str(), I + 1 < Cells.size() ? "," : "");
  std::fputs("  ]\n}\n", Out);
  if (Out != stdout)
    std::fclose(Out);
  return true;
}

std::vector<BenchmarkImpactRow> ren::bench::computeImpactMatrix() {
  std::vector<BenchmarkImpactRow> Rows;
  uint64_t Seed = 0xF165;
  for (const BenchmarkId &Id : allBenchmarks()) {
    const char *SuiteStr = suiteName(Id.Suite);
    if (!jit::kernels::hasKernel(SuiteStr, Id.Name))
      continue;
    jit::kernels::Kernel K = jit::kernels::kernelFor(SuiteStr, Id.Name);
    jit::KernelRun Base = jit::runKernel(K, jit::OptConfig::graal());

    BenchmarkImpactRow Row;
    Row.Id = Id;
    Row.BaselineCycles = Base.Cycles;
    for (const std::string &Pass : jit::OptConfig::passShortNames()) {
      jit::KernelRun Without =
          jit::runKernel(K, jit::OptConfig::graalWithout(Pass));
      Row.Cells.push_back(impactCell(Base.Cycles, Without.Cycles, Seed++));
    }
    Rows.push_back(std::move(Row));
  }
  return Rows;
}
