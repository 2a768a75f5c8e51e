//===- tools/renaissance_cli.cpp ------------------------------------------==//
//
// The command-line launcher, mirroring the Renaissance suite's JAR
// interface: list benchmarks, run a selection (or a whole suite) with
// configurable iteration counts, and emit results as text, CSV or JSON.
//
// Usage:
//   renaissance --list
//   renaissance [options] <benchmark|suite> [more...]
//   renaissance --repetitions 5 --warmups 2 --csv scrabble als dacapo
//
//===----------------------------------------------------------------------===//

#include "harness/Harness.h"
#include "harness/Plugins.h"
#include "jit/Experiment.h"
#include "support/Format.h"
#include "trace/TraceSession.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace ren;
using namespace ren::harness;

namespace {

void printUsage() {
  std::printf(
      "usage: renaissance [options] <benchmark|suite> [more...]\n"
      "\n"
      "options:\n"
      "  --list              list all benchmarks and exit\n"
      "  --repetitions N     measured iterations per benchmark\n"
      "  --warmups N         warmup iterations per benchmark\n"
      "  --csv               emit CSV instead of the text summary\n"
      "  --json              emit JSON instead of the text summary\n"
      "  --stats             print every runtime counter's delta over the\n"
      "                      whole run (events, managed heap, STM, load\n"
      "                      reports), one 'name value' line each, after\n"
      "                      the results (on stderr with --csv/--json)\n"
      "  --jit-config C      also run each benchmark's mini-JIT kernel\n"
      "                      under compiler configuration C (graal, c2 or\n"
      "                      tiered) and print its warmup summary: first\n"
      "                      invocations vs steady state in modelled\n"
      "                      cycles, compiles, deopts, inline-cache hits\n"
      "  --no-trace          disable the cache simulator\n"
      "  --trace=FILE        record runtime events to FILE as Chrome\n"
      "                      trace_event JSON (chrome://tracing, Perfetto)\n"
      "  --trace-summary     print the contention/park/steal profile\n"
      "                      (on stderr with --csv/--json)\n"
      "\n"
      "suites: renaissance, dacapo, scalabench, specjvm2008, all\n");
}

/// Runs the benchmark's mini-JIT kernel under \p Config ("graal", "c2" or
/// "tiered") and prints the warmup summary: mean cycles over the first
/// invocations (including modelled compile cost) against the steady
/// state, plus the tier-transition and inline-cache counters.
void printJitSummary(const char *SuiteStr, const std::string &Name,
                     const std::string &Config) {
  if (!jit::kernels::hasKernel(SuiteStr, Name)) {
    std::printf("  jit (%s): no kernel profile for this benchmark\n",
                Config.c_str());
    return;
  }
  jit::kernels::Kernel K = jit::kernels::kernelFor(SuiteStr, Name);
  // Enough rounds that even once-per-round functions cross the tier-up
  // invocation threshold (8), so "steady" really is compiled code.
  const unsigned Rounds = 12;
  jit::TieredConfig Cost;
  jit::KernelRun R =
      Config == "tiered"
          ? jit::runKernelTiered(K, Cost, Rounds)
          : jit::runKernel(K,
                           Config == "c2" ? jit::OptConfig::c2()
                                          : jit::OptConfig::graal(),
                           Rounds, &Cost);

  const auto &Curve = R.InvocationCycles;
  size_t FirstN = std::min<size_t>(Curve.size(), K.Invocations.size());
  size_t SteadyN = std::min<size_t>(Curve.size(), 10);
  uint64_t FirstSum = 0, SteadySum = 0;
  for (size_t I = 0; I < FirstN; ++I)
    FirstSum += Curve[I];
  for (size_t I = Curve.size() - SteadyN; I < Curve.size(); ++I)
    SteadySum += Curve[I];
  double FirstMean = FirstN ? double(FirstSum) / double(FirstN) : 0.0;
  double SteadyMean = SteadyN ? double(SteadySum) / double(SteadyN) : 0.0;

  std::printf("  jit (%s): first %zu invocations mean %.0f cycles "
              "(incl. %llu compile), steady %.0f cycles",
              Config.c_str(), FirstN, FirstMean,
              static_cast<unsigned long long>(R.ModelledCompileCycles),
              SteadyMean);
  if (SteadyMean > 0.0)
    std::printf(" (%.1fx warmup)", FirstMean / SteadyMean);
  std::printf("\n");
  // AOT configs compile the whole module up front; the tiered counter
  // tracks tier-up compile events instead.
  uint64_t Compiles = Config == "tiered" ? R.Tiers.Compiles
                                         : uint64_t(R.Compilation.size());
  std::printf("  jit (%s): compiles %llu (%llu recompiles), deopts %llu, "
              "pic hits %llu / misses %llu\n",
              Config.c_str(), static_cast<unsigned long long>(Compiles),
              static_cast<unsigned long long>(R.Tiers.Recompiles),
              static_cast<unsigned long long>(R.Tiers.Deopts),
              static_cast<unsigned long long>(R.PicHits),
              static_cast<unsigned long long>(R.PicMisses));
}

bool suiteByName(const std::string &Name, Suite &Out) {
  for (Suite S : {Suite::Renaissance, Suite::DaCapo, Suite::ScalaBench,
                  Suite::SpecJvm2008})
    if (Name == suiteName(S)) {
      Out = S;
      return true;
    }
  return false;
}

} // namespace

int main(int Argc, char **Argv) {
  workloads::registerAllBenchmarks();
  Registry &Reg = Registry::get();

  Runner::Options Opts;
  bool Csv = false, Json = false;
  bool TraceSummary = false;
  bool StatsWanted = false;
  std::string TracePath;
  std::string JitConfig;
  std::vector<std::string> Selection;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--list") {
      for (Suite S : {Suite::Renaissance, Suite::DaCapo, Suite::ScalaBench,
                      Suite::SpecJvm2008}) {
        std::printf("%s:\n", suiteName(S));
        for (const std::string &Name : Reg.names(S))
          std::printf("  %s\n", Name.c_str());
      }
      return 0;
    }
    if (Arg == "--help" || Arg == "-h") {
      printUsage();
      return 0;
    }
    if (Arg == "--csv") {
      Csv = true;
      continue;
    }
    if (Arg == "--json") {
      Json = true;
      continue;
    }
    if (Arg == "--no-trace") {
      Opts.TraceMemory = false;
      continue;
    }
    if (Arg.rfind("--trace=", 0) == 0) {
      TracePath = Arg.substr(std::strlen("--trace="));
      if (TracePath.empty()) {
        std::fprintf(stderr, "error: --trace needs a file path\n");
        return 1;
      }
      continue;
    }
    if (Arg == "--trace-summary") {
      TraceSummary = true;
      continue;
    }
    if (Arg == "--stats") {
      StatsWanted = true;
      continue;
    }
    if (Arg == "--jit-config") {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: --jit-config needs a value\n");
        return 1;
      }
      JitConfig = Argv[++I];
      if (JitConfig != "graal" && JitConfig != "c2" &&
          JitConfig != "tiered") {
        std::fprintf(stderr,
                     "error: --jit-config must be graal, c2 or tiered\n");
        return 1;
      }
      continue;
    }
    if (Arg == "--repetitions" || Arg == "--warmups") {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Arg.c_str());
        return 1;
      }
      int Value = std::atoi(Argv[++I]);
      if (Value <= 0) {
        std::fprintf(stderr, "error: %s must be positive\n", Arg.c_str());
        return 1;
      }
      (Arg == "--repetitions" ? Opts.MeasuredOverride
                              : Opts.WarmupOverride) =
          static_cast<unsigned>(Value);
      continue;
    }
    Selection.push_back(Arg);
  }

  if (Selection.empty()) {
    printUsage();
    return 1;
  }

  // Expand suites / "all" into benchmark ids.
  std::vector<std::pair<Suite, std::string>> ToRun;
  for (const std::string &Pick : Selection) {
    Suite S;
    if (Pick == "all") {
      for (Suite Su : {Suite::Renaissance, Suite::DaCapo,
                       Suite::ScalaBench, Suite::SpecJvm2008})
        for (const std::string &Name : Reg.names(Su))
          ToRun.push_back({Su, Name});
    } else if (suiteByName(Pick, S)) {
      for (const std::string &Name : Reg.names(S))
        ToRun.push_back({S, Name});
    } else if (Reg.contains(Pick)) {
      // Bare benchmark name: first suite that has it.
      for (Suite Su : {Suite::Renaissance, Suite::DaCapo,
                       Suite::ScalaBench, Suite::SpecJvm2008})
        if (Reg.contains(Su, Pick)) {
          ToRun.push_back({Su, Pick});
          break;
        }
    } else {
      std::fprintf(stderr,
                   "error: unknown benchmark or suite '%s' (use --list)\n",
                   Pick.c_str());
      return 1;
    }
  }

  bool Tracing = !TracePath.empty() || TraceSummary;
  // Reports go after the results document: on stdout in text mode, on
  // stderr with --csv or --json so stdout stays one parseable document.
  std::FILE *Report = Csv || Json ? stderr : stdout;
  Counters Before;
  if (StatsWanted)
    Before = Counters::take();
  Runner R(Opts);
  TracePlugin Tracer;
  ren::trace::TraceSession Session;
  if (Tracing) {
    R.addPlugin(Tracer);
    Session.start();
  }

  std::vector<RunResult> Results;
  for (const auto &[S, Name] : ToRun) {
    if (!Csv && !Json)
      std::printf("====== %s (%s) ======\n", Name.c_str(), suiteName(S));
    auto B = Reg.create(S, Name);
    RunResult Result = R.run(*B);
    if (!Csv && !Json)
      std::printf("  mean steady operation: %.2f ms, checksum %llu\n",
                  Result.meanSteadyNanos() / 1e6,
                  static_cast<unsigned long long>(Result.Checksum));
    if (!JitConfig.empty() && !Csv && !Json)
      printJitSummary(suiteName(S), Name, JitConfig);
    Results.push_back(std::move(Result));
    if (Tracing)
      Session.drain(); // keep ring laps rare on long selections
  }

  if (Csv)
    std::fputs(toCsv(Results).c_str(), stdout);
  else if (Json)
    std::fputs(toJson(Results).c_str(), stdout);

  if (Tracing) {
    Session.stop();
    if (!TracePath.empty()) {
      if (!Session.writeChromeJson(TracePath)) {
        std::fprintf(stderr, "error: cannot write trace to '%s'\n",
                     TracePath.c_str());
        return 1;
      }
      std::fprintf(stderr, "trace: %zu events (%llu dropped) -> %s\n",
                   Session.events().size(),
                   static_cast<unsigned long long>(Session.dropped()),
                   TracePath.c_str());
    }
    if (TraceSummary)
      std::fputs(Session.profile().summary().c_str(), Report);
  }

  if (StatsWanted)
    for (const auto &[Name, Value] :
         Counters::delta(Before, Counters::take()).named())
      std::fprintf(Report, "%s %.15g\n", Name.c_str(), Value);
  return 0;
}
