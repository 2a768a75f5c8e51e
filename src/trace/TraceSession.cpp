//===- trace/TraceSession.cpp ---------------------------------------------==//

#include "trace/TraceSession.h"

#include "support/Output.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <map>

using namespace ren;
using namespace ren::trace;

//===----------------------------------------------------------------------===//
// Profile aggregation
//===----------------------------------------------------------------------===//

TraceProfile ren::trace::buildProfile(const std::vector<TraceEvent> &Events,
                                      uint64_t Dropped) {
  TraceProfile P;
  P.Events = Events.size();
  P.Dropped = Dropped;

  std::map<uint64_t, MonitorContention> Monitors;
  std::map<uint32_t, WorkerActivity> Workers;

  auto Worker = [&Workers](uint32_t Tid) -> WorkerActivity & {
    WorkerActivity &W = Workers[Tid];
    W.Tid = Tid;
    return W;
  };

  for (const TraceEvent &E : Events) {
    ++P.KindCounts[static_cast<unsigned>(E.Kind)];
    switch (E.Kind) {
    case EventKind::MonitorContended: {
      MonitorContention &M = Monitors[E.A];
      M.Monitor = E.A;
      ++M.Contended;
      M.TotalBlockedNs += E.Dur;
      M.MaxBlockedNs = std::max(M.MaxBlockedNs, E.Dur);
      P.MonitorBlocked.record(E.Dur);
      break;
    }
    case EventKind::MonitorInflate:
      ++P.MonitorInflations;
      break;
    case EventKind::Park:
      P.ParkLatency.record(E.Dur);
      P.ParkNsTotal += E.Dur;
      break;
    case EventKind::CasFail:
      ++P.CasFailures;
      break;
    case EventKind::Bootstrap:
      ++P.Bootstraps;
      break;
    case EventKind::MhSimplify:
      ++P.MhSimplifies;
      break;
    case EventKind::FjFork:
      ++Worker(E.Tid).Forks;
      break;
    case EventKind::FjExternal:
      ++Worker(E.Tid).Overflows;
      break;
    case EventKind::FjSteal:
      ++Worker(E.Tid).Steals;
      break;
    case EventKind::FjIdle: {
      WorkerActivity &W = Worker(E.Tid);
      ++W.IdleParks;
      W.IdleNs += E.Dur;
      break;
    }
    case EventKind::TaskRun:
      ++P.TaskRuns;
      P.TaskQueueNsTotal += E.A;
      P.TaskQueueNsMax = std::max(P.TaskQueueNsMax, E.A);
      break;
    case EventKind::HeapReclaim:
      P.GcPause.record(E.Dur);
      P.GcPauseNsTotal += E.Dur;
      break;
    default:
      break;
    }
  }

  // Steal events carry the victim worker index in B; we can only attribute
  // "stolen from" when the victim's own fork events identify its tid —
  // attribute by scanning steals a second time against the thief-reported
  // victim index. Victim indexes are pool-local, so this attribution is a
  // per-index tally rather than a per-thread one; expose it on the thief's
  // row (tasks this thread took from others) and leave Stolen keyed by
  // index-as-tid when that index maps to a registered row.
  for (const TraceEvent &E : Events)
    if (E.Kind == EventKind::FjSteal) {
      auto It = Workers.find(static_cast<uint32_t>(E.B));
      if (It != Workers.end())
        ++It->second.Stolen;
    }

  for (auto &[Addr, M] : Monitors)
    P.ContendedMonitors.push_back(M);
  std::sort(P.ContendedMonitors.begin(), P.ContendedMonitors.end(),
            [](const MonitorContention &L, const MonitorContention &R) {
              return L.TotalBlockedNs > R.TotalBlockedNs;
            });
  for (auto &[Tid, W] : Workers)
    P.Workers.push_back(W);
  return P;
}

std::string TraceProfile::summary() const {
  std::string Out;
  char Line[256];
  auto Emit = [&Out, &Line] { Out += Line; };

  std::snprintf(Line, sizeof(Line),
                "trace profile: %llu events (%llu dropped)\n",
                static_cast<unsigned long long>(Events),
                static_cast<unsigned long long>(Dropped));
  Emit();

  std::snprintf(Line, sizeof(Line),
                "  monitors: %llu uncontended, %llu contended acquires, "
                "%llu inflations\n",
                static_cast<unsigned long long>(
                    KindCounts[static_cast<unsigned>(
                        EventKind::MonitorAcquire)]),
                static_cast<unsigned long long>(
                    KindCounts[static_cast<unsigned>(
                        EventKind::MonitorContended)]),
                static_cast<unsigned long long>(MonitorInflations));
  Emit();

  size_t Top = std::min<size_t>(ContendedMonitors.size(), 5);
  for (size_t I = 0; I < Top; ++I) {
    const MonitorContention &M = ContendedMonitors[I];
    std::snprintf(Line, sizeof(Line),
                  "    #%zu monitor %#llx: %llu contended, blocked total "
                  "%.3f ms, max %.3f ms\n",
                  I + 1, static_cast<unsigned long long>(M.Monitor),
                  static_cast<unsigned long long>(M.Contended),
                  static_cast<double>(M.TotalBlockedNs) / 1e6,
                  static_cast<double>(M.MaxBlockedNs) / 1e6);
    Emit();
  }

  std::snprintf(Line, sizeof(Line),
                "  park: %llu parks, total %.3f ms, p50 ~%.3f ms, p99 "
                "~%.3f ms, max %.3f ms\n",
                static_cast<unsigned long long>(ParkLatency.count()),
                static_cast<double>(ParkNsTotal) / 1e6,
                static_cast<double>(ParkLatency.valueAtQuantile(0.5)) / 1e6,
                static_cast<double>(ParkLatency.valueAtQuantile(0.99)) / 1e6,
                static_cast<double>(ParkLatency.maxValue()) / 1e6);
  Emit();

  if (uint64_t Passes = GcPause.count()) {
    std::snprintf(Line, sizeof(Line),
                  "  heap: %llu reclaim passes, total %.3f ms, p99 ~%.3f "
                  "ms, max %.3f ms\n",
                  static_cast<unsigned long long>(Passes),
                  static_cast<double>(GcPauseNsTotal) / 1e6,
                  static_cast<double>(GcPause.valueAtQuantile(0.99)) / 1e6,
                  static_cast<double>(GcPause.maxValue()) / 1e6);
    Emit();
  }

  std::snprintf(Line, sizeof(Line),
                "  atomics: %llu CAS failures; idynamic: %llu bootstraps, "
                "%llu handles simplified\n",
                static_cast<unsigned long long>(CasFailures),
                static_cast<unsigned long long>(Bootstraps),
                static_cast<unsigned long long>(MhSimplifies));
  Emit();

  if (TaskRuns > 0) {
    std::snprintf(
        Line, sizeof(Line),
        "  executor: %llu tasks, queue latency mean %.3f ms, max %.3f ms\n",
        static_cast<unsigned long long>(TaskRuns),
        static_cast<double>(TaskQueueNsTotal) /
            static_cast<double>(TaskRuns) / 1e6,
        static_cast<double>(TaskQueueNsMax) / 1e6);
    Emit();
  }

  for (const WorkerActivity &W : Workers) {
    std::snprintf(Line, sizeof(Line),
                  "  worker tid %u: %llu forks, %llu steals, %llu stolen-"
                  "from, %llu overflows, %llu idle parks (%.3f ms idle)\n",
                  W.Tid, static_cast<unsigned long long>(W.Forks),
                  static_cast<unsigned long long>(W.Steals),
                  static_cast<unsigned long long>(W.Stolen),
                  static_cast<unsigned long long>(W.Overflows),
                  static_cast<unsigned long long>(W.IdleParks),
                  static_cast<double>(W.IdleNs) / 1e6);
    Emit();
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Chrome trace_event export
//===----------------------------------------------------------------------===//

std::string ren::trace::toChromeJson(const std::vector<TraceEvent> &Events) {
  std::vector<const TraceEvent *> Sorted;
  Sorted.reserve(Events.size());
  for (const TraceEvent &E : Events)
    Sorted.push_back(&E);
  std::stable_sort(Sorted.begin(), Sorted.end(),
                   [](const TraceEvent *L, const TraceEvent *R) {
                     return L->Ts < R->Ts;
                   });

  JsonWriter W;
  W.beginObject();
  W.key("displayTimeUnit");
  W.value("ms");
  W.key("traceEvents");
  W.beginArray();
  for (const TraceEvent *E : Sorted) {
    W.beginObject();
    W.key("name");
    W.value(E->Name && E->Name[0] ? E->Name : eventKindName(E->Kind));
    W.key("cat");
    W.value(eventKindName(E->Kind));
    W.key("ph");
    char Ph[2] = {static_cast<char>(E->Ph), 0};
    W.value(Ph);
    W.key("ts");
    W.value(static_cast<double>(E->Ts) / 1e3); // microseconds
    if (E->Ph == Phase::Complete) {
      W.key("dur");
      W.value(static_cast<double>(E->Dur) / 1e3);
    }
    W.key("pid");
    W.value(static_cast<uint64_t>(1));
    W.key("tid");
    W.value(static_cast<uint64_t>(E->Tid));
    W.key("args");
    W.beginObject();
    W.key("a");
    W.value(E->A);
    W.key("b");
    W.value(E->B);
    W.endObject();
    W.endObject();
  }
  W.endArray();
  W.endObject();
  return W.str();
}

//===----------------------------------------------------------------------===//
// TraceSession
//===----------------------------------------------------------------------===//

namespace {

/// Guards against overlapping sessions (their drains would steal each
/// other's events).
std::atomic<bool> GSessionActive{false};

} // namespace

TraceSession::~TraceSession() {
  if (Active)
    stop();
}

void TraceSession::start() {
  assert(!Active && "session already started");
  bool Expected = false;
  bool Won = GSessionActive.compare_exchange_strong(Expected, true);
  assert(Won && "another TraceSession is active");
  (void)Won;
  Events.clear();
  Dropped = 0;
  TraceRegistry::get().discardAll();
  Active = true;
  setEnabled(true);
}

void TraceSession::drain() {
  assert(Active && "drain outside start/stop");
  Dropped += TraceRegistry::get().drainAll(Events);
}

void TraceSession::stop() {
  if (!Active)
    return;
  setEnabled(false);
  Dropped += TraceRegistry::get().drainAll(Events);
  Active = false;
  GSessionActive.store(false);
}

bool TraceSession::writeChromeJson(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::string Json = chromeJson();
  size_t Written = std::fwrite(Json.data(), 1, Json.size(), F);
  bool Ok = Written == Json.size();
  return std::fclose(F) == 0 && Ok;
}
