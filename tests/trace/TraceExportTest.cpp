//===- tests/trace/TraceExportTest.cpp ------------------------------------==//
//
// Golden/schema tests for the Chrome trace_event export and the aggregate
// profile: the JSON parses (with the minimal parser below), every event
// carries ph/ts/pid/tid/name, B/E pairs balance per thread, and a scripted
// two-thread monitor-contention scenario produces the expected event
// sequence deterministically.
//
//===----------------------------------------------------------------------===//

#include "runtime/Monitor.h"
#include "trace/Trace.h"
#include "trace/TraceSession.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>
#include <vector>

using namespace ren::trace;

namespace {

//===----------------------------------------------------------------------===//
// A minimal JSON parser — just enough to validate the exported schema
// without pulling a dependency into the tests.
//===----------------------------------------------------------------------===//

struct Json {
  enum class Type { Null, Bool, Number, String, Array, Object } Kind =
      Type::Null;
  bool BoolVal = false;
  double Num = 0;
  std::string Str;
  std::vector<Json> Arr;
  std::map<std::string, Json> Obj;

  bool has(const std::string &Key) const { return Obj.count(Key) != 0; }
  const Json &at(const std::string &Key) const { return Obj.at(Key); }
};

class JsonParser {
public:
  explicit JsonParser(const std::string &Text) : Text(Text) {}

  bool parse(Json &Out) {
    skipWs();
    if (!value(Out))
      return false;
    skipWs();
    return Pos == Text.size(); // no trailing garbage
  }

private:
  const std::string &Text;
  size_t Pos = 0;

  void skipWs() {
    while (Pos < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }
  bool consume(char C) {
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }
  bool literal(const char *Lit) {
    size_t Len = std::string(Lit).size();
    if (Text.compare(Pos, Len, Lit) != 0)
      return false;
    Pos += Len;
    return true;
  }

  bool value(Json &Out) {
    skipWs();
    if (Pos >= Text.size())
      return false;
    switch (Text[Pos]) {
    case '{':
      return object(Out);
    case '[':
      return array(Out);
    case '"':
      Out.Kind = Json::Type::String;
      return string(Out.Str);
    case 't':
      Out.Kind = Json::Type::Bool;
      Out.BoolVal = true;
      return literal("true");
    case 'f':
      Out.Kind = Json::Type::Bool;
      Out.BoolVal = false;
      return literal("false");
    case 'n':
      Out.Kind = Json::Type::Null;
      return literal("null");
    default:
      return number(Out);
    }
  }

  bool string(std::string &Out) {
    if (!consume('"'))
      return false;
    Out.clear();
    while (Pos < Text.size() && Text[Pos] != '"') {
      char C = Text[Pos++];
      if (C == '\\') {
        if (Pos >= Text.size())
          return false;
        char E = Text[Pos++];
        switch (E) {
        case 'n':
          Out.push_back('\n');
          break;
        case 't':
          Out.push_back('\t');
          break;
        case 'u':
          if (Pos + 4 > Text.size())
            return false;
          Pos += 4;
          Out.push_back('?'); // tests never check escaped content
          break;
        default:
          Out.push_back(E);
        }
      } else {
        Out.push_back(C);
      }
    }
    return consume('"');
  }

  bool number(Json &Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && (Text[Pos] == '-' || Text[Pos] == '+'))
      ++Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '-' || Text[Pos] == '+'))
      ++Pos;
    if (Pos == Start)
      return false;
    Out.Kind = Json::Type::Number;
    Out.Num = std::stod(Text.substr(Start, Pos - Start));
    return true;
  }

  bool array(Json &Out) {
    Out.Kind = Json::Type::Array;
    if (!consume('['))
      return false;
    skipWs();
    if (consume(']'))
      return true;
    for (;;) {
      Json Elem;
      if (!value(Elem))
        return false;
      Out.Arr.push_back(std::move(Elem));
      skipWs();
      if (consume(']'))
        return true;
      if (!consume(','))
        return false;
    }
  }

  bool object(Json &Out) {
    Out.Kind = Json::Type::Object;
    if (!consume('{'))
      return false;
    skipWs();
    if (consume('}'))
      return true;
    for (;;) {
      skipWs();
      std::string Key;
      if (!string(Key))
        return false;
      skipWs();
      if (!consume(':'))
        return false;
      Json Val;
      if (!value(Val))
        return false;
      Out.Obj[Key] = std::move(Val);
      skipWs();
      if (consume('}'))
        return true;
      if (!consume(','))
        return false;
    }
  }
};

Json parseOrDie(const std::string &Text) {
  Json Doc;
  JsonParser P(Text);
  EXPECT_TRUE(P.parse(Doc)) << "export is not valid JSON:\n" << Text;
  return Doc;
}

/// Every Chrome trace event must carry these fields with these types.
void checkEventSchema(const Json &E) {
  ASSERT_EQ(E.Kind, Json::Type::Object);
  ASSERT_TRUE(E.has("ph"));
  ASSERT_TRUE(E.has("ts"));
  ASSERT_TRUE(E.has("pid"));
  ASSERT_TRUE(E.has("tid"));
  ASSERT_TRUE(E.has("name"));
  EXPECT_EQ(E.at("ph").Kind, Json::Type::String);
  ASSERT_EQ(E.at("ph").Str.size(), 1u);
  char Ph = E.at("ph").Str[0];
  EXPECT_TRUE(Ph == 'i' || Ph == 'X' || Ph == 'B' || Ph == 'E')
      << "unexpected phase " << Ph;
  EXPECT_EQ(E.at("ts").Kind, Json::Type::Number);
  EXPECT_GE(E.at("ts").Num, 0.0);
  EXPECT_EQ(E.at("pid").Kind, Json::Type::Number);
  EXPECT_EQ(E.at("pid").Num, 1.0);
  EXPECT_EQ(E.at("tid").Kind, Json::Type::Number);
  EXPECT_EQ(E.at("name").Kind, Json::Type::String);
  EXPECT_FALSE(E.at("name").Str.empty());
  if (Ph == 'X') {
    ASSERT_TRUE(E.has("dur")) << "complete events need a duration";
    EXPECT_GE(E.at("dur").Num, 0.0);
  }
}

} // namespace

TEST(TraceExportTest, ChromeJsonSchemaAndOrdering) {
  if (!kTraceCompiled)
    GTEST_SKIP() << "tracing compiled out (REN_TRACE_DISABLED)";
  TraceSession Session;
  Session.start();
  instant(EventKind::User, "export.instant", 1, 2);
  uint64_t T0 = nowNanos();
  span(EventKind::User, "export.span", T0, 1500, 3, 4);
  mark(EventKind::User, Phase::Begin, "export.nest");
  mark(EventKind::User, Phase::End, "export.nest");
  Session.stop();

  Json Doc = parseOrDie(Session.chromeJson());
  ASSERT_EQ(Doc.Kind, Json::Type::Object);
  ASSERT_TRUE(Doc.has("traceEvents"));
  ASSERT_TRUE(Doc.has("displayTimeUnit"));
  const Json &Events = Doc.at("traceEvents");
  ASSERT_EQ(Events.Kind, Json::Type::Array);
  ASSERT_GE(Events.Arr.size(), 4u);
  double PrevTs = 0;
  for (const Json &E : Events.Arr) {
    checkEventSchema(E);
    EXPECT_GE(E.at("ts").Num, PrevTs) << "events must be sorted by ts";
    PrevTs = E.at("ts").Num;
  }
  // The span's ns duration survives as microseconds.
  bool FoundSpan = false;
  for (const Json &E : Events.Arr)
    if (E.at("name").Str == "export.span") {
      FoundSpan = true;
      EXPECT_EQ(E.at("ph").Str, "X");
      EXPECT_NEAR(E.at("dur").Num, 1.5, 1e-6);
      EXPECT_NEAR(E.at("ts").Num, static_cast<double>(T0) / 1e3, 0.01);
      ASSERT_TRUE(E.has("args"));
      EXPECT_EQ(E.at("args").at("a").Num, 3.0);
      EXPECT_EQ(E.at("args").at("b").Num, 4.0);
    }
  EXPECT_TRUE(FoundSpan);
}

TEST(TraceExportTest, BeginEndPairsBalancePerThread) {
  TraceSession Session;
  Session.start();
  std::thread Other([] {
    mark(EventKind::User, Phase::Begin, "outer");
    mark(EventKind::User, Phase::Begin, "inner");
    mark(EventKind::User, Phase::End, "inner");
    mark(EventKind::User, Phase::End, "outer");
  });
  mark(EventKind::User, Phase::Begin, "main.outer");
  mark(EventKind::User, Phase::Begin, "main.inner");
  mark(EventKind::User, Phase::End, "main.inner");
  mark(EventKind::User, Phase::End, "main.outer");
  Other.join();
  Session.stop();

  Json Doc = parseOrDie(Session.chromeJson());
  // Replay each thread's B/E stream against a stack: every End must close
  // the most recent Begin of the same name, and every stack must be empty
  // at the end — the invariant chrome://tracing needs to nest spans.
  std::map<double, std::vector<std::string>> Stacks;
  for (const Json &E : Doc.at("traceEvents").Arr) {
    checkEventSchema(E);
    double Tid = E.at("tid").Num;
    const std::string &Ph = E.at("ph").Str;
    if (Ph == "B")
      Stacks[Tid].push_back(E.at("name").Str);
    else if (Ph == "E") {
      ASSERT_FALSE(Stacks[Tid].empty())
          << "End without Begin on tid " << Tid;
      EXPECT_EQ(Stacks[Tid].back(), E.at("name").Str);
      Stacks[Tid].pop_back();
    }
  }
  for (const auto &[Tid, Stack] : Stacks)
    EXPECT_TRUE(Stack.empty()) << "unbalanced Begin on tid " << Tid;
}

TEST(TraceExportTest, TwoThreadMonitorContentionIsDeterministic) {
  if (!kTraceCompiled)
    GTEST_SKIP() << "tracing compiled out (REN_TRACE_DISABLED)";
  ren::runtime::Monitor M;
  const uint64_t Id = objectId(&M);

  TraceSession Session;
  Session.start();
  M.enter(); // uncontended: MonitorAcquire instant on this thread
  std::thread Blocked([&M] {
    M.enter(); // provably contended: MonitorContended span
    M.exit();
  });
  // contendedAcquirers() counts threads committed to the queued slow path
  // (incremented before the spin/park protocol begins) — once this loop
  // exits the victim is *guaranteed* on the contended path, making the
  // MonitorContended span deterministic rather than probabilistic.
  while (M.contendedAcquirers() < 1)
    std::this_thread::yield();
  M.exit();
  Blocked.join();
  Session.stop();

  uint32_t MainTid = TraceRegistry::get().threadBuffer().tid();
  std::vector<TraceEvent> Acquires, Contended;
  for (const TraceEvent &E : Session.events()) {
    if (E.A != Id)
      continue;
    if (E.Kind == EventKind::MonitorAcquire)
      Acquires.push_back(E);
    else if (E.Kind == EventKind::MonitorContended)
      Contended.push_back(E);
  }
  // Exactly one uncontended acquire (the main thread's) and one contended
  // acquire (the blocked thread's), attributed to different threads.
  ASSERT_EQ(Acquires.size(), 1u);
  ASSERT_EQ(Contended.size(), 1u);
  EXPECT_EQ(Acquires[0].Tid, MainTid);
  EXPECT_NE(Contended[0].Tid, MainTid);
  EXPECT_EQ(Acquires[0].Ph, Phase::Instant);
  EXPECT_EQ(Contended[0].Ph, Phase::Complete);
  EXPECT_GT(Contended[0].Dur, 0u) << "blocked duration must be recorded";
  EXPECT_STREQ(Contended[0].Name, "monitor.contended");
  // The contended span starts no later than it ends, and begins after the
  // main thread took the monitor.
  EXPECT_GE(Contended[0].Ts + Contended[0].Dur, Acquires[0].Ts);

  // The same scenario drives the profile aggregation.
  TraceProfile Profile = Session.profile();
  ASSERT_EQ(Profile.ContendedMonitors.size(), 1u);
  EXPECT_EQ(Profile.ContendedMonitors[0].Monitor, Id);
  EXPECT_EQ(Profile.ContendedMonitors[0].Contended, 1u);
  EXPECT_GT(Profile.ContendedMonitors[0].TotalBlockedNs, 0u);
  EXPECT_EQ(Profile.ContendedMonitors[0].MaxBlockedNs,
            Profile.ContendedMonitors[0].TotalBlockedNs);
  EXPECT_NE(Profile.summary().find("monitor"), std::string::npos);
}

TEST(TraceExportTest, WriteChromeJsonRoundTripsThroughDisk) {
  if (!kTraceCompiled)
    GTEST_SKIP() << "tracing compiled out (REN_TRACE_DISABLED)";
  TraceSession Session;
  Session.start();
  instant(EventKind::User, "disk.probe", 11, 22);
  Session.stop();
  const std::string Path = "/tmp/ren_trace_export_test.json";
  ASSERT_TRUE(Session.writeChromeJson(Path));
  FILE *F = std::fopen(Path.c_str(), "rb");
  ASSERT_NE(F, nullptr);
  std::string Text;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Text.append(Buf, N);
  std::fclose(F);
  std::remove(Path.c_str());
  Json Doc = parseOrDie(Text);
  bool Found = false;
  for (const Json &E : Doc.at("traceEvents").Arr)
    if (E.at("name").Str == "disk.probe")
      Found = true;
  EXPECT_TRUE(Found);
  EXPECT_FALSE(Session.writeChromeJson("/nonexistent-dir/x/y.json"));
}

TEST(TraceProfileTest, AggregatesSyntheticEventStream) {
  std::vector<TraceEvent> Events;
  auto Add = [&Events](EventKind K, Phase P, uint64_t Dur, uint64_t A,
                       uint64_t B, uint32_t Tid) {
    TraceEvent E;
    E.Ts = Events.size() + 1;
    E.Dur = Dur;
    E.A = A;
    E.B = B;
    E.Name = eventKindName(K);
    E.Kind = K;
    E.Ph = P;
    E.Tid = Tid;
    Events.push_back(E);
  };
  // Monitor 0x10: two contentions; monitor 0x20: one, but worse.
  Add(EventKind::MonitorContended, Phase::Complete, 100, 0x10, 0, 1);
  Add(EventKind::MonitorContended, Phase::Complete, 300, 0x10, 0, 2);
  Add(EventKind::MonitorContended, Phase::Complete, 5000, 0x20, 0, 1);
  Add(EventKind::MonitorAcquire, Phase::Instant, 0, 0x10, 0, 1);
  Add(EventKind::Park, Phase::Complete, 1 << 10, 0x30, 1, 2);
  Add(EventKind::Park, Phase::Complete, 1 << 10, 0x30, 1, 2);
  Add(EventKind::Park, Phase::Complete, 1 << 20, 0x30, 1, 2);
  Add(EventKind::CasFail, Phase::Instant, 0, 0x40, 0, 1);
  Add(EventKind::CasFail, Phase::Instant, 0, 0x40, 0, 1);
  Add(EventKind::CasFail, Phase::Instant, 0, 0x40, 0, 2);
  Add(EventKind::Bootstrap, Phase::Complete, 10, 0x50, 0, 1);
  Add(EventKind::FjFork, Phase::Instant, 0, 0, 0, 3);
  Add(EventKind::FjSteal, Phase::Instant, 0, 3, 4, 3);
  Add(EventKind::FjIdle, Phase::Complete, 700, 0, 0, 4);
  Add(EventKind::TaskRun, Phase::Complete, 50, 9, 0, 4);

  TraceProfile P = buildProfile(Events, 7);
  EXPECT_EQ(P.Events, Events.size());
  EXPECT_EQ(P.Dropped, 7u);
  // Worst monitor first (by total blocked time).
  ASSERT_EQ(P.ContendedMonitors.size(), 2u);
  EXPECT_EQ(P.ContendedMonitors[0].Monitor, 0x20u);
  EXPECT_EQ(P.ContendedMonitors[0].TotalBlockedNs, 5000u);
  EXPECT_EQ(P.ContendedMonitors[1].Monitor, 0x10u);
  EXPECT_EQ(P.ContendedMonitors[1].Contended, 2u);
  EXPECT_EQ(P.ContendedMonitors[1].TotalBlockedNs, 400u);
  EXPECT_EQ(P.ContendedMonitors[1].MaxBlockedNs, 300u);
  // Park histogram: three parks (two ~1us, one ~1ms). The median rank
  // lands in the low bucket, whose log-linear upper edge is 1055 (2^10
  // rounded up to the next 32nd of its power of two); the p99 lands in
  // the high one, whose edge is capped at the exact max.
  EXPECT_EQ(P.ParkLatency.count(), 3u);
  EXPECT_EQ(P.ParkNsTotal, (uint64_t(1) << 11) + (uint64_t(1) << 20));
  EXPECT_EQ(P.ParkLatency.maxValue(), uint64_t(1) << 20);
  EXPECT_EQ(P.ParkLatency.valueAtQuantile(0.5), 1055u);
  EXPECT_EQ(P.ParkLatency.valueAtQuantile(0.99), uint64_t(1) << 20);
  EXPECT_EQ(P.CasFailures, 3u);
  EXPECT_EQ(P.Bootstraps, 1u);
  EXPECT_EQ(P.TaskRuns, 1u);
  EXPECT_EQ(P.TaskQueueNsTotal, 9u);
  EXPECT_EQ(P.TaskQueueNsMax, 9u);
  // Worker activity: tid 3 forked once and stole once; tid 4 idled.
  bool Saw3 = false, Saw4 = false;
  for (const WorkerActivity &W : P.Workers) {
    if (W.Tid == 3) {
      Saw3 = true;
      EXPECT_EQ(W.Forks, 1u);
      EXPECT_EQ(W.Steals, 1u);
    }
    if (W.Tid == 4) {
      Saw4 = true;
      EXPECT_EQ(W.IdleParks, 1u);
      EXPECT_EQ(W.IdleNs, 700u);
      EXPECT_EQ(W.Stolen, 1u) << "steal victim attribution (B = victim)";
    }
  }
  EXPECT_TRUE(Saw3);
  EXPECT_TRUE(Saw4);
  EXPECT_EQ(P.KindCounts[static_cast<unsigned>(EventKind::CasFail)], 3u);
  std::string Summary = P.summary();
  EXPECT_NE(Summary.find("trace profile"), std::string::npos);
  EXPECT_NE(Summary.find("dropped"), std::string::npos);
}

TEST(TraceSessionTest, StartDiscardsStaleEventsAndStopIsIdempotent) {
  if (!kTraceCompiled)
    GTEST_SKIP() << "tracing compiled out (REN_TRACE_DISABLED)";
  // Events published while no session is collecting must not leak into a
  // later session's export.
  setEnabled(true);
  instant(EventKind::User, "stale.event", 1, 1);
  setEnabled(false);
  TraceSession Session;
  Session.start();
  instant(EventKind::User, "fresh.event", 2, 2);
  Session.stop();
  Session.stop(); // idempotent
  bool SawStale = false, SawFresh = false;
  for (const TraceEvent &E : Session.events()) {
    if (std::string(E.Name) == "stale.event")
      SawStale = true;
    if (std::string(E.Name) == "fresh.event")
      SawFresh = true;
  }
  EXPECT_FALSE(SawStale);
  EXPECT_TRUE(SawFresh);
  EXPECT_FALSE(enabled()) << "stop() must disable recording";
}
