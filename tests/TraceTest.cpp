//===- tests/TraceTest.cpp - tracing/metrics subsystem tests --------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The tracing subsystem's contracts: sessions collect spans / counters /
// instants from any thread; with no session active nothing is recorded
// and detail lambdas are never invoked; the normalized event log of an
// allocation is bit-identical at any worker count; and the golden files
// under tests/golden/ pin the normalized trace, the Chrome JSON shape
// (volatile fields masked), and the per-range metrics CSV for a canned
// input. Regenerate goldens with RA_UPDATE_GOLDEN=1.
//
//===----------------------------------------------------------------------===//

#include "ir/IRParser.h"
#include "regalloc/Allocator.h"
#include "service/AllocationService.h"
#include "support/Status.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <set>
#include <sstream>
#include <thread>

using namespace ra;

namespace {

std::string testsDir() { return RA_TESTS_DIR; }

std::string readFile(const std::string &Path, bool &Ok) {
  std::ifstream In(Path);
  Ok = bool(In);
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

/// Compares \p Actual against the golden file \p Name; with
/// RA_UPDATE_GOLDEN set, rewrites the golden instead.
void compareGolden(const std::string &Name, const std::string &Actual) {
  std::string Path = testsDir() + "/golden/" + Name;
  if (std::getenv("RA_UPDATE_GOLDEN")) {
    std::ofstream Out(Path);
    ASSERT_TRUE(Out) << "cannot write " << Path;
    Out << Actual;
    return;
  }
  bool Ok = false;
  std::string Expected = readFile(Path, Ok);
  ASSERT_TRUE(Ok) << Path
                  << " missing — regenerate with RA_UPDATE_GOLDEN=1";
  EXPECT_EQ(Expected, Actual) << "golden mismatch for " << Name
                              << " — regenerate with RA_UPDATE_GOLDEN=1 "
                                 "if the change is intended";
}

/// The normalizing comparator for machine-readable dumps: masks the
/// volatile fields (timestamps, durations, thread ids) with '_' so only
/// the deterministic structure is compared.
std::string maskVolatile(std::string S) {
  for (const char *Key : {"\"ts\":", "\"dur\":", "\"tid\":"}) {
    size_t Pos = 0;
    while ((Pos = S.find(Key, Pos)) != std::string::npos) {
      Pos += std::strlen(Key);
      size_t End = Pos;
      while (End < S.size() &&
             (std::isdigit(static_cast<unsigned char>(S[End])) ||
              S[End] == '.'))
        ++End;
      S.replace(Pos, End - Pos, "_");
      ++Pos;
    }
  }
  return S;
}

/// Parses the canned golden input and allocates it under a session on a
/// cache-off service with \p Workers pool threads, returning the
/// collected log (and the metrics CSV when requested).
trace::SessionLog tracedAllocation(unsigned Workers,
                                   std::string *MetricsCsv = nullptr) {
  bool Ok = false;
  std::string Input = readFile(testsDir() + "/golden/trace_input.ral", Ok);
  EXPECT_TRUE(Ok) << "missing tests/golden/trace_input.ral";

  Module M;
  std::string Error;
  EXPECT_TRUE(parseModule(Input, M, Error)) << Error;

  AllocatorConfig C;
  C.Machine = MachineInfo(4, 2); // tight: the canned loop must spill
  C.Audit = true; // pin the AllocationAudit span independent of RA_AUDIT
  C.CollectMetrics = MetricsCsv != nullptr;

  service::ServiceConfig SC;
  SC.CacheEnabled = false;
  SC.Workers = Workers;
  service::AllocationService Svc(SC);
  service::ModuleAllocationResult MA;
  std::vector<uint8_t> Hits;
  trace::beginSession();
  Svc.allocateParsed(M, C, /*Optimize=*/false, /*UseCache=*/false, MA, Hits);
  trace::SessionLog Log = trace::endSession();

  for (const AllocationResult &A : MA.Functions)
    EXPECT_TRUE(A.Success) << A.Diag.toString();
  if (MetricsCsv) {
    *MetricsCsv = metricsCsvHeader();
    for (unsigned I = 0; I < M.numFunctions(); ++I)
      appendMetricsCsv(*MetricsCsv, M.function(I).name(),
                       MA.Functions[I].Metrics);
  }
  return Log;
}

//===--------------------------------------------------------------------===//
// Core collection semantics.
//===--------------------------------------------------------------------===//

TEST(Trace, SessionCollectsSpansCountersAndInstants) {
  trace::beginSession();
  {
    RA_TRACE_SPAN("Phase", "test", [] { return std::string("k=1"); });
    RA_TRACE_COUNTER("test.bumps", 2);
    RA_TRACE_COUNTER("test.bumps", 3);
    RA_TRACE_INSTANT("Marker", "test");
  }
  trace::SessionLog Log = trace::endSession();

  ASSERT_EQ(Log.Events.size(), 4u);
  EXPECT_EQ(Log.counter("test.bumps"), 5.0);
  EXPECT_EQ(Log.counter("never.bumped"), 0.0);

  unsigned Spans = 0, Counters = 0, Instants = 0;
  for (const trace::Event &E : Log.Events) {
    switch (E.Kind) {
    case trace::EventKind::Span:
      ++Spans;
      EXPECT_STREQ(E.Name, "Phase");
      EXPECT_EQ(E.Detail, "k=1");
      break;
    case trace::EventKind::Counter:
      ++Counters;
      break;
    case trace::EventKind::Instant:
      ++Instants;
      break;
    case trace::EventKind::ThreadName:
      break;
    }
  }
  EXPECT_EQ(Spans, 1u);
  EXPECT_EQ(Counters, 2u);
  EXPECT_EQ(Instants, 1u);
}

TEST(Trace, NoSessionRecordsNothingAndSkipsDetailLambdas) {
  ASSERT_FALSE(trace::enabled());
  bool DetailBuilt = false;
  {
    RA_TRACE_SPAN("Phase", "test", [&] {
      DetailBuilt = true;
      return std::string("expensive");
    });
    RA_TRACE_COUNTER("test.off", 1);
  }
  EXPECT_FALSE(DetailBuilt) << "detail lambda ran with tracing off";

  trace::beginSession();
  trace::SessionLog Log = trace::endSession();
  EXPECT_TRUE(Log.Events.empty())
      << "events recorded outside a session leaked into the next one";
}

TEST(Trace, SecondSessionStartsEmpty) {
  trace::beginSession();
  RA_TRACE_COUNTER("test.stale", 7);
  (void)trace::endSession();

  trace::beginSession();
  trace::SessionLog Log = trace::endSession();
  EXPECT_TRUE(Log.Events.empty());
  EXPECT_EQ(Log.counter("test.stale"), 0.0);
}

TEST(Trace, CountersAggregateAcrossThreads) {
  trace::beginSession();
  std::vector<std::thread> Threads;
  for (int T = 0; T < 4; ++T)
    Threads.emplace_back([] {
      for (int I = 0; I < 100; ++I)
        RA_TRACE_COUNTER("test.parallel", 1);
    });
  for (std::thread &T : Threads)
    T.join();
  trace::SessionLog Log = trace::endSession();
  EXPECT_EQ(Log.counter("test.parallel"), 400.0);
  EXPECT_EQ(Log.Events.size(), 400u);
}

TEST(Trace, PoolWorkersStartedBeforeASessionAreNamedInIt) {
  // A long-lived pool (the allocation service's) starts its workers
  // before any session: each worker's name must still lead its events
  // in every later session, and in no session where it recorded nothing.
  ThreadPool Pool(2);
  for (int Session = 0; Session < 2; ++Session) {
    trace::beginSession();
    std::vector<std::future<void>> Pending;
    for (int I = 0; I < 8; ++I)
      Pending.push_back(Pool.submit([] { RA_TRACE_INSTANT("Work", "test"); }));
    for (std::future<void> &F : Pending)
      F.get();
    trace::SessionLog Log = trace::endSession();
    std::set<uint32_t> Recording, Named;
    for (const trace::Event &E : Log.Events) {
      if (E.Kind == trace::EventKind::ThreadName) {
        EXPECT_EQ(E.Detail.rfind("pool-worker-", 0), 0u) << E.Detail;
        EXPECT_TRUE(Named.insert(E.Tid).second) << "named twice";
      } else {
        Recording.insert(E.Tid);
      }
    }
    EXPECT_EQ(Named, Recording) << "session " << Session;
  }
}

TEST(Trace, ScopedContextNestsAndRestores) {
  trace::beginSession();
  EXPECT_EQ(trace::ScopedContext::current(), "");
  {
    trace::ScopedContext Outer(std::string("@outer"));
    EXPECT_EQ(trace::ScopedContext::current(), "@outer");
    {
      trace::ScopedContext Inner(std::string("@outer/helper"));
      RA_TRACE_INSTANT("Inside", "test");
      EXPECT_EQ(trace::ScopedContext::current(), "@outer/helper");
    }
    EXPECT_EQ(trace::ScopedContext::current(), "@outer");
  }
  EXPECT_EQ(trace::ScopedContext::current(), "");
  trace::SessionLog Log = trace::endSession();
  ASSERT_EQ(Log.Events.size(), 1u);
  EXPECT_EQ(Log.Events[0].Ctx, "@outer/helper");
}

TEST(Trace, SpanCloseIsIdempotent) {
  trace::beginSession();
  {
    RA_TRACE_SPAN_NAMED(S, "Phase", "test");
    S.close();
    S.close(); // second close must not double-record
  }
  trace::SessionLog Log = trace::endSession();
  EXPECT_EQ(Log.Events.size(), 1u);
}

//===--------------------------------------------------------------------===//
// Pipeline instrumentation: every phase shows up, and the normalized
// log is invariant under the worker count.
//===--------------------------------------------------------------------===//

TEST(Trace, PipelineEmitsAllPhaseSpans) {
  trace::SessionLog Log = tracedAllocation(/*Workers=*/1);
  auto HasSpan = [&](const char *Name) {
    for (const trace::Event &E : Log.Events)
      if (E.Kind == trace::EventKind::Span && !std::strcmp(E.Name, Name))
        return true;
    return false;
  };
  for (const char *Phase :
       {"BuildGraph", "Coalesce", "SpillCost", "Simplify", "Select",
        "SpillInserter", "AllocationAudit", "AllocateFunction", "Build",
        "Pass", "Renumber", "Liveness", "ModuleAlloc"})
    EXPECT_TRUE(HasSpan(Phase)) << "missing span " << Phase;
  EXPECT_GT(Log.counter("coloring.spilled"), 0.0)
      << "canned input must spill at int=4";
}

TEST(Trace, NormalizedLogIdenticalAtAnyJobCount) {
  std::string Serial = trace::normalizedLog(tracedAllocation(1));
  std::string Parallel4 = trace::normalizedLog(tracedAllocation(4));
  std::string Parallel7 = trace::normalizedLog(tracedAllocation(7));
  EXPECT_EQ(Serial, Parallel4);
  EXPECT_EQ(Serial, Parallel7);
}

TEST(Trace, EventsCarryFunctionContext) {
  trace::SessionLog Log = tracedAllocation(/*Workers=*/2);
  bool SawHot = false, SawTiny = false;
  for (const trace::Event &E : Log.Events) {
    if (E.Ctx == "@hot")
      SawHot = true;
    if (E.Ctx == "@tiny")
      SawTiny = true;
  }
  EXPECT_TRUE(SawHot);
  EXPECT_TRUE(SawTiny);
}

/// A recorded span and the index of the span it sits directly under
/// (-1 at the root). Spans nest by time within one stream.
struct SpanNode {
  const trace::Event *E;
  int Parent;
};

std::vector<SpanNode> spanTree(const trace::SessionLog &Log) {
  // Outer spans first: by start, then longer first; a tie goes to the
  // later record, since a span is recorded when it closes.
  std::vector<size_t> Order;
  for (size_t I = 0; I < Log.Events.size(); ++I)
    if (Log.Events[I].Kind == trace::EventKind::Span)
      Order.push_back(I);
  std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    const trace::Event &X = Log.Events[A], &Y = Log.Events[B];
    if (X.Tid != Y.Tid)
      return X.Tid < Y.Tid;
    if (X.StartNs != Y.StartNs)
      return X.StartNs < Y.StartNs;
    if (X.DurNs != Y.DurNs)
      return X.DurNs > Y.DurNs;
    return A > B;
  });
  std::vector<SpanNode> Tree;
  std::vector<int> Open;
  for (size_t I : Order) {
    const trace::Event &E = Log.Events[I];
    while (!Open.empty()) {
      const trace::Event &Top = *Tree[Open.back()].E;
      if (Top.Tid == E.Tid && E.StartNs + E.DurNs <= Top.StartNs + Top.DurNs)
        break;
      Open.pop_back();
    }
    Tree.push_back({&E, Open.empty() ? -1 : Open.back()});
    Open.push_back(int(Tree.size()) - 1);
  }
  return Tree;
}

TEST(Trace, BuildTimeIsAttributedOnFigure5Suite) {
  // Every millisecond of a pass's Build phase belongs to a named child
  // span, and the class graphs are built once per coloring pass: the
  // coalescer's own graphs are part of its CoalesceRound, not a second
  // BuildGraph. One session per routine keeps each session's event
  // buffer small. Coverage is checked over the suite's total Build
  // time, not span by span: the tracer itself spends a fraction of a
  // microsecond between two spans (more under a sanitizer), which in
  // the 20 us Build of a small routine is several percent of tracer,
  // not of allocator.
  AllocatorConfig C;
  unsigned Builds = 0;
  uint64_t BuildNs = 0, CoveredNs = 0;
  for (const Workload &W : allWorkloads()) {
    Module M;
    Function &F = W.Build(M);
    trace::beginSession();
    AllocationResult A = allocateRegisters(F, C);
    trace::SessionLog Log = trace::endSession();
    ASSERT_TRUE(A.Success) << W.Routine << ": " << A.Diag.toString();
    std::vector<SpanNode> Tree = spanTree(Log);

    auto Is = [&](int N, const char *Name) {
      return !std::strcmp(Tree[N].E->Name, Name);
    };
    std::vector<uint64_t> ChildNs(Tree.size(), 0);
    std::vector<unsigned> BuildGraphs(Tree.size(), 0);
    for (int N = 0; N < int(Tree.size()); ++N) {
      if (Tree[N].Parent != -1)
        ChildNs[Tree[N].Parent] += Tree[N].E->DurNs;
      if (!Is(N, "BuildGraph"))
        continue;
      ASSERT_NE(Tree[N].Parent, -1) << W.Routine;
      ++BuildGraphs[Tree[N].Parent];
      for (int P = Tree[N].Parent; P != -1; P = Tree[P].Parent)
        EXPECT_FALSE(Is(P, "CoalesceRound")) << W.Routine;
    }
    for (int N = 0; N < int(Tree.size()); ++N) {
      if (!Is(N, "Build"))
        continue;
      ++Builds;
      EXPECT_EQ(BuildGraphs[N], 1u) << W.Routine;
      BuildNs += Tree[N].E->DurNs;
      CoveredNs += ChildNs[N];
    }
  }
  EXPECT_GE(Builds, allWorkloads().size());
  EXPECT_GE(double(CoveredNs), 0.95 * double(BuildNs))
      << "children cover " << CoveredNs << " of " << BuildNs << " ns";
}

//===--------------------------------------------------------------------===//
// Golden files.
//===--------------------------------------------------------------------===//

TEST(TraceGolden, NormalizedLogMatchesGolden) {
  compareGolden("trace_normalized.golden",
                trace::normalizedLog(tracedAllocation(/*Workers=*/1)));
}

TEST(TraceGolden, ChromeJsonMatchesGoldenModuloVolatileFields) {
  std::string Json = trace::toChromeJson(tracedAllocation(/*Workers=*/1));
  EXPECT_NE(Json.find("\"traceEvents\":["), std::string::npos);
  compareGolden("trace_chrome.golden", maskVolatile(Json));
}

TEST(TraceGolden, MetricsCsvMatchesGolden) {
  std::string Csv;
  (void)tracedAllocation(/*Workers=*/1, &Csv);
  compareGolden("metrics.golden", Csv);
}

//===--------------------------------------------------------------------===//
// JSON writer error paths.
//===--------------------------------------------------------------------===//

TEST(Trace, WriteChromeJsonRoundTripsThroughDisk) {
  trace::beginSession();
  RA_TRACE_INSTANT("Only", "test");
  trace::SessionLog Log = trace::endSession();

  std::string Path = ::testing::TempDir() + "trace_roundtrip.json";
  Status S = trace::writeChromeJson(Path, Log);
  ASSERT_TRUE(S.ok()) << S.toString();
  bool Ok = false;
  std::string OnDisk = readFile(Path, Ok);
  ASSERT_TRUE(Ok);
  EXPECT_EQ(OnDisk, trace::toChromeJson(Log));
  std::remove(Path.c_str());
}

} // namespace
