//===- service/AllocationService.cpp - Allocation as a service ------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "service/AllocationService.h"

#include "ir/IRParser.h"
#include "ir/Verifier.h"
#include "opt/Optimizer.h"
#include "service/ContentHash.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <future>

using namespace ra;
using namespace ra::service;

namespace {

/// Converts a worker exception into a Failed result for just that
/// function. std::packaged_task stores anything the task throws in its
/// future, so \c Get rethrows here on the collecting thread — one
/// throwing function must not crash or hang the whole module.
template <typename GetT>
AllocationResult collectOne(const Function &F, const AllocatorConfig &C,
                            GetT Get) {
  try {
    return Get();
  } catch (const std::exception &E) {
    AllocationResult R;
    R.Machine = C.Machine;
    R.Diag = Status::error(StatusCode::WorkerError, E.what())
                 .addContext("allocating @" + F.name());
    return R;
  } catch (...) {
    AllocationResult R;
    R.Machine = C.Machine;
    R.Diag = Status::error(StatusCode::WorkerError,
                           "worker threw a non-standard exception")
                 .addContext("allocating @" + F.name());
    return R;
  }
}

/// Optimize-then-allocate for one cache miss. Optimization happens
/// inside the work unit (not up front as the old rac driver did) so a
/// hit skips it too; functions are independent, so the result is
/// identical either way.
AllocationResult allocateMiss(Function &F, const AllocatorConfig &C,
                              bool Optimize) {
  if (Optimize)
    optimizeFunction(F);
  return allocateRegisters(F, C);
}

} // namespace

AllocationService::AllocationService(const ServiceConfig &SC)
    : SC(SC), Cache(SC.CacheEnabled ? SC.CacheMaxEntries : 0,
                    SC.CacheEnabled ? SC.CacheMaxBytes : 0),
      Pool(ThreadPool::resolveJobs(SC.Workers)) {}

ServiceReply AllocationService::run(const ServiceRequest &R) {
  Requests.fetch_add(1, std::memory_order_relaxed);
  RA_TRACE_SPAN("ServiceRequest", "service", [&] {
    return "bytes=" + std::to_string(R.Source.size());
  });
  ServiceReply Reply;
  Reply.M = std::make_unique<Module>();

  std::string Error;
  if (!parseModule(R.Source, *Reply.M, Error)) {
    Reply.S = Status::error(StatusCode::ParseError, Error);
    Reply.M.reset();
    return Reply;
  }

  auto Errors = verifyModule(*Reply.M);
  if (!Errors.empty()) {
    // Shaped exactly as the rac CLI has always reported it.
    Reply.S = Status::error(StatusCode::VerifyError, Errors.front());
    if (Errors.size() > 1)
      Reply.S.addContext(std::to_string(Errors.size()) +
                         " verifier errors, first");
    Reply.M.reset();
    return Reply;
  }

  allocateParsed(*Reply.M, R.Alloc, R.Optimize, R.UseCache, Reply.MA,
                 Reply.CacheHit);
  return Reply;
}

void AllocationService::allocateParsed(Module &M, const AllocatorConfig &C,
                                       bool Optimize, bool UseCache,
                                       ModuleAllocationResult &MA,
                                       std::vector<uint8_t> &CacheHit) {
  const unsigned N = M.numFunctions();
  MA.Functions.clear();
  MA.Functions.resize(N);
  CacheHit.assign(N, 0);

  Timer Wall;
  Wall.start();
  // Scheduling events go in the "sched" category: they describe how work
  // landed on workers, which varies with the pool width, so normalizedLog
  // drops them while trace viewers still show the fan-out.
  RA_TRACE_SPAN("ModuleAlloc", "sched", [&] {
    return "functions=" + std::to_string(N) +
           ";jobs=" + std::to_string(Pool.numThreads());
  });

  const bool Cacheable =
      SC.CacheEnabled && UseCache && cacheableConfig(C);

  // Phase 1: cache probe. Hit = substitute the memoized rewritten
  // function (deep copy) and result; the Build->Select work — ~97% of
  // allocation time — never runs.
  std::vector<std::string> Keys(N);
  std::vector<unsigned> Misses;
  Misses.reserve(N);
  for (unsigned I = 0; I < N; ++I) {
    if (Cacheable) {
      Keys[I] = canonicalFunctionKey(M, M.function(I), C, Optimize);
      AllocCache::Value V;
      if (Cache.lookup(Keys[I], V)) {
        M.function(I) = std::move(V.F);
        MA.Functions[I] = std::move(V.A);
        CacheHit[I] = 1;
        continue;
      }
    }
    Misses.push_back(I);
  }

  // Phase 2: allocate the misses — on this thread when there is nothing
  // to overlap, otherwise on the shared pool. Each function is an
  // independent allocation unit (allocateRegisters mutates only its own
  // Function; the module's arrays and function table are read-only), and
  // results are collected in function order, so the output is
  // bit-identical at any pool width.
  if (Pool.numThreads() <= 1 || Misses.size() <= 1) {
    for (unsigned I : Misses) {
      Function &F = M.function(I);
      MA.Functions[I] =
          collectOne(F, C, [&] { return allocateMiss(F, C, Optimize); });
    }
  } else {
    std::vector<std::future<AllocationResult>> Pending;
    Pending.reserve(Misses.size());
    for (unsigned I : Misses) {
      Function &F = M.function(I);
      if (trace::enabled())
        RA_TRACE_INSTANT("TaskQueued", "sched", "@" + F.name());
      Pending.push_back(Pool.submit(
          [&F, &C, Optimize] { return allocateMiss(F, C, Optimize); }));
    }
    for (size_t J = 0; J < Misses.size(); ++J) {
      Function &F = M.function(Misses[J]);
      RA_TRACE_SPAN("CollectFunction", "sched",
                    [&] { return "@" + F.name(); });
      MA.Functions[Misses[J]] =
          collectOne(F, C, [&] { return Pending[J].get(); });
    }
  }

  // Phase 3: memoize fresh Converged results. Degraded and Failed
  // outcomes are wall-clock-dependent (or broken) and never cached.
  if (Cacheable)
    for (unsigned I : Misses)
      if (MA.Functions[I].Outcome == AllocOutcome::Converged) {
        AllocCache::Value V;
        V.F = M.function(I);
        V.A = MA.Functions[I];
        Cache.insert(Keys[I], V);
      }

  Wall.stop();
  MA.WallSeconds = Wall.seconds();
}
