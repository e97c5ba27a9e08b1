//===- regalloc/ModuleAlloc.cpp - Whole-module parallel allocation --------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The paper measures whole FORTRAN modules; this driver allocates every
// function of a module, farming functions out across a fixed thread
// pool. Each function is an independent allocation unit (allocateRegisters
// mutates only its own Function; the Module's arrays and function table
// are read-only during allocation), so any worker count produces
// bit-identical output: futures are collected in function order.
//
//===----------------------------------------------------------------------===//

#include "regalloc/Allocator.h"

#include "ir/Module.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <future>
#include <vector>

using namespace ra;

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

} // namespace

ModuleAllocationResult ra::allocateModule(Module &M,
                                          const AllocatorConfig &C) {
  ModuleAllocationResult Result;
  Result.Functions.resize(M.numFunctions());
  Timer Wall;
  Wall.start();

  unsigned Jobs = ThreadPool::resolveJobs(C.Jobs);
  // Scheduling events go in the "sched" category: they describe how work
  // landed on workers, which varies with --jobs, so normalizedLog drops
  // them while trace viewers still show the fan-out.
  RA_TRACE_SPAN("ModuleAlloc", "sched", [&] {
    return "functions=" + std::to_string(M.numFunctions()) +
           ";jobs=" + std::to_string(Jobs);
  });
  if (Jobs <= 1 || M.numFunctions() <= 1) {
    for (unsigned I = 0; I < M.numFunctions(); ++I) {
      Function &F = M.function(I);
      Result.Functions[I] =
          collectOne(F, C, [&] { return allocateRegisters(F, C); });
    }
  } else {
    ThreadPool Pool(Jobs);
    std::vector<std::future<AllocationResult>> Pending;
    Pending.reserve(M.numFunctions());
    for (unsigned I = 0; I < M.numFunctions(); ++I) {
      Function &F = M.function(I);
      if (trace::enabled())
        RA_TRACE_INSTANT("TaskQueued", "sched", "@" + F.name());
      Pending.push_back(Pool.submit([&F, &C] {
        return allocateRegisters(F, C);
      }));
    }
    for (unsigned I = 0; I < M.numFunctions(); ++I) {
      RA_TRACE_SPAN("CollectFunction", "sched",
                    [&] { return "@" + M.function(I).name(); });
      Result.Functions[I] =
          collectOne(M.function(I), C, [&] { return Pending[I].get(); });
    }
  }

  Wall.stop();
  Result.WallSeconds = Wall.seconds();
  return Result;
}
