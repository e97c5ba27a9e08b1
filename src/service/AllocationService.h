//===- service/AllocationService.h - Allocation as a service ---*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The library-level allocation driver behind both the rac CLI and the
/// racd daemon: parse -> verify -> (optimize) -> allocate every
/// function, with a content-addressed AllocCache in front of the
/// Build->Select work. One AllocationService instance serves any number
/// of requests, from any number of threads, sharing one ThreadPool and
/// one cache:
///
///  * a cache HIT substitutes the memoized rewritten function (a deep
///    copy) and its AllocationResult into the request's module —
///    byte-identical to the cold run and skipping renumber/build/
///    simplify/select/spill/audit entirely;
///  * a MISS allocates on the shared pool (function order preserved,
///    a worker exception converted to a WorkerError result for just its
///    function) and, when the result Converged under a cacheable config,
///    inserts it for the next request.
///
/// This is the only place a module's functions reach worker threads:
/// the allocator layer below is single-threaded per function, and the
/// pool width (ServiceConfig::Workers) is the one parallelism knob.
///
/// Only Converged results are memoized: Degraded outcomes depend on
/// when a deadline tripped, which is wall-clock state, not content.
/// Per-request resource governance (AllocatorConfig::DeadlineSeconds /
/// MemoryBudgetBytes) rides through unchanged — each function arms its
/// own Budget inside allocateRegisters, so one abusive request degrades
/// only itself while its pool-mates proceed.
///
//===----------------------------------------------------------------------===//

#ifndef RA_SERVICE_ALLOCATIONSERVICE_H
#define RA_SERVICE_ALLOCATIONSERVICE_H

#include "ir/Module.h"
#include "regalloc/Allocator.h"
#include "service/AllocCache.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ra {
namespace service {

/// Construction-time configuration of one service instance.
struct ServiceConfig {
  bool CacheEnabled = true;
  uint64_t CacheMaxEntries = 1u << 16; ///< 0 = unbounded.
  uint64_t CacheMaxBytes = 256ull << 20; ///< 0 = unbounded.
  /// Pool width for miss allocation; 0 = one per hardware thread, 1 =
  /// every request allocates serially on its calling thread. Output is
  /// bit-identical at any width.
  unsigned Workers = 0;
};

/// Result of allocating every function of a module.
struct ModuleAllocationResult {
  /// Per-function results, in module function order regardless of the
  /// order worker threads finished in.
  std::vector<AllocationResult> Functions;
  /// Wall-clock seconds for the whole module (all functions, all
  /// workers) — the denominator of the bench JSON's graphs/sec.
  double WallSeconds = 0;

  bool allSucceeded() const {
    for (const AllocationResult &R : Functions)
      if (!R.Success)
        return false;
    return true;
  }

  /// Functions that fell back to spill-everything.
  unsigned numDegraded() const {
    unsigned N = 0;
    for (const AllocationResult &R : Functions)
      N += R.Outcome == AllocOutcome::Degraded;
    return N;
  }
};

/// One allocation request: a textual IR module plus the per-request
/// allocation configuration.
struct ServiceRequest {
  std::string Source;
  AllocatorConfig Alloc;
  bool Optimize = true;
  /// Per-request cache opt-out (the service-level CacheEnabled switch
  /// still wins).
  bool UseCache = true;
};

/// Everything one request produced. When S is not ok (parse/verify
/// failure) the other fields are empty.
struct ServiceReply {
  Status S;
  /// The allocated (rewritten) module; functions served from the cache
  /// are substituted clones.
  std::unique_ptr<Module> M;
  ModuleAllocationResult MA;
  /// Per-function: 1 when served from the cache.
  std::vector<uint8_t> CacheHit;

  unsigned numHits() const {
    unsigned N = 0;
    for (uint8_t H : CacheHit)
      N += H;
    return N;
  }
};

class AllocationService {
public:
  explicit AllocationService(const ServiceConfig &SC = {});

  /// Processes one textual-IR request end to end. Parse and verifier
  /// failures come back as ParseError / VerifyError statuses shaped
  /// exactly as the rac CLI has always reported them (golden-tested).
  ServiceReply run(const ServiceRequest &R);

  /// The module-level core for callers that already hold a parsed,
  /// verified module: optimizes + allocates every function of \p M in
  /// place, filling \p MA and the per-function \p CacheHit flags.
  /// Cache misses run on the calling thread when the pool has one worker
  /// or at most one function missed; otherwise they fan out across the
  /// pool. Either way the result is bit-identical to allocating each
  /// function serially in module order, and a function whose allocation
  /// throws comes back Failed with a WorkerError status while its
  /// siblings allocate normally.
  void allocateParsed(Module &M, const AllocatorConfig &C, bool Optimize,
                      bool UseCache, ModuleAllocationResult &MA,
                      std::vector<uint8_t> &CacheHit);

  CacheStats cacheStats() const { return Cache.stats(); }
  void clearCache() { Cache.clear(); }
  uint64_t requestsServed() const {
    return Requests.load(std::memory_order_relaxed);
  }
  unsigned poolWidth() const { return Pool.numThreads(); }

private:
  ServiceConfig SC;
  AllocCache Cache;
  ThreadPool Pool;
  std::atomic<uint64_t> Requests{0};
};

} // namespace service
} // namespace ra

#endif // RA_SERVICE_ALLOCATIONSERVICE_H
