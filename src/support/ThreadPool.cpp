//===- support/ThreadPool.cpp - Fixed worker thread pool ------------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "support/Trace.h"

using namespace ra;

unsigned ThreadPool::resolveJobs(unsigned Requested) {
  if (Requested != 0)
    return Requested;
  unsigned HW = std::thread::hardware_concurrency();
  return HW != 0 ? HW : 1;
}

ThreadPool::ThreadPool(unsigned NumThreads) {
  unsigned N = resolveJobs(NumThreads);
  Workers.reserve(N);
  for (unsigned I = 0; I < N; ++I)
    Workers.emplace_back([this, I] {
      trace::setCurrentThreadName("pool-worker-" + std::to_string(I));
      workerLoop();
    });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  WakeWorker.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WakeWorker.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // Stopping and drained.
      Task = std::move(Queue.front());
      Queue.pop();
    }
    Task();
  }
}
