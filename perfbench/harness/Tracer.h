//===- perfbench/harness/Tracer.h - In-memory span recorder ----*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own tracer. Spans are opened and closed by the
/// harness around its calls into the allocator's public functions —
/// nothing inside src/ is instrumented. Each span records its name,
/// start, end, parent span and the id of the op it belongs to; spans
/// stay in memory until the run ends and writes them out.
///
/// A tracer can instead stream spans as text lines to a file descriptor,
/// one line when a span opens and one when it closes. Worker processes
/// do that, so the parent still learns which spans were open when a
/// worker died.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACER_H
#define PERFBENCH_TRACER_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

/// Nanoseconds on the system-wide monotonic clock (shared by worker
/// processes, so their span times line up with the parent's).
inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  std::string Name; ///< "<module>.<call>", e.g. "regalloc.coalesce".
  int64_t Id = 0;
  int64_t Parent = -1; ///< -1 for a root span.
  uint64_t Op = 0;     ///< Op id.
  int64_t StartNs = 0, EndNs = 0;
};

/// What the parent keeps while importing one worker's stream.
struct StreamImport {
  std::map<int64_t, int64_t> Ids;     ///< Worker span id -> ours.
  std::map<int64_t, SpanRecord> Open; ///< Opened, not yet closed (ours).
};

class Tracer {
public:
  /// A disabled tracer records nothing and every call is a cheap no-op.
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }

  /// Streams spans and counters to \p Fd as text lines instead of
  /// keeping them (see importLine).
  void streamTo(int Fd) { StreamFd = Fd; }

  int64_t newId() { return NextId.fetch_add(1, std::memory_order_relaxed); }
  void opened(const SpanRecord &S);
  void closed(SpanRecord S);

  /// Adds \p V to the run-wide counter \p Name.
  void count(const std::string &Name, double V);

  /// Takes in one line written by a streaming tracer, renumbering its
  /// span ids into this tracer's. Returns false for a line that is not a
  /// span or counter.
  bool importLine(const std::string &Line, StreamImport &In);

  /// Ends, at \p EndNs, the spans of a stream whose process died with
  /// them still open.
  void closeDangling(StreamImport &In, int64_t EndNs);

  std::vector<SpanRecord> spans() const;
  std::map<std::string, double> counters() const;

  /// Self time per span name in nanoseconds: each span's duration minus
  /// the part of its interval covered by its child spans.
  std::map<std::string, double> selfTimeNs() const;

  /// Summed duration per span name in nanoseconds, children included.
  std::map<std::string, double> totalTimeNs() const;

  /// Writes every span and counter as JSON. Returns false on I/O error.
  bool writeJson(const std::string &Path) const;

private:
  bool Enabled;
  int StreamFd = -1;
  std::atomic<int64_t> NextId{1};
  mutable std::mutex Mu;
  std::vector<SpanRecord> Spans;
  std::map<std::string, double> Counters;
};

/// RAII span. Pass the enclosing span as \p Parent (nullptr for a root).
class Span {
public:
  Span(Tracer &T, const char *Name, uint64_t Op, const Span *Parent)
      : T(T) {
    if (!T.enabled())
      return;
    R.Name = Name;
    R.Id = T.newId();
    R.Parent = Parent ? Parent->R.Id : -1;
    R.Op = Op;
    R.StartNs = nowNs();
    T.opened(R);
  }
  ~Span() { close(); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Ends the span early (idempotent).
  void close() {
    if (!T.enabled() || Closed)
      return;
    Closed = true;
    R.EndNs = nowNs();
    T.closed(R);
  }

private:
  Tracer &T;
  SpanRecord R;
  bool Closed = false;
};

} // namespace pb

#endif // PERFBENCH_TRACER_H
