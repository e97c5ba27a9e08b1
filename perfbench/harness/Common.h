//===- perfbench/harness/Common.h - Shared harness types -------*- C++ -*-===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types shared by the benchmark's workloads: run options, per-op
/// records, the tallies a timed phase accumulates, and the metric list
/// each workload hands back for the result line.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "Tracer.h"

#include <cstdint>
#include <string>
#include <vector>

namespace pb {

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string OutDir = ".bench_out"; ///< Trace files and result records.
};

/// One named metric of the result line.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// What a workload run hands back to main().
struct WorkloadResult {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  /// Human-readable notes for the result record (percentile used,
  /// failure reasons, ...).
  std::vector<std::string> Notes;

  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
};

/// Tallies of one timed phase.
struct PhaseTally {
  uint64_t Attempted = 0;
  uint64_t Succeeded = 0; ///< Usable result (Converged or Degraded) that
                          ///< passed every check.
  uint64_t Converged = 0; ///< Succeeded with a Converged outcome.
  uint64_t Degraded = 0;
  uint64_t Failed = 0;
  uint64_t Wrong = 0;     ///< Failed because an output was wrong.
  uint64_t Ranges = 0;    ///< First-pass live ranges of succeeded ops.
  double TimedSeconds = 0;  ///< fig5/mega: summed op times.
  std::vector<double> OpMs; ///< Latencies the percentiles are taken over.

  /// The phase cut into consecutive windows (a pass over the inputs, or
  /// a second of service traffic). Rates are medians over windows, so a
  /// burst of interference on the host moves them less than a total
  /// would.
  struct Window {
    double Seconds = 0;
    uint64_t Succeeded = 0, Ranges = 0;
  };
  std::vector<Window> Windows;

  double opsPerSecond() const;
  double rangesPerSecond() const;
  /// Adds \p O's counts, latencies and windows to this tally.
  void merge(const PhaseTally &O);
};

/// Median of \p V (0 when empty).
double median(std::vector<double> V);

/// The q-quantile of \p V by linear interpolation, q in [0, 1].
double quantile(std::vector<double> V, double Q);

/// Samples strictly above the q-quantile of \p V.
size_t samplesAbove(const std::vector<double> &V, double Q);

/// Peak resident set (VmHWM) of process \p Pid in MiB, or of this
/// process when \p Pid is 0; 0 when it cannot be read. Unlike
/// getrusage's maxrss it does not include what an exec'ing parent held.
double peakRssMb(int Pid = 0);

/// Prints "perfbench: <msg>" to stderr.
void note(const char *Fmt, ...) __attribute__((format(printf, 1, 2)));

/// Code-quality totals over a workload's inputs; they repeat exactly.
struct Deterministic {
  uint64_t Spills = 0;
  double SpillCost = 0;
  uint64_t Cycles = 0;
  uint64_t CodeInstrs = 0;
};

/// The end-to-end metrics every workload reports, computed from the
/// timed phase \p T. \p TailQ is the tail percentile fixed for the
/// workload (1.0 = maximum).
void addEndToEnd(WorkloadResult &R, const PhaseTally &T, double SetupSeconds,
                 double TailQ, double PeakRssMb, const Deterministic &D);

/// Per-layer metrics every traced run reports. Each workload fills the
/// ones it exercises; the rest are reported as 0.
const std::vector<std::pair<std::string, std::string>> &perLayerMetricNames();

/// Fills the per-layer metrics of a traced run: \p Ops traced ops, the
/// tracer's self times and counters, the untraced phase for the
/// overhead ratio, and \p Extra values (by name) computed by the
/// workload. Names absent everywhere read 0.
void addPerLayer(WorkloadResult &R, const Tracer &T, uint64_t Ops,
                 const PhaseTally &Untraced, const PhaseTally &Traced,
                 const std::vector<Metric> &Extra);

WorkloadResult runFig5(const RunOptions &O);
WorkloadResult runMega(const RunOptions &O);
WorkloadResult runService(const RunOptions &O);

/// Worker-process entry of fig5 and mega: builds the inputs \p Items,
/// allocates each once (op ids from \p OpBase) and reports on stdout.
int runAllocWorker(const RunOptions &O, const std::vector<size_t> &Items,
                   uint64_t OpBase);

} // namespace pb

#endif // PERFBENCH_COMMON_H
