//===- perfbench/harness/Harness.cpp - Benchmark entry point --------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
//   perfbench_harness --workload fig5|mega|service --seed N --seconds S
//                     --trace 0|1 [--out-dir DIR] [--git-commit C]
//                     [--source-digest D]
//
// Runs one workload and prints, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 the per-layer
// ones. The line before it stamps the host and build the numbers came
// from. perfbench/run.py builds this binary and calls it.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <sys/stat.h>
#include <unistd.h>

using namespace pb;

double pb::median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double pb::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = size_t(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

size_t pb::samplesAbove(const std::vector<double> &V, double Q) {
  double Cut = quantile(V, Q);
  return size_t(std::count_if(V.begin(), V.end(),
                              [Cut](double X) { return X > Cut; }));
}

double pb::peakRssMb(int Pid) {
  std::string Path =
      Pid ? "/proc/" + std::to_string(Pid) + "/status" : "/proc/self/status";
  FILE *F = std::fopen(Path.c_str(), "r");
  if (!F)
    return 0;
  char Line[256];
  double Kb = 0;
  while (std::fgets(Line, sizeof Line, F))
    if (std::sscanf(Line, "VmHWM: %lf kB", &Kb) == 1)
      break;
  std::fclose(F);
  return Kb / 1024.0;
}

static double windowRate(const PhaseTally &T,
                         uint64_t PhaseTally::Window::*N) {
  std::vector<double> Rates;
  for (const PhaseTally::Window &W : T.Windows)
    if (W.Seconds > 0)
      Rates.push_back(double(W.*N) / W.Seconds);
  return median(std::move(Rates));
}

double PhaseTally::opsPerSecond() const {
  return windowRate(*this, &Window::Succeeded);
}

double PhaseTally::rangesPerSecond() const {
  return windowRate(*this, &Window::Ranges);
}

void PhaseTally::merge(const PhaseTally &O) {
  Attempted += O.Attempted;
  Succeeded += O.Succeeded;
  Converged += O.Converged;
  Degraded += O.Degraded;
  Failed += O.Failed;
  Wrong += O.Wrong;
  Ranges += O.Ranges;
  TimedSeconds += O.TimedSeconds;
  OpMs.insert(OpMs.end(), O.OpMs.begin(), O.OpMs.end());
  Windows.insert(Windows.end(), O.Windows.begin(), O.Windows.end());
}

void pb::note(const char *Fmt, ...) {
  std::fprintf(stderr, "perfbench: ");
  va_list Args;
  va_start(Args, Fmt);
  std::vfprintf(stderr, Fmt, Args);
  va_end(Args);
  std::fprintf(stderr, "\n");
}

void pb::addEndToEnd(WorkloadResult &R, const PhaseTally &T,
                     double SetupSeconds, double TailQ, double PeakRssMb,
                     const Deterministic &D) {
  double Attempted = double(std::max<uint64_t>(T.Attempted, 1));
  R.add("setup_s", SetupSeconds, "s");
  R.add("ranges_per_s", T.rangesPerSecond(), "1/s");
  R.add("ops_per_s", T.opsPerSecond(), "1/s");
  R.add("op_ms_p50", median(T.OpMs), "ms");
  R.add("op_ms_tail", quantile(T.OpMs, TailQ), "ms");
  R.add("peak_rss_mb", PeakRssMb, "MiB");
  // An end-to-end metric must never read 0 (its bound is a share of a
  // median), so the failed and degraded shares are reported through
  // their complements; the traced run reports them as they are.
  R.add("ok_share", double(T.Succeeded) / Attempted, "ratio");
  R.add("converged_share", double(T.Converged) / Attempted, "ratio");
  R.add("spills", double(D.Spills), "count");
  R.add("spill_cost", D.SpillCost, "cycles");
  R.add("dyn_cycles", double(D.Cycles), "cycles");
  R.add("code_instrs", double(D.CodeInstrs), "count");

  char Buf[160];
  size_t Beyond = TailQ < 1.0 ? samplesAbove(T.OpMs, TailQ) : 0;
  std::snprintf(Buf, sizeof Buf,
                "op_ms_tail is %s over %zu ops (%zu samples beyond it)",
                TailQ < 1.0 ? ("p" + std::to_string(int(TailQ * 100))).c_str()
                            : "the maximum",
                T.OpMs.size(), Beyond);
  R.Notes.push_back(Buf);
  if (TailQ < 1.0 && Beyond < 10)
    note("warning: fewer than 10 samples beyond the tail percentile (%zu)",
         Beyond);
  note("failed_share=%.6f degraded_share=%.6f over %llu ops",
       double(T.Failed) / Attempted, double(T.Degraded) / Attempted,
       (unsigned long long)T.Attempted);
}

const std::vector<std::pair<std::string, std::string>> &
pb::perLayerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> Names = {
      {"workloads.build_ms", "ms"},
      {"ir.parse_ms", "ms"},
      {"ir.parse_instrs_per_s", "1/s"},
      {"ir.verify_ms", "ms"},
      {"ir.print_ms", "ms"},
      {"opt.optimize_ms", "ms"},
      {"opt.instrs_removed", "count"},
      {"analysis.renumber_ms", "ms"},
      {"analysis.webs", "count"},
      {"analysis.liveness_ms", "ms"},
      {"regalloc.coalesce_ms", "ms"},
      {"regalloc.coalesce_rounds", "count"},
      {"regalloc.copies_removed", "count"},
      {"regalloc.coalesce_useful_ratio", "ratio"},
      {"regalloc.build_graph_ms", "ms"},
      {"regalloc.graph_nodes", "count"},
      {"regalloc.graph_edges", "count"},
      {"regalloc.matrix_bytes", "bytes"},
      {"regalloc.spill_cost_ms", "ms"},
      {"regalloc.color_ms", "ms"},
      {"regalloc.spill_insert_ms", "ms"},
      {"regalloc.spill_instrs", "count"},
      {"regalloc.audit_ms", "ms"},
      {"regalloc.allocate_ms", "ms"},
      {"regalloc.passes", "count"},
      {"regalloc.unattributed_share", "ratio"},
      {"linearscan.allocate_ms", "ms"},
      {"linearscan.passes", "count"},
      {"sim.run_ms", "ms"},
      {"sim.instrs", "count"},
      {"service.run_ms", "ms"},
      {"service.rtt_ms", "ms"},
      {"service.wire_ms", "ms"},
      {"service.cache_hit_ratio", "ratio"},
      {"service.cache_evictions", "count"},
      {"service.cache_peak_bytes", "bytes"},
      {"self_ms.ir", "ms"},
      {"self_ms.opt", "ms"},
      {"self_ms.analysis", "ms"},
      {"self_ms.regalloc", "ms"},
      {"self_ms.linearscan", "ms"},
      {"self_ms.sim", "ms"},
      {"self_ms.service", "ms"},
      {"self_ms.harness", "ms"},
      {"failed_share", "ratio"},
      {"degraded_share", "ratio"},
      {"trace.untraced_ops_per_s", "1/s"},
      {"trace.traced_ops_per_s", "1/s"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.replay_mismatches", "count"},
  };
  return Names;
}

void pb::addPerLayer(WorkloadResult &R, const Tracer &T, uint64_t Ops,
                     const PhaseTally &Untraced, const PhaseTally &Traced,
                     const std::vector<Metric> &Extra) {
  std::map<std::string, double> SelfNs = T.selfTimeNs();
  std::map<std::string, double> Counts = T.counters();
  const double PerOp = Ops ? 1.0 / double(Ops) : 0;
  auto Ms = [&](const std::string &Span) { return SelfNs[Span] / 1e6 * PerOp; };
  auto Per = [&](const std::string &C) { return Counts[C] * PerOp; };
  auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0; };

  std::map<std::string, double> V;
  for (const char *Span :
       {"ir.parse", "ir.verify", "ir.print", "opt.optimize",
        "analysis.renumber", "analysis.liveness", "regalloc.coalesce",
        "regalloc.build_graph", "regalloc.spill_cost", "regalloc.color",
        "regalloc.spill_insert", "regalloc.audit", "regalloc.allocate",
        "linearscan.allocate", "sim.run"})
    V[std::string(Span) + "_ms"] = Ms(Span);
  // The request's server-side work and its round trip, children
  // included: wire time is what the round trip adds to the work.
  std::map<std::string, double> TotalNs = T.totalTimeNs();
  V["service.run_ms"] = TotalNs["service.run"] / 1e6 * PerOp;
  V["service.rtt_ms"] = TotalNs["service.rtt"] / 1e6 * PerOp;
  for (const char *C :
       {"opt.instrs_removed", "analysis.webs", "regalloc.coalesce_rounds",
        "regalloc.copies_removed", "regalloc.graph_nodes",
        "regalloc.graph_edges", "regalloc.matrix_bytes",
        "regalloc.spill_instrs", "sim.instrs"})
    V[C] = Per(C);
  V["ir.parse_instrs_per_s"] =
      Ratio(Counts["ir.parse_instrs"], SelfNs["ir.parse"] / 1e9);
  V["regalloc.coalesce_useful_ratio"] =
      Ratio(Counts["regalloc.copies_removed"],
            Counts["regalloc.coalesce_rounds"]);
  V["regalloc.passes"] =
      Ratio(Counts["regalloc.passes"], Counts["regalloc.calls"]);
  V["linearscan.passes"] =
      Ratio(Counts["linearscan.passes"], Counts["linearscan.calls"]);
  double Covered = 0;
  for (const char *Span :
       {"analysis.flow", "analysis.renumber", "analysis.liveness",
        "regalloc.coalesce", "regalloc.build_graph", "regalloc.spill_cost",
        "regalloc.color", "regalloc.spill_insert", "regalloc.audit"})
    Covered += SelfNs[Span];
  V["regalloc.unattributed_share"] =
      SelfNs["regalloc.allocate"] > 0
          ? 1.0 - Covered / SelfNs["regalloc.allocate"]
          : 0;
  V["service.wire_ms"] = V["service.rtt_ms"] - V["service.run_ms"];

  // Self time per module: span names start with the module's name; the
  // harness's own spans ("op", "regalloc.first_pass" glue) count as
  // harness, except that the replay glue belongs to regalloc.
  for (const auto &[Name, Ns] : SelfNs) {
    std::string Module = Name.substr(0, Name.find('.'));
    if (Name == "op")
      Module = "harness";
    V["self_ms." + Module] += Ns / 1e6 * PerOp;
  }

  double Attempted =
      double(std::max<uint64_t>(Untraced.Attempted + Traced.Attempted, 1));
  V["failed_share"] = double(Untraced.Failed + Traced.Failed) / Attempted;
  V["degraded_share"] =
      double(Untraced.Degraded + Traced.Degraded) / Attempted;
  V["trace.untraced_ops_per_s"] = Untraced.opsPerSecond();
  V["trace.traced_ops_per_s"] = Traced.opsPerSecond();
  V["trace.overhead_ratio"] =
      Ratio(Traced.opsPerSecond(), Untraced.opsPerSecond());
  for (const Metric &M : Extra)
    V[M.Name] = M.Value;

  for (const auto &[Name, Unit] : perLayerMetricNames())
    R.add(Name, V.count(Name) ? V[Name] : 0, Unit);
}

namespace {

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20) {
      Out += ' ';
      continue;
    }
    Out += C;
  }
  return Out;
}

std::string number(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload fig5|mega|service "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR] "
               "[--git-commit C] [--source-digest D]\n");
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions O;
  std::string GitCommit = "unknown", SourceDigest = "unknown";
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  // Worker mode (started by the fig5 and mega workloads themselves).
  bool Worker = false;
  std::vector<size_t> Items;
  uint64_t OpBase = 1;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc) {
      usage();
      return 2;
    }
    std::string Val = Argv[++I];
    if (Arg == "--workload") {
      O.Workload = Val;
    } else if (Arg == "--seed") {
      O.Seed = std::strtoull(Val.c_str(), nullptr, 10);
      HaveSeed = true;
    } else if (Arg == "--seconds") {
      O.Seconds = std::atof(Val.c_str());
      HaveSeconds = O.Seconds > 0;
    } else if (Arg == "--trace") {
      O.Trace = Val == "1";
      HaveTrace = Val == "0" || Val == "1";
    } else if (Arg == "--out-dir") {
      O.OutDir = Val;
    } else if (Arg == "--git-commit") {
      GitCommit = Val;
    } else if (Arg == "--source-digest") {
      SourceDigest = Val;
    } else if (Arg == "--worker") {
      Worker = true;
      O.Workload = Val;
    } else if (Arg == "--items") {
      for (size_t Pos = 0; Pos < Val.size();) {
        size_t End = Val.find(',', Pos);
        if (End == std::string::npos)
          End = Val.size();
        Items.push_back(std::strtoull(Val.substr(Pos, End - Pos).c_str(),
                                      nullptr, 10));
        Pos = End + 1;
      }
    } else if (Arg == "--op-base") {
      OpBase = std::strtoull(Val.c_str(), nullptr, 10);
    } else {
      usage();
      return 2;
    }
  }
  if (Worker && HaveTrace && (O.Workload == "fig5" || O.Workload == "mega"))
    return runAllocWorker(O, Items, OpBase);
  if (Worker || !HaveSeed || !HaveSeconds || !HaveTrace) {
    usage();
    return 2;
  }
  ::mkdir(O.OutDir.c_str(), 0755);

  WorkloadResult R;
  if (O.Workload == "fig5") {
    R = runFig5(O);
  } else if (O.Workload == "mega") {
    R = runMega(O);
  } else if (O.Workload == "service") {
    R = runService(O);
  } else {
    usage();
    return 2;
  }
  if (R.Attempted == 0) {
    note("no op was attempted; no result");
    return 1;
  }

  std::string Stamp = "{\"stamp\": {\"workload\": \"" + O.Workload +
                      "\", \"seed\": " + std::to_string(O.Seed) +
                      ", \"seconds\": " + number(O.Seconds) +
                      ", \"trace\": " + (O.Trace ? "1" : "0") +
                      ", \"nproc\": " +
                      std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                      ", \"build_type\": \"" PB_BUILD_TYPE
                      "\", \"compiler\": \"" PB_COMPILER
                      "\", \"git_commit\": \"" + jsonEscape(GitCommit) +
                      "\", \"source_digest\": \"" + jsonEscape(SourceDigest) +
                      "\", \"notes\": [";
  for (size_t I = 0; I < R.Notes.size(); ++I)
    Stamp += (I ? ", \"" : "\"") + jsonEscape(R.Notes[I]) + "\"";
  Stamp += "]}}";

  std::string Line = std::string("{\"correct\": ") +
                     (R.Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(R.Attempted) +
                     ", \"failed\": " + std::to_string(R.Failed) +
                     ", \"metrics\": {";
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    Line += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " +
            number(M.Value) + ", \"unit\": \"" + M.Unit + "\"}";
  }
  Line += "}}";

  std::string Record = O.OutDir + "/result-" + O.Workload + "-seed" +
                       std::to_string(O.Seed) + "-trace" +
                       (O.Trace ? "1" : "0") + ".json";
  if (FILE *F = std::fopen(Record.c_str(), "w")) {
    std::fprintf(F, "%s\n%s\n", Stamp.c_str(), Line.c_str());
    std::fclose(F);
  }
  std::printf("%s\n%s\n", Stamp.c_str(), Line.c_str());
  return 0;
}
