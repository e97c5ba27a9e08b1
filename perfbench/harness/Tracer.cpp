//===- perfbench/harness/Tracer.cpp - In-memory span recorder -------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "Tracer.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <unordered_map>

#include <unistd.h>

using namespace pb;

namespace {

void writeLine(int Fd, const std::string &Line) {
  size_t Off = 0;
  while (Off < Line.size()) {
    ssize_t N = ::write(Fd, Line.data() + Off, Line.size() - Off);
    if (N <= 0)
      return; // the parent went away; nothing left to report to
    Off += size_t(N);
  }
}

void writeSpanLine(int Fd, char Kind, const SpanRecord &S) {
  char Buf[256];
  std::snprintf(Buf, sizeof Buf, "%c %lld %lld %llu %lld %lld %s\n", Kind,
                (long long)S.Id, (long long)S.Parent, (unsigned long long)S.Op,
                (long long)S.StartNs, (long long)S.EndNs, S.Name.c_str());
  writeLine(Fd, Buf);
}

} // namespace

void Tracer::opened(const SpanRecord &S) {
  if (StreamFd >= 0)
    writeSpanLine(StreamFd, 'O', S);
}

void Tracer::closed(SpanRecord S) {
  if (StreamFd >= 0) {
    writeSpanLine(StreamFd, 'S', S);
    return;
  }
  std::lock_guard<std::mutex> L(Mu);
  Spans.push_back(std::move(S));
}

void Tracer::count(const std::string &Name, double V) {
  if (!Enabled)
    return;
  if (StreamFd >= 0) {
    char Buf[256];
    std::snprintf(Buf, sizeof Buf, "C %.17g %s\n", V, Name.c_str());
    writeLine(StreamFd, Buf);
    return;
  }
  std::lock_guard<std::mutex> L(Mu);
  Counters[Name] += V;
}

bool Tracer::importLine(const std::string &Line, StreamImport &In) {
  std::istringstream Fields(Line);
  std::string Kind;
  Fields >> Kind;
  if (Kind == "O" || Kind == "S") {
    SpanRecord S;
    long long Id, Parent, Start, End;
    unsigned long long Op;
    if (!(Fields >> Id >> Parent >> Op >> Start >> End >> S.Name))
      return false;
    auto Mapped = [&](int64_t Theirs) {
      auto [It, Fresh] = In.Ids.try_emplace(Theirs, 0);
      if (Fresh)
        It->second = newId();
      return It->second;
    };
    S.Id = Mapped(Id);
    S.Parent = Parent < 0 ? -1 : Mapped(Parent);
    S.Op = Op;
    S.StartNs = Start;
    S.EndNs = End;
    if (Kind == "O") {
      In.Open[S.Id] = std::move(S);
      return true;
    }
    In.Open.erase(S.Id);
    std::lock_guard<std::mutex> L(Mu);
    Spans.push_back(std::move(S));
    return true;
  }
  if (Kind == "C") {
    double V;
    std::string Name;
    if (!(Fields >> V >> Name))
      return false;
    std::lock_guard<std::mutex> L(Mu);
    Counters[Name] += V;
    return true;
  }
  return false;
}

void Tracer::closeDangling(StreamImport &In, int64_t EndNs) {
  std::lock_guard<std::mutex> L(Mu);
  for (auto &[Id, S] : In.Open) {
    S.EndNs = EndNs;
    Spans.push_back(std::move(S));
  }
  In.Open.clear();
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> L(Mu);
  return Spans;
}

std::map<std::string, double> Tracer::counters() const {
  std::lock_guard<std::mutex> L(Mu);
  return Counters;
}

std::map<std::string, double> Tracer::selfTimeNs() const {
  std::vector<SpanRecord> All = spans();
  std::unordered_map<int64_t, std::vector<std::pair<int64_t, int64_t>>>
      Children;
  for (const SpanRecord &S : All)
    if (S.Parent >= 0)
      Children[S.Parent].push_back({S.StartNs, S.EndNs});

  std::map<std::string, double> Self;
  for (const SpanRecord &S : All) {
    int64_t Covered = 0;
    auto It = Children.find(S.Id);
    if (It != Children.end()) {
      // Union of the children's intervals, clipped to this span.
      auto &Iv = It->second;
      std::sort(Iv.begin(), Iv.end());
      int64_t CurS = 0, CurE = -1;
      for (auto [B, E] : Iv) {
        B = std::max(B, S.StartNs);
        E = std::min(E, S.EndNs);
        if (E <= B)
          continue;
        if (B > CurE) {
          if (CurE > CurS)
            Covered += CurE - CurS;
          CurS = B;
          CurE = E;
        } else {
          CurE = std::max(CurE, E);
        }
      }
      if (CurE > CurS)
        Covered += CurE - CurS;
    }
    Self[S.Name] += double(S.EndNs - S.StartNs - Covered);
  }
  return Self;
}

std::map<std::string, double> Tracer::totalTimeNs() const {
  std::map<std::string, double> Total;
  for (const SpanRecord &S : spans())
    Total[S.Name] += double(S.EndNs - S.StartNs);
  return Total;
}

bool Tracer::writeJson(const std::string &Path) const {
  FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  std::vector<SpanRecord> All = spans();
  std::fprintf(Out, "{\"spans\": [\n");
  for (size_t I = 0; I < All.size(); ++I) {
    const SpanRecord &S = All[I];
    std::fprintf(Out,
                 "  {\"name\": \"%s\", \"id\": %lld, \"parent\": %lld, "
                 "\"op\": %llu, \"start_ns\": %lld, \"end_ns\": %lld}%s\n",
                 S.Name.c_str(), (long long)S.Id, (long long)S.Parent,
                 (unsigned long long)S.Op, (long long)S.StartNs,
                 (long long)S.EndNs, I + 1 == All.size() ? "" : ",");
  }
  std::fprintf(Out, "],\n\"self_ms\": {");
  bool First = true;
  for (const auto &[Name, Ns] : selfTimeNs()) {
    std::fprintf(Out, "%s\n  \"%s\": %.6f", First ? "" : ",", Name.c_str(),
                 Ns / 1e6);
    First = false;
  }
  std::fprintf(Out, "\n},\n\"counters\": {");
  First = true;
  for (const auto &[Name, V] : counters()) {
    std::fprintf(Out, "%s\n  \"%s\": %.17g", First ? "" : ",", Name.c_str(),
                 V);
    First = false;
  }
  std::fprintf(Out, "\n}}\n");
  return std::fclose(Out) == 0;
}
