//===- perfbench/Trace.cpp ------------------------------------------------===//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

using namespace perfbench;

namespace {

/// Open spans of the calling thread, innermost last.
thread_local std::vector<int> OpenSpans;

unsigned threadId() {
  static std::atomic<unsigned> Next{1};
  thread_local unsigned Id = Next.fetch_add(1);
  return Id;
}

void writeJsonString(std::FILE *F, const std::string &S) {
  std::fputc('"', F);
  for (char C : S) {
    if (C == '"' || C == '\\')
      std::fputc('\\', F);
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    std::fputc(C, F);
  }
  std::fputc('"', F);
}

} // namespace

int Tracer::begin(const char *Name, long long Id, std::string Detail,
                  int Parent) {
  if (!Enabled)
    return -1;
  Span S;
  S.Name = Name;
  S.Detail = std::move(Detail);
  S.Id = Id;
  S.Tid = threadId();
  S.Parent = Parent >= 0 || OpenSpans.empty() ? Parent : OpenSpans.back();
  int Index;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Index = static_cast<int>(Spans.size());
    S.StartNs = nowNs();
    Spans.push_back(std::move(S));
  }
  OpenSpans.push_back(Index);
  return Index;
}

void Tracer::end(int Index) {
  if (Index < 0)
    return;
  const int64_t Now = nowNs();
  if (!OpenSpans.empty() && OpenSpans.back() == Index)
    OpenSpans.pop_back();
  std::lock_guard<std::mutex> Lock(Mu);
  Spans[static_cast<size_t>(Index)].EndNs = Now;
}

void Tracer::setDetail(int Index, std::string Detail) {
  if (Index < 0)
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  Spans[static_cast<size_t>(Index)].Detail = std::move(Detail);
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Spans.size();
}

std::map<std::string, SpanStats> Tracer::aggregate() const {
  std::lock_guard<std::mutex> Lock(Mu);
  // Time covered by each span's children: the union of their intervals,
  // since children opened on other threads may overlap.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> Children(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Children[static_cast<size_t>(S.Parent)].push_back({S.StartNs, S.EndNs});
  std::vector<int64_t> ChildNs(Spans.size(), 0);
  for (size_t I = 0; I < Spans.size(); ++I) {
    std::vector<std::pair<int64_t, int64_t>> &C = Children[I];
    std::sort(C.begin(), C.end());
    int64_t CoveredTo = Spans[I].StartNs;
    for (const auto &Interval : C) {
      const int64_t From = std::max(Interval.first, CoveredTo);
      const int64_t To = std::min(Interval.second, Spans[I].EndNs);
      if (To > From) {
        ChildNs[I] += To - From;
        CoveredTo = To;
      }
    }
  }
  std::map<std::string, SpanStats> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    SpanStats &A = Out[S.Name];
    ++A.Count;
    A.TotalMs += S.ms();
    A.SelfMs += static_cast<double>(S.EndNs - S.StartNs - ChildNs[I]) / 1e6;
    A.DurationsMs.push_back(S.ms());
  }
  return Out;
}

bool Tracer::writeChromeJson(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::lock_guard<std::mutex> Lock(Mu);
  const int64_t Origin = Spans.empty() ? 0 : Spans.front().StartNs;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", F);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    const size_t Dot = S.Name.find('.');
    std::fputs("{\"name\":", F);
    writeJsonString(F, S.Name);
    std::fputs(",\"cat\":", F);
    writeJsonString(F, S.Name.substr(0, Dot));
    std::fprintf(F,
                 ",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%d,"
                 "\"id\":%lld,\"detail\":",
                 S.Tid, static_cast<double>(S.StartNs - Origin) / 1e3,
                 static_cast<double>(S.EndNs - S.StartNs) / 1e3, I, S.Parent,
                 S.Id);
    writeJsonString(F, S.Detail);
    std::fputs(I + 1 == Spans.size() ? "}}\n" : "}},\n", F);
  }
  std::fputs("]}\n", F);
  return std::fclose(F) == 0;
}
