//===- perfbench/harness/Trace.cpp - In-memory span recorder --------------===//

#include "Trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

using namespace perfbench;

namespace {
/// The calling thread's open spans (innermost last), op id and index.
struct ThreadState {
  std::vector<int> Open;
  uint64_t Op = 0;
  int Thread = -1;
};
thread_local ThreadState TS;
} // namespace

Tracer::Tracer() : Epoch(std::chrono::steady_clock::now()) {}

Tracer &Tracer::get() {
  static Tracer T;
  return T;
}

double Tracer::nowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

void Tracer::beginOp() {
  std::lock_guard<std::mutex> Lock(Mutex);
  TS.Op = ++NextOp;
}

int Tracer::push(Span S) {
  S.Parent = TS.Open.empty() ? -1 : TS.Open.back();
  S.OpId = TS.Op;
  std::lock_guard<std::mutex> Lock(Mutex);
  if (TS.Thread < 0)
    TS.Thread = NextThread++;
  S.Thread = TS.Thread;
  Spans.push_back(std::move(S));
  return static_cast<int>(Spans.size()) - 1;
}

int Tracer::open(const char *Name) {
  Span S;
  S.Name = Name;
  S.StartUs = nowUs();
  int Index = push(std::move(S));
  TS.Open.push_back(Index);
  return Index;
}

void Tracer::close(int Index) {
  double End = nowUs();
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Spans[static_cast<size_t>(Index)].EndUs = End;
  }
  if (!TS.Open.empty() && TS.Open.back() == Index)
    TS.Open.pop_back();
}

void Tracer::addChild(const std::string &Name, double StartUs, double EndUs) {
  if (!On)
    return;
  Span S;
  S.Name = Name;
  S.StartUs = StartUs;
  S.EndUs = EndUs;
  push(std::move(S));
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Spans;
}

std::map<std::string, double> Tracer::selfTimeMs() const {
  std::vector<Span> All = spans();
  std::vector<std::vector<std::pair<double, double>>> Children(All.size());
  for (const Span &S : All)
    if (S.Parent >= 0)
      Children[static_cast<size_t>(S.Parent)].push_back({S.StartUs, S.EndUs});
  std::map<std::string, double> Out;
  for (size_t I = 0; I != All.size(); ++I) {
    const Span &S = All[I];
    // Length of the union of the children's intervals, clipped to S.
    std::vector<std::pair<double, double>> &C = Children[I];
    std::sort(C.begin(), C.end());
    double Covered = 0.0, Cursor = S.StartUs;
    for (const auto &[Begin, End] : C) {
      double B = std::max(Begin, Cursor), E = std::min(End, S.EndUs);
      if (E > B) {
        Covered += E - B;
        Cursor = E;
      }
    }
    Out[S.Name] += (S.EndUs - S.StartUs - Covered) / 1e3;
  }
  return Out;
}

bool Tracer::writeChromeJson(const std::string &Path) const {
  std::vector<Span> All = spans();
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", F);
  for (size_t I = 0; I != All.size(); ++I) {
    const Span &S = All[I];
    // Complete ("X") events; span names are fixed identifiers (no
    // escaping needed). args keep the explicit parent link and op id.
    std::fprintf(F,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"op\":%llu}}",
                 I ? "," : "", S.Name.c_str(), S.Thread, S.StartUs,
                 S.EndUs - S.StartUs, I, S.Parent,
                 static_cast<unsigned long long>(S.OpId));
  }
  std::fputs("\n]}\n", F);
  return std::fclose(F) == 0;
}
