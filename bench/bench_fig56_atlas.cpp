//===- bench/bench_fig56_atlas.cpp - Figure 5-6 ---------------------------==//
//
// Effect of the machine-tuned gemv backend (Section 5.4): speedup of
// linear replacement with the paper's own generated multiply (our
// unrolled/banded code, Figure 5-7) versus the ATLAS substitute (the
// TunedGemv call-out with its buffer-copy interface overhead).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace slin;
using namespace slin::apps;
using namespace slin::bench;

int main() {
  JsonReport Report("fig56_atlas");
  std::printf("Figure 5-6: linear replacement speedups, direct vs "
              "ATLAS-substitute gemv (%%), plus the compiled engine's "
              "batched gemm\n");
  printRule(78);
  std::printf("%-14s %16s %18s %20s\n", "Benchmark", "direct multiply",
              "tuned (ATLAS-sub)", "batched gemm (comp.)");
  printRule(78);
  double SumDelta = 0;
  int Count = 0;
  for (const BenchmarkEntry &B : allBenchmarks()) {
    StreamPtr Root = B.Build();
    PipelineOptions O;
    O.Mode = OptMode::Base;
    Measurement Base = measureConfig(*Root, O, B.Name, true);
    O.Mode = OptMode::Linear;
    O.CodeGen = LinearCodeGenStyle::Auto;
    Measurement Direct = measureConfig(*Root, O, B.Name, true);
    O.CodeGen = LinearCodeGenStyle::TunedNative;
    Measurement Tuned = measureConfig(*Root, O, B.Name, true);
    // The compiled engine on the packed-kernel backend: a whole batch of
    // firings becomes one cache-blocked gemm (measured against the same
    // dynamic base, so all three columns share a denominator).
    O.CodeGen = LinearCodeGenStyle::PackedNative;
    Measurement Batched =
        measureConfig(*Root, O, B.Name, true, Engine::Compiled);
    double SD = speedupPercent(Base.secondsPerOutput(),
                               Direct.secondsPerOutput());
    double ST = speedupPercent(Base.secondsPerOutput(),
                               Tuned.secondsPerOutput());
    double SB = speedupPercent(Base.secondsPerOutput(),
                               Batched.secondsPerOutput());
    std::printf("%-14s %15.1f%% %17.1f%% %19.1f%%\n", B.Name.c_str(), SD, ST,
                SB);
    Report.add(B.Name + "_base", Engine::Dynamic, Base);
    Report.add(B.Name + "_linear_direct", Engine::Dynamic, Direct);
    Report.add(B.Name + "_linear_tuned", Engine::Dynamic, Tuned);
    Report.add(B.Name + "_linear_packed", Engine::Compiled, Batched);
    SumDelta += ST - SD;
    ++Count;
  }
  printRule(78);
  std::printf("average tuned-vs-direct delta: %.1f%% (paper: -4.3%%, "
              "varying -36%%..+58%%)\n", SumDelta / Count);
  return 0;
}
