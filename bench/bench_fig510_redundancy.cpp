//===- bench/bench_fig510_redundancy.cpp - Figure 5-10 --------------------==//
//
// Redundancy elimination vs FIR size (Section 5.6): multiplications
// remaining and speedup after redundancy replacement. The paper's
// signature features: the even/odd "zig-zag" (even-length symmetric
// filters cache every product, odd-length ones cannot cache the middle
// tap), and slowdown despite the multiplication savings because the
// cache loads/stores cost more than the multiplies they replace.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace slin;
using namespace slin::apps;
using namespace slin::bench;

int main() {
  JsonReport Report("fig510_redundancy");
  std::printf("Figure 5-10: redundancy replacement vs FIR size\n");
  printRule(76);
  std::printf("%6s %14s %16s %18s %12s\n", "taps", "base mults/out",
              "redund mults/out", "mults remaining", "speedup");
  printRule(76);
  for (int Taps = 2; Taps <= 64; Taps += Taps < 16 ? 1 : 4) {
    StreamPtr Root = buildFIR(Taps);
    PipelineOptions O;
    O.Mode = OptMode::Base;
    Measurement Base = measureConfig(*Root, O, "FIR", true);
    O.Mode = OptMode::Redundancy;
    Measurement Red = measureConfig(*Root, O, "FIR", true);
    std::printf("%6d %14.1f %16.1f %17.1f%% %11.1f%%\n", Taps,
                Base.multsPerOutput(), Red.multsPerOutput(),
                100.0 * Red.multsPerOutput() / Base.multsPerOutput(),
                speedupPercent(Base.secondsPerOutput(),
                               Red.secondsPerOutput()));
    std::string T = std::to_string(Taps);
    Report.add("FIR" + T + "_base", Engine::Dynamic, Base,
               {{"taps", double(Taps)}});
    Report.add("FIR" + T + "_redund", Engine::Dynamic, Red,
               {{"taps", double(Taps)}});
  }
  std::printf("(expected: ~50%% remaining at even sizes, zig-zag at odd "
              "sizes, negative speedup)\n");
  return 0;
}
