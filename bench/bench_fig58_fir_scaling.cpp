//===- bench/bench_fig58_fir_scaling.cpp - Figures 5-8 and 5-9 ------------==//
//
// FIR scaling (Section 5.5): multiplication elimination and speedup of
// frequency replacement as a function of the FIR tap count (Figure 5-8),
// plus the original-vs-optimized execution time scatter with the
// selection cost-function curve (Figure 5-9).
//
// Every configuration is measured on both execution engines: the dynamic
// tree-walking interpreter and the compiled batched engine (B = 16
// steady-state iterations per batch). The "engine speedup" column is the
// compiled engine's wall-clock advantage on the *same* program — the
// payoff of static scheduling + op tapes + batched kernels, orthogonal
// to the paper's algorithmic optimizations.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <cmath>

using namespace slin;
using namespace slin::apps;
using namespace slin::bench;

int main() {
  JsonReport Report("fig58_fir_scaling");

  std::printf("Figure 5-8: frequency replacement vs FIR size "
              "(both execution engines)\n");
  printRule(78);
  std::printf("%5s %13s %13s %13s %9s %9s\n", "taps", "base mults/out",
              "freq mults/out", "mults removed", "freq spd", "engine x");
  printRule(78);

  struct Point {
    int Taps;
    double BaseUs, OptUs;
  };
  std::vector<Point> Scatter;

  for (int Taps = 4; Taps <= 128; Taps += Taps < 16 ? 2 : 8) {
    StreamPtr Root = buildFIR(Taps);
    std::string T = std::to_string(Taps);
    PipelineOptions O;
    O.Mode = OptMode::Base;
    Measurement Base = measureConfig(*Root, O, "FIR", true);
    Measurement BaseC =
        measureConfig(*Root, O, "FIR", true, Engine::Compiled);
    O.Mode = OptMode::Freq;
    Measurement Freq = measureConfig(*Root, O, "FIR", true);
    Measurement FreqC =
        measureConfig(*Root, O, "FIR", true, Engine::Compiled);

    double EngineSpeedup =
        BaseC.secondsPerOutput() > 0.0
            ? Base.secondsPerOutput() / BaseC.secondsPerOutput()
            : 0.0;
    std::printf("%5d %14.1f %13.1f %12.1f%% %8.1f%% %8.2fx\n", Taps,
                Base.multsPerOutput(), Freq.multsPerOutput(),
                percentRemoved(Base.multsPerOutput(), Freq.multsPerOutput()),
                speedupPercent(Base.secondsPerOutput(),
                               Freq.secondsPerOutput()),
                EngineSpeedup);
    Report.add("FIR" + T + "_base", Engine::Dynamic, Base, {{"taps", double(Taps)}});
    Report.add("FIR" + T + "_base", Engine::Compiled, BaseC, {{"taps", double(Taps)}});
    Report.add("FIR" + T + "_freq", Engine::Dynamic, Freq, {{"taps", double(Taps)}});
    Report.add("FIR" + T + "_freq", Engine::Compiled, FreqC, {{"taps", double(Taps)}});
    Scatter.push_back({Taps, Base.secondsPerOutput() * 1e6,
                       Freq.secondsPerOutput() * 1e6});
  }

  std::printf("\nFigure 5-9: original vs optimized time per output "
              "(with the selection cost curve)\n");
  printRule(70);
  std::printf("%6s %16s %18s %16s\n", "taps", "original us/out",
              "optimized us/out", "cost-curve value");
  printRule(70);
  for (const Point &P : Scatter) {
    // The reconstructed freqVal shape: a logarithmic curve in the tap
    // count scaled into the measured time range (Section 5.5).
    double CostCurve = 0.65 + std::log(static_cast<double>(P.Taps)) / 10.0;
    std::printf("%6d %16.3f %18.3f %16.3f\n", P.Taps, P.BaseUs, P.OptUs,
                CostCurve * Scatter.front().OptUs);
  }
  std::printf("(expected shape: optimized time grows ~lg(N) while original "
              "grows linearly)\n");
  return 0;
}
