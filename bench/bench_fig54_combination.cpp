//===- bench/bench_fig54_combination.cpp - Figures 5-4 and 5-5 ------------==//
//
// Effect of combination (Section 5.3): multiplication elimination and
// speedup for linear and frequency replacement with combination enabled
// and disabled ("(nc)"), plus the speedup deltas of Figure 5-5.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace slin;
using namespace slin::apps;
using namespace slin::bench;

int main() {
  JsonReport Report("fig54_combination");
  struct Row {
    std::string Name;
    Measurement Base, Lin, LinNC, Frq, FrqNC;
  };
  std::vector<Row> Rows;
  for (const BenchmarkEntry &B : allBenchmarks()) {
    StreamPtr Root = B.Build();
    Row R;
    R.Name = B.Name;
    PipelineOptions O;
    O.Mode = OptMode::Base;
    R.Base = measureConfig(*Root, O, B.Name, true);
    O.Mode = OptMode::Linear;
    O.Combine = true;
    R.Lin = measureConfig(*Root, O, B.Name, true);
    O.Combine = false;
    R.LinNC = measureConfig(*Root, O, B.Name, true);
    O.Mode = OptMode::Freq;
    O.Combine = true;
    R.Frq = measureConfig(*Root, O, B.Name, true);
    O.Combine = false;
    R.FrqNC = measureConfig(*Root, O, B.Name, true);
    Report.add(B.Name + "_base", Engine::Dynamic, R.Base);
    Report.add(B.Name + "_linear", Engine::Dynamic, R.Lin);
    Report.add(B.Name + "_linear_nc", Engine::Dynamic, R.LinNC);
    Report.add(B.Name + "_freq", Engine::Dynamic, R.Frq);
    Report.add(B.Name + "_freq_nc", Engine::Dynamic, R.FrqNC);
    Rows.push_back(std::move(R));
    std::printf("measured %s\n", B.Name.c_str());
  }

  auto MR = [](const Measurement &Base, const Measurement &M) {
    return percentRemoved(Base.multsPerOutput(), M.multsPerOutput());
  };
  auto SP = [](const Measurement &Base, const Measurement &M) {
    return speedupPercent(Base.secondsPerOutput(), M.secondsPerOutput());
  };

  std::printf("\nFigure 5-4 (left): multiplication elimination with/without "
              "combination (%%)\n");
  printRule(86);
  std::printf("%-14s %12s %12s %12s %12s\n", "Benchmark", "linear(nc)",
              "linear", "freq(nc)", "freq");
  printRule(86);
  for (const Row &R : Rows)
    std::printf("%-14s %11.1f%% %11.1f%% %11.1f%% %11.1f%%\n", R.Name.c_str(),
                MR(R.Base, R.LinNC), MR(R.Base, R.Lin), MR(R.Base, R.FrqNC),
                MR(R.Base, R.Frq));

  std::printf("\nFigure 5-4 (right): speedup with/without combination (%%)\n");
  printRule(86);
  std::printf("%-14s %12s %12s %12s %12s\n", "Benchmark", "linear(nc)",
              "linear", "freq(nc)", "freq");
  printRule(86);
  for (const Row &R : Rows)
    std::printf("%-14s %11.1f%% %11.1f%% %11.1f%% %11.1f%%\n", R.Name.c_str(),
                SP(R.Base, R.LinNC), SP(R.Base, R.Lin), SP(R.Base, R.FrqNC),
                SP(R.Base, R.Frq));

  std::printf("\nFigure 5-5: speedup increase due to combination "
              "(percentage points)\n");
  printRule(60);
  std::printf("%-14s %20s %20s\n", "Benchmark", "linear collapse",
              "freq collapse");
  printRule(60);
  for (const Row &R : Rows)
    std::printf("%-14s %19.1f%% %19.1f%%\n", R.Name.c_str(),
                SP(R.Base, R.Lin) - SP(R.Base, R.LinNC),
                SP(R.Base, R.Frq) - SP(R.Base, R.FrqNC));
  return 0;
}
