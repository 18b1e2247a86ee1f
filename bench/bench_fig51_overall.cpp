//===- bench/bench_fig51_overall.cpp - Figures 5-1, 5-2, 5-3 --------------==//
//
// Overall validation (Section 5.2): for every benchmark, the elimination
// of floating-point operations (Figure 5-1), the elimination of
// multiplications (Figure 5-2), and the execution speedup (Figure 5-3)
// under maximal linear replacement, maximal frequency replacement and
// automatic optimization selection. One measurement sweep powers all
// three figures; each is printed as its own series.
//
// Every configuration is additionally measured on the compiled batched
// engine; the final series reports its wall-clock advantage over the
// dynamic interpreter on the same programs. FLOP counts are engine-
// independent (the engines execute identical arithmetic).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace slin;
using namespace slin::apps;
using namespace slin::bench;

int main() {
  JsonReport Report("fig51_overall");

  struct Row {
    std::string Name;
    Measurement Base, Linear, Freq, AutoSel;
    Measurement BaseC, LinearC, FreqC, AutoSelC; ///< compiled engine
  };
  std::vector<Row> Rows;

  for (const BenchmarkEntry &B : allBenchmarks()) {
    StreamPtr Root = B.Build();
    Row R;
    R.Name = B.Name;
    PipelineOptions O;
    O.Mode = OptMode::Base;
    R.Base = measureConfig(*Root, O, B.Name, true);
    R.BaseC = measureConfig(*Root, O, B.Name, true, Engine::Compiled);
    O.Mode = OptMode::Linear;
    R.Linear = measureConfig(*Root, O, B.Name, true);
    R.LinearC = measureConfig(*Root, O, B.Name, true, Engine::Compiled);
    O.Mode = OptMode::Freq;
    R.Freq = measureConfig(*Root, O, B.Name, true);
    R.FreqC = measureConfig(*Root, O, B.Name, true, Engine::Compiled);
    O.Mode = OptMode::AutoSel;
    R.AutoSel = measureConfig(*Root, O, B.Name, true);
    R.AutoSelC = measureConfig(*Root, O, B.Name, true, Engine::Compiled);
    for (auto [Tag, MD, MC] :
         {std::tuple<const char *, const Measurement *, const Measurement *>
              {"base", &R.Base, &R.BaseC},
          {"linear", &R.Linear, &R.LinearC},
          {"freq", &R.Freq, &R.FreqC},
          {"autosel", &R.AutoSel, &R.AutoSelC}}) {
      Report.add(B.Name + "_" + Tag, Engine::Dynamic, *MD);
      Report.add(B.Name + "_" + Tag, Engine::Compiled, *MC);
    }
    Rows.push_back(std::move(R));
    std::printf("measured %s\n", B.Name.c_str());
  }

  std::printf("\nFigure 5-1: elimination of floating point operations (%%)\n");
  printRule();
  std::printf("%-14s %12s %12s %12s %14s\n", "Benchmark", "base FLOPs/out",
              "linear", "freq", "autosel");
  printRule();
  double SumAuto = 0;
  for (const Row &R : Rows) {
    std::printf("%-14s %14.1f %11.1f%% %11.1f%% %13.1f%%\n", R.Name.c_str(),
                R.Base.flopsPerOutput(),
                percentRemoved(R.Base.flopsPerOutput(),
                               R.Linear.flopsPerOutput()),
                percentRemoved(R.Base.flopsPerOutput(),
                               R.Freq.flopsPerOutput()),
                percentRemoved(R.Base.flopsPerOutput(),
                               R.AutoSel.flopsPerOutput()));
    SumAuto += percentRemoved(R.Base.flopsPerOutput(),
                              R.AutoSel.flopsPerOutput());
  }
  printRule();
  std::printf("average FLOPs removed by autosel: %.1f%%  (paper: 86%%)\n",
              SumAuto / Rows.size());

  std::printf("\nFigure 5-2: elimination of multiplications (%%)\n");
  printRule();
  std::printf("%-14s %12s %12s %12s %14s\n", "Benchmark", "base mults/out",
              "linear", "freq", "autosel");
  printRule();
  for (const Row &R : Rows)
    std::printf("%-14s %14.1f %11.1f%% %11.1f%% %13.1f%%\n", R.Name.c_str(),
                R.Base.multsPerOutput(),
                percentRemoved(R.Base.multsPerOutput(),
                               R.Linear.multsPerOutput()),
                percentRemoved(R.Base.multsPerOutput(),
                               R.Freq.multsPerOutput()),
                percentRemoved(R.Base.multsPerOutput(),
                               R.AutoSel.multsPerOutput()));

  std::printf("\nFigure 5-3: execution speedup (%%; 100%% = 2x faster)\n");
  printRule();
  std::printf("%-14s %14s %12s %12s %14s\n", "Benchmark", "base us/out",
              "linear", "freq", "autosel");
  printRule();
  double SumSpeed = 0, BestSpeed = 0;
  for (const Row &R : Rows) {
    double Lin = speedupPercent(R.Base.secondsPerOutput(),
                                R.Linear.secondsPerOutput());
    double Frq = speedupPercent(R.Base.secondsPerOutput(),
                                R.Freq.secondsPerOutput());
    double Sel = speedupPercent(R.Base.secondsPerOutput(),
                                R.AutoSel.secondsPerOutput());
    std::printf("%-14s %14.2f %11.1f%% %11.1f%% %13.1f%%\n", R.Name.c_str(),
                R.Base.secondsPerOutput() * 1e6, Lin, Frq, Sel);
    SumSpeed += Sel;
    BestSpeed = std::max(BestSpeed, Sel);
  }
  printRule();
  std::printf("average autosel speedup: %.0f%%  best: %.0f%%  "
              "(paper: 450%% avg, 800%% best)\n",
              SumSpeed / Rows.size(), BestSpeed);

  std::printf("\nTwo engines: compiled-vs-dynamic wall clock on the same "
              "program (x)\n");
  printRule();
  std::printf("%-14s %10s %10s %10s %10s\n", "Benchmark", "base", "linear",
              "freq", "autosel");
  printRule();
  auto Ratio = [](const Measurement &D, const Measurement &C) {
    return C.secondsPerOutput() > 0.0
               ? D.secondsPerOutput() / C.secondsPerOutput()
               : 0.0;
  };
  for (const Row &R : Rows)
    std::printf("%-14s %9.2fx %9.2fx %9.2fx %9.2fx\n", R.Name.c_str(),
                Ratio(R.Base, R.BaseC), Ratio(R.Linear, R.LinearC),
                Ratio(R.Freq, R.FreqC), Ratio(R.AutoSel, R.AutoSelC));

  // Artifact reuse across the harness: every configuration above ran the
  // full compiler pipeline (analysis, transform, lowering). Rerun with
  // SLIN_NO_CACHE=1 to compare against cold compiles every time.
  std::printf("\ncompiler pipeline time across the harness: %.3f s "
              "(analysis/program caches %s)\n",
              compileSecondsTotal(), cachesDisabled() ? "OFF" : "ON");
  Report.add("harness_compile_total", Engine::Dynamic,
             {{"seconds", compileSecondsTotal()},
              {"caches_enabled", cachesDisabled() ? 0.0 : 1.0}});
  return 0;
}
