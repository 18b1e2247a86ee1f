//===- bench/bench_compile_reuse.cpp - Artifact-reuse benchmark -----------==//
//
// The "compile once, serve many runs" property of the compiler pipeline:
// repeatedly compile AutoSel configurations (with the compiled engine's
// MeasuredCostModel, the most expensive path of the fig 5-1 harness) and
// serve a short output window from each. With the hash-consed analysis
// cache and the program cache, every round after the first reuses the
// first round's extraction/combination results and compiled artifacts;
// without them (or pre-refactor) each round pays full price.
//
// Intentionally uses only the long-stable surface (optimize +
// collectOutputs) so the same source measures older checkouts.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "compiler/Program.h"

#include <chrono>

using namespace slin;
using namespace slin::apps;
using namespace slin::bench;

int main() {
  JsonReport Report("compile_reuse");
  static const MeasuredCostModel CompiledModel{Engine::Compiled};
  const int Rounds = 3;
  const size_t Window = 256;

  double Total = 0.0;
  std::printf("%-14s %14s %14s %14s\n", "Benchmark", "round 1 (ms)",
              "round 2 (ms)", "round 3 (ms)");
  for (const char *Name :
       {"FIR", "RateConvert", "TargetDetect", "FilterBank", "Radar"}) {
    StreamPtr Root;
    for (const BenchmarkEntry &B : allBenchmarks())
      if (B.Name == Name)
        Root = B.Build();
    double RoundMs[Rounds] = {};
    for (int R = 0; R != Rounds; ++R) {
      if (cachesDisabled()) {
        // Honest cold rounds: flush the process-global caches so every
        // round pays full analysis + lowering price (the pre-refactor
        // behaviour).
        AnalysisManager::global().invalidate();
        ProgramCache::global().clear();
      }
      auto Start = std::chrono::steady_clock::now();
      PipelineOptions O;
      O.Mode = OptMode::AutoSel;
      O.Model = &CompiledModel;
      StreamPtr Opt = optimize(*Root, O);
      collectOutputs(*Opt, Window, Engine::Compiled);
      RoundMs[R] =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        Start)
              .count() *
          1e3;
      Total += RoundMs[R];
      Report.add(std::string(Name) + "_round" + std::to_string(R + 1),
                 Engine::Compiled, {{"ms", RoundMs[R]}});
    }
    std::printf("%-14s %14.1f %14.1f %14.1f\n", Name, RoundMs[0], RoundMs[1],
                RoundMs[2]);
  }
  std::printf("total: %.1f ms (compile+serve, %d rounds each)\n", Total,
              Rounds);
  Report.add("total", Engine::Compiled, {{"ms", Total}});
  return 0;
}
