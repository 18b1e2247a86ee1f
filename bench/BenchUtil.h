//===- bench/BenchUtil.h - Shared harness helpers ---------------*- C++ -*-===//
//
// Helpers for the figure/table reproduction binaries: build a benchmark,
// apply an optimization configuration, measure steady-state FLOPs,
// multiplications and wall-clock time per output (Section 5.1's
// methodology), and print aligned rows.
//
//===----------------------------------------------------------------------===//

#ifndef SLIN_BENCH_BENCHUTIL_H
#define SLIN_BENCH_BENCHUTIL_H

#include "apps/Benchmarks.h"
#include "compiler/AnalysisManager.h"
#include "exec/Measure.h"
#include "opt/Optimizer.h"
#include "support/RuntimeConfig.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

namespace slin {
namespace bench {

/// Per-benchmark measured window sizes: the heavyweight apps (Radar's
/// channel banks, Vocoder's O(W^2) pitch detector) get smaller windows so
/// the whole harness stays fast; all are deep in steady state.
inline size_t measureWindow(const std::string &Name) {
  // The window must span several firings of the coarsest-grained
  // configuration (an optimized frequency filter emits u*(m+e-1) items
  // per firing), or per-output rates are dominated by quantization.
  if (Name == "Vocoder")
    return 256;
  if (Name == "Radar")
    return 1024;
  if (Name == "TargetDetect" || Name == "Oversampler")
    return 4096;
  if (Name == "DToA")
    return 3072;
  if (Name == "FMRadio")
    return 1536;
  return 2048;
}

inline size_t warmupWindow(const std::string &Name) {
  return measureWindow(Name) / 2;
}

/// Kill-switch for the compiler caches (set SLIN_NO_CACHE=1): the
/// harnesses report compile time with and without artifact reuse, so the
/// caches' effect is measurable from the same binary.
inline bool cachesDisabled() { return RuntimeConfig::current().NoCache; }

inline AnalysisManager &passThroughAM() {
  static AnalysisManager *AM = [] {
    auto *A = new AnalysisManager();
    A->setEnabled(false);
    return A;
  }();
  return *AM;
}

/// Wall-clock seconds spent inside the compiler pipeline (all passes,
/// including cache-hit lookups) across every measureConfig call.
inline double &compileSecondsTotal() {
  static double Total = 0.0;
  return Total;
}

inline Measurement measureConfig(const Stream &Root,
                                 const PipelineOptions &Opts,
                                 const std::string &Name, bool MeasureTime,
                                 Engine Eng = Engine::Dynamic) {
  PipelineOptions O = Opts;
  if (cachesDisabled()) {
    O.AM = &passThroughAM();
    O.UseProgramCache = false;
  }
  // The pipeline optimizes for the engine that will run the result (the
  // compiled engine's op tapes shift AutoSel's break-even points) and,
  // for compiled runs, lowers through the program cache — so the
  // measurement's counting and timing runs reuse one artifact, as do
  // repeated measurements of structurally identical configurations.
  O.Exec.Eng = Eng;
  CompileResult R = compileStream(Root, O);
  compileSecondsTotal() += R.totalSeconds();
  MeasureOptions MO;
  MO.WarmupOutputs = warmupWindow(Name);
  MO.MeasureOutputs = measureWindow(Name);
  MO.MeasureTime = MeasureTime;
  MO.Exec = O.Exec;
  MO.Program = R.Program; // null on the dynamic engine
  return measureSteadyState(*R.Optimized, MO);
}

inline double percentRemoved(double Base, double Opt) {
  if (Base == 0.0)
    return 0.0;
  return 100.0 * (1.0 - Opt / Base);
}

/// The paper reports speedup as percentage increase in throughput
/// ("average execution time decrease of 450%"): 100*(tBase/tOpt - 1).
inline double speedupPercent(double BaseSeconds, double OptSeconds) {
  if (OptSeconds <= 0.0)
    return 0.0;
  return 100.0 * (BaseSeconds / OptSeconds - 1.0);
}

inline void printRule(int Width = 78) {
  for (int I = 0; I != Width; ++I)
    std::putchar('-');
  std::putchar('\n');
}

//===----------------------------------------------------------------------===//
// Machine-readable results
//===----------------------------------------------------------------------===//

/// Collects benchmark rows and writes them as BENCH_<name>.json in the
/// working directory, so the perf trajectory is trackable across PRs.
/// Each entry carries a label, an engine tag and a flat set of numeric
/// fields (ns_per_output, flops_per_output, ...).
class JsonReport {
public:
  explicit JsonReport(std::string BenchName) : Name(std::move(BenchName)) {}
  ~JsonReport() { write(); }

  JsonReport(const JsonReport &) = delete;
  JsonReport &operator=(const JsonReport &) = delete;

  /// Adds one row of arbitrary numeric fields.
  void add(const std::string &Label, Engine Eng,
           std::vector<std::pair<std::string, double>> Fields) {
    Entries.push_back({Label, engineName(Eng), std::move(Fields)});
  }

  /// Adds one row for a Measurement (the standard column set), plus any
  /// extra fields (e.g. {"taps", 64}).
  void add(const std::string &Label, Engine Eng, const Measurement &M,
           std::vector<std::pair<std::string, double>> Extra = {}) {
    std::vector<std::pair<std::string, double>> Fields = std::move(Extra);
    Fields.push_back({"ns_per_output", M.secondsPerOutput() * 1e9});
    Fields.push_back({"flops_per_output", M.flopsPerOutput()});
    Fields.push_back({"mults_per_output", M.multsPerOutput()});
    Fields.push_back({"outputs", static_cast<double>(M.Outputs)});
    Entries.push_back({Label, engineName(Eng), std::move(Fields)});
  }

  /// Writes BENCH_<name>.json (also invoked by the destructor; idempotent
  /// per content change). Output lands in $SLIN_BENCH_DIR when set —
  /// giving CI one fixed, uploadable location regardless of each
  /// binary's working directory — and the CWD otherwise.
  void write() {
    std::string Path = "BENCH_" + Name + ".json";
    std::string Dir = RuntimeConfig::current().BenchDir;
    if (!Dir.empty())
      Path = Dir + "/" + Path;
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "warning: cannot write %s\n", Path.c_str());
      return;
    }
    std::fprintf(F, "{\n  \"bench\": \"%s\",\n  \"entries\": [\n",
                 Name.c_str());
    for (size_t I = 0; I != Entries.size(); ++I) {
      const Entry &E = Entries[I];
      std::fprintf(F, "    {\"label\": \"%s\", \"engine\": \"%s\"",
                   E.Label.c_str(), E.EngineTag.c_str());
      for (const auto &KV : E.Fields)
        std::fprintf(F, ", \"%s\": %.17g", KV.first.c_str(), KV.second);
      std::fprintf(F, "}%s\n", I + 1 == Entries.size() ? "" : ",");
    }
    std::fprintf(F, "  ]\n}\n");
    std::fclose(F);
  }

private:
  struct Entry {
    std::string Label;
    std::string EngineTag;
    std::vector<std::pair<std::string, double>> Fields;
  };

  std::string Name;
  std::vector<Entry> Entries;
};

} // namespace bench
} // namespace slin

#endif // SLIN_BENCH_BENCHUTIL_H
