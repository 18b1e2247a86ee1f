//===- bench/bench_artifact_store.cpp - Warm-start benchmark --------------==//
//
// The disk-persistent artifact store (compiler/ArtifactStore.h): how much
// of a service restart's compile bill does SLIN_ARTIFACT_DIR eliminate?
//
//  * default mode measures, per fig 5-1 pipeline, the in-memory-cold
//    compile (pass-through analysis cache, no program cache — the
//    pre-artifact restart cost) against a warm start that resolves the
//    same configuration through the artifact store with every in-memory
//    cache cleared (the post-restart cost). Target: >= 5x.
//  * --populate <dir> compiles every configuration into <dir>;
//    --serve <dir> then proves (exit status) that a *separate process*
//    loads each stored artifact with one artifact-load pass and serves
//    outputs bit-identical to a from-scratch compile. CI runs the pair
//    as its two-process cache-sharing smoke test.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "compiler/ArtifactStore.h"
#include "compiler/Program.h"
#include "support/RuntimeConfig.h"

#include <chrono>
#include <cstring>
#include <string>
#include <unistd.h>

using namespace slin;
using namespace slin::apps;
using namespace slin::bench;

namespace {

const char *const Names[] = {"FIR", "RateConvert", "TargetDetect",
                             "FilterBank", "Radar"};
constexpr size_t ServeWindow = 256;

StreamPtr buildByName(const std::string &Name) {
  for (const BenchmarkEntry &B : allBenchmarks())
    if (B.Name == Name)
      return B.Build();
  std::fprintf(stderr, "unknown benchmark %s\n", Name.c_str());
  std::exit(2);
}

/// The fig 5-1 serving configuration: AutoSel with the compiled engine's
/// measured cost model (the most expensive compile path in the harness).
PipelineOptions servingConfig() {
  static const MeasuredCostModel CompiledModel{Engine::Compiled};
  PipelineOptions O;
  O.Mode = OptMode::AutoSel;
  O.Model = &CompiledModel;
  O.Exec.Eng = Engine::Compiled;
  return O;
}

double msSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
             .count() *
         1e3;
}

void flushMemoryCaches() {
  AnalysisManager::global().invalidate();
  ProgramCache::global().clear();
}

int populate(const std::string &Dir) {
  ArtifactStore::setGlobalDir(Dir);
  for (const char *Name : Names) {
    StreamPtr Root = buildByName(Name);
    CompileResult R = compileStream(*Root, servingConfig());
    if (!R.Program) {
      std::fprintf(stderr, "%s: no program produced\n", Name);
      return 1;
    }
  }
  ArtifactStore::Stats S = ArtifactStore::global()->stats();
  std::printf("populated %s: %llu artifacts stored\n", Dir.c_str(),
              static_cast<unsigned long long>(S.Stores));
  return 0;
}

int serve(const std::string &Dir) {
  ArtifactStore::setGlobalDir(Dir);
  int Failures = 0;
  for (const char *Name : Names) {
    StreamPtr Root = buildByName(Name);

    // This process is cold: any pass beyond the artifact load means the
    // cross-process cache failed.
    flushMemoryCaches();
    CompileResult Warm = compileStream(*Root, servingConfig());
    bool ZeroPasses = Warm.Program && Warm.Program->loadedFromArtifact() &&
                      Warm.Passes.size() == 1 &&
                      Warm.Passes[0].Name == "artifact-load";
    std::vector<double> Served =
        Warm.Program ? collectOutputs(*Warm.Optimized, ServeWindow,
                                      Engine::Compiled)
                     : std::vector<double>();

    // Reference: a from-scratch compile that never touches the store.
    PipelineOptions Cold = servingConfig();
    AnalysisManager PassThrough;
    PassThrough.setEnabled(false);
    Cold.AM = &PassThrough;
    Cold.UseProgramCache = false;
    CompileResult Ref = compileStream(*Root, Cold);
    std::vector<double> Expect =
        collectOutputs(*Ref.Optimized, ServeWindow, Engine::Dynamic);
    // Dynamic vs compiled engines are bit-identical (equivalence_test),
    // so the dynamic run of the reference stream is a store-independent
    // oracle for the served outputs.
    bool BitIdentical = Served == Expect;

    std::printf("%-14s zero-pass load: %-3s  bit-identical: %-3s\n", Name,
                ZeroPasses ? "yes" : "NO", BitIdentical ? "yes" : "NO");
    if (!ZeroPasses || !BitIdentical)
      ++Failures;
  }
  return Failures ? 1 : 0;
}

int coldWarmReport() {
  JsonReport Report("artifact_store");
  std::string Dir = RuntimeConfig::current().ArtifactDir;
  bool OwnDir = Dir.empty();
  if (OwnDir) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "artifact-store-bench.%ld",
                  static_cast<long>(::getpid()));
    Dir = Buf;
  }

  std::printf("%-14s %14s %14s %10s\n", "Benchmark", "cold (ms)",
              "warm (ms)", "speedup");
  printRule(56);
  double ColdTotal = 0.0, WarmTotal = 0.0;
  for (const char *Name : Names) {
    StreamPtr Root = buildByName(Name);

    // In-memory-cold: the pre-artifact restart price (every cache empty
    // and unused, as under SLIN_NO_CACHE).
    ArtifactStore::setGlobalDir("");
    PipelineOptions Cold = servingConfig();
    AnalysisManager PassThrough;
    PassThrough.setEnabled(false);
    Cold.AM = &PassThrough;
    Cold.UseProgramCache = false;
    auto Start = std::chrono::steady_clock::now();
    CompileResult ColdR = compileStream(*Root, Cold);
    double ColdMs = msSince(Start);

    // Warm start: stored artifact on disk, in-memory caches as empty as
    // a fresh process.
    ArtifactStore::setGlobalDir(Dir);
    flushMemoryCaches();
    compileStream(*Root, servingConfig()); // populate disk
    flushMemoryCaches();
    Start = std::chrono::steady_clock::now();
    CompileResult WarmR = compileStream(*Root, servingConfig());
    double WarmMs = msSince(Start);

    bool Loaded = WarmR.Program && WarmR.Program->loadedFromArtifact();
    if (!Loaded)
      std::fprintf(stderr, "%s: warm compile missed the store!\n", Name);
    (void)ColdR;

    ColdTotal += ColdMs;
    WarmTotal += WarmMs;
    std::printf("%-14s %14.2f %14.2f %9.1fx\n", Name, ColdMs, WarmMs,
                WarmMs > 0 ? ColdMs / WarmMs : 0.0);
    Report.add(Name, Engine::Compiled,
               {{"cold_ms", ColdMs},
                {"warm_ms", WarmMs},
                {"speedup", WarmMs > 0 ? ColdMs / WarmMs : 0.0},
                {"loaded_from_disk", Loaded ? 1.0 : 0.0}});
  }
  printRule(56);
  double Speedup = WarmTotal > 0 ? ColdTotal / WarmTotal : 0.0;
  std::printf("%-14s %14.2f %14.2f %9.1fx  (target >= 5x)\n", "total",
              ColdTotal, WarmTotal, Speedup);
  Report.add("total", Engine::Compiled,
             {{"cold_ms", ColdTotal},
              {"warm_ms", WarmTotal},
              {"speedup", Speedup}});

  ArtifactStore::setGlobalDir("");
  if (OwnDir) {
    std::string Cmd = "rm -rf '" + Dir + "'";
    if (std::system(Cmd.c_str()) != 0)
      std::fprintf(stderr, "warning: could not remove %s\n", Dir.c_str());
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc == 3 && std::strcmp(Argv[1], "--populate") == 0)
    return populate(Argv[2]);
  if (Argc == 3 && std::strcmp(Argv[1], "--serve") == 0)
    return serve(Argv[2]);
  if (Argc != 1) {
    std::fprintf(stderr,
                 "usage: %s [--populate <dir> | --serve <dir>]\n", Argv[0]);
    return 2;
  }
  return coldWarmReport();
}
