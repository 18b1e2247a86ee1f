//===- perfbench/harness/Compile.cpp - The compile workload ---------------===//
///
/// \file
/// 27 cells: the nine programs x {linear, freq, autosel}, compiled for the
/// compiled engine. Each cycle visits every cell once, round-robin in an
/// order drawn from the seed, and times two ops per cell:
///
///  * cold: memory caches cleared and a private store emptied, so the
///    pipeline analyses, rewrites, lowers and publishes the artifact;
///  * warm: memory caches cleared and the cell present in a store filled
///    during setup, so it resolves through the alias -> artifact-load path.
///
/// Set-up fills the warm store (repeated; setup_s is the median). The
/// oracle runs after the timed cycles: every cell's program must match
/// the tree interpreter on the *source* stream within a relative
/// tolerance, since linear and frequency replacement reassociate.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Trace.h"

#include "compiler/ArtifactStore.h"
#include "compiler/Pipeline.h"
#include "compiler/StructuralHash.h"
#include "exec/CompiledExecutor.h"
#include "sched/Rates.h"
#include "verify/Lint.h"

#include <cstdio>

using namespace slin;
using namespace perfbench;

namespace {

/// Outputs compared against the interpreter per program (and tolerance
/// relative to the reference window's largest magnitude).
constexpr size_t OracleOutputs = 512;
constexpr double OracleRelTol = 1e-9;

const char *const PassNames[] = {
    "clone",          "linear-analysis",   "linear-replacement",
    "frequency-replacement", "selection", "linear-const-fold",
    "dead-channel-elim", "flatten",       "schedule",
    "tape-compile",   "artifact-load"};

struct Cell {
  size_t Prog = 0;
  OptMode Mode = OptMode::Linear;
  std::vector<double> ColdMs, WarmMs;
  uint64_t Ops = 0;
  bool Failed = false;
  CompiledProgramRef Program; ///< from the latest warm op
};

std::string cellName(const std::vector<ProgramDef> &Suite, const Cell &C) {
  return Suite[C.Prog].Name + "." + optModeName(C.Mode);
}

/// One traced pipeline call. The pipeline's own per-pass timings become
/// child spans laid end to end from the call's start.
Expected<CompileResult> compileOnce(const Stream &Root, OptMode Mode,
                                    double &Ms) {
  PipelineOptions PO;
  PO.Mode = Mode;
  PO.Exec.Eng = Engine::Compiled;
  Tracer &T = Tracer::get();
  T.beginOp();
  Scope S("CompilerPipeline::tryCompile");
  double StartUs = T.enabled() ? T.nowUs() : 0.0;
  Clock::time_point Start = Clock::now();
  Expected<CompileResult> R = CompilerPipeline(PO).tryCompile(Root);
  Ms = secondsSince(Start) * 1e3;
  if (T.enabled() && R)
    for (const PassInfo &P : R->Passes) {
      T.addChild("compiler.pass." + P.Name, StartUs,
                 StartUs + P.Seconds * 1e6);
      StartUs += P.Seconds * 1e6;
    }
  return R;
}

bool hasPass(const CompileResult &R, const std::string &Name) {
  for (const PassInfo &P : R.Passes)
    if (P.Name == Name)
      return true;
  return false;
}

} // namespace

void perfbench::runCompile(const Options &O, Report &Rep) {
  std::vector<ProgramDef> Suite = programSuite();
  std::vector<StreamPtr> Roots;
  for (const ProgramDef &P : Suite)
    Roots.push_back(P.Build());
  std::vector<Cell> Cells;
  for (size_t P = 0; P != Suite.size(); ++P)
    for (OptMode M : {OptMode::Linear, OptMode::Freq, OptMode::AutoSel}) {
      Cell C;
      C.Prog = P;
      C.Mode = M;
      Cells.push_back(C);
    }

  const std::string WarmDir = O.WorkDir + "/compile/warm";
  const std::string ColdDir = O.WorkDir + "/compile/cold";
  const std::string SideDir = O.WorkDir + "/compile/side";
  for (const std::string &D : {WarmDir, ColdDir, SideDir}) {
    makeDirs(D);
    emptyDir(D);
  }

  // --- Set-up: fill the warm store -------------------------------------
  std::vector<double> SetupS;
  for (int Round = 0; Round != O.SetupReps; ++Round) {
    emptyDir(WarmDir);
    clearMemoryCaches();
    Clock::time_point Start = Clock::now();
    ArtifactStore::setGlobalDir(WarmDir);
    for (Cell &C : Cells) {
      double Ms = 0.0;
      Expected<CompileResult> R = compileOnce(*Roots[C.Prog], C.Mode, Ms);
      if (!R || R->Degraded)
        C.Failed = true;
    }
    SetupS.push_back(secondsSince(Start));
  }

  // --- Timed cycles ------------------------------------------------------
  const bool Traced = Tracer::get().enabled();
  std::map<std::string, std::vector<double>> PassMsPerCycle;
  std::vector<double> ColdSumS, RatesMs, StoreMs, LoadMs, LintMs;
  uint64_t FiltersAfter = 0, FlatNodes = 0, TapeInstrs = 0, ArtifactBytes = 0;
  ArtifactStore Side(SideDir);
  const std::vector<size_t> Order = seededOrder(Cells.size(), O.Seed);
  Clock::time_point RunStart = Clock::now();
  int Cycles = 0;
  while (Cycles == 0 || (!O.Tiny && secondsSince(RunStart) < O.Seconds)) {
    std::map<std::string, double> PassMs;
    for (const char *P : PassNames)
      PassMs[P] = 0.0;
    double ColdSum = 0.0, Rates = 0.0, Store = 0.0,
           Load = 0.0, Lint = 0.0;
    emptyDir(SideDir);
    for (size_t Index : Order) {
      Cell &C = Cells[Index];
      const Stream &Root = *Roots[C.Prog];
      Rep.Host.sample(); // between ops, outside every timed interval
      // Cold: nothing cached in memory, nothing in the private store.
      emptyDir(ColdDir);
      clearMemoryCaches();
      ArtifactStore::setGlobalDir(ColdDir);
      double Ms = 0.0;
      Expected<CompileResult> R = compileOnce(Root, C.Mode, Ms);
      ++C.Ops;
      if (!R || R->Degraded || hasPass(*R, "artifact-load")) {
        C.Failed = true;
        continue;
      }
      C.ColdMs.push_back(Ms);
      ColdSum += Ms / 1e3;
      for (const PassInfo &P : R->Passes)
        PassMs[P.Name] += P.Seconds * 1e3;
      const CompiledProgram &Prog = *R->Program;
      if (Cycles == 0) {
        for (const flat::Node &N : Prog.graph().Nodes)
          if (N.Kind == flat::NodeKind::Filter)
            ++FiltersAfter;
        FlatNodes += Prog.graph().Nodes.size();
        for (size_t I = 0; I != Prog.graph().Nodes.size(); ++I)
          if (Prog.graph().Nodes[I].Kind == flat::NodeKind::Filter) {
            const CompiledProgram::FilterArtifact &A = Prog.filterArtifact(I);
            TapeInstrs += A.Work.size() + A.InitWork.size();
          }
      }
      if (Traced) {
        // Layer probes outside the op's timed interval.
        Clock::time_point T0 = Clock::now();
        {
          Scope S("computeRates");
          computeRates(*R->Optimized);
        }
        Rates += secondsSince(T0) * 1e3;
        ArtifactStore::Key K{structuralHash(Prog.root()),
                             hashOptions(Prog.options())};
        T0 = Clock::now();
        {
          Scope S("ArtifactStore::store");
          Side.store(K, Prog);
        }
        Store += secondsSince(T0) * 1e3;
        T0 = Clock::now();
        {
          Scope S("ArtifactStore::load");
          if (!Side.load(K))
            C.Failed = true;
        }
        Load += secondsSince(T0) * 1e3;
        if (Cycles == 0)
          ArtifactBytes += fileSize(Side.pathFor(K));
        if (C.Mode == OptMode::AutoSel) {
          T0 = Clock::now();
          Scope S("lintProgram");
          verify::LintReport LR = verify::lintProgram(Prog);
          (void)LR;
          Lint += secondsSince(T0) * 1e3;
        }
      }

      // Warm: nothing cached in memory, the cell present in the store.
      clearMemoryCaches();
      ArtifactStore::setGlobalDir(WarmDir);
      R = compileOnce(Root, C.Mode, Ms);
      ++C.Ops;
      if (!R || R->Degraded || !hasPass(*R, "artifact-load") ||
          !R->Program->loadedFromArtifact()) {
        C.Failed = true;
        continue;
      }
      C.WarmMs.push_back(Ms);
      for (const PassInfo &P : R->Passes)
        PassMs[P.Name] += P.Seconds * 1e3;
      C.Program = R->Program;
    }
    for (const auto &[Name, Ms] : PassMs)
      PassMsPerCycle[Name].push_back(Ms);
    ColdSumS.push_back(ColdSum);
    RatesMs.push_back(Rates);
    StoreMs.push_back(Store);
    LoadMs.push_back(Load);
    LintMs.push_back(Lint);
    ++Cycles;
  }
  ArtifactStore::setGlobalDir("");

  // --- Oracle: compiled program vs the interpreter on the source -------
  std::vector<std::vector<double>> Refs;
  for (size_t P = 0; P != Suite.size(); ++P) {
    Scope S("interpreter");
    Refs.push_back(interpreterOutputs(*Roots[P], OracleOutputs));
  }
  if (O.CorruptReference)
    Refs[0][0] += 1.0;
  for (Cell &C : Cells) {
    if (C.Failed || !C.Program)
      continue;
    Scope S("CompiledExecutor::run");
    // Single steady iterations: a frequency-replaced program's batch can
    // span ~10^6 outputs, far more than the oracle needs.
    CompiledExecutor E(C.Program);
    E.tryRunLatency(OracleOutputs);
    std::vector<double> Out = outputsOf(*C.Program, E);
    if (!withinTolerance(Out, Refs[C.Prog], OracleOutputs, OracleRelTol)) {
      std::fprintf(stderr, "perfbench: oracle mismatch on %s\n",
                   cellName(Suite, C).c_str());
      C.Failed = true;
    }
  }

  // --- Metrics -------------------------------------------------------------
  std::vector<double> ColdMed, WarmMed;
  for (Cell &C : Cells) {
    Rep.Attempted += C.Ops;
    if (C.Failed) {
      Rep.Failed += C.Ops;
      continue;
    }
    ColdMed.push_back(median(C.ColdMs));
    WarmMed.push_back(median(C.WarmMs));
    if (C.Mode == OptMode::AutoSel) {
      Rep.set("cold_compile_ms." + Suite[C.Prog].Name, ColdMed.back(), "ms");
      Rep.set("warm_load_ms." + Suite[C.Prog].Name, WarmMed.back(), "ms");
    }
  }
  std::vector<double> AllMed = ColdMed;
  AllMed.insert(AllMed.end(), WarmMed.begin(), WarmMed.end());
  Rep.setScaled("setup_s", median(SetupS), "s", true);
  Rep.set("peak_rss_mb", peakRssMb(), "MB");
  Rep.setScaled("op_ms", geomean(AllMed), "ms", true);
  // One cycle's worth of ops at every cell's median speed.
  double CycleMs = 0.0;
  for (double Ms : AllMed)
    CycleMs += Ms;
  Rep.setScaled("ops_per_s",
                static_cast<double>(AllMed.size()) * 1e3 / CycleMs, "1/s",
                false);
  Rep.set("cold_compile_ms", geomean(ColdMed), "ms");
  Rep.set("warm_load_ms", geomean(WarmMed), "ms");
  Rep.set("compile_suite_s", median(ColdSumS), "s");
  for (const auto &[Name, V] : PassMsPerCycle)
    Rep.set("compiler.pass." + Name + "_ms", median(V), "ms");
  if (Traced) {
    Rep.set("sched.compute_rates_ms", median(RatesMs), "ms");
    Rep.set("compiler.artifact.store_ms", median(StoreMs), "ms");
    Rep.set("compiler.artifact.load_ms", median(LoadMs), "ms");
    Rep.set("compiler.artifact.bytes", static_cast<double>(ArtifactBytes),
            "bytes");
    Rep.set("verify.lint_ms", median(LintMs), "ms");
  }
  Rep.set("opt.filters_after", static_cast<double>(FiltersAfter), "count");
  Rep.set("exec.flat_nodes", static_cast<double>(FlatNodes), "count");
  Rep.set("wir.tape_instrs", static_cast<double>(TapeInstrs), "count");

  Rep.detail("cycles", std::to_string(Cycles));
  Rep.detail("oracle", "{\"outputs\":" + std::to_string(OracleOutputs) +
                           ",\"rel_tol\":" + jsonNumber(OracleRelTol) + "}");
}
