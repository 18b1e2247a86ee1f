//===- perfbench/harness/Steady.cpp - The steady workload -----------------===//
///
/// \file
/// 54 cells: the nine programs x {base, autosel} x {tape, native,
/// sharded}. Set-up (repeated; setup_s is the median) compiles the 18
/// programs and builds their native modules. Each cycle then visits every
/// cell once, round-robin in an order drawn from the seed, and for each
/// builds a fresh executor, runs one
/// untimed first window (init firings and pipeline fill; its outputs are
/// checked bit for bit) and times the second window. Windows are fixed in
/// outputs per (program, mode) and never calibrated at run time.
///
/// Engines: tape = CompiledExecutor on the op tapes; native =
/// CompiledExecutor with the emitted C++ module; sharded =
/// ParallelExecutor with 2 workers. Cells run one at a time, so the
/// single-threaded cells never overlap the sharded ones.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Trace.h"

#include "codegen/NativeModule.h"
#include "compiler/ArtifactStore.h"
#include "compiler/Pipeline.h"
#include "exec/CompiledExecutor.h"
#include "exec/Parallel.h"
#include "fft/FFT.h"
#include "matrix/Kernels.h"
#include "support/OpCounters.h"
#include "support/Serialize.h"

#include <cstdio>
#include <cstring>
#include <memory>

using namespace slin;
using namespace perfbench;

namespace {

/// Outputs per window for {base, autosel}, sized at seed 0 so that one
/// op-tape window takes roughly 20 ms on a 4-vCPU x86 host. The executor
/// stops at the first batch boundary at or past the target, so the
/// outputs a window actually yields are recorded per cell.
struct WindowSpec {
  const char *Program;
  size_t Base, AutoSel;
};
const WindowSpec Windows[] = {
    {"FIR", 8192, 98304},        {"RateConvert", 2560, 65536},
    {"TargetDetect", 7168, 131072}, {"FMRadio", 2304, 32768},
    {"Radar", 1280, 1024},       {"FilterBank", 2048, 65536},
    {"Vocoder", 320, 1024},      {"Oversampler", 15360, 196608},
    {"DToA", 4608, 40960}};

size_t windowFor(const std::string &Program, OptMode Mode, bool Tiny) {
  for (const WindowSpec &W : Windows)
    if (Program == W.Program) {
      size_t N = Mode == OptMode::Base ? W.Base : W.AutoSel;
      return Tiny ? std::max<size_t>(N / 16, 64) : N;
    }
  return 1024;
}

enum class Eng { Tape, Native, Sharded };
const char *engName(Eng E) {
  return E == Eng::Tape ? "tape" : E == Eng::Native ? "native" : "sharded";
}

/// One compiled (program, mode) pair; its three engine cells share it.
struct Variant {
  size_t Prog = 0;
  OptMode Mode = OptMode::Base;
  size_t Window = 0;
  StreamPtr Optimized;
  CompiledProgramRef Program;
  codegen::NativeModuleRef Native;
  /// The first window of the variant's first op: every later first
  /// window, on every engine, must equal it bit for bit; after the timed
  /// cycles it is checked against the tree interpreter.
  std::vector<double> FirstWindow;
  bool Failed = false;
};

struct Cell {
  size_t Var = 0;
  Eng E = Eng::Tape;
  std::vector<double> NsPerOutput, WindowMs;
  uint64_t Ops = 0, Mismatches = 0;
  uint64_t Outputs = 0; ///< outputs of one timed window (deterministic)
  uint64_t Firings = 0; ///< firings of one timed window (tape only)
  int64_t WarmupIterations = 0, Iterations = 0; ///< sharded totals
  bool Sequential = false;
};

/// One op: fresh executor, untimed first window (checked), timed second.
void runWindow(Variant &V, Cell &C, double &Seconds) {
  const CompiledProgram &P = *V.Program;
  Tracer::get().beginOp();
  std::vector<double> First;
  size_t Before = 0, After = 0;
  uint64_t FiringsBefore = 0, FiringsAfter = 0;
  Clock::time_point Start;
  if (C.E == Eng::Sharded) {
    ParallelOptions PO;
    PO.Workers = 2;
    ParallelExecutor E(V.Program, PO);
    E.run(V.Window);
    First = outputsOf(P, E);
    Before = E.outputsProduced();
    {
      Scope S("ParallelExecutor::run");
      Start = Clock::now();
      E.run(Before + V.Window);
      Seconds = secondsSince(Start);
    }
    After = E.outputsProduced();
    const ParallelExecutor::RunStats &St = E.lastRunStats();
    C.WarmupIterations += St.WarmupIterations;
    C.Iterations += St.Iterations;
    C.Sequential |= St.Sequential;
  } else {
    CompiledExecutor E(V.Program, C.E == Eng::Native
                                      ? V.Native
                                      : codegen::NativeModuleRef());
    E.run(V.Window);
    First = outputsOf(P, E);
    Before = E.outputsProduced();
    FiringsBefore = E.firings();
    {
      Scope S("CompiledExecutor::run");
      Start = Clock::now();
      E.run(Before + V.Window);
      Seconds = secondsSince(Start);
    }
    After = E.outputsProduced();
    FiringsAfter = E.firings();
  }
  C.Outputs = After - Before;
  C.Firings = FiringsAfter - FiringsBefore;
  ++C.Ops;
  if (V.FirstWindow.empty())
    V.FirstWindow.assign(First.begin(),
                         First.begin() + std::min(First.size(), V.Window));
  else if (!bitIdentical(First, V.FirstWindow, V.FirstWindow.size()))
    ++C.Mismatches;
}

/// Reads the FFT size out of a frequency filter's persisted payload
/// (content digest, e, u, optimized flag, tier byte, then N).
size_t fftSizeOf(const NativeFilter &F) {
  serial::Writer W;
  F.serializePayload(W);
  const std::vector<uint8_t> &B = W.bytes();
  const size_t At = 16 + 4 + 4 + 1 + 1;
  if (B.size() < At + 8)
    return 0;
  uint64_t N = 0;
  for (int I = 7; I >= 0; --I)
    N = (N << 8) | B[At + static_cast<size_t>(I)];
  return N;
}

/// Times the batched linear kernels and real FFTs on the shapes the
/// autosel programs use; returns {ns per MAC, ns per FFT point}.
std::pair<double, double> probeKernels(const std::vector<Variant> &Vars) {
  double GemmSeconds = 0.0, Macs = 0.0, FftSeconds = 0.0, Points = 0.0;
  for (const Variant &V : Vars) {
    if (V.Mode != OptMode::AutoSel || V.Failed)
      continue;
    for (const flat::Node &N : V.Program->graph().Nodes) {
      if (N.Kind != flat::NodeKind::Filter || !N.F->isNative())
        continue;
      const NativeFilter &NF = N.F->native();
      const char *Tag = NF.serialTag();
      if (!Tag)
        continue;
      if (!std::strcmp(Tag, "packed-linear") ||
          !std::strcmp(Tag, "tuned-linear")) {
        const int E = NF.peekRate(), U = NF.pushRate(), O = NF.popRate();
        Matrix C(static_cast<size_t>(E), static_cast<size_t>(U));
        for (int I = 0; I != E; ++I)
          for (int J = 0; J != U; ++J)
            C.at(static_cast<size_t>(I), static_cast<size_t>(J)) =
                1.0 / (1 + I + 3 * J);
        Vector B(static_cast<size_t>(U), 0.5);
        const int K = std::max(1, (1 << 18) / std::max(1, E * U));
        std::vector<double> In(static_cast<size_t>(K) * O + E, 0.25);
        std::vector<double> Out(static_cast<size_t>(K) * U);
        Clock::time_point T0;
        if (!std::strcmp(Tag, "packed-linear")) {
          PackedLinearKernel Kern(C, B);
          Scope S("PackedLinearKernel::applyBatched");
          T0 = Clock::now();
          Kern.applyBatched(In.data(), Out.data(), K, O);
          GemmSeconds += secondsSince(T0);
          Macs += static_cast<double>(K) * Kern.bandedMultiplyCount();
        } else {
          TunedGemv Kern(C, B);
          Scope S("TunedGemv::applyBatched");
          T0 = Clock::now();
          Kern.applyBatched(In.data(), Out.data(), K, O);
          GemmSeconds += secondsSince(T0);
          Macs += static_cast<double>(K) * E * U;
        }
      } else if (!std::strcmp(Tag, "freq")) {
        size_t Size = fftSizeOf(NF);
        if (Size < 2)
          continue;
        fft::FFTPlan Plan(Size);
        std::vector<double> In(Size, 0.125), Out(Size);
        const size_t Reps = std::max<size_t>(1, (1 << 18) / Size);
        Scope S("FFTPlan::forwardReal");
        Clock::time_point T0 = Clock::now();
        for (size_t R = 0; R != Reps; ++R)
          Plan.forwardReal(In.data(), Out.data());
        FftSeconds += secondsSince(T0);
        Points += static_cast<double>(Reps * Size);
      }
    }
  }
  return {Macs ? GemmSeconds * 1e9 / Macs : 0.0,
          Points ? FftSeconds * 1e9 / Points : 0.0};
}

} // namespace

void perfbench::runSteady(const Options &O, Report &Rep) {
  std::vector<ProgramDef> Suite = programSuite();
  std::vector<Variant> Vars;
  for (size_t P = 0; P != Suite.size(); ++P)
    for (OptMode M : {OptMode::Base, OptMode::AutoSel}) {
      Variant V;
      V.Prog = P;
      V.Mode = M;
      V.Window = windowFor(Suite[P].Name, M, O.Tiny);
      Vars.push_back(std::move(V));
    }
  std::vector<StreamPtr> Roots;
  for (const ProgramDef &P : Suite)
    Roots.push_back(P.Build());

  // --- Set-up: compile, then build native modules ----------------------
  ArtifactStore::setGlobalDir(""); // every compile and build is real work
  std::vector<double> SetupS, BuildMs;
  int Degraded = 0;
  for (int R = 0; R != O.SetupReps; ++R) {
    clearMemoryCaches();
    Clock::time_point Start = Clock::now();
    double Build = 0.0;
    Degraded = 0;
    for (Variant &V : Vars) {
      PipelineOptions PO;
      PO.Mode = V.Mode;
      PO.Exec.Eng = Engine::Compiled;
      Tracer::get().beginOp();
      Expected<CompileResult> CR = [&] {
        Scope S("CompilerPipeline::tryCompile");
        return CompilerPipeline(PO).tryCompile(*Roots[V.Prog]);
      }();
      if (!CR || CR->Degraded) {
        V.Failed = true;
        continue;
      }
      V.Program = CR->Program;
      V.Optimized = std::move(CR->Optimized);
      Clock::time_point T0 = Clock::now();
      {
        Scope S("NativeModuleCache::get");
        V.Native = codegen::NativeModuleCache::global().get(*V.Program);
      }
      Build += secondsSince(T0) * 1e3;
      if (!V.Native)
        ++Degraded;
    }
    SetupS.push_back(secondsSince(Start));
    BuildMs.push_back(Build);
  }

  std::vector<Cell> Cells;
  for (size_t I = 0; I != Vars.size(); ++I)
    for (Eng E : {Eng::Tape, Eng::Native, Eng::Sharded}) {
      Cell C;
      C.Var = I;
      C.E = E;
      Cells.push_back(C);
    }

  // --- Timed cycles ------------------------------------------------------
  const std::vector<size_t> Order = seededOrder(Cells.size(), O.Seed);
  Clock::time_point RunStart = Clock::now();
  int Cycles = 0;
  while (Cycles == 0 || (!O.Tiny && secondsSince(RunStart) < O.Seconds)) {
    for (size_t Index : Order) {
      Cell &C = Cells[Index];
      Variant &V = Vars[C.Var];
      if (Index % 2 == 0)
        Rep.Host.sample(); // between ops, outside every timed interval
      if (V.Failed)
        continue;
      double S = 0.0;
      runWindow(V, C, S);
      C.WindowMs.push_back(S * 1e3);
      C.NsPerOutput.push_back(S * 1e9 / static_cast<double>(C.Outputs));
    }
    ++Cycles;
  }

  // --- Oracle: first windows vs the tree interpreter -------------------
  for (size_t I = 0; I != Vars.size(); ++I) {
    Variant &V = Vars[I];
    if (V.Failed)
      continue;
    std::vector<double> Ref;
    {
      Scope S("interpreter");
      Ref = interpreterOutputs(*V.Optimized, V.FirstWindow.size());
    }
    if (O.CorruptReference && I == 0)
      Ref[0] += 1.0;
    if (!bitIdentical(V.FirstWindow, Ref, V.FirstWindow.size())) {
      std::fprintf(stderr, "perfbench: %s.%s differs from the interpreter\n",
                   Suite[V.Prog].Name.c_str(), optModeName(V.Mode));
      V.Failed = true;
    }
  }

  // --- Metrics -------------------------------------------------------------
  std::map<Eng, std::vector<double>> NsByEngine;
  std::vector<double> AllWindowMs, FiringsPerOutput;
  int64_t Warmup = 0, Iters = 0;
  int SequentialCells = 0;
  std::string WindowJson = "{";
  for (Cell &C : Cells) {
    const Variant &V = Vars[C.Var];
    const std::string Name = std::string(engName(C.E)) + "_ns." +
                             optModeName(V.Mode) + "." + Suite[V.Prog].Name;
    Rep.Attempted += C.Ops;
    if (V.Failed || C.Mismatches) {
      Rep.Failed += V.Failed ? C.Ops : C.Mismatches;
      if (V.Failed)
        continue;
    }
    double Ns = median(C.NsPerOutput);
    NsByEngine[C.E].push_back(Ns);
    AllWindowMs.push_back(median(C.WindowMs));
    Rep.set("exec." + Name, Ns, "ns");
    if (C.E == Eng::Tape)
      FiringsPerOutput.push_back(static_cast<double>(C.Firings) /
                                 static_cast<double>(C.Outputs));
    if (C.E == Eng::Sharded) {
      Warmup += C.WarmupIterations;
      Iters += C.Iterations;
      SequentialCells += C.Sequential;
    }
    WindowJson += (WindowJson.size() > 1 ? "," : "") + jsonString(Name) +
                  ":{\"target\":" + std::to_string(V.Window) +
                  ",\"outputs\":" + std::to_string(C.Outputs) + "}";
  }
  Rep.setScaled("setup_s", median(SetupS), "s", true);
  Rep.set("peak_rss_mb", peakRssMb(), "MB");
  Rep.setScaled("op_ms", geomean(AllWindowMs), "ms", true);
  // One cycle's worth of windows at every cell's median speed.
  double CycleMs = 0.0;
  for (double Ms : AllWindowMs)
    CycleMs += Ms;
  Rep.setScaled("ops_per_s",
                static_cast<double>(AllWindowMs.size()) * 1e3 / CycleMs,
                "1/s", false);
  Rep.set("tape_ns_per_output", geomean(NsByEngine[Eng::Tape]), "ns");
  Rep.set("native_ns_per_output", geomean(NsByEngine[Eng::Native]), "ns");
  Rep.set("sharded_ns_per_output", geomean(NsByEngine[Eng::Sharded]), "ns");
  Rep.set("exec.firings_per_output", geomean(FiringsPerOutput), "count");
  Rep.set("exec.shard.washout_share",
          Iters ? static_cast<double>(Warmup) / static_cast<double>(Iters)
                : 0.0,
          "ratio");
  Rep.set("exec.shard.sequential_cells", SequentialCells, "count");
  Rep.set("codegen.build_ms", median(BuildMs), "ms");
  Rep.set("codegen.degraded_cells", Degraded, "count");

  if (Tracer::get().enabled()) {
    // Operation counts over the autosel cells (one counted window each).
    double Flops = 0.0, Mults = 0.0;
    for (const Variant &V : Vars) {
      if (V.Mode != OptMode::AutoSel || V.Failed)
        continue;
      CompiledExecutor E(V.Program);
      E.run(V.Window);
      size_t Before = E.outputsProduced();
      ops::CountingScope Counting;
      OpCounts C0 = ops::counts();
      {
        Scope S("CompiledExecutor::run");
        E.run(Before + V.Window);
      }
      OpCounts D = ops::counts() - C0;
      double Outputs = static_cast<double>(E.outputsProduced() - Before);
      Flops += static_cast<double>(D.flops()) / Outputs;
      Mults += static_cast<double>(D.mults()) / Outputs;
    }
    Rep.set("opt.flops_per_output", Flops, "count");
    Rep.set("opt.mults_per_output", Mults, "count");
    auto [NsPerMac, NsPerPoint] = probeKernels(Vars);
    Rep.set("matrix.batched_gemm_ns_per_mac", NsPerMac, "ns");
    Rep.set("fft.ns_per_point", NsPerPoint, "ns");
  }
  Rep.detail("cycles", std::to_string(Cycles));
  Rep.detail("windows", WindowJson + "}");
}
