//===- bench/bench_native_codegen.cpp - Emitted-C++ engine speedup --------==//
//
// The native codegen engine against the op-tape interpreter on the
// Figure 5-8 FIR, at the tap counts where the acceptance bar sits
// (>= 1.5x over the op tapes at 64+ taps). Two configurations per size:
//
//   * Base mode — the work function runs as written, so the comparison
//     is emitted C++ (peek/pop lowered to direct indexing, MacFldPeek
//     fused, -O3 -march=native) vs the op-tape dispatch loop: the
//     engine's headline win.
//   * Linear mode — linear replacement has already collapsed the FIR
//     into a packed kernel on both sides, so the comparison is the
//     emitted batch GEMM vs the host's identically-shaped kernel:
//     expected to be roughly at par (it is the same loop nest), kept as
//     a guard against the emitted kernel ever regressing.
//
// FLOP columns are identical across engines by construction (counting
// runs fall back to the tapes); only wall-clock differs. Without a
// toolchain the harness prints the degradation and exits 0 — the CI
// no-toolchain arm runs it too.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "codegen/CxxBackend.h"
#include "compiler/Pipeline.h"

using namespace slin;
using namespace slin::apps;
using namespace slin::bench;

int main() {
  JsonReport Report("native_codegen");

  // Probe with a real Engine::Native compile: discoverCompiler() can
  // return a *named but unusable* compiler (the CI no-toolchain arm sets
  // SLIN_CXX to a nonexistent path), and a degraded run would "measure"
  // the op tapes against themselves. Print the degradation and exit 0.
  {
    StreamPtr Probe = buildFIR(8);
    PipelineOptions PO;
    PO.Exec.Eng = Engine::Native;
    PO.UseProgramCache = false;
    CompileResult R = compileStream(*Probe, PO);
    if (R.Degraded) {
      std::printf("native codegen: %s; Engine::Native degrades to the "
                  "op tapes — nothing to measure.\n",
                  R.DegradeReason.c_str());
      return 0;
    }
  }

  std::printf("Native codegen engine vs op-tape interpreter (fig 5-8 FIR)\n");
  printRule(74);
  std::printf("%5s %8s %14s %14s %9s %14s\n", "taps", "mode", "tape ns/out",
              "native ns/out", "native x", "flops/out");
  printRule(74);

  for (int Taps : {16, 64, 128}) {
    StreamPtr Root = buildFIR(Taps);
    std::string T = std::to_string(Taps);
    for (OptMode Mode : {OptMode::Base, OptMode::Linear}) {
      PipelineOptions O;
      O.Mode = Mode;
      Measurement Tape =
          measureConfig(*Root, O, "FIR", true, Engine::Compiled);
      Measurement Native =
          measureConfig(*Root, O, "FIR", true, Engine::Native);
      double Speedup = Native.secondsPerOutput() > 0.0
                           ? Tape.secondsPerOutput() /
                                 Native.secondsPerOutput()
                           : 0.0;
      const char *ModeName = Mode == OptMode::Base ? "base" : "linear";
      std::printf("%5d %8s %14.1f %14.1f %8.2fx %14.1f\n", Taps, ModeName,
                  Tape.secondsPerOutput() * 1e9,
                  Native.secondsPerOutput() * 1e9, Speedup,
                  Native.flopsPerOutput());
      std::string Label = "FIR" + T + "_" + ModeName;
      Report.add(Label, Engine::Compiled, Tape, {{"taps", double(Taps)}});
      Report.add(Label, Engine::Native, Native,
                 {{"taps", double(Taps)},
                  {"speedup_vs_optape", Speedup}});
    }
  }
  return 0;
}
