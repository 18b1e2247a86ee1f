//===- examples/radar_selection.cpp - Why selection matters ----------------==//
//
// Section 5.2's Radar story: the Beamform stage pushes 2 items but pops
// 24, so blindly collapsing it with downstream filters duplicates most of
// its work, and frequency replacement drowns in the high pop rates. The
// selection DP averts both. This example measures all four configurations
// side by side.
//
//===----------------------------------------------------------------------===//

#include "apps/Benchmarks.h"
#include "exec/Measure.h"
#include "opt/Optimizer.h"

#include <cstdio>

using namespace slin;

int main() {
  apps::RadarParams P;
  P.Channels = 8;
  P.Beams = 4;
  StreamPtr Radar = apps::buildRadar(P);

  MeasureOptions MO;
  MO.WarmupOutputs = 256;
  MO.MeasureOutputs = 512;

  Measurement Base = measureSteadyState(*Radar, MO);
  std::printf("Radar (%d channels, %d beams): %.0f mults/output as "
              "written\n\n", P.Channels, P.Beams, Base.multsPerOutput());
  std::printf("%-22s %16s %14s\n", "configuration", "mults/output",
              "vs original");

  struct Cfg {
    const char *Name;
    OptMode Mode;
  };
  for (Cfg C : {Cfg{"maximal linear", OptMode::Linear},
                Cfg{"maximal frequency", OptMode::Freq},
                Cfg{"automatic selection", OptMode::AutoSel}}) {
    PipelineOptions O;
    O.Mode = C.Mode;
    StreamPtr Opt = optimize(*Radar, O);
    Measurement M = measureSteadyState(*Opt, MO);
    std::printf("%-22s %16.0f %+13.1f%%\n", C.Name, M.multsPerOutput(),
                100.0 * (M.multsPerOutput() / Base.multsPerOutput() - 1.0));
  }
  std::printf("\n(the selection algorithm averts the blowup that both "
              "maximal strategies cause)\n");
  return 0;
}
