//===- bench/bench_fig511_radar_scaling.cpp - Figure 5-11 -----------------==//
//
// Radar scaling (Section 5.7): multiplication reduction of maximal linear
// replacement as a function of the number of channels and beams. The
// paper finds linear replacement degrades as the problem grows — more
// beams hurt much more than more channels, because collapsing the
// Beamform stage (pop 2*channels, push 2) with downstream filters
// duplicates its work per output.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace slin;
using namespace slin::apps;
using namespace slin::bench;

int main() {
  JsonReport Report("fig511_radar_scaling");
  std::printf("Figure 5-11: Radar multiplication reduction under maximal "
              "linear replacement (%%)\n");
  printRule(64);
  std::printf("%10s", "channels");
  for (int Beams = 1; Beams <= 4; ++Beams)
    std::printf(" %10s%d", "beams=", Beams);
  std::printf("\n");
  printRule(64);
  for (int Channels = 4; Channels <= 12; Channels += 4) {
    std::printf("%10d", Channels);
    for (int Beams = 1; Beams <= 4; ++Beams) {
      RadarParams P;
      P.Channels = Channels;
      P.Beams = Beams;
      StreamPtr Root = buildRadar(P);
      PipelineOptions O;
      O.Mode = OptMode::Base;
      Measurement Base = measureConfig(*Root, O, "Radar", false);
      O.Mode = OptMode::Linear;
      Measurement Lin = measureConfig(*Root, O, "Radar", false);
      std::printf(" %10.1f%%",
                  percentRemoved(Base.multsPerOutput(),
                                 Lin.multsPerOutput()));
      std::fflush(stdout);
      std::string Tag = "Radar_c" + std::to_string(Channels) + "_b" +
                        std::to_string(Beams);
      Report.add(Tag + "_base", Engine::Dynamic, Base,
                 {{"channels", double(Channels)}, {"beams", double(Beams)}});
      Report.add(Tag + "_linear", Engine::Dynamic, Lin,
                 {{"channels", double(Channels)}, {"beams", double(Beams)}});
    }
    std::printf("\n");
  }
  std::printf("(expected shape: reduction degrades as beams grow, "
              "channels matter less)\n");
  return 0;
}
