//===- bench/bench_fig512_fft_strategies.cpp - Figure 5-12 ----------------==//
//
// FFT savings, theory vs practice (Section 5.8): the multiplication
// reduction factor (base mults/output over frequency mults/output) for
// the FIR program as a function of FIR size and manually chosen FFT
// length, under four strategies:
//   a) theory (closed form),
//   b) the naive transformation (Transformation 5) with the simple FFT,
//   c) the optimized transformation (Transformation 6) with the simple
//      FFT,
//   d) the optimized transformation with the planned real-input FFT
//      (the FFTW substitute).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "opt/Frequency.h"

using namespace slin;
using namespace slin::apps;
using namespace slin::bench;

namespace {

double reductionFactor(const Stream &Root, int FFTSize, bool Optimized,
                       FFTTier Tier, double BaseMults) {
  PipelineOptions O;
  O.Mode = OptMode::Freq;
  O.Freq.FFTSizeOverride = FFTSize;
  O.Freq.Optimized = Optimized;
  O.Freq.Tier = Tier;
  MeasureOptions MO;
  // The window must cover several firings of the freq filter, which
  // emits ~FFTSize outputs per firing.
  MO.WarmupOutputs = static_cast<size_t>(2 * FFTSize);
  MO.MeasureOutputs = static_cast<size_t>(4 * FFTSize);
  MO.MeasureTime = false;
  StreamPtr Opt = optimize(Root, O);
  Measurement M = measureSteadyState(*Opt, MO);
  return BaseMults / M.multsPerOutput();
}

} // namespace

int main() {
  JsonReport Report("fig512_fft_strategies");
  std::printf("Figure 5-12: multiplication reduction factor vs FIR size "
              "and FFT size\n");
  const int Sizes[] = {16, 32, 64, 128};
  for (const char *Series :
       {"a) theory", "b) naive (simple FFT)", "c) optimized (simple FFT)",
        "d) optimized (planned real FFT / FFTW-substitute)"}) {
    std::printf("\n%s\n", Series);
    printRule(70);
    std::printf("%10s", "FFT size");
    for (int E : Sizes)
      std::printf("   fir=%-5d", E);
    std::printf("\n");
    printRule(70);
    for (int N = 64; N <= 2048; N *= 2) {
      std::printf("%10d", N);
      for (int E : Sizes) {
        if (N < 2 * E) {
          std::printf("   %-8s", "-");
          continue;
        }
        double Factor = 0;
        if (Series[0] == 'a') {
          Factor = E / theoreticalFreqMultsPerOutput(E, N);
        } else {
          StreamPtr Root = buildFIR(E);
          PipelineOptions OB;
          OB.Mode = OptMode::Base;
          Measurement Base = measureConfig(*Root, OB, "FIR", false);
          bool Optimized = Series[0] != 'b';
          FFTTier Tier = Series[0] == 'd' ? FFTTier::PlannedReal
                                          : FFTTier::SimpleComplex;
          Factor = reductionFactor(*Root, N, Optimized, Tier,
                                   Base.multsPerOutput());
        }
        std::printf("   %-8.2f", Factor);
        std::fflush(stdout);
        Report.add(std::string(1, Series[0]) + "_fir" + std::to_string(E) +
                       "_fft" + std::to_string(N),
                   Engine::Dynamic,
                   {{"fir_taps", double(E)},
                    {"fft_size", double(N)},
                    {"reduction_factor", Factor}});
      }
      std::printf("\n");
    }
  }
  std::printf("\n(expected: d > c > b at each point; the optimized "
              "transformation buys ~1.5x over naive\n and the planned real "
              "FFT a further multiple, as in the paper)\n");
  return 0;
}
