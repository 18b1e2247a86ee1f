//===- opt/Optimizer.cpp - Optimization driver --------------------------------==//

#include "opt/Optimizer.h"

using namespace slin;

StreamPtr slin::optimize(const Stream &Root, const PipelineOptions &Opts) {
  // Route through the pass pipeline; the transform result is the
  // optimized stream (lowering only happens for compiled-engine options).
  return compileStream(Root, Opts).Optimized;
}

StreamPtr slin::optimizeBase(const Stream &Root) { return Root.clone(); }

StreamPtr slin::optimizeLinear(const Stream &Root, bool Combine) {
  PipelineOptions O;
  O.Mode = OptMode::Linear;
  O.Combine = Combine;
  return optimize(Root, O);
}

StreamPtr slin::optimizeFreq(const Stream &Root, bool Combine) {
  PipelineOptions O;
  O.Mode = OptMode::Freq;
  O.Combine = Combine;
  return optimize(Root, O);
}

StreamPtr slin::optimizeAutoSel(const Stream &Root) {
  PipelineOptions O;
  O.Mode = OptMode::AutoSel;
  return optimize(Root, O);
}
