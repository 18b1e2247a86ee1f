//===- opt/Optimizer.h - Optimization driver --------------------*- C++ -*-===//
///
/// \file
/// The configurations evaluated in Chapter 5: no optimization (base),
/// maximal linear replacement, maximal frequency replacement, redundancy
/// replacement, and automatic optimization selection — each with the
/// paper's knobs (combination on/off, code-generation backend, naive vs
/// optimized frequency implementation, FFT tier, pop-rate limit).
///
/// These are thin wrappers over the compiler pipeline
/// (compiler/Pipeline.h): OptMode and PipelineOptions live there —
/// PipelineOptions also carries the engine/exec knobs and cache/diagnostic
/// controls — and `optimize()` is orDie over CompilerPipeline::compile
/// that returns the rewritten stream and discards the compiled artifact
/// (call compile() to keep the artifact or to handle a failure).
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_OPT_OPTIMIZER_H
#define SLIN_OPT_OPTIMIZER_H

#include "compiler/Pipeline.h"
#include "opt/Frequency.h"
#include "opt/LinearReplacement.h"
#include "opt/Redundancy.h"
#include "opt/Selection.h"

namespace slin {

/// Applies the selected optimization configuration to \p Root.
StreamPtr optimize(const Stream &Root, const PipelineOptions &Opts);

/// Convenience: the paper's four headline configurations.
StreamPtr optimizeBase(const Stream &Root);
StreamPtr optimizeLinear(const Stream &Root, bool Combine = true);
StreamPtr optimizeFreq(const Stream &Root, bool Combine = true);
StreamPtr optimizeAutoSel(const Stream &Root);

} // namespace slin

#endif // SLIN_OPT_OPTIMIZER_H
