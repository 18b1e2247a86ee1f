//===- exec/ExecOptions.h - Unified execution options -----------*- C++ -*-===//
///
/// \file
/// One struct holding every engine knob: which engine runs the program
/// and the per-engine tuning options. Measurement helpers, the compiler
/// pipeline, the program cache and the bench harnesses all carry an
/// ExecOptions instead of parallel (engine, executor-options, batch-
/// iterations) fields. The per-engine structs live here — away from the
/// engine headers — so option-only consumers stay light.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_EXEC_EXECOPTIONS_H
#define SLIN_EXEC_EXECOPTIONS_H

#include "exec/Engine.h"

#include <cstddef>

namespace slin {

/// Knobs of the dynamic data-driven engine (exec/Executor.h).
struct DynamicOptions {
  /// Upper bound on any channel's high-water mark. Each channel's
  /// actual cap is derived from its consumer's peek requirement (twice
  /// the requirement, at least MinChannelCap) so producers stay only
  /// slightly ahead of consumers and measured windows reflect steady
  /// state rather than queue fill-up.
  size_t ChannelCap = 1 << 16;
  size_t MinChannelCap = 64;
  /// Max consecutive firings of one node within a sweep.
  size_t BatchLimit = 1024;
};

/// Knobs of the parallel sharded backend (exec/Parallel.h), which runs
/// CompiledProgram artifacts across a pool of worker threads.
struct ParallelOptions {
  /// Worker threads a sharded run fans out to (also the executor-pool
  /// size). 0 picks the hardware concurrency.
  int Workers = 4;
  /// Minimum steady iterations per shard; a run too short to give every
  /// worker this much (or a program whose shard-boundary state cannot be
  /// reconstructed) degrades gracefully to fewer workers / one shard.
  /// The effective floor is max(ShardMinIterations, washout) — shards
  /// shorter than the washout would spend more iterations refreshing
  /// boundary state than executing their span.
  long long ShardMinIterations = 32;

  bool operator==(const ParallelOptions &O) const {
    return Workers == O.Workers && ShardMinIterations == O.ShardMinIterations;
  }
};

/// Knobs of the compiled batched engine (exec/CompiledExecutor.h) and of
/// the parallel backend layered on top of it.
///
/// NOTE for maintainers: ProgramCache keys artifacts (in memory AND on
/// disk) on a hash of EVERY field of this struct. Adding a field is a
/// compile error in hashOptions (compiler/Program.cpp) and in
/// serializeProgram (compiler/ArtifactStore.cpp) until the new field is
/// mixed into the key and round-tripped — both destructure this struct
/// and ParallelOptions field by field, so a new knob can never silently
/// alias artifacts compiled under different options. Keep this struct
/// (and ParallelOptions) an aggregate, or those checks stop compiling.
struct CompiledOptions {
  /// Steady-state iterations fused into one batch program. Larger
  /// batches give the batched kernels longer runs (and cost
  /// proportionally more channel memory).
  int BatchIterations = 16;
  /// Parallel-backend knobs (ignored by plain CompiledExecutor runs).
  ParallelOptions Parallel;
};

/// Engine selection plus both engines' knobs.
struct ExecOptions {
  Engine Eng = Engine::Dynamic;
  DynamicOptions Dynamic;
  CompiledOptions Compiled;
};

} // namespace slin

#endif // SLIN_EXEC_EXECOPTIONS_H
