//===- exec/Engine.h - Execution engine selection ---------------*- C++ -*-===//
///
/// \file
/// The execution engines of the runtime: the dynamic data-driven
/// Executor (tree-walking interpreter, per-sweep readiness scan), the
/// compiled batched CompiledExecutor (static firing program, op tapes,
/// batched matrix kernels), and the parallel sharded backend
/// (exec/Parallel.h) that splits a run's steady iterations across worker
/// threads, each an independent CompiledExecutor over the same shared
/// CompiledProgram running its op tapes or its native module.
/// Measurement helpers, the cost model and the benchmark
/// harness all select an engine through this enum.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_EXEC_ENGINE_H
#define SLIN_EXEC_ENGINE_H

namespace slin {

enum class Engine {
  Dynamic,  ///< exec/Executor.h
  Compiled, ///< exec/CompiledExecutor.h
  Parallel, ///< exec/Parallel.h (tape or native x worker threads)
  Native    ///< codegen/NativeModule.h (emitted C++, dlopen'd per program)
};

inline const char *engineName(Engine E) {
  switch (E) {
  case Engine::Dynamic:
    return "dynamic";
  case Engine::Compiled:
    return "compiled";
  case Engine::Parallel:
    return "parallel";
  case Engine::Native:
    return "native";
  }
  return "unknown";
}

/// Engines that execute a lowered CompiledProgram artifact (everything
/// but the tree interpreter): the pipeline lowers for them, the cost
/// model prices them with the compiled engine's coefficients.
inline bool usesCompiledArtifact(Engine E) { return E != Engine::Dynamic; }

} // namespace slin

#endif // SLIN_EXEC_ENGINE_H
