//===- exec/Measure.cpp - Steady-state measurement ---------------------------==//

#include "exec/Measure.h"

#include "compiler/Program.h"
#include "exec/CompiledExecutor.h"
#include "exec/Parallel.h"

#include <chrono>

using namespace slin;

namespace {

/// Drives any engine to \p N outputs. The Dynamic oracle aborts on a
/// deadlock itself; the compiled engines' Status is a bug here (the
/// measured graphs are self-contained), so it aborts too.
void runTo(Executor &E, size_t N) { E.run(N); }
template <class ExecT> void runTo(ExecT &E, size_t N) { orDie(E.run(N)); }

/// The measurement protocol over any engine: all expose the same
/// run/outputsProduced surface.
template <class ExecT, class MakeExec>
Measurement measureWith(const MeasureOptions &Opts, MakeExec Make) {
  Measurement M;

  // Counting run: warm up, snapshot, run the measured window, diff. The
  // schedulers may overshoot a requested output count, so both the op
  // delta and the output delta are taken from actual progress.
  {
    ExecT E = Make();
    ops::CountingScope Scope;
    ops::reset();
    runTo(E, Opts.WarmupOutputs);
    OpCounts OpsBefore = ops::counts();
    size_t OutBefore = E.outputsProduced();
    runTo(E, OutBefore + Opts.MeasureOutputs);
    M.Ops = ops::counts() - OpsBefore;
    M.Outputs = E.outputsProduced() - OutBefore;
  }

  // Timing run: identical schedule, counting disabled.
  if (Opts.MeasureTime) {
    ExecT E = Make();
    ops::CountingScope Scope(false);
    runTo(E, Opts.WarmupOutputs);
    size_t OutBefore = E.outputsProduced();
    auto Start = std::chrono::steady_clock::now();
    runTo(E, OutBefore + Opts.MeasureOutputs);
    auto End = std::chrono::steady_clock::now();
    double Secs = std::chrono::duration<double>(End - Start).count();
    size_t Outs = E.outputsProduced() - OutBefore;
    // Rescale to the counting run's window size.
    M.Seconds = Outs ? Secs * static_cast<double>(M.Outputs) /
                           static_cast<double>(Outs)
                     : 0.0;
  }
  return M;
}

/// The native module an artifact engine runs: Native builds (or fetches)
/// one — null when codegen degrades, which is the op-tape path; Parallel
/// takes the one this process already holds, if any (never a build);
/// Compiled runs the op tapes. Counting runs take the tapes regardless.
codegen::NativeModuleRef moduleFor(Engine Eng, const CompiledProgram &P) {
  if (Eng == Engine::Native)
    return codegen::NativeModuleCache::global().get(P);
  if (Eng == Engine::Parallel)
    return codegen::NativeModuleCache::global().find(P);
  return nullptr;
}

/// The observable outputs of a finished run, trimmed to \p NOutputs.
template <class ExecT>
std::vector<double> outputsOf(const ExecT &E, size_t NOutputs) {
  std::vector<double> Out =
      E.printed().empty() ? E.outputSnapshot() : E.printed();
  if (Out.size() > NOutputs)
    Out.resize(NOutputs);
  return Out;
}

} // namespace

Measurement slin::measureSteadyState(const Stream &Root,
                                     const MeasureOptions &Opts) {
  if (!usesCompiledArtifact(Opts.Exec.Eng))
    return measureWith<Executor>(
        Opts, [&] { return Executor(Root, Opts.Exec.Dynamic); });
  CompiledProgramRef P =
      Opts.Program ? Opts.Program
                   : ProgramCache::global().get(Root, Opts.Exec.Compiled);
  codegen::NativeModuleRef Mod = moduleFor(Opts.Exec.Eng, *P);
  if (Opts.Exec.Eng == Engine::Parallel)
    // Worker-thread op counts fold back into this thread's counters
    // (ops::accumulate), so the protocol reads them as usual.
    return measureWith<ParallelExecutor>(Opts, [&] {
      return ParallelExecutor(P, Opts.Exec.Compiled.Parallel, Mod);
    });
  return measureWith<CompiledExecutor>(
      Opts, [&] { return CompiledExecutor(P, Mod); });
}

std::vector<double> slin::collectOutputs(const Stream &Root, size_t NOutputs,
                                         Engine Eng) {
  if (!usesCompiledArtifact(Eng)) {
    Executor E(Root);
    E.run(NOutputs);
    return outputsOf(E, NOutputs);
  }
  CompiledProgramRef P = ProgramCache::global().get(Root, CompiledOptions());
  codegen::NativeModuleRef Mod = moduleFor(Eng, *P);
  if (Eng == Engine::Parallel) {
    ParallelExecutor E(P, P->options().Parallel, Mod);
    orDie(E.run(NOutputs));
    return outputsOf(E, NOutputs);
  }
  CompiledExecutor E(P, Mod);
  orDie(E.run(NOutputs));
  return outputsOf(E, NOutputs);
}
