//===- exec/Parallel.cpp - Parallel sharded execution backend ----------------==//

#include "exec/Parallel.h"

#include "exec/CompiledExecutor.h"
#include "support/MathUtil.h"

#include <algorithm>

using namespace slin;

int slin::resolveWorkerCount(int Requested) {
  if (Requested > 0)
    return Requested;
  unsigned HW = std::thread::hardware_concurrency();
  return HW ? static_cast<int>(HW) : 1;
}

//===----------------------------------------------------------------------===//
// ParallelExecutor
//===----------------------------------------------------------------------===//

namespace {

/// Items the external input must hold beyond what a program run pops
/// (peek lookahead of the first consumer; init-work windows).
int64_t externalLookahead(const StaticSchedule &S) {
  int64_t E = std::max(S.InitExternalNeed - S.InitExternalPops,
                       S.SteadyExternalNeed - S.SteadyExternalPops);
  return std::max(E, S.BatchExternalNeed - S.BatchExternalPops);
}

} // namespace

ParallelExecutor::ParallelExecutor(CompiledProgramRef Program)
    : ParallelExecutor(Program, Program->options().Parallel) {}

ParallelExecutor::ParallelExecutor(CompiledProgramRef Program,
                                   ParallelOptions Opts)
    : ParallelExecutor(Program, Opts,
                       codegen::NativeModuleCache::global().find(*Program)) {}

ParallelExecutor::ParallelExecutor(CompiledProgramRef Program,
                                   ParallelOptions Opts,
                                   codegen::NativeModuleRef Native)
    : Prog(std::move(Program)), Opts(Opts), Native(std::move(Native)) {
  assert(Prog && "null program");
}

ParallelExecutor::~ParallelExecutor() = default;

std::unique_ptr<CompiledExecutor> ParallelExecutor::newExecutor() const {
  return std::make_unique<CompiledExecutor>(Prog, Native);
}

void ParallelExecutor::provideInput(const std::vector<double> &Items) {
  In.insert(In.end(), Items.begin(), Items.end());
}

size_t ParallelExecutor::outputsProduced() const {
  return Prog->graph().RootProducesOutput ? ExtOut.size() : Printed.size();
}

int64_t ParallelExecutor::consumedInputItems() const {
  const StaticSchedule &S = Prog->schedule();
  return (InitDone ? S.InitExternalPops : 0) +
         IterationsDone * S.SteadyExternalPops;
}

/// Hands \p E the input items from global index \p Fed onward.
void ParallelExecutor::feed(CompiledExecutor &E, size_t &Fed) const {
  if (Fed < In.size()) {
    E.provideInput(std::vector<double>(
        In.begin() + static_cast<ptrdiff_t>(Fed), In.end()));
    Fed = In.size();
  }
}

/// Appends what \p E produced from \p From onward to the logical streams.
void ParallelExecutor::splice(const CompiledExecutor &E, Mark From) {
  const std::vector<double> &Out = E.externalOutputs();
  ExtOut.insert(ExtOut.end(), Out.begin() + static_cast<ptrdiff_t>(From.Out),
                Out.end());
  const std::vector<double> &P = E.printed();
  Printed.insert(Printed.end(),
                 P.begin() + static_cast<ptrdiff_t>(From.Printed), P.end());
}

/// Executes one shard on the calling thread. A shard handed an executor
/// continues it (the adopted tail, positioned exactly at R.Start).
/// Otherwise it seeds (or, at the true stream start, genuinely
/// initializes) a fresh executor at the shard boundary and replays the
/// washout with counting off. Then it runs the span, leaving the outputs
/// in the executor from R.From onward. Any failure lands in R.St (never
/// aborts off the main thread).
void ParallelExecutor::runShard(ShardResult &R, bool Counting,
                                const faults::RunDeadline *DL) const {
  if (R.Exec) {
    feed(*R.Exec, R.InFedEnd);
  } else {
    const StaticSchedule &S = Prog->schedule();
    int64_t Washout = Prog->shardInfo().WashoutIterations;
    int64_t From = std::max<int64_t>(0, R.Start - Washout);
    int64_t Warm = R.Start - From;
    R.Exec = newExecutor();
    CompiledExecutor &E = *R.Exec;
    // The shard's input slice: its own pops plus the peek lookahead. A
    // worker replaying from the stream start (From == 0) runs the real
    // init program and consumes the init pops too.
    int64_t Offset =
        From == 0 ? 0 : S.InitExternalPops + From * S.SteadyExternalPops;
    int64_t Len = (From == 0 ? S.InitExternalPops : 0) +
                  (Warm + R.Span) * S.SteadyExternalPops +
                  externalLookahead(S);
    if (Len > 0 && Offset < static_cast<int64_t>(In.size())) {
      size_t End = std::min(In.size(), static_cast<size_t>(Offset + Len));
      E.provideInput(
          std::vector<double>(In.begin() + Offset, In.begin() + End));
      R.InFedEnd = End;
    }
    if (From > 0) {
      R.St = E.seedSteadyState(From);
      if (!R.St.isOk())
        return;
    }
    if (Warm > 0 || From > 0) {
      // Replayed iterations refresh boundary state; their outputs are
      // discarded below and their ops must not count (a sequential run
      // executes them once, not once per shard). The Warm == 0 shard at
      // the true stream start takes no warmup at all: its init program
      // must run inside the counted span, exactly like a sequential
      // run's.
      ops::CountingScope Off(false);
      R.St = E.runIterations(Warm, DL);
      if (!R.St.isOk())
        return;
    }
  }
  CompiledExecutor &E = *R.Exec;
  R.From = {E.externalOutputs().size(), E.printed().size()};
  OpCounts Before = ops::counts();
  {
    ops::CountingScope Scope(Counting);
    R.St = E.runIterations(R.Span, DL);
  }
  R.Ops = ops::counts() - Before;
}

/// Runs \p Step on the tail — or, when there is none, on a fresh
/// executor caught up (uncounted) through the iterations already done;
/// replayed work, so it cannot starve — and splices what the step
/// produced. A failure leaves the executor indeterminate mid-stream: it
/// is discarded, and the next call rebuilds one.
Status ParallelExecutor::advanceTail(
    const faults::RunDeadline *DL,
    const std::function<Status(CompiledExecutor &)> &Step) {
  bool Fresh = !Tail;
  if (Fresh) {
    Tail = newExecutor();
    TailInFed = 0;
  }
  feed(*Tail, TailInFed);
  Status St;
  if (Fresh && IterationsDone > 0) {
    ops::CountingScope Off(false);
    St = Tail->runIterations(IterationsDone, DL);
  }
  Mark From{Tail->externalOutputs().size(), Tail->printed().size()};
  if (St.isOk())
    St = Step(*Tail);
  if (!St.isOk()) {
    Tail.reset();
    return St;
  }
  splice(*Tail, From);
  return St;
}

/// Runs \p Iters iterations in place on the tail, recorded as a
/// sequential run for reason \p Why. The tail fires the exact firing
/// sequence a single-threaded engine would, so outputs and FLOP counts
/// stay bit-identical to the sharded path.
Status ParallelExecutor::runSequentially(int64_t Iters, const std::string &Why,
                                         const faults::RunDeadline *DL) {
  auto Step = [&](CompiledExecutor &E) {
    return E.runIterations(Iters, DL);
  };
  if (Status St = advanceTail(DL, Step); !St.isOk())
    return St;
  Stats.ShardsUsed = 1;
  Stats.Sequential = true;
  Stats.FallbackReason = Why;
  IterationsDone += Iters;
  InitDone = true;
  return Status::ok();
}

Status ParallelExecutor::runIterations(int64_t Iters,
                                       const faults::RunDeadline *DL) {
  Stats = RunStats();
  if (Iters <= 0)
    return Status::ok();
  Stats.Iterations = Iters;
  const StaticSchedule &S = Prog->schedule();

  const CompiledProgram::ShardInfo &SI = Prog->shardInfo();
  if (!SI.Shardable)
    return runSequentially(Iters, SI.Reason, DL);

  // Validate input coverage up front (workers must not hit the engine's
  // deadlock diagnostics off the main thread).
  int64_t Required = (InitDone ? 0 : S.InitExternalPops) +
                     Iters * S.SteadyExternalPops + externalLookahead(S);
  int64_t Avail = static_cast<int64_t>(In.size()) - consumedInputItems();
  if (Avail < Required)
    return Status(ErrorCode::Deadlock,
                  "parallel run needs " + std::to_string(Required) +
                      " external input items, have " + std::to_string(Avail));

  // Shards shorter than the washout replay more than they execute; the
  // floor keeps the fan-out worth its warmup.
  int64_t MinSpan = std::max<int64_t>(
      {static_cast<int64_t>(Opts.ShardMinIterations), SI.WashoutIterations, 1});
  int Workers = resolveWorkerCount(Opts.Workers);
  int Shards = static_cast<int>(
      std::min<int64_t>(Workers, std::max<int64_t>(1, Iters / MinSpan)));
  bool Counting = ops::isCounting();

  // Shard 0 runs on the calling thread, whose counting scope already
  // applies (its op delta is never folded), and continues the tail when
  // one exists; the others seed fresh executors on their own threads.
  int64_t Base = Iters / Shards, Rem = Iters % Shards;
  std::vector<ShardResult> Results(static_cast<size_t>(Shards));
  Results[0].Exec = std::move(Tail);
  Results[0].InFedEnd = TailInFed;
  std::vector<std::thread> Threads;
  int64_t Start = IterationsDone;
  for (int I = 0; I != Shards; ++I) {
    ShardResult &R = Results[static_cast<size_t>(I)];
    R.Start = Start;
    R.Span = Base + (I < Rem ? 1 : 0);
    Start += R.Span;
    if (!R.Exec)
      Stats.WarmupIterations += std::min(SI.WashoutIterations, R.Start);
    if (I > 0)
      Threads.emplace_back(
          [this, &R, Counting, DL] { runShard(R, Counting, DL); });
  }
  runShard(Results[0], Counting, DL);
  for (std::thread &T : Threads)
    T.join();

  // Shards after a failed one cover positions it was meant to produce,
  // so only the shards before the first failure stand. A timeout or
  // deadlock propagates; a seed anomaly is absorbed below.
  auto Bad = std::find_if(Results.begin(), Results.end(),
                          [](const ShardResult &R) { return !R.St.isOk(); });
  if (Bad != Results.end() && Bad->St.code() != ErrorCode::ShardAnomaly)
    return Bad->St;
  OpCounts Folded;
  for (auto It = Results.begin(); It != Bad; ++It) {
    splice(*It->Exec, It->From);
    if (It != Results.begin())
      Folded += It->Ops;
    IterationsDone += It->Span;
    InitDone = true;
  }
  if (Counting)
    ops::accumulate(Folded);
  if (Bad != Results.begin()) {
    // The last standing shard ends exactly at the new IterationsDone.
    Tail = std::move(Bad[-1].Exec);
    TailInFed = Bad[-1].InFedEnd;
  }
  Stats.ShardsUsed = static_cast<int>(Bad - Results.begin());
  if (Bad == Results.end())
    return Status::ok();
  // A shard could not seed: the rest of the span re-runs sequentially on
  // the tail (a fresh, caught-up executor when shard 0 itself failed).
  return runSequentially(Iters - (IterationsDone - Results[0].Start),
                         Bad->St.str(), DL);
}

Status ParallelExecutor::run(size_t NOutputs, const faults::RunDeadline *DL) {
  size_t Have = outputsProduced();
  if (Have >= NOutputs)
    return Status::ok();
  const StaticSchedule &S = Prog->schedule();

  if (!Prog->shardInfo().Shardable) {
    // Drive the tail's own output-driven loop directly — identical
    // behavior (including deadlock diagnostics) to a plain
    // CompiledExecutor::run.
    Stats = RunStats();
    if (Status St = advanceTail(DL,
                                [&](CompiledExecutor &E) {
                                  return E.run(NOutputs, DL);
                                });
        !St.isOk())
      return St;
    Stats.ShardsUsed = 1;
    Stats.Sequential = true;
    Stats.FallbackReason = Prog->shardInfo().Reason;
    InitDone = true;
    return Status::ok();
  }

  int64_t PerIter = S.SteadyExternalPushes;
  if (!Prog->graph().RootProducesOutput) {
    // Print-driven graph: the schedule cannot count prints statically, so
    // probe a throwaway executor for two iterations (uncounted) when
    // enough input exists; otherwise leave the rate unknown and let the
    // loop below pace itself.
    if (ProbedPerIterOut < 0 &&
        static_cast<int64_t>(In.size()) >=
            S.InitExternalPops + 2 * S.SteadyExternalPops +
                externalLookahead(S)) {
      CompiledExecutor E(Prog, Native);
      ops::CountingScope Off(false);
      E.provideInput(In);
      if (Status St = E.runIterations(1); !St.isOk())
        return St;
      size_t O1 = E.outputsProduced();
      if (Status St = E.runIterations(1); !St.isOk())
        return St;
      ProbedPerIterOut = static_cast<int64_t>(E.outputsProduced() - O1);
    }
    PerIter = std::max<int64_t>(ProbedPerIterOut, 0);
  }

  // The rate may be approximate (print counts can vary per iteration),
  // so loop to the target like the sequential engine does, and fail the
  // same way it does: a batch-sized span yielding no output is a
  // deadlock, and exhausted input surfaces runIterations' diagnostic.
  int64_t Floor = 1;
  while (outputsProduced() < NOutputs) {
    size_t Before = outputsProduced();
    int64_t Deficit = static_cast<int64_t>(NOutputs - Before);
    int64_t Iters = std::max<int64_t>(
        PerIter > 0 ? ceilDiv(Deficit, PerIter) : S.BatchIterations, Floor);
    if (S.SteadyExternalPops > 0) {
      int64_t Budget = (static_cast<int64_t>(In.size()) -
                        consumedInputItems() -
                        (InitDone ? 0 : S.InitExternalPops) -
                        externalLookahead(S)) /
                       S.SteadyExternalPops;
      Iters = std::min(Iters, std::max<int64_t>(Budget, 1));
    }
    if (Status St = runIterations(std::max<int64_t>(Iters, 1), DL);
        !St.isOk())
      return St;
    if (outputsProduced() == Before) {
      if (Iters >= S.BatchIterations)
        return Status(ErrorCode::Deadlock,
                      "stream graph deadlocked: steady state produces no "
                      "observable output");
      // A short span may legitimately print nothing; escalate to a full
      // batch before declaring deadlock (input-starved runs terminate
      // via runIterations' own diagnostic as the budget drains).
      Floor = S.BatchIterations;
    }
  }
  return Status::ok();
}

//===----------------------------------------------------------------------===//
// ExecutorPool
//===----------------------------------------------------------------------===//

ExecutorPool::ExecutorPool(CompiledProgramRef Program, int Workers)
    : Prog(std::move(Program)) {
  int N = resolveWorkerCount(Workers > 0 ? Workers
                                         : Prog->options().Parallel.Workers);
  Threads.reserve(static_cast<size_t>(N));
  for (int I = 0; I != N; ++I)
    Threads.emplace_back([this] { workerLoop(); });
}

ExecutorPool::~ExecutorPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  Ready.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

std::future<ExecutorPool::Result> ExecutorPool::submit(Request R) {
  Job J;
  J.Req = std::move(R);
  std::future<Result> F = J.Promise.get_future();
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    assert(!Stopping && "submit on a stopping pool");
    Queue.push_back(std::move(J));
  }
  Ready.notify_one();
  return F;
}

uint64_t ExecutorPool::served() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Counters.Served;
}

ExecutorPool::Stats ExecutorPool::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Counters;
}

size_t ExecutorPool::queueDepth() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Queue.size();
}

void ExecutorPool::workerLoop() {
  for (;;) {
    Job J;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      Ready.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // stopping and drained
      J = std::move(Queue.front());
      Queue.pop_front();
    }
    faults::RunDeadline DL =
        faults::RunDeadline::afterMillis(J.Req.DeadlineMillis);
    const faults::RunDeadline *DLP = J.Req.DeadlineMillis > 0 ? &DL : nullptr;
    Result R;
    OpCounts Before = ops::counts();
    auto Start = std::chrono::steady_clock::now();
    {
      ops::CountingScope Scope(J.Req.CountOps);
      if (J.Req.Eng == Engine::Parallel && !J.Req.Latency) {
        ParallelExecutor E(Prog, Prog->options().Parallel, J.Req.Native);
        E.provideInput(J.Req.Input);
        R.St = E.run(J.Req.NOutputs, DLP);
        if (R.St.isOk())
          R.Outputs = Prog->graph().RootProducesOutput ? E.outputSnapshot()
                                                       : E.printed();
      } else {
        // Compiled and Native share the executor; a null module IS the
        // op-tape engine. Latency mode always runs here (see Request).
        CompiledExecutor E(Prog, J.Req.Native);
        E.provideInput(J.Req.Input);
        R.St = J.Req.Latency
                   ? E.tryRunLatency(J.Req.NOutputs, DLP,
                                     &R.FirstOutputSeconds)
                   : E.run(J.Req.NOutputs, DLP);
        if (R.St.isOk())
          R.Outputs = Prog->graph().RootProducesOutput ? E.outputSnapshot()
                                                       : E.printed();
      }
    }
    R.Seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      Start)
            .count();
    R.Ops = ops::counts() - Before;
    {
      // Count before fulfilling: a caller that observed the future must
      // also observe the increment.
      std::lock_guard<std::mutex> Lock(Mutex);
      if (R.St.isOk())
        ++Counters.Served;
      else if (R.St.code() == ErrorCode::Timeout ||
               R.St.code() == ErrorCode::Cancelled)
        ++Counters.Timeouts;
      else
        ++Counters.Failures;
    }
    J.Promise.set_value(std::move(R));
  }
}
