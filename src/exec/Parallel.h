//===- exec/Parallel.h - Parallel sharded execution backend -----*- C++ -*-===//
///
/// \file
/// The multi-threaded execution layer over immutable CompiledProgram
/// artifacts (compiler/Program.h), in two modes:
///
///  * **Sharded steady state** (ParallelExecutor): one run's steady
///    iterations are split into per-worker shards, each served by an
///    independent CompiledExecutor instance over the same shared program,
///    running either the op tapes or the program's emitted native module
///    (codegen/NativeModule.h) — the same bit-identical code in every
///    shard, so sharding and native code compose.
///    Steady-state stream execution composes: the state at iteration k is
///    a function of closed-form filter progressions (seeded exactly) plus
///    a bounded window of recent data (channel leftovers, delay lines,
///    kernel partials), so a worker jumps to its shard boundary by
///    seeding and then replaying the schedule's washout depth
///    (sched/Schedule.h computeShardBoundary) with outputs discarded.
///    Shard 0 runs on the calling thread and, from the second call on,
///    simply continues the previous call's last shard, which ends exactly
///    where this call starts: no seeding, no washout replay.
///    Shard outputs are spliced in order; the result — values AND FLOP
///    counts — is bit-identical to a single-threaded run of the same
///    iterations. Programs whose state cannot be reconstructed (feedback
///    loops, opaque filter state) degrade to an equivalent sequential
///    run, never to an error.
///
///  * **Executor pool** (ExecutorPool): a fixed worker pool serving
///    concurrent independent run requests against one shared program —
///    the "compile once, serve many users" path. Each request gets a
///    fresh CompiledExecutor instance; the artifact is never mutated.
///
/// Worker-thread FLOP counts are folded back into the submitting thread's
/// counters (support/OpCounters.h accumulate), so measurements over the
/// parallel engine report the same totals as single-threaded runs.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_EXEC_PARALLEL_H
#define SLIN_EXEC_PARALLEL_H

#include "codegen/NativeModule.h"
#include "compiler/Program.h"
#include "exec/ExecOptions.h"
#include "support/Error.h"
#include "support/FaultInjection.h"
#include "support/OpCounters.h"

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace slin {

class CompiledExecutor;

/// Sharded steady-state execution of one logical run. Mirrors the
/// CompiledExecutor driving surface (provideInput / run / outputSnapshot
/// / printed / outputsProduced) so measurement and tests can swap the
/// engines; successive run calls continue the same logical stream, with
/// every call's iteration span sharded afresh.
class ParallelExecutor {
public:
  /// Uses the parallel knobs baked into the program's options, and the
  /// native module this process already holds for the program
  /// (NativeModuleCache::find: memory only, never a build); without one
  /// the shards run the op tapes.
  explicit ParallelExecutor(CompiledProgramRef Program);
  ParallelExecutor(CompiledProgramRef Program, ParallelOptions Opts);

  /// Every executor this object creates — shards, the sequential
  /// continuation, the print-rate probe — runs \p Native (null: the op
  /// tapes). Counting runs take the tapes regardless, as in
  /// CompiledExecutor.
  ParallelExecutor(CompiledProgramRef Program, ParallelOptions Opts,
                   codegen::NativeModuleRef Native);
  ~ParallelExecutor();

  ParallelExecutor(const ParallelExecutor &) = delete;
  ParallelExecutor &operator=(const ParallelExecutor &) = delete;

  /// Appends items to the logical run's external input stream.
  void provideInput(const std::vector<double> &Items);

  /// Runs until the observable output count reaches \p NOutputs (like
  /// CompiledExecutor::run, but sharded across workers).
  ///
  /// Both run entries return a deadlock (insufficient input) as
  /// ErrorCode::Deadlock, and an optional \p DL is polled between firing
  /// programs by every executor the call drives. A shard whose seeding
  /// fails validation (ErrorCode::ShardAnomaly) is absorbed, not
  /// surfaced: the fan-out's partial results are discarded and the rest
  /// of the span re-runs sequentially — outputs and FLOP counts still
  /// bit-identical — with lastRunStats() recording Sequential plus the
  /// anomaly as FallbackReason. Timeout/Cancelled propagate (re-running
  /// would only take longer); after one, this object's logical stream
  /// is indeterminate — recover with a fresh executor.
  Status run(size_t NOutputs, const faults::RunDeadline *DL = nullptr);

  /// Runs exactly \p Iters further steady iterations, sharded. The
  /// spliced outputs equal a single-threaded CompiledExecutor's
  /// runIterations over the same span, bit for bit.
  Status runIterations(int64_t Iters,
                       const faults::RunDeadline *DL = nullptr);

  std::vector<double> outputSnapshot() const { return ExtOut; }
  const std::vector<double> &printed() const { return Printed; }
  size_t outputsProduced() const;
  int64_t iterationsDone() const { return IterationsDone; }
  const CompiledProgram &program() const { return *Prog; }
  /// The module every executor this object creates runs (null: tapes).
  const codegen::NativeModuleRef &nativeModule() const { return Native; }

  /// How the most recent run/runIterations call executed.
  struct RunStats {
    int ShardsUsed = 0;
    int64_t Iterations = 0;        ///< steady iterations this call
    int64_t WarmupIterations = 0;  ///< replayed (discarded) across shards
    /// Ran on one in-place executor (ShardsUsed == 1): the whole call,
    /// or — after a shard anomaly — the rest of the span past the shards
    /// that completed before the anomalous one.
    bool Sequential = false;
    std::string FallbackReason;    ///< why, when Sequential
  };
  const RunStats &lastRunStats() const { return Stats; }

private:
  /// Where a span starts in an executor's output streams.
  struct Mark {
    size_t Out = 0;
    size_t Printed = 0;
  };

  struct ShardResult {
    int64_t Start = 0; ///< first steady iteration of the shard
    int64_t Span = 0;
    /// The shard's executor: handed in to continue the tail, else created
    /// by runShard. Its outputs from From onward are the shard's; the
    /// last shard is adopted as the new tail.
    std::unique_ptr<CompiledExecutor> Exec;
    size_t InFedEnd = 0; ///< global In index fed to Exec so far
    Mark From;
    OpCounts Ops;
    /// Non-Ok when the shard could not seed or run; its outputs are then
    /// meaningless, and so are those of every later shard.
    Status St;
  };

  std::unique_ptr<CompiledExecutor> newExecutor() const;
  int64_t consumedInputItems() const;
  void feed(CompiledExecutor &E, size_t &Fed) const;
  void splice(const CompiledExecutor &E, Mark From);
  void runShard(ShardResult &R, bool Counting,
                const faults::RunDeadline *DL) const;
  Status advanceTail(const faults::RunDeadline *DL,
                     const std::function<Status(CompiledExecutor &)> &Step);
  Status runSequentially(int64_t Iters, const std::string &Why,
                         const faults::RunDeadline *DL);

  CompiledProgramRef Prog;
  ParallelOptions Opts;
  codegen::NativeModuleRef Native; ///< null: op tapes
  std::vector<double> In; ///< full logical input stream, never trimmed
  std::vector<double> ExtOut;
  std::vector<double> Printed;
  int64_t IterationsDone = 0;
  bool InitDone = false;
  RunStats Stats;
  /// The continuation, positioned exactly at IterationsDone: the
  /// previous call's last shard, or an unshardable program's one
  /// sequential executor. It runs the next call's shard 0 (or whole
  /// span) forward directly — no re-seeding, no washout replay.
  std::unique_ptr<CompiledExecutor> Tail;
  size_t TailInFed = 0;
  /// Lazily probed outputs-per-iteration for print-driven graphs.
  int64_t ProbedPerIterOut = -1;
};

/// A fixed pool of worker threads serving independent run requests
/// against one shared CompiledProgram.
class ExecutorPool {
public:
  struct Request {
    std::vector<double> Input;
    size_t NOutputs = 0;
    bool CountOps = false; ///< fill Result::Ops (adds counting overhead)

    /// Serving extensions (src/service/): per-request engine selection,
    /// deadline and latency-mode firing. The defaults reproduce the
    /// original pool behaviour (throughput-batched compiled engine, no
    /// deadline).
    ///
    /// Compiled runs the op tapes; Native runs \p Native when non-null
    /// (the caller resolves the module — a null module IS the compiled
    /// engine, the degradation ladder's last rung); Parallel runs the
    /// sharded backend with \p Native in every shard (tape or native ×
    /// worker threads), which itself falls back to an equivalent
    /// sequential run on shard anomalies. Dynamic is not a pool engine
    /// and is served as Compiled.
    Engine Eng = Engine::Compiled;
    /// Pre-resolved module for Native and Parallel (null: op tapes).
    codegen::NativeModuleRef Native;
    int64_t DeadlineMillis = 0;      ///< > 0: wall-clock run deadline
    /// Latency mode: single steady iterations (bounded
    /// time-to-first-output) instead of fused batches. Runs on a
    /// CompiledExecutor even for Eng == Parallel — sharding is a
    /// throughput device and cannot bound the first output.
    bool Latency = false;
  };
  struct Result {
    Status St; ///< non-Ok (Deadlock/Timeout/Cancelled): Outputs unusable
    std::vector<double> Outputs; ///< external channel (or printed) values
    OpCounts Ops;
    double Seconds = 0.0; ///< wall-clock of the run itself (queue excluded)
    double FirstOutputSeconds = 0.0; ///< latency mode: time to first output
  };

  /// Outcome counters, snapshotted under the pool lock.
  struct Stats {
    uint64_t Served = 0;   ///< requests completed Ok
    uint64_t Timeouts = 0; ///< Timeout/Cancelled results
    uint64_t Failures = 0; ///< every other non-Ok result
  };

  /// \p Workers = 0 uses the program's parallel options (and 0 there
  /// falls back to the hardware concurrency).
  explicit ExecutorPool(CompiledProgramRef Program, int Workers = 0);
  ~ExecutorPool(); ///< drains queued requests, then joins the workers

  ExecutorPool(const ExecutorPool &) = delete;
  ExecutorPool &operator=(const ExecutorPool &) = delete;

  std::future<Result> submit(Request R);

  int workers() const { return static_cast<int>(Threads.size()); }
  uint64_t served() const;
  Stats stats() const;

  /// Queued (not yet started) requests — the admission layer's
  /// queue-depth signal.
  size_t queueDepth() const;

private:
  struct Job {
    Request Req;
    std::promise<Result> Promise;
  };
  void workerLoop();

  CompiledProgramRef Prog;
  mutable std::mutex Mutex;
  std::condition_variable Ready;
  std::deque<Job> Queue;
  bool Stopping = false;
  Stats Counters;
  std::vector<std::thread> Threads;
};

/// Resolves a worker-count knob: 0 means "ask the hardware" (min 1).
int resolveWorkerCount(int Requested);

} // namespace slin

#endif // SLIN_EXEC_PARALLEL_H
