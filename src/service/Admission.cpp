//===- service/Admission.cpp - Serving set and request admission ----------===//
///
/// \file
/// Startup warming and the per-request admission/execution path behind
/// service/Admission.h.
///
//===----------------------------------------------------------------------===//

#include "service/Admission.h"

#include "apps/Benchmarks.h"
#include "codegen/NativeModule.h"
#include "compiler/ArtifactStore.h"

#include <utility>

using namespace slin;
using namespace slin::service;

Admission::Admission(ServiceConfig C) : Cfg(std::move(C)) {}

Admission::~Admission() = default;

Admission::Counters Admission::counters() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Counts;
}

std::vector<std::string> Admission::graphs() const {
  std::vector<std::string> Names;
  Names.reserve(Entries.size());
  for (const auto &E : Entries)
    Names.push_back(E->Name);
  return Names;
}

Admission::Entry *Admission::findEntry(const std::string &Name) {
  for (auto &E : Entries)
    if (E->Name == Name)
      return E.get();
  return nullptr;
}

Status Admission::start() {
  // Bulk-warm the program cache from the artifact store first, so the
  // per-graph compiles below resolve without running a single pass on a
  // restart against a populated store.
  if (Cfg.Prefetch)
    if (ArtifactStore *Store = ArtifactStore::enabledGlobal()) {
      size_t N = ProgramCache::global().prefetchFrom(*Store);
      std::lock_guard<std::mutex> Lock(Mutex);
      Counts.PrefetchedArtifacts = N;
    }

  std::vector<std::string> Names = Cfg.Graphs;
  if (Names.empty())
    for (const auto &B : apps::allBenchmarks())
      Names.push_back(B.Name);

  for (const std::string &Name : Names) {
    const apps::BenchmarkEntry *Found = nullptr;
    for (const auto &B : apps::allBenchmarks())
      if (B.Name == Name) {
        Found = &B;
        break;
      }
    if (!Found)
      return Status(ErrorCode::Internal,
                    "unknown serving-set graph '" + Name + "'");
    if (findEntry(Name))
      continue; // configured twice; one pool is plenty

    StreamPtr Root = Found->Build();
    PipelineOptions Opts;
    Opts.Mode = Cfg.Mode;
    Opts.Exec.Eng = Engine::Compiled;
    CompilerPipeline Pipeline(Opts);
    Expected<CompileResult> ER = Pipeline.tryCompile(*Root);
    if (!ER.hasValue())
      return Status(ErrorCode::Internal,
                    "serving-set graph '" + Name +
                        "' failed to compile: " + ER.status().message());
    CompileResult R = ER.take();
    if (!R.Program)
      return Status(ErrorCode::Internal,
                    "serving-set graph '" + Name + "' produced no program");

    auto E = std::make_unique<Entry>();
    E->Name = Name;
    E->Prog = R.Program;
    E->Pool = std::make_unique<ExecutorPool>(R.Program, Cfg.Workers);
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (R.ProgramCacheHit || R.Program->loadedFromArtifact())
        ++Counts.WarmStarts;
      else
        ++Counts.StartupCompiles;
    }
    Entries.push_back(std::move(E));
  }

  // Publish admission + aggregated pool counters once the serving set
  // exists; the registration dies with this object, so a stopped
  // service vanishes from snapshots instead of dangling.
  StatsReg = StatsRegistry::Registration("service", [this](
                                                        StatsRegistry::Counters
                                                            &Out) {
    Counters C = counters();
    Out.emplace_back("requests", C.Requests);
    Out.emplace_back("served", C.Served);
    Out.emplace_back("rejected", C.Rejected);
    Out.emplace_back("timeouts", C.Timeouts);
    Out.emplace_back("failures", C.Failures);
    Out.emplace_back("degraded", C.Degraded);
    Out.emplace_back("prefetched_artifacts", C.PrefetchedArtifacts);
    Out.emplace_back("warm_starts", C.WarmStarts);
    Out.emplace_back("startup_compiles", C.StartupCompiles);
    uint64_t Served = 0, Timeouts = 0, Failures = 0, Depth = 0;
    for (const auto &E : Entries) {
      ExecutorPool::Stats S = E->Pool->stats();
      Served += S.Served;
      Timeouts += S.Timeouts;
      Failures += S.Failures;
      Depth += E->Pool->queueDepth();
    }
    Out.emplace_back("pool_served", Served);
    Out.emplace_back("pool_timeouts", Timeouts);
    Out.emplace_back("pool_failures", Failures);
    Out.emplace_back("pool_queue_depth", Depth);
  });
  return Status::ok();
}

RunResponse Admission::run(const RunRequest &R) {
  RunResponse Resp;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Counts.Requests;
  }

  Entry *E = findEntry(R.Graph);
  if (!E) {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Counts.Rejected;
    Resp.St = Status(ErrorCode::Internal,
                     "graph '" + R.Graph + "' is not in the serving set");
    return Resp;
  }
  if (E->Pool->queueDepth() >= Cfg.MaxQueueDepth) {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Counts.Rejected;
    Resp.St = Status(ErrorCode::Overloaded,
                     "queue depth for '" + R.Graph + "' is at the cap (" +
                         std::to_string(Cfg.MaxQueueDepth) + ")");
    return Resp;
  }

  ExecutorPool::Request Req;
  Req.Input = R.Input;
  Req.NOutputs = std::min(R.NOutputs ? R.NOutputs : Cfg.DefaultOutputs,
                          Cfg.MaxOutputs);
  Req.CountOps = R.CountOps;
  Req.Eng = R.Eng;
  Req.Latency = R.Latency;
  Req.DeadlineMillis =
      R.DeadlineMillis > 0 ? R.DeadlineMillis : Cfg.DefaultDeadlineMillis;

  if (R.Eng == Engine::Native || R.Eng == Engine::Parallel) {
    // Resolve the program's native module once; unavailability is the
    // degradation ladder, not an error. Parallel runs it in every shard
    // and, without one, shards the op tapes: a full rung of its own.
    std::lock_guard<std::mutex> Lock(E->NativeMutex);
    if (!E->NativeResolved) {
      E->Native = codegen::NativeModuleCache::global().get(
          *E->Prog, &E->NativeDegradeReason);
      E->NativeResolved = true;
    }
    if (E->Native || R.Eng == Engine::Parallel) {
      Req.Native = E->Native;
    } else {
      Resp.Degraded = true;
      Resp.DegradeReason = E->NativeDegradeReason.empty()
                               ? "native codegen unavailable"
                               : E->NativeDegradeReason;
    }
  }

  ExecutorPool::Result Result = E->Pool->submit(std::move(Req)).get();
  Resp.St = Result.St;
  Resp.ServerSeconds = Result.Seconds;
  Resp.FirstOutputSeconds = Result.FirstOutputSeconds;
  if (Result.St.isOk()) {
    Resp.Outputs = std::move(Result.Outputs);
    Resp.Flops = static_cast<uint64_t>(Result.Ops.flops());
  }

  std::lock_guard<std::mutex> Lock(Mutex);
  if (Result.St.isOk())
    ++Counts.Served;
  else if (Result.St.code() == ErrorCode::Timeout ||
           Result.St.code() == ErrorCode::Cancelled)
    ++Counts.Timeouts;
  else
    ++Counts.Failures;
  if (Resp.Degraded)
    ++Counts.Degraded;
  return Resp;
}
