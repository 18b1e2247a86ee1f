//===- perfbench/harness/Service.cpp - The service workload ---------------===//
///
/// \file
/// slin-serviced runs as a child process serving the nine autosel
/// programs (2 pool workers per graph) on a Unix socket. Set-up
/// (repeated; setup_s is the median) is a cold start on an empty store,
/// one native request per graph so the native modules are built and
/// stored, a shutdown, a `--require-warm` restart and one warm-up request
/// per request class.
///
/// Phase 1 is an open loop over 2 connections at a fixed offered rate;
/// every request is timed from when it was due, so a stall also delays
/// the requests queued behind it. Phase 2 is a closed loop over the same
/// mix and gives the saturation throughput. The request sequence (graph,
/// throughput or latency mode, compiled or native engine, output count)
/// is drawn from the seed. After both phases every response is checked
/// against a local run of the same program (hash of the output bytes).
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Trace.h"

#include "apps/Benchmarks.h"
#include "compiler/ArtifactStore.h"
#include "compiler/Pipeline.h"
#include "exec/CompiledExecutor.h"
#include "service/Client.h"
#include "service/Protocol.h"
#include "support/Serialize.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <poll.h>
#include <stdexcept>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace slin;
using namespace slin::service;
using namespace perfbench;

namespace {

/// Offered rate of the open loop: about 30% of the closed loop's
/// throughput on a 4-vCPU x86 host. At 50% the latencies are mostly
/// queueing behind the mix's 10-16 ms requests and moved by 40-80%
/// between identical runs.
constexpr double OfferedRps = 120.0;
/// Share of --seconds spent in the open loop (the rest is the closed loop).
constexpr double OpenLoopShare = 0.7;
constexpr int Connections = 2;

/// Outputs per request at size multiplier 1, about 1 ms of op-tape work
/// in latency mode. A throughput-mode request runs whole batch programs
/// (16 steady iterations), so its cost is set by the batch, not by the
/// output count; DToA's and Vocoder's batches take 90-150 ms, so those
/// two are served in latency mode only and do not dominate the load.
struct SizeSpec {
  const char *Graph;
  uint32_t Outputs;
  bool Throughput; ///< throughput-mode classes drawn for this graph
};
const SizeSpec Sizes[] = {
    {"FIR", 4096, true},         {"RateConvert", 2048, true},
    {"TargetDetect", 4096, true}, {"FMRadio", 1024, true},
    {"Radar", 64, true},         {"FilterBank", 2048, true},
    {"Vocoder", 64, false},      {"Oversampler", 8192, true},
    {"DToA", 2048, false}};

struct ReqClass {
  size_t Graph = 0;
  bool Latency = false;
  bool Native = false;
  uint32_t Outputs = 0;
  std::string name() const {
    return std::string(Sizes[Graph].Graph) +
           (Latency ? ".latency" : ".throughput") +
           (Native ? ".native." : ".compiled.") + std::to_string(Outputs);
  }
};

std::vector<ReqClass> requestClasses() {
  std::vector<ReqClass> Out;
  for (size_t G = 0; G != std::size(Sizes); ++G)
    for (bool Lat : {false, true})
      for (bool Nat : {false, true})
        if (Lat || Sizes[G].Throughput)
          for (uint32_t Mult : {1u, 2u})
            Out.push_back({G, Lat, Nat, Sizes[G].Outputs * Mult});
  return Out;
}

RunRequest makeRequest(const ReqClass &C) {
  RunRequest R;
  R.Graph = Sizes[C.Graph].Graph;
  R.Eng = C.Native ? Engine::Native : Engine::Compiled;
  R.Latency = C.Latency;
  R.NOutputs = C.Outputs;
  return R;
}

/// One finished request.
struct Sample {
  size_t Class = 0;
  double LatencyMs = 0.0; ///< response time minus due time
  double LagMs = 0.0;     ///< send time minus due time
  double RoundTripMs = 0.0;
  double ServerMs = 0.0;
  double FirstOutputMs = 0.0;
  double EncodeUs = 0.0, DecodeUs = 0.0; ///< traced runs only
  bool Ok = false;        ///< transport ok and run status ok
  bool Rejected = false, TimedOut = false, Degraded = false;
  uint64_t Hash = 0;
};

//===----------------------------------------------------------------------===//
// The daemon child process
//===----------------------------------------------------------------------===//

class Daemon {
public:
  Daemon() = default;
  ~Daemon() { kill(); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Starts slin-serviced in \p Dir and waits for its "serving" line.
  bool start(const Options &O, const std::string &Store,
             const std::string &Socket, bool RequireWarm) {
    int Pipe[2];
    if (::pipe(Pipe) != 0)
      return false;
    ::unlink(Socket.c_str());
    Pid = ::fork();
    if (Pid == 0) {
      ::dup2(Pipe[1], 1);
      ::close(Pipe[0]);
      ::close(Pipe[1]);
      if (::chdir(O.WorkDir.c_str()) != 0)
        ::_exit(126);
      ::setenv("SLIN_ARTIFACT_DIR", Store.c_str(), 1);
      std::vector<std::string> Args = {O.DaemonPath, "--unix", Socket,
                                       "--mode", "autosel", "--workers", "2",
                                       "--queue", "64"};
      if (RequireWarm)
        Args.push_back("--require-warm");
      std::vector<char *> Argv;
      for (std::string &A : Args)
        Argv.push_back(A.data());
      Argv.push_back(nullptr);
      ::execv(O.DaemonPath.c_str(), Argv.data());
      ::_exit(127);
    }
    ::close(Pipe[1]);
    Out = Pipe[0];
    if (Pid < 0)
      return false;
    // Read until the "serving" line (printed after the startup compiles
    // or prefetch), with a generous limit for a cold start.
    std::string Buf;
    Clock::time_point Start = Clock::now();
    while (Buf.find("serving") == std::string::npos ||
           Buf.find('\n', Buf.find("serving")) == std::string::npos) {
      if (secondsSince(Start) > 120.0)
        return false;
      pollfd P{Out, POLLIN, 0};
      if (::poll(&P, 1, 1000) <= 0)
        continue;
      char C[512];
      ssize_t N = ::read(Out, C, sizeof(C));
      if (N <= 0)
        return false; // exited (e.g. --require-warm found compiles)
      Buf.append(C, static_cast<size_t>(N));
    }
    return true;
  }

  /// Peak resident set of the daemon, in MB (VmHWM).
  double peakRssMb() const {
    std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
    for (std::string Line; std::getline(In, Line);)
      if (Line.rfind("VmHWM:", 0) == 0)
        return std::atof(Line.c_str() + 6) / 1024.0; // kB
    return 0.0;
  }

  /// Asks for a clean shutdown over \p C, then reaps the process.
  bool stop(Client *C) {
    if (Pid <= 0)
      return true;
    bool Clean = C && C->shutdownServer().isOk();
    Clock::time_point Start = Clock::now();
    int WStatus = 0;
    while (Clean && secondsSince(Start) < 20.0) {
      if (::waitpid(Pid, &WStatus, WNOHANG) == Pid) {
        Pid = -1;
        closeOut();
        return WIFEXITED(WStatus) && WEXITSTATUS(WStatus) == 0;
      }
      ::usleep(2000);
    }
    kill();
    return false;
  }

  void kill() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
      Pid = -1;
    }
    closeOut();
  }

private:
  void closeOut() {
    if (Out >= 0)
      ::close(Out);
    Out = -1;
  }
  pid_t Pid = -1;
  int Out = -1;
};

Sample sendRequest(Client &C, const std::vector<ReqClass> &Classes,
                   size_t Class, Clock::time_point Due, bool Traced) {
  Sample S;
  S.Class = Class;
  RunRequest Req = makeRequest(Classes[Class]);
  Tracer::get().beginOp();
  Clock::time_point Sent = Clock::now();
  Expected<RunResponse> R = [&] {
    Scope Sp("service::Client::run");
    return C.run(Req);
  }();
  Clock::time_point Done = Clock::now();
  auto Ms = [](Clock::duration D) {
    return std::chrono::duration<double, std::milli>(D).count();
  };
  S.LatencyMs = Ms(Done - Due);
  S.LagMs = Ms(Sent - Due);
  S.RoundTripMs = Ms(Done - Sent);
  if (!R)
    return S;
  S.ServerMs = R->ServerSeconds * 1e3;
  S.FirstOutputMs = R->FirstOutputSeconds * 1e3;
  S.Rejected = R->St.code() == ErrorCode::Overloaded;
  S.TimedOut = R->St.code() == ErrorCode::Timeout ||
               R->St.code() == ErrorCode::Cancelled;
  S.Degraded = R->Degraded;
  S.Ok = R->St.isOk();
  S.Hash = hashOutputs(R->Outputs);
  if (Traced) {
    // The protocol layer on this request's own payloads.
    Request Q;
    Q.Kind = MsgKind::Run;
    Q.Run = Req;
    Clock::time_point T0 = Clock::now();
    {
      Scope Sp("service::encodeRequest");
      serial::Writer W;
      encodeRequest(W, Q);
    }
    S.EncodeUs = secondsSince(T0) * 1e6;
    Response Resp;
    Resp.Kind = MsgKind::Run;
    Resp.Run = std::move(*R);
    serial::Writer W;
    encodeResponse(W, Resp);
    T0 = Clock::now();
    {
      Scope Sp("service::decodeResponse");
      Expected<Response> D = decodeResponse(W.bytes());
      (void)D;
    }
    S.DecodeUs = secondsSince(T0) * 1e6;
  }
  return S;
}

/// Aborts the workload; unwinding stops the daemon (Daemon's destructor).
[[noreturn]] void fail(const std::string &Why) {
  throw std::runtime_error("service: " + Why);
}

} // namespace

void perfbench::runService(const Options &O, Report &Rep) {
  if (O.DaemonPath.empty())
    fail("--daemon is required");
  const bool Traced = Tracer::get().enabled();
  const std::vector<ReqClass> Classes = requestClasses();
  const std::string Store = O.WorkDir + "/service/store";
  makeDirs(Store);
  // Socket paths are short and relative to the work directory (both
  // processes run there): sun_path holds only 108 bytes.
  if (::chdir(O.WorkDir.c_str()) != 0)
    fail("cannot enter " + O.WorkDir);

  // --- Set-up ---------------------------------------------------------------
  Daemon D;
  std::vector<Client> Conns;
  std::vector<double> SetupS, WarmRestartMs;
  uint64_t StartupCompiles = 0;
  for (int R = 0; R != O.SetupReps; ++R) {
    if (!Conns.empty()) {
      D.stop(&Conns[0]);
      Conns.clear();
    }
    emptyDir(Store);
    Clock::time_point Start = Clock::now();
    const std::string Sock = "svc" + std::to_string(R);
    {
      Scope S("slin-serviced cold start");
      if (!D.start(O, Store, Sock + "c.sock", false))
        fail("cold daemon start failed");
    }
    {
      Expected<Client> C = Client::connectUnix(Sock + "c.sock");
      if (!C)
        fail("connect: " + C.status().message());
      // One native request per graph builds and stores its module.
      for (size_t G = 0; G != std::size(Sizes); ++G) {
        ReqClass RC{G, true, true, Sizes[G].Outputs};
        if (Expected<RunResponse> Res = C->run(makeRequest(RC));
            !Res || !Res->St.isOk() || Res->Degraded)
          fail("native build request failed for " + RC.name());
      }
      if (!D.stop(&*C))
        fail("cold daemon did not shut down cleanly");
    }
    Clock::time_point Restart = Clock::now();
    {
      Scope S("slin-serviced warm restart");
      if (!D.start(O, Store, Sock + "w.sock", true))
        fail("warm --require-warm restart failed");
    }
    WarmRestartMs.push_back(secondsSince(Restart) * 1e3);
    for (int I = 0; I != Connections; ++I) {
      Expected<Client> C = Client::connectUnix(Sock + "w.sock");
      if (!C)
        fail("connect: " + C.status().message());
      Conns.push_back(C.take());
    }
    Expected<StatsRegistry::Counters> St = Conns[0].stats();
    bool Found = false;
    for (const auto &[Name, V] : St ? *St : StatsRegistry::Counters())
      if (Name == "service.startup_compiles") {
        StartupCompiles = std::max<uint64_t>(StartupCompiles, V);
        Found = true;
      }
    if (!Found)
      fail("warm daemon reports no service.startup_compiles counter");
    for (size_t I = 0; I != Classes.size(); ++I)
      if (Expected<RunResponse> Res = Conns[0].run(makeRequest(Classes[I]));
          !Res || !Res->St.isOk())
        fail("warm-up request failed for " + Classes[I].name());
    SetupS.push_back(secondsSince(Start));
  }

  // --- Request sequence --------------------------------------------------
  Rng G(O.Seed ^ 0x5e41ceULL);
  const size_t OpenCount =
      O.Tiny ? 40
             : static_cast<size_t>(OfferedRps * OpenLoopShare * O.Seconds);
  const double ClosedSeconds =
      O.Tiny ? 1.0 : (1.0 - OpenLoopShare) * O.Seconds;
  std::vector<size_t> Sequence(OpenCount + 200000);
  for (size_t &S : Sequence)
    S = G.next() % Classes.size();

  // Host speed: 20 samples before and after the phases, while the daemon
  // idles, and one every 100 ms during them from a third thread (about
  // 3% of one core), so the index follows the host while the daemon works.
  auto SampleHost = [&] {
    for (int I = 0; I != 20; ++I)
      Rep.Host.sample();
  };
  SampleHost();
  std::atomic<bool> PhasesDone{false};
  std::thread Prober([&] {
    while (!PhasesDone.load()) {
      Rep.Host.sample();
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });

  // --- Phase 1: open loop --------------------------------------------------
  std::vector<std::vector<Sample>> Open(Connections);
  Clock::time_point T0 = Clock::now() + std::chrono::milliseconds(20);
  {
    std::vector<std::thread> Threads;
    for (int K = 0; K != Connections; ++K)
      Threads.emplace_back([&, K] {
        for (size_t I = static_cast<size_t>(K); I < OpenCount;
             I += Connections) {
          Clock::time_point Due =
              T0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(I / OfferedRps));
          std::this_thread::sleep_until(Due);
          Open[static_cast<size_t>(K)].push_back(
              sendRequest(Conns[static_cast<size_t>(K)], Classes,
                          Sequence[I], Due, Traced));
        }
      });
    for (std::thread &T : Threads)
      T.join();
  }

  // --- Phase 2: closed loop ------------------------------------------------
  std::vector<std::vector<Sample>> Closed(Connections);
  std::atomic<size_t> Next{OpenCount};
  Clock::time_point C0 = Clock::now();
  double ClosedElapsed = 0.0;
  {
    std::vector<std::thread> Threads;
    for (int K = 0; K != Connections; ++K)
      Threads.emplace_back([&, K] {
        while (secondsSince(C0) < ClosedSeconds) {
          size_t I = Next.fetch_add(1) % Sequence.size();
          Closed[static_cast<size_t>(K)].push_back(
              sendRequest(Conns[static_cast<size_t>(K)], Classes,
                          Sequence[I], Clock::now(), Traced));
        }
      });
    for (std::thread &T : Threads)
      T.join();
    ClosedElapsed = secondsSince(C0);
  }
  PhasesDone = true;
  Prober.join();
  SampleHost();
  const double DaemonRss = D.peakRssMb();
  if (!D.stop(&Conns[0]))
    std::fprintf(stderr, "perfbench: daemon did not shut down cleanly\n");
  Conns.clear();

  // --- Oracle: every response vs a local run of the same program -------
  ArtifactStore::setGlobalDir("");
  std::vector<CompiledProgramRef> Local;
  for (const SizeSpec &Sz : Sizes) {
    StreamPtr Root;
    for (const apps::BenchmarkEntry &B : apps::allBenchmarks())
      if (B.Name == Sz.Graph)
        Root = B.Build();
    PipelineOptions PO;
    PO.Mode = OptMode::AutoSel;
    PO.Exec.Eng = Engine::Compiled;
    Local.push_back(compileStream(*Root, PO).Program);
  }
  std::vector<uint64_t> RefHash(Classes.size());
  for (size_t I = 0; I != Classes.size(); ++I) {
    const ReqClass &C = Classes[I];
    CompiledExecutor E(Local[C.Graph]);
    if (C.Latency)
      E.tryRunLatency(C.Outputs);
    else
      E.run(C.Outputs);
    RefHash[I] = hashOutputs(outputsOf(*Local[C.Graph], E));
  }
  if (O.CorruptReference)
    RefHash[Open[0].empty() ? 0 : Open[0][0].Class] ^= 1;

  // --- Metrics -------------------------------------------------------------
  const double OpenMs = static_cast<double>(OpenCount) / OfferedRps * 1e3;
  std::vector<double> Latency, Lag, Server, Overhead, First, Enc, Dec;
  std::vector<std::vector<double>> ByClass(Classes.size()),
      ServerByClass(Classes.size());
  uint64_t Rejected = 0, Timeouts = 0, DegradedN = 0, ClosedOk = 0;
  auto Check = [&](Sample &S) {
    ++Rep.Attempted;
    Rejected += S.Rejected;
    Timeouts += S.TimedOut;
    DegradedN += S.Degraded;
    if (S.Ok && S.Hash != RefHash[S.Class])
      S.Ok = false;
    if (!S.Ok)
      ++Rep.Failed;
  };
  for (auto &Conn : Open)
    for (Sample &S : Conn) {
      Check(S);
      // A failed request misses every latency percentile.
      Latency.push_back(S.Ok ? S.LatencyMs : OpenMs);
      Lag.push_back(S.LagMs);
      if (!S.Ok)
        continue;
      ByClass[S.Class].push_back(S.LatencyMs);
      ServerByClass[S.Class].push_back(S.ServerMs);
      Server.push_back(S.ServerMs);
      Overhead.push_back(S.RoundTripMs - S.ServerMs);
      if (Classes[S.Class].Latency)
        First.push_back(S.FirstOutputMs);
      if (Traced) {
        Enc.push_back(S.EncodeUs);
        Dec.push_back(S.DecodeUs);
      }
    }
  std::vector<std::vector<double>> ClosedByClass(Classes.size());
  for (auto &Conn : Closed)
    for (Sample &S : Conn) {
      Check(S);
      ClosedOk += S.Ok;
      if (S.Ok)
        ClosedByClass[S.Class].push_back(S.RoundTripMs);
    }
  // Closed-loop throughput of the uniform class mix at each class's
  // median round trip: insensitive to how often the seed drew the
  // heaviest classes and to a few stalled requests.
  double MeanRoundTripMs = 0.0;
  size_t Seen = 0;
  for (const std::vector<double> &V : ClosedByClass)
    if (!V.empty()) {
      MeanRoundTripMs += median(V);
      ++Seen;
    }
  MeanRoundTripMs /= static_cast<double>(std::max<size_t>(Seen, 1));
  std::vector<double> ClassMedians;
  std::string ClassJson = "{";
  for (size_t I = 0; I != Classes.size(); ++I) {
    if (ByClass[I].empty())
      continue;
    ClassMedians.push_back(median(ByClass[I]));
    ClassJson += (ClassJson.size() > 1 ? "," : "") +
                 jsonString(Classes[I].name()) + ":{\"n\":" +
                 std::to_string(ByClass[I].size()) + ",\"latency_ms\":" +
                 jsonNumber(ClassMedians.back()) + ",\"server_ms\":" +
                 jsonNumber(median(ServerByClass[I])) + "}";
  }

  Rep.setScaled("setup_s", median(SetupS), "s", true);
  Rep.set("peak_rss_mb", DaemonRss, "MB");
  Rep.setScaled("op_ms", geomean(ClassMedians), "ms", true);
  Rep.setScaled("ops_per_s", Connections * 1e3 / MeanRoundTripMs, "1/s",
                false);
  Rep.set("request_p50_ms", percentile(Latency, 50), "ms");
  Rep.set("request_p99_ms", percentile(Latency, 99), "ms");
  Rep.set("saturation_rps", static_cast<double>(ClosedOk) / ClosedElapsed,
          "1/s");
  Rep.set("service.server_run_ms", median(Server), "ms");
  Rep.set("service.overhead_ms", median(Overhead), "ms");
  Rep.set("service.first_output_ms", median(First), "ms");
  Rep.set("service.send_lag_p99_ms", percentile(Lag, 99), "ms");
  if (Traced) {
    Rep.set("service.protocol.encode_us", median(Enc), "us");
    Rep.set("service.protocol.decode_us", median(Dec), "us");
  }
  Rep.set("service.rejected", static_cast<double>(Rejected), "count");
  Rep.set("service.timeouts", static_cast<double>(Timeouts), "count");
  Rep.set("service.degraded", static_cast<double>(DegradedN), "count");
  Rep.set("service.warm_restart_ms", median(WarmRestartMs), "ms");
  Rep.set("service.startup_compiles", static_cast<double>(StartupCompiles),
          "count");

  Rep.detail("offered_rps", jsonNumber(OfferedRps));
  Rep.detail("connections", std::to_string(Connections));
  Rep.detail("open_loop_requests", std::to_string(OpenCount));
  Rep.detail("p99_samples_beyond",
             std::to_string(Latency.size() - static_cast<size_t>(
                                                 0.99 * Latency.size())));
  Rep.detail("closed_loop_requests", std::to_string(ClosedOk));
  Rep.detail("request_classes", ClassJson + "}");
}
