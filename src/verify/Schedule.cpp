//===- verify/Schedule.cpp - Rate and schedule verifiers ------------------===//

#include "verify/Schedule.h"

#include "graph/Stream.h"
#include "sched/Rates.h"
#include "sched/Schedule.h"
#include "support/Diag.h"

#include <algorithm>

using namespace slin;

//===----------------------------------------------------------------------===//
// verify-rates: the stream hierarchy
//===----------------------------------------------------------------------===//

namespace {

/// Filter-level invariants the balance solver never looks at.
std::string checkFilterRates(const Stream &S) {
  switch (S.kind()) {
  case StreamKind::Filter: {
    const auto *F = cast<Filter>(&S);
    if (F->peekRate() < 0 || F->popRate() < 0 || F->pushRate() < 0)
      return "filter '" + F->name() + "': negative I/O rate";
    if (F->peekRate() < F->popRate())
      return "filter '" + F->name() + "': peek rate below pop rate";
    if (F->hasInitWork()) {
      if (F->initPeekRate() < 0 || F->initPopRate() < 0 ||
          F->initPushRate() < 0)
        return "filter '" + F->name() + "': negative init I/O rate";
      if (F->initPeekRate() < F->initPopRate())
        return "filter '" + F->name() + "': init peek rate below init pop";
    }
    return "";
  }
  case StreamKind::Pipeline:
    for (const StreamPtr &C : cast<Pipeline>(&S)->children()) {
      std::string E = checkFilterRates(*C);
      if (!E.empty())
        return E;
    }
    return "";
  case StreamKind::SplitJoin:
    for (const StreamPtr &C : cast<SplitJoin>(&S)->children()) {
      std::string E = checkFilterRates(*C);
      if (!E.empty())
        return E;
    }
    return "";
  case StreamKind::FeedbackLoop: {
    const auto *FB = cast<FeedbackLoop>(&S);
    std::string E = checkFilterRates(FB->body());
    if (!E.empty())
      return E;
    return checkFilterRates(FB->loop());
  }
  }
  unreachable("unknown stream kind");
}

} // namespace

std::string slin::verifyStreamRates(const Stream &Root) {
  std::string Err = checkFilterRates(Root);
  if (!Err.empty())
    return Err;
  // The balance solver recurses through every container, so one root
  // query validates all repetition vectors and splitter/joiner
  // consistency checks along the way.
  if (Expected<RateSignature> R = computeRates(Root); !R)
    return R.status().message();
  return "";
}

//===----------------------------------------------------------------------===//
// verify-schedule: the lowered schedule
//===----------------------------------------------------------------------===//

namespace {

/// Firing-accurate symbolic replay of a firing program, mirroring the
/// scheduler's SimState (sched/Schedule.cpp) and the compiled engine's
/// init-firing rule (first-ever firing of an init-work filter uses init
/// rates) — but checking every precondition instead of asserting.
struct ScheduleReplay {
  const flat::FlatGraph &G;
  const StaticSchedule &S;
  std::vector<int64_t> Count;     ///< live items per channel
  std::vector<int64_t> HighWater; ///< running max of Count
  std::vector<bool> FiredOnce;    ///< per node, across the whole run
  // Per-program accounting, reset by beginProgram().
  std::vector<int64_t> Fired;     ///< firings per node
  std::vector<int64_t> Pushed;    ///< items appended per channel
  int64_t ExtPops = 0;
  int64_t ExtPushes = 0;
  std::string Err;

  ScheduleReplay(const flat::FlatGraph &G, const StaticSchedule &S)
      : G(G), S(S), Count(G.numChannels(), 0),
        HighWater(G.numChannels(), 0), FiredOnce(G.Nodes.size(), false),
        Fired(G.Nodes.size(), 0), Pushed(G.numChannels(), 0) {
    for (size_t C = 0; C != G.numChannels(); ++C) {
      Count[C] = static_cast<int64_t>(G.InitialItems[C].size());
      HighWater[C] = Count[C];
    }
  }

  bool failed() const { return !Err.empty(); }
  void fail(const std::string &M) {
    if (Err.empty())
      Err = M;
  }

  void beginProgram() {
    std::fill(Fired.begin(), Fired.end(), 0);
    std::fill(Pushed.begin(), Pushed.end(), 0);
    ExtPops = ExtPushes = 0;
  }

  /// Applies \p K same-rate firings of node \p I (InitFiring selects the
  /// init rates of an init-work filter's first firing).
  void fire(size_t I, int64_t K, bool InitFiring, const char *Phase) {
    const flat::Node &N = G.Nodes[I];
    for (int Chan : N.inputChannels()) {
      int64_t Need = N.peekNeedOn(Chan, InitFiring);
      int64_t Pop = N.popsFrom(Chan, InitFiring);
      if (Chan == G.ExternalIn) {
        ExtPops += K * Pop; // availability is the runtime's contract
        continue;
      }
      int64_t Avail = Count[static_cast<size_t>(Chan)];
      if (Avail < Need + (K - 1) * Pop) {
        fail(std::string(Phase) + " program fires '" + N.Name +
             "' without its input window on channel " +
             std::to_string(Chan) + " (" + std::to_string(Avail) +
             " live, needs " + std::to_string(Need + (K - 1) * Pop) + ")");
        return;
      }
      Count[static_cast<size_t>(Chan)] -= K * Pop;
    }
    for (int Chan : N.outputChannels()) {
      int64_t Push = N.pushesTo(Chan, InitFiring);
      size_t C = static_cast<size_t>(Chan);
      Count[C] += K * Push;
      Pushed[C] += K * Push;
      HighWater[C] = std::max(HighWater[C], Count[C]);
      if (Chan == G.ExternalOut)
        ExtPushes += K * Push;
    }
    Fired[I] += K;
  }

  void runProgram(const FiringProgram &P, const char *Phase) {
    for (const FiringStep &Step : P) {
      if (failed())
        return;
      if (Step.Node < 0 ||
          static_cast<size_t>(Step.Node) >= G.Nodes.size() ||
          Step.Count < 1) {
        fail(std::string(Phase) + " program contains a malformed step");
        return;
      }
      size_t I = static_cast<size_t>(Step.Node);
      const flat::Node &N = G.Nodes[I];
      int64_t K = Step.Count;
      bool InitPending = !FiredOnce[I] &&
                         N.Kind == flat::NodeKind::Filter &&
                         N.F->hasInitWork();
      FiredOnce[I] = true;
      if (InitPending) {
        fire(I, 1, /*InitFiring=*/true, Phase);
        --K;
      }
      if (K > 0 && !failed())
        fire(I, K, /*InitFiring=*/false, Phase);
    }
  }

  /// Compares this program's firing totals against \p Expected.
  void checkFirings(const std::vector<int64_t> &Expected, const char *Phase) {
    if (failed())
      return;
    for (size_t I = 0; I != G.Nodes.size(); ++I)
      if (Fired[I] != Expected[I]) {
        fail(std::string(Phase) + " program fires '" + G.Nodes[I].Name +
             "' " + std::to_string(Fired[I]) + " times, schedule says " +
             std::to_string(Expected[I]));
        return;
      }
  }

  void checkCounts(const std::vector<int64_t> &Expected, const char *What) {
    if (failed())
      return;
    for (size_t C = 0; C != G.numChannels(); ++C) {
      if (static_cast<int>(C) == G.ExternalIn ||
          static_cast<int>(C) == G.ExternalOut)
        continue;
      if (Count[C] != Expected[C]) {
        fail(std::string(What) + ": channel " + std::to_string(C) +
             " holds " + std::to_string(Count[C]) + " items, schedule says " +
             std::to_string(Expected[C]));
        return;
      }
    }
  }
};

std::string checkVec(const char *Name, size_t Got, size_t Want) {
  if (Got == Want)
    return "";
  return std::string(Name) + " sized " + std::to_string(Got) +
         ", graph has " + std::to_string(Want);
}

} // namespace

std::string slin::verifySchedule(const flat::FlatGraph &G,
                                 const StaticSchedule &S) {
  size_t NumNodes = G.Nodes.size();
  size_t NumChans = G.numChannels();
  std::string E;
  if (!(E = checkVec("Repetitions", S.Repetitions.size(), NumNodes)).empty() ||
      !(E = checkVec("InitFirings", S.InitFirings.size(), NumNodes)).empty() ||
      !(E = checkVec("ChannelHighWater", S.ChannelHighWater.size(), NumChans))
           .empty() ||
      !(E = checkVec("ChannelBufSize", S.ChannelBufSize.size(), NumChans))
           .empty() ||
      !(E = checkVec("PostInitLive", S.PostInitLive.size(), NumChans)).empty())
    return E;
  if (S.BatchIterations < 1)
    return "non-positive batch iteration count";
  for (size_t I = 0; I != NumNodes; ++I) {
    if (S.Repetitions[I] < 1)
      return "node '" + G.Nodes[I].Name + "' has repetition count " +
             std::to_string(S.Repetitions[I]);
    if (S.InitFirings[I] < 0)
      return "node '" + G.Nodes[I].Name + "' has negative init firings";
  }

  // External lookahead constants, re-derived as the scheduler does.
  int64_t ExternalExtra = 0;
  int64_t InitPeekMax = 0;
  for (const flat::Node &N : G.Nodes)
    for (int Chan : N.inputChannels()) {
      if (Chan != G.ExternalIn)
        continue;
      ExternalExtra =
          std::max(ExternalExtra, static_cast<int64_t>(
                                      N.peekNeedOn(Chan, false) -
                                      N.popsFrom(Chan, false)));
      InitPeekMax = std::max(
          InitPeekMax, static_cast<int64_t>(N.peekNeedOn(Chan, true)));
    }

  // Replay init, batch, then steady from one shared state — the order
  // the scheduler derived them in, so high-water marks line up exactly.
  ScheduleReplay R(G, S);

  R.beginProgram();
  R.runProgram(S.InitProgram, "init");
  R.checkFirings(S.InitFirings, "init");
  R.checkCounts(S.PostInitLive, "after the init program");
  if (R.failed())
    return R.Err;
  if (R.ExtPops != S.InitExternalPops)
    return "init program pops " + std::to_string(R.ExtPops) +
           " external items, schedule says " +
           std::to_string(S.InitExternalPops);
  if (R.ExtPushes != S.InitExternalPushes)
    return "init program pushes " + std::to_string(R.ExtPushes) +
           " external items, schedule says " +
           std::to_string(S.InitExternalPushes);
  if (S.InitExternalNeed !=
      std::max(S.InitExternalPops + ExternalExtra, InitPeekMax))
    return "InitExternalNeed does not cover the init pops plus lookahead";
  std::vector<int64_t> InitBuf(NumChans);
  for (size_t C = 0; C != NumChans; ++C)
    InitBuf[C] =
        static_cast<int64_t>(G.InitialItems[C].size()) + R.Pushed[C];

  std::vector<int64_t> Expected(NumNodes);
  for (size_t I = 0; I != NumNodes; ++I)
    Expected[I] = S.Repetitions[I] * S.BatchIterations;
  R.beginProgram();
  R.runProgram(S.BatchProgram, "batch");
  R.checkFirings(Expected, "batch");
  R.checkCounts(S.PostInitLive, "after the batch program");
  if (R.failed())
    return R.Err;
  if (R.ExtPops != S.BatchExternalPops ||
      S.BatchExternalNeed != S.BatchExternalPops + ExternalExtra ||
      R.ExtPushes != S.BatchExternalPushes)
    return "batch program external I/O disagrees with the schedule";
  std::vector<int64_t> BatchBuf(NumChans);
  for (size_t C = 0; C != NumChans; ++C)
    BatchBuf[C] = S.PostInitLive[C] + R.Pushed[C];

  R.beginProgram();
  R.runProgram(S.SteadyProgram, "steady");
  R.checkFirings(S.Repetitions, "steady");
  R.checkCounts(S.PostInitLive, "after the steady program");
  if (R.failed())
    return R.Err;
  if (R.ExtPops != S.SteadyExternalPops ||
      S.SteadyExternalNeed != S.SteadyExternalPops + ExternalExtra ||
      R.ExtPushes != S.SteadyExternalPushes)
    return "steady program external I/O disagrees with the schedule";

  for (size_t C = 0; C != NumChans; ++C) {
    if (R.HighWater[C] != S.ChannelHighWater[C])
      return "channel " + std::to_string(C) + " high-water mark is " +
             std::to_string(R.HighWater[C]) + ", schedule says " +
             std::to_string(S.ChannelHighWater[C]);
    bool External = static_cast<int>(C) == G.ExternalIn ||
                    static_cast<int>(C) == G.ExternalOut;
    if (External)
      continue;
    int64_t SteadyBuf = S.PostInitLive[C] + R.Pushed[C];
    int64_t Want = std::max(InitBuf[C], std::max(BatchBuf[C], SteadyBuf));
    if (S.ChannelBufSize[C] != Want)
      return "channel " + std::to_string(C) + " buffer capacity is " +
             std::to_string(S.ChannelBufSize[C]) + ", replay needs " +
             std::to_string(Want);
  }
  return "";
}
