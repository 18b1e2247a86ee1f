//===- sched/Schedule.cpp - Static steady-state firing programs -------------==//

#include "sched/Schedule.h"

#include "support/MathUtil.h"

#include <algorithm>
#include <limits>

using namespace slin;
using namespace slin::flat;

namespace {

constexpr int64_t Unbounded = std::numeric_limits<int64_t>::max() / 4;

/// Steady-state per-firing rate of \p N on channel \p Chan.
struct ChannelUse {
  int Chan;
  int64_t Rate;
};

/// Per-node channel rate tables, precomputed once.
struct NodeRates {
  std::vector<ChannelUse> Pops;      ///< steady pops per firing
  std::vector<ChannelUse> Pushes;    ///< steady pushes per firing
  std::vector<ChannelUse> PeekNeed;  ///< items required to fire (>= pops)
  // Init-firing variants (first firing of an init-work filter).
  std::vector<ChannelUse> InitPops;
  std::vector<ChannelUse> InitPushes;
  std::vector<ChannelUse> InitPeekNeed;
  bool HasInitWork = false;
};

std::vector<NodeRates> computeNodeRates(const FlatGraph &G) {
  std::vector<NodeRates> R(G.Nodes.size());
  for (size_t I = 0; I != G.Nodes.size(); ++I) {
    const Node &N = G.Nodes[I];
    NodeRates &NR = R[I];
    NR.HasInitWork = N.Kind == NodeKind::Filter && N.F->hasInitWork();
    for (int C : N.inputChannels()) {
      NR.Pops.push_back({C, N.popsFrom(C, false)});
      NR.PeekNeed.push_back({C, N.peekNeedOn(C, false)});
      NR.InitPops.push_back({C, N.popsFrom(C, true)});
      NR.InitPeekNeed.push_back({C, N.peekNeedOn(C, true)});
    }
    for (int C : N.outputChannels()) {
      NR.Pushes.push_back({C, N.pushesTo(C, false)});
      NR.InitPushes.push_back({C, N.pushesTo(C, true)});
    }
  }
  return R;
}

int64_t rateOn(const std::vector<ChannelUse> &Uses, int Chan) {
  for (const ChannelUse &U : Uses)
    if (U.Chan == Chan)
      return U.Rate;
  return 0;
}

/// Cumulative items consumed from \p Chan by the first \p T firings of
/// node \p I (the first firing of an init-work filter uses init rates).
int64_t cumPops(const std::vector<NodeRates> &NR, size_t I, int Chan,
                int64_t T) {
  if (T <= 0)
    return 0;
  const NodeRates &R = NR[I];
  if (R.HasInitWork)
    return rateOn(R.InitPops, Chan) + (T - 1) * rateOn(R.Pops, Chan);
  return T * rateOn(R.Pops, Chan);
}

/// Minimal T such that the first T firings of node \p I push at least
/// \p Need items onto \p Chan, or -1 if unreachable.
int64_t minFiringsToPush(const std::vector<NodeRates> &NR, size_t I, int Chan,
                         int64_t Need) {
  if (Need <= 0)
    return 0;
  const NodeRates &R = NR[I];
  int64_t Steady = rateOn(R.Pushes, Chan);
  if (R.HasInitWork) {
    int64_t First = rateOn(R.InitPushes, Chan);
    if (First >= Need)
      return 1;
    if (Steady <= 0)
      return -1;
    return 1 + ceilDiv(Need - First, Steady);
  }
  if (Steady <= 0)
    return -1;
  return ceilDiv(Need, Steady);
}

} // namespace

//===----------------------------------------------------------------------===//
// Steady-state repetitions on the flat graph
//===----------------------------------------------------------------------===//

static Expected<std::vector<int64_t>>
flatRepetitions(const FlatGraph &G, const std::vector<NodeRates> &NR) {
  size_t NumNodes = G.Nodes.size();
  std::vector<int> Producer(G.numChannels(), -1), Consumer(G.numChannels(), -1);
  for (size_t I = 0; I != NumNodes; ++I) {
    for (const ChannelUse &U : NR[I].Pushes)
      Producer[static_cast<size_t>(U.Chan)] = static_cast<int>(I);
    for (const ChannelUse &U : NR[I].Pops)
      Consumer[static_cast<size_t>(U.Chan)] = static_cast<int>(I);
  }

  std::vector<Rational> Reps(NumNodes, Rational(0));
  std::vector<bool> Visited(NumNodes, false);
  std::vector<int64_t> Result(NumNodes, 0);
  std::string Err; // first balance violation

  // Propagate balance constraints within each connected component, then
  // scale that component to minimal integers.
  for (size_t Start = 0; Start != NumNodes; ++Start) {
    if (Visited[Start])
      continue;
    std::vector<size_t> Component, Work = {Start};
    Visited[Start] = true;
    Reps[Start] = Rational(1);
    while (!Work.empty() && Err.empty()) {
      size_t I = Work.back();
      Work.pop_back();
      Component.push_back(I);
      auto Relax = [&](int Chan) {
        int P = Producer[static_cast<size_t>(Chan)];
        int C = Consumer[static_cast<size_t>(Chan)];
        if (P < 0 || C < 0)
          return; // external endpoint or dead channel
        int64_t U = rateOn(NR[static_cast<size_t>(P)].Pushes, Chan);
        int64_t O = rateOn(NR[static_cast<size_t>(C)].Pops, Chan);
        if (U == 0 && O == 0)
          return;
        if (U == 0 || O == 0) {
          Err = "no steady state: channel between '" +
                G.Nodes[static_cast<size_t>(P)].Name + "' and '" +
                G.Nodes[static_cast<size_t>(C)].Name +
                "' moves data in only one direction";
          return;
        }
        size_t PS = static_cast<size_t>(P), CS = static_cast<size_t>(C);
        if (Visited[PS] && Visited[CS]) {
          if (!(Reps[PS] * Rational(U) == Reps[CS] * Rational(O)))
            Err = "no steady state: inconsistent rates between '" +
                  G.Nodes[PS].Name + "' and '" + G.Nodes[CS].Name + "'";
          return;
        }
        if (Visited[PS]) {
          Reps[CS] = Reps[PS] * Rational(U, O);
          Visited[CS] = true;
          Work.push_back(CS);
        } else if (Visited[CS]) {
          Reps[PS] = Reps[CS] * Rational(O, U);
          Visited[PS] = true;
          Work.push_back(PS);
        }
      };
      for (const ChannelUse &Use : NR[I].Pops)
        Relax(Use.Chan);
      for (const ChannelUse &Use : NR[I].Pushes)
        Relax(Use.Chan);
    }
    if (!Err.empty())
      return Status(ErrorCode::RateError, Err);
    std::vector<Rational> CompReps;
    CompReps.reserve(Component.size());
    for (size_t I : Component)
      CompReps.push_back(Reps[I]);
    std::vector<int64_t> Ints;
    if (!toMinimalIntegers(CompReps, Ints))
      return Status(ErrorCode::RateError,
                    "non-positive repetition count while solving flat rates");
    for (size_t K = 0; K != Component.size(); ++K)
      Result[Component[K]] = Ints[K];
  }
  return Result;
}

//===----------------------------------------------------------------------===//
// Initialization firing counts
//===----------------------------------------------------------------------===//

/// Computes per-node init firing counts as a fixpoint over channel
/// demands: every init-work filter fires at least once, and every channel
/// must end the init phase holding at least its consumer's steady
/// peek - pop lookahead.
static Expected<std::vector<int64_t>>
initFiringCounts(const FlatGraph &G, const std::vector<NodeRates> &NR) {
  size_t NumNodes = G.Nodes.size();
  std::vector<int64_t> T(NumNodes, 0);
  for (size_t I = 0; I != NumNodes; ++I)
    if (NR[I].HasInitWork)
      T[I] = 1;

  std::vector<int> Producer(G.numChannels(), -1);
  for (size_t I = 0; I != NumNodes; ++I)
    for (const ChannelUse &U : NR[I].Pushes)
      Producer[static_cast<size_t>(U.Chan)] = static_cast<int>(I);

  const int MaxSweeps = 128;
  for (int Sweep = 0; Sweep != MaxSweeps; ++Sweep) {
    bool Changed = false;
    for (size_t C = 0; C != NumNodes; ++C) {
      for (const ChannelUse &Use : NR[C].Pops) {
        int P = Producer[static_cast<size_t>(Use.Chan)];
        if (P < 0)
          continue; // fed externally
        int64_t Extra =
            rateOn(NR[C].PeekNeed, Use.Chan) - rateOn(NR[C].Pops, Use.Chan);
        int64_t Enqueued = static_cast<int64_t>(
            G.InitialItems[static_cast<size_t>(Use.Chan)].size());
        int64_t Need =
            cumPops(NR, C, Use.Chan, T[C]) + Extra - Enqueued;
        // An init-work firing may peek further than it pops; its whole
        // window must be supplied too.
        if (NR[C].HasInitWork)
          Need = std::max(Need,
                          rateOn(NR[C].InitPeekNeed, Use.Chan) - Enqueued);
        int64_t Req =
            minFiringsToPush(NR, static_cast<size_t>(P), Use.Chan, Need);
        if (Req < 0)
          return Status(ErrorCode::RateError,
                        "cannot schedule initialization: '" +
                            G.Nodes[static_cast<size_t>(P)].Name +
                            "' can never satisfy the lookahead of '" +
                            G.Nodes[C].Name + "'");
        if (Req > T[static_cast<size_t>(P)]) {
          T[static_cast<size_t>(P)] = Req;
          Changed = true;
        }
      }
    }
    if (!Changed)
      return T;
  }
  return Status(ErrorCode::RateError,
                "cannot schedule initialization: channel demands do not "
                "converge (deadlocked feedback loop?)");
}

//===----------------------------------------------------------------------===//
// Greedy symbolic simulation
//===----------------------------------------------------------------------===//

namespace {

/// Symbolic channel state shared by the three program simulations.
struct SimState {
  const FlatGraph &G;
  const std::vector<NodeRates> &NR;
  std::vector<int64_t> Count;     ///< live items per channel
  std::vector<bool> FiredOnce;    ///< per node, across the whole run
  std::vector<int64_t> HighWater; ///< running max of Count
  int64_t ExternalPops = 0;       ///< pops from ExternalIn this program
  int64_t ExternalPushes = 0;     ///< pushes to ExternalOut this program
  std::vector<int64_t> Pushes;    ///< items appended per channel, this program

  SimState(const FlatGraph &G, const std::vector<NodeRates> &NR)
      : G(G), NR(NR), Count(G.numChannels(), 0),
        FiredOnce(G.Nodes.size(), false), HighWater(G.numChannels(), 0),
        Pushes(G.numChannels(), 0) {
    for (size_t C = 0; C != G.numChannels(); ++C) {
      Count[C] = static_cast<int64_t>(G.InitialItems[C].size());
      HighWater[C] = Count[C];
    }
  }

  void beginProgram() {
    ExternalPops = ExternalPushes = 0;
    std::fill(Pushes.begin(), Pushes.end(), 0);
  }

  bool isExternalIn(int Chan) const { return Chan == G.ExternalIn; }

  /// Max consecutive firings of node \p I right now, capped at \p Limit.
  /// Uses init rates for the node's first-ever firing.
  int64_t maxFirings(size_t I, int64_t Limit) const {
    if (Limit <= 0)
      return 0;
    const NodeRates &R = NR[I];
    bool Init = !FiredOnce[I] && R.HasInitWork;
    const auto &Needs = Init ? R.InitPeekNeed : R.PeekNeed;
    const auto &Pops = Init ? R.InitPops : R.Pops;
    int64_t K = Init ? 1 : Limit; // init firing scheduled one at a time
    for (size_t U = 0; U != Needs.size(); ++U) {
      int Chan = Needs[U].Chan;
      if (isExternalIn(Chan))
        continue; // runtime guarantees availability
      int64_t Avail = Count[static_cast<size_t>(Chan)];
      int64_t Need = Needs[U].Rate;
      int64_t Pop = Pops[U].Rate;
      if (Avail < Need)
        return 0;
      if (Pop > 0)
        K = std::min(K, (Avail - Need) / Pop + 1);
    }
    return K;
  }

  /// Applies \p K firings of node \p I to the symbolic state.
  void apply(size_t I, int64_t K) {
    const NodeRates &R = NR[I];
    bool Init = !FiredOnce[I] && R.HasInitWork;
    assert((!Init || K == 1) && "init firing must be scheduled alone");
    FiredOnce[I] = true;
    const auto &Pops = Init ? R.InitPops : R.Pops;
    const auto &PushesR = Init ? R.InitPushes : R.Pushes;
    for (const ChannelUse &U : Pops) {
      if (isExternalIn(U.Chan)) {
        ExternalPops += K * U.Rate;
        continue;
      }
      Count[static_cast<size_t>(U.Chan)] -= K * U.Rate;
      assert(Count[static_cast<size_t>(U.Chan)] >= 0 && "channel underflow");
    }
    for (const ChannelUse &U : PushesR) {
      size_t C = static_cast<size_t>(U.Chan);
      Count[C] += K * U.Rate;
      Pushes[C] += K * U.Rate;
      HighWater[C] = std::max(HighWater[C], Count[C]);
      if (U.Chan == G.ExternalOut)
        ExternalPushes += K * U.Rate;
    }
  }

  /// Greedily schedules \p Remaining firings per node; appends steps.
  /// Fails if the graph deadlocks before all firings are placed.
  Status schedule(std::vector<int64_t> Remaining, FiringProgram &Program,
                  const char *Phase) {
    bool AnyLeft = true;
    while (AnyLeft) {
      AnyLeft = false;
      bool AnyFired = false;
      for (size_t I = 0; I != G.Nodes.size(); ++I) {
        while (Remaining[I] > 0) {
          int64_t K = maxFirings(I, Remaining[I]);
          if (K <= 0)
            break;
          apply(I, K);
          Remaining[I] -= K;
          if (!Program.empty() &&
              Program.back().Node == static_cast<int>(I))
            Program.back().Count += K;
          else
            Program.push_back({static_cast<int>(I), K});
          AnyFired = true;
        }
        if (Remaining[I] > 0)
          AnyLeft = true;
      }
      if (AnyLeft && !AnyFired)
        return Status(ErrorCode::RateError,
                      std::string("cannot schedule ") + Phase +
                          " program: no node can fire (deadlocked graph?)");
    }
    return Status::ok();
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

Expected<StaticSchedule> slin::computeSchedule(const FlatGraph &G,
                                               int BatchIterations) {
  auto Fail = [](std::string Msg) {
    return Status(ErrorCode::RateError, std::move(Msg));
  };
  if (BatchIterations < 1)
    return Fail("batch iteration count must be positive");
  std::vector<NodeRates> NR = computeNodeRates(G);

  StaticSchedule S;
  S.BatchIterations = BatchIterations;
  Expected<std::vector<int64_t>> Reps = flatRepetitions(G, NR);
  if (!Reps)
    return Reps.status();
  S.Repetitions = Reps.take();
  Expected<std::vector<int64_t>> Init = initFiringCounts(G, NR);
  if (!Init)
    return Init.status();
  S.InitFirings = Init.take();

  // Lookahead the first consumer of the external input requires beyond
  // what it pops (leftover items that must stay buffered), and the
  // deepest single-firing window any init-work firing peeks (which may
  // exceed its pops plus the steady lookahead).
  int64_t ExternalExtra = 0;
  int64_t InitPeekMax = 0;
  for (size_t I = 0; I != G.Nodes.size(); ++I) {
    for (const ChannelUse &U : NR[I].PeekNeed)
      if (U.Chan == G.ExternalIn)
        ExternalExtra =
            std::max(ExternalExtra, U.Rate - rateOn(NR[I].Pops, U.Chan));
    for (const ChannelUse &U : NR[I].InitPeekNeed)
      if (U.Chan == G.ExternalIn)
        InitPeekMax = std::max(InitPeekMax, U.Rate);
  }

  SimState Sim(G, NR);

  // Init program.
  Sim.beginProgram();
  if (Status St = Sim.schedule(S.InitFirings, S.InitProgram, "initialization");
      !St)
    return St;
  S.InitExternalPops = Sim.ExternalPops;
  S.InitExternalNeed =
      std::max(Sim.ExternalPops + ExternalExtra, InitPeekMax);
  S.InitExternalPushes = Sim.ExternalPushes;
  std::vector<int64_t> InitBuf(G.numChannels());
  for (size_t C = 0; C != G.numChannels(); ++C)
    InitBuf[C] =
        static_cast<int64_t>(G.InitialItems[C].size()) + Sim.Pushes[C];
  S.PostInitLive = Sim.Count;

  // Batch program (B steady states).
  std::vector<int64_t> Remaining(G.Nodes.size());
  for (size_t I = 0; I != G.Nodes.size(); ++I)
    Remaining[I] = S.Repetitions[I] * BatchIterations;
  Sim.beginProgram();
  if (Status St = Sim.schedule(Remaining, S.BatchProgram, "batch"); !St)
    return St;
  S.BatchExternalPops = Sim.ExternalPops;
  S.BatchExternalNeed = Sim.ExternalPops + ExternalExtra;
  S.BatchExternalPushes = Sim.ExternalPushes;
  auto IsExternal = [&](size_t C) {
    return static_cast<int>(C) == G.ExternalIn ||
           static_cast<int>(C) == G.ExternalOut;
  };
  std::vector<int64_t> BatchBuf(G.numChannels());
  for (size_t C = 0; C != G.numChannels(); ++C) {
    BatchBuf[C] = S.PostInitLive[C] + Sim.Pushes[C];
    if (!IsExternal(C) && Sim.Count[C] != S.PostInitLive[C])
      return Fail("batch program does not return channel '" +
                  std::to_string(C) + "' to its steady state");
  }

  // Single steady program (tail iterations), from the same post-init state.
  for (size_t I = 0; I != G.Nodes.size(); ++I)
    Remaining[I] = S.Repetitions[I];
  Sim.beginProgram();
  if (Status St = Sim.schedule(Remaining, S.SteadyProgram, "steady"); !St)
    return St;
  S.SteadyExternalPops = Sim.ExternalPops;
  S.SteadyExternalNeed = Sim.ExternalPops + ExternalExtra;
  S.SteadyExternalPushes = Sim.ExternalPushes;
  S.ChannelHighWater = Sim.HighWater;
  S.ChannelBufSize.resize(G.numChannels());
  for (size_t C = 0; C != G.numChannels(); ++C) {
    int64_t SteadyBuf = S.PostInitLive[C] + Sim.Pushes[C];
    S.ChannelBufSize[C] =
        std::max(InitBuf[C], std::max(BatchBuf[C], SteadyBuf));
    if (!IsExternal(C) && Sim.Count[C] != S.PostInitLive[C])
      return Fail("steady program does not return channel '" +
                  std::to_string(C) + "' to its steady state");
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Shard-boundary state computation
//===----------------------------------------------------------------------===//
//
// How many steady iterations does it take for the whole graph's state to
// be a function of only those iterations' (exact) inputs? Per channel,
// the leftover items after an iteration are the newest PostInitLive[c],
// pushed within the last ceil(live / throughput) iterations; each of
// those pushes is exact once its producer's own state and inputs were
// exact when it fired. Propagating that recurrence down the (acyclic)
// flat graph gives the washout depth: the maximum, over nodes, of the
// node's own state depth plus the staleness of its input channels.

ShardBoundary slin::computeShardBoundary(
    const flat::FlatGraph &G, const StaticSchedule &S,
    const std::vector<int> &NodeStateDepth) {
  ShardBoundary B;
  assert(NodeStateDepth.size() == G.Nodes.size() &&
         "state depth per flat node");

  size_t NumNodes = G.Nodes.size();
  std::vector<int> Producer(G.numChannels(), -1);
  std::vector<int64_t> Through(G.numChannels(), 0);
  for (size_t I = 0; I != NumNodes; ++I)
    for (int C : G.Nodes[I].outputChannels()) {
      Producer[static_cast<size_t>(C)] = static_cast<int>(I);
      Through[static_cast<size_t>(C)] =
          S.Repetitions[I] * G.Nodes[I].pushesTo(C, false);
    }

  // Flattening order puts every producer before its consumer except on
  // feedback-loop back edges; state cycles cannot be washed out.
  for (size_t I = 0; I != NumNodes; ++I)
    for (int C : G.Nodes[I].inputChannels()) {
      int P = Producer[static_cast<size_t>(C)];
      if (P >= static_cast<int>(I)) {
        B.Reason = "feedback loop: state cycles through '" +
                   G.Nodes[static_cast<size_t>(P)].Name + "'";
        return B;
      }
    }

  // Staleness of each node's output items, in iterations, once its
  // inputs are exact; computed in topological (= index) order.
  std::vector<int64_t> Depth(NumNodes, 0);
  int64_t Washout = 0;
  for (size_t I = 0; I != NumNodes; ++I) {
    if (NodeStateDepth[I] < 0) {
      B.Reason = "filter '" + G.Nodes[I].Name +
                 "' carries state that cannot be reconstructed";
      return B;
    }
    // The node's own state spans ceil(k / repetitions) iterations of its
    // input history; its inputs are stale by channel age plus the
    // producer's own staleness.
    int64_t Own = ceilDiv(static_cast<int64_t>(NodeStateDepth[I]),
                          std::max<int64_t>(S.Repetitions[I], 1));
    int64_t Stale = 0;
    for (int C : G.Nodes[I].inputChannels()) {
      size_t CS = static_cast<size_t>(C);
      if (C == G.ExternalIn)
        continue; // exact by construction (the worker's input slice)
      int P = Producer[CS];
      if (P < 0)
        continue;
      int64_t Live = S.PostInitLive[CS];
      int64_t Age = 0;
      if (Live > 0) {
        if (Through[CS] <= 0) {
          B.Reason = "channel into '" + G.Nodes[I].Name +
                     "' holds items that never drain";
          return B;
        }
        Age = ceilDiv(Live, Through[CS]);
      }
      Stale = std::max(Stale, Age + Depth[static_cast<size_t>(P)]);
    }
    int64_t D = Own + Stale;
    Depth[I] = D;
    Washout = std::max(Washout, D);
  }

  B.Feasible = true;
  B.WashoutIterations = Washout;
  return B;
}
