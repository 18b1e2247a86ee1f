//===- sched/Rates.cpp - Steady-state scheduling ---------------------------==//

#include "sched/Rates.h"

#include "support/Diag.h"
#include "support/MathUtil.h"

using namespace slin;

namespace {

/// Error sink for the solver: the first failure wins and every caller
/// returns early once it is set, so a malformed graph produces one
/// precise message instead of a cascade (or an abort — the verifier pass
/// runs the solver over deliberately corrupted rewrites and must get the
/// diagnostic back as a value).
struct RateErr {
  std::string Msg;
  bool failed() const { return !Msg.empty(); }
  void set(const std::string &M) {
    if (Msg.empty())
      Msg = M;
  }
};

RateSignature solve(const Stream &S, RateErr &E, std::vector<int64_t> &Reps);

/// Aggregate rates of \p S alone (its own child repetitions dropped).
RateSignature ratesOf(const Stream &S, RateErr &E) {
  std::vector<int64_t> Reps;
  return solve(S, E, Reps);
}

/// Balance-equation step shared by every container: minimal positive
/// integers proportional to \p Rats.
std::vector<int64_t> toMinimalIntegers(const std::vector<Rational> &Rats,
                                       RateErr &E) {
  std::vector<int64_t> Ints;
  if (!slin::toMinimalIntegers(Rats, Ints))
    E.set("non-positive repetition count while solving rates");
  return Ints;
}

RateSignature solvePipeline(const Pipeline &P, RateErr &E,
                            std::vector<int64_t> &Out) {
  const auto &Children = P.children();
  if (Children.empty()) {
    E.set("empty pipeline '" + P.name() + "'");
    return {};
  }
  std::vector<Rational> Reps;
  Reps.push_back(Rational(1));
  RateSignature First = ratesOf(*Children.front(), E);
  RateSignature Prev = First;
  for (size_t I = 1; I != Children.size() && !E.failed(); ++I) {
    RateSignature Cur = ratesOf(*Children[I], E);
    if (E.failed())
      break;
    if (Prev.Push == 0) {
      E.set("pipeline '" + P.name() + "': child " + std::to_string(I - 1) +
            " pushes nothing but is not last");
      break;
    }
    if (Cur.Pop == 0) {
      E.set("pipeline '" + P.name() + "': child " + std::to_string(I) +
            " pops nothing but is not first");
      break;
    }
    Reps.push_back(Reps.back() * Rational(Prev.Push, Cur.Pop));
    Prev = Cur;
  }
  if (E.failed())
    return {};
  Out = toMinimalIntegers(Reps, E);
  if (E.failed())
    return {};
  RateSignature R;
  R.Pop = mulSat64(First.Pop, Out.front());
  R.Peek = addSat64(R.Pop, First.Peek - First.Pop);
  R.Push = mulSat64(Prev.Push, Out.back());
  return R;
}

bool nonNegativeWeights(const std::vector<int> &Weights) {
  for (int W : Weights)
    if (W < 0)
      return false;
  return true;
}

RateSignature solveSplitJoin(const SplitJoin &SJ, RateErr &E,
                             std::vector<int64_t> &Out) {
  const auto &Children = SJ.children();
  size_t N = Children.size();
  if (N == 0) {
    E.set("empty splitjoin '" + SJ.name() + "'");
    return {};
  }
  const Splitter &Split = SJ.splitter();
  const Joiner &Join = SJ.joiner();
  if (Join.Weights.size() != N) {
    E.set("splitjoin '" + SJ.name() + "': joiner weight count mismatch");
    return {};
  }
  if (Split.Kind == Splitter::RoundRobin && Split.Weights.size() != N) {
    E.set("splitjoin '" + SJ.name() + "': splitter weight count mismatch");
    return {};
  }
  if (!nonNegativeWeights(Join.Weights) ||
      !nonNegativeWeights(Split.Weights)) {
    E.set("splitjoin '" + SJ.name() + "': negative splitter/joiner weight");
    return {};
  }

  std::vector<RateSignature> Rates;
  Rates.reserve(N);
  for (const StreamPtr &C : Children) {
    Rates.push_back(ratesOf(*C, E));
    if (E.failed())
      return {};
  }

  // Derive child repetitions from the joiner when every child produces
  // output, otherwise from the splitter; verify the other side.
  std::vector<Rational> Reps(N);
  bool AllPush = true;
  for (const RateSignature &R : Rates)
    AllPush = AllPush && R.Push > 0;
  if (AllPush) {
    // r_k proportional to w_k / u_k.
    for (size_t K = 0; K != N; ++K)
      Reps[K] = Rational(Join.Weights[K], Rates[K].Push);
  } else {
    for (size_t K = 0; K != N; ++K) {
      if (Rates[K].Pop == 0) {
        E.set("splitjoin '" + SJ.name() +
              "': child neither consumes nor produces");
        return {};
      }
      int64_t Share =
          Split.Kind == Splitter::RoundRobin ? Split.Weights[K] : 1;
      Reps[K] = Rational(Share, Rates[K].Pop);
    }
  }

  std::vector<int64_t> Ints = toMinimalIntegers(Reps, E);
  if (E.failed())
    return {};

  // Consistency checks on the side not used for derivation.
  if (Split.Kind == Splitter::Duplicate) {
    int64_t Consumed = Rates[0].Pop * Ints[0];
    for (size_t K = 1; K != N; ++K)
      if (Rates[K].Pop * Ints[K] != Consumed) {
        E.set("splitjoin '" + SJ.name() +
              "': duplicate children consume mismatched amounts");
        return {};
      }
  } else {
    Rational SplitRep(0);
    for (size_t K = 0; K != N; ++K) {
      if (Split.Weights[K] == 0) {
        if (Rates[K].Pop != 0) {
          E.set("splitjoin '" + SJ.name() +
                "': zero-weight child consumes input");
          return {};
        }
        continue;
      }
      Rational R(Rates[K].Pop * Ints[K], Split.Weights[K]);
      if (K == 0)
        SplitRep = R;
      else if (!(SplitRep == R)) {
        E.set("splitjoin '" + SJ.name() +
              "': roundrobin splitter rates inconsistent");
        return {};
      }
    }
  }
  if (!AllPush) // (the joiner side was used for derivation otherwise)
    for (size_t K = 0; K != N; ++K)
      if ((Rates[K].Push == 0) != (Join.Weights[K] == 0)) {
        E.set("splitjoin '" + SJ.name() +
              "': joiner weight for non-producing child");
        return {};
      }

  // The minimal vector balances the children against each other, but a
  // steady state must also run the splitter and joiner for a whole
  // number of cycles. Weight vectors that are unreduced multiples of the
  // per-repetition flows (the selection DP's vertical-cut wrappers build
  // these) reduce to child repetitions implying fractional cycles; scale
  // back up by the implied cycle-count denominators.
  int64_t Scale = 1;
  if (Split.Kind == Splitter::RoundRobin) {
    for (size_t K = 0; K != N; ++K) {
      if (Split.Weights[K] == 0)
        continue;
      // Equal across children (verified above); one representative.
      Rational Cycles(Rates[K].Pop * Ints[K], Split.Weights[K]);
      Scale = lcm64(Scale, Cycles.den());
      break;
    }
  }
  for (size_t K = 0; K != N; ++K) {
    if (Join.Weights[K] == 0 || Rates[K].Push == 0)
      continue;
    Rational Cycles(Rates[K].Push * Ints[K], Join.Weights[K]);
    Scale = lcm64(Scale, Cycles.den());
    break;
  }
  if (Scale > 1)
    for (int64_t &V : Ints)
      V *= Scale;
  Out = std::move(Ints);

  RateSignature R;
  for (size_t K = 0; K != N; ++K)
    R.Push = addSat64(R.Push, mulSat64(Rates[K].Push, Out[K]));
  if (Split.Kind == Splitter::Duplicate) {
    int64_t Consumed = 0;
    for (size_t K = 0; K != N; ++K) {
      Consumed = mulSat64(Rates[K].Pop, Out[K]);
      R.Peek = std::max(R.Peek,
                        addSat64(Consumed, Rates[K].Peek - Rates[K].Pop));
    }
    R.Pop = Consumed;
  } else {
    // Roundrobin: one splitter cycle distributes totalWeight items.
    int64_t VTot = Split.totalWeight();
    int64_t SplitRep = 0;
    int64_t ExtraPeek = 0;
    for (size_t K = 0; K != N; ++K) {
      if (Split.Weights[K] == 0)
        continue;
      SplitRep = mulSat64(Rates[K].Pop, Out[K]) / Split.Weights[K];
      ExtraPeek = std::max(ExtraPeek, Rates[K].Peek - Rates[K].Pop);
    }
    R.Pop = mulSat64(SplitRep, VTot);
    // Approximation: extra peeking by a child requires up to a full
    // extra splitter cycle of lookahead per extra item window.
    R.Peek = addSat64(R.Pop, ExtraPeek > 0 ? mulSat64(ExtraPeek, VTot) : 0);
  }
  return R;
}

RateSignature solveFeedbackLoop(const FeedbackLoop &FB, RateErr &E,
                                std::vector<int64_t> &Out) {
  RateSignature Body = ratesOf(FB.body(), E);
  RateSignature Loop = ratesOf(FB.loop(), E);
  if (E.failed())
    return {};
  const Joiner &Join = FB.joiner();
  const Splitter &Split = FB.splitter();
  if (Join.Weights.size() != 2) {
    E.set("feedbackloop '" + FB.name() + "': joiner needs two weights");
    return {};
  }
  if (Split.Kind != Splitter::RoundRobin || Split.Weights.size() != 2) {
    E.set("feedbackloop '" + FB.name() +
          "': splitter must be roundrobin with two weights");
    return {};
  }
  if (!nonNegativeWeights(Join.Weights) ||
      !nonNegativeWeights(Split.Weights)) {
    E.set("feedbackloop '" + FB.name() +
          "': negative splitter/joiner weight");
    return {};
  }
  if (Join.totalWeight() == 0 || Split.totalWeight() == 0 ||
      Loop.Pop == 0) {
    E.set("feedbackloop '" + FB.name() +
          "': joiner, splitter or loop stream moves no items");
    return {};
  }

  // Unknowns: body reps B, loop reps L, joiner cycles J, splitter cycles S.
  //   o_b * B = (w0 + w1) * J      u_b * B = (s0 + s1) * S
  //   o_l * L = s1 * S             u_l * L = w1 * J
  Rational B(1);
  Rational J = Rational(Body.Pop) / Rational(Join.totalWeight());
  Rational S = Rational(Body.Push) / Rational(Split.totalWeight());
  Rational L = Rational(Split.Weights[1]) * S / Rational(Loop.Pop);
  if (!(Rational(Loop.Push) * L == Rational(Join.Weights[1]) * J)) {
    E.set("feedbackloop '" + FB.name() + "': inconsistent loop rates");
    return {};
  }
  Out = toMinimalIntegers({B, L}, E);
  if (E.failed())
    return {};

  int64_t JoinCycles = mulSat64(Body.Pop, Out[0]) / Join.totalWeight();
  int64_t SplitCycles = mulSat64(Body.Push, Out[0]) / Split.totalWeight();
  RateSignature R;
  R.Pop = Join.Weights[0] * JoinCycles;
  R.Peek = R.Pop;
  R.Push = Split.Weights[0] * SplitCycles;
  return R;
}

/// The single bottom-up pass: every child's signature is derived exactly
/// once, and both the container's signature and its child repetitions
/// \p Reps come from those — linear in the size of the tree.
RateSignature solve(const Stream &S, RateErr &E, std::vector<int64_t> &Reps) {
  if (E.failed())
    return {};
  switch (S.kind()) {
  case StreamKind::Filter: {
    const auto *F = cast<Filter>(&S);
    return {F->peekRate(), F->popRate(), F->pushRate()};
  }
  case StreamKind::Pipeline:
    return solvePipeline(*cast<Pipeline>(&S), E, Reps);
  case StreamKind::SplitJoin:
    return solveSplitJoin(*cast<SplitJoin>(&S), E, Reps);
  case StreamKind::FeedbackLoop:
    return solveFeedbackLoop(*cast<FeedbackLoop>(&S), E, Reps);
  }
  unreachable("unknown stream kind");
}

} // namespace

Expected<RateSignature> slin::computeRates(const Stream &S) {
  RateErr E;
  RateSignature R = ratesOf(S, E);
  if (E.failed())
    return Status(ErrorCode::RateError, E.Msg);
  return R;
}

Expected<std::vector<int64_t>> slin::childRepetitions(const Stream &Container) {
  RateErr E;
  std::vector<int64_t> R;
  solve(Container, E, R);
  if (E.failed())
    return Status(ErrorCode::RateError, E.Msg);
  return R;
}
