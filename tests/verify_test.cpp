//===- tests/verify_test.cpp - Abstract-interpretation linter tests -------==//
//
// The WIR linter (src/verify/): the affine abstract executor, the lint
// passes (verify-schedule / verify-linear / verify-bounds / verify-state),
// the mutation corpus — programmatically corrupted tapes, tape rates and
// mislabeled state claims that the linter must flag with precise
// findings — the clean benchmark
// suite (zero findings), the pipeline degradation path behind the
// lint-verifier-trip fault point, and the artifact-store inventory hook
// the lint-what-you-serve CI mode uses.
//
//===----------------------------------------------------------------------===//

#include "apps/Benchmarks.h"
#include "compiler/ArtifactStore.h"
#include "compiler/Pipeline.h"
#include "compiler/Program.h"
#include "compiler/StructuralHash.h"
#include "linear/Extract.h"
#include "support/FaultInjection.h"
#include "verify/AbstractInterp.h"
#include "verify/Lint.h"
#include "wir/Build.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

using namespace slin;
using namespace slin::verify;

/// The test-only friend wir/OpTape.h declares: in-place access to a
/// copy of a compiled tape, so the mutation corpus can corrupt exactly
/// one operand, opcode or declared rate.
namespace slin::wir {
struct OpProgramTestAccess {
  static std::vector<Inst> &code(OpProgram &P) { return P.Code; }
  static int &peekRate(OpProgram &P) { return P.PeekRate; }
  static int &popRate(OpProgram &P) { return P.PopRate; }
};
} // namespace slin::wir

namespace {

using Patch = wir::OpProgramTestAccess;

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

StreamPtr buildByName(const std::string &Name) {
  for (const apps::BenchmarkEntry &B : apps::allBenchmarks())
    if (B.Name == Name)
      return B.Build();
  return nullptr;
}

/// First filter node whose name contains \p Sub; -1 when absent.
int findFilter(const CompiledProgram &P, const std::string &Sub) {
  const flat::FlatGraph &G = P.graph();
  for (size_t I = 0; I != G.Nodes.size(); ++I)
    if (G.Nodes[I].Kind == flat::NodeKind::Filter && G.Nodes[I].F &&
        !G.Nodes[I].F->isNative() &&
        G.Nodes[I].Name.find(Sub) != std::string::npos)
      return static_cast<int>(I);
  return -1;
}

/// Index of the first instruction with opcode \p K; -1 when absent.
int findOp(const wir::OpProgram &T, wir::Op K) {
  for (size_t I = 0; I != T.code().size(); ++I)
    if (T.code()[I].K == K)
      return static_cast<int>(I);
  return -1;
}

bool hasErrorContaining(const LintReport &R, const std::string &Sub) {
  for (const Finding &F : R.findings())
    if (F.Sev == Finding::Severity::Error &&
        F.Message.find(Sub) != std::string::npos)
      return true;
  return false;
}

/// Disarms a fault point on scope exit (mirrors fault_test's guard).
class FaultGuard {
public:
  ~FaultGuard() {
    for (int I = 0; I != static_cast<int>(faults::Point::NumPoints); ++I)
      faults::arm(static_cast<faults::Point>(I), 0);
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Clean suite: every benchmark lints with zero findings
//===----------------------------------------------------------------------===//

TEST(LintCleanSuite, AllBenchmarksHaveZeroFindings) {
  size_t LinearFiltersChecked = 0;
  for (const apps::BenchmarkEntry &B : apps::allBenchmarks()) {
    StreamPtr Root = B.Build();
    ASSERT_NE(Root, nullptr) << B.Name;
    CompiledProgram P(*Root, CompiledOptions{});
    LintReport R = lintProgram(P);
    EXPECT_TRUE(R.findings().empty())
        << B.Name << " is not lint-clean:\n"
        << R.text();
    // The linearity oracle must actually have had work to do.
    const flat::FlatGraph &G = P.graph();
    for (const flat::Node &N : G.Nodes)
      if (N.Kind == flat::NodeKind::Filter && N.F && !N.F->isNative() &&
          extractLinearNode(*N.F).isLinear())
        ++LinearFiltersChecked;
  }
  // Fig 5-1 programs are full of linear filters; a tiny count would mean
  // the oracle is comparing against nothing.
  EXPECT_GE(LinearFiltersChecked, 20u);
}

//===----------------------------------------------------------------------===//
// verify-linear: exact re-derivation of [A, b] from the tape
//===----------------------------------------------------------------------===//

TEST(VerifyLinear, TapeRederivesExtractionExactly) {
  StreamPtr Root = buildByName("FIR");
  ASSERT_NE(Root, nullptr);
  CompiledProgram P(*Root, CompiledOptions{});
  int I = findFilter(P, "LowPass");
  ASSERT_GE(I, 0);
  const flat::Node &N = P.graph().Nodes[static_cast<size_t>(I)];
  const wir::OpProgram &Tape =
      P.filterArtifact(static_cast<size_t>(I)).Work;

  ExtractionResult Ext = extractLinearNode(*N.F);
  ASSERT_TRUE(Ext.isLinear()) << Ext.FailureReason;
  const LinearNode &LN = *Ext.Node;

  TapeSummary Sum = abstractExecute(Tape, N.F->fields());
  ASSERT_TRUE(Sum.Completed);
  ASSERT_FALSE(Sum.faulted()) << Sum.Faults.front().Msg;
  ASSERT_EQ(static_cast<int>(Sum.Pushes.size()), LN.pushRate());
  for (int J = 0; J != LN.pushRate(); ++J) {
    const AffineValue &V = Sum.Pushes[static_cast<size_t>(J)];
    ASSERT_TRUE(V.isInputAffine());
    for (int Pk = 0; Pk != LN.peekRate(); ++Pk)
      EXPECT_EQ(V.In[static_cast<size_t>(Pk)], LN.coeff(Pk, J))
          << "peek " << Pk << ", push " << J;
    EXPECT_EQ(V.Const, LN.offset(J)) << "push " << J;
  }

  // And the packaged cross-check agrees with itself: zero disagreements.
  LintReport R;
  lintTapeLinear(Tape, *N.F, N.Name, R);
  EXPECT_EQ(R.errorCount(), 0u) << R.text();
}

//===----------------------------------------------------------------------===//
// Mutation corpus: corrupted tapes must be flagged precisely
//===----------------------------------------------------------------------===//

namespace {

/// FMRadio's FloatDiff (push(peek(1) - peek(0)); pop; pop): small,
/// linear, and rich in mutation targets (PeekImm, Sub, rate trailer).
struct DiffFixture {
  StreamPtr Root;
  std::unique_ptr<CompiledProgram> P;
  int Node = -1;

  DiffFixture() {
    Root = buildByName("FMRadio");
    P = std::make_unique<CompiledProgram>(*Root, CompiledOptions{});
    Node = findFilter(*P, "FloatDiff");
  }
  const flat::Node &node() const {
    return P->graph().Nodes[static_cast<size_t>(Node)];
  }
  const wir::OpProgram &tape() const {
    return P->filterArtifact(static_cast<size_t>(Node)).Work;
  }
};

} // namespace

TEST(MutationCorpus, OffByOnePeekIsFlaggedAtItsOffset) {
  DiffFixture F;
  ASSERT_GE(F.Node, 0);
  const wir::OpProgram &Clean = F.tape();
  int Pc = findOp(Clean, wir::Op::PeekImm);
  ASSERT_GE(Pc, 0);
  int Window = std::max(Clean.peekRate(), Clean.popRate());

  // PeekImm's window offset is operand B: one past the window is the
  // classic off-by-one.
  wir::OpProgram Bad = Clean;
  Patch::code(Bad)[static_cast<size_t>(Pc)].B = Window;

  LintReport R;
  lintTapeBounds(Bad, F.node().F->fields(), "FloatDiff", R);
  ASSERT_GE(R.errorCount(), 1u);
  EXPECT_TRUE(hasErrorContaining(R, "outside the window")) << R.text();
  bool Anchored = false;
  for (const Finding &Fd : R.findings())
    Anchored |= Fd.Pc == Pc;
  EXPECT_TRUE(Anchored) << "finding must carry the tape offset:\n"
                        << R.text();

  // The linearity oracle independently refuses the mutated tape.
  LintReport RL;
  lintTapeLinear(Bad, *F.node().F, "FloatDiff", RL);
  EXPECT_GE(RL.errorCount(), 1u) << RL.text();
}

TEST(MutationCorpus, WrongPopRateIsFlagged) {
  DiffFixture F;
  ASSERT_GE(F.Node, 0);
  const wir::OpProgram &Clean = F.tape();
  wir::OpProgram Bad = Clean;
  Patch::popRate(Bad) = Clean.popRate() + 1;
  ASSERT_EQ(Bad.popRate(), Clean.popRate() + 1);

  LintReport R;
  lintTapeBounds(Bad, F.node().F->fields(), "FloatDiff", R);
  ASSERT_GE(R.errorCount(), 1u);
  EXPECT_TRUE(hasErrorContaining(R, "declared pop rate")) << R.text();
}

TEST(MutationCorpus, NonlinearOpInjectionIsFlagged) {
  DiffFixture F;
  ASSERT_GE(F.Node, 0);
  const wir::OpProgram &Clean = F.tape();
  int Pc = findOp(Clean, wir::Op::Sub);
  ASSERT_GE(Pc, 0);

  // peek - peek becomes peek * peek: same operands, nonlinear result.
  wir::OpProgram Bad = Clean;
  Patch::code(Bad)[static_cast<size_t>(Pc)].K = wir::Op::Mul;

  // Extraction still claims linear (it analyzes the IR, not the tape);
  // the tape-side oracle must report the disagreement.
  LintReport R;
  lintTapeLinear(Bad, *F.node().F, "FloatDiff", R);
  ASSERT_GE(R.errorCount(), 1u);
  EXPECT_TRUE(hasErrorContaining(R, "not affine")) << R.text();
}

TEST(MutationCorpus, DroppedAccumulationIsACoefficientMismatch) {
  // FMRadio's Adder sums its window in a loop; turning the counted Add
  // into a Copy of one operand leaves an affine tape whose matrix is
  // wrong — the oracle must name expected vs. derived coefficients.
  StreamPtr Root = buildByName("FMRadio");
  ASSERT_NE(Root, nullptr);
  CompiledProgram P(*Root, CompiledOptions{});
  int I = findFilter(P, "Adder");
  ASSERT_GE(I, 0);
  const flat::Node &N = P.graph().Nodes[static_cast<size_t>(I)];
  const wir::OpProgram &Clean = P.filterArtifact(static_cast<size_t>(I)).Work;
  int Pc = findOp(Clean, wir::Op::Add);
  ASSERT_GE(Pc, 0);

  wir::OpProgram Bad = Clean;
  Patch::code(Bad)[static_cast<size_t>(Pc)].K = wir::Op::Copy;

  LintReport R;
  lintTapeLinear(Bad, *N.F, N.Name, R);
  ASSERT_GE(R.errorCount(), 1u);
  EXPECT_TRUE(hasErrorContaining(R, "extraction says") ||
              hasErrorContaining(R, "not affine"))
      << R.text();
}

TEST(MutationCorpus, CorruptRegisterOperandIsStructurallyRejected) {
  DiffFixture F;
  ASSERT_GE(F.Node, 0);
  // First instruction's A operand -> far outside the register frame;
  // checkWellFormed must refuse to execute it.
  wir::OpProgram Bad = F.tape();
  Patch::code(Bad)[0].A = 100000;

  std::vector<TapeFault> Faults;
  EXPECT_FALSE(checkWellFormed(Bad, F.node().F->fields(), Faults));
  ASSERT_FALSE(Faults.empty());

  LintReport R;
  lintTapeBounds(Bad, F.node().F->fields(), "FloatDiff", R);
  EXPECT_GE(R.errorCount(), 1u);
}

TEST(MutationCorpus, RaisedWorkPeekRateIsFlagged) {
  // A tape whose window is wider than its filter declares reads items
  // the schedule (replayed at declared rates) never promised; the tape
  // stays self-consistent, so only the rate comparison can catch it.
  DiffFixture F;
  ASSERT_GE(F.Node, 0);
  CompiledProgram::FilterArtifact Art =
      F.P->filterArtifact(static_cast<size_t>(F.Node));
  {
    LintReport R; // the real tapes agree with the filter
    lintFilterTapes(Art, *F.node().F, "FloatDiff", R);
    EXPECT_EQ(R.errorCount(), 0u) << R.text();
  }
  Patch::peekRate(Art.Work) = F.node().F->peekRate() + 1;

  LintReport R;
  lintFilterTapes(Art, *F.node().F, "FloatDiff", R);
  ASSERT_GE(R.errorCount(), 1u);
  EXPECT_TRUE(hasErrorContaining(R, "disagree with the filter's declared"))
      << R.text();
}

TEST(MutationCorpus, RaisedInitPeekRateIsFlagged) {
  using namespace slin::wir;
  using namespace slin::wir::build;
  // The init firing peeks 5 deep but pops only 3.
  Filter Init("initf", std::vector<FieldDef>{},
              WorkFunction(2, 1, 1, stmts(push(add(peek(0), peek(1))),
                                          popStmt())));
  Init.setInitWork(WorkFunction(
      5, 3, 2, stmts(push(add(pop(), peek(3))), push(add(pop(), pop())))));
  CompiledProgram P(Init, CompiledOptions{});
  int I = findFilter(P, "initf");
  ASSERT_GE(I, 0);
  CompiledProgram::FilterArtifact Art =
      P.filterArtifact(static_cast<size_t>(I));
  ASSERT_FALSE(Art.InitWork.empty());
  {
    LintReport R; // the real tapes agree with the filter
    lintFilterTapes(Art, Init, "initf", R);
    EXPECT_EQ(R.errorCount(), 0u) << R.text();
  }
  Patch::peekRate(Art.InitWork) = Init.initPeekRate() + 1;

  LintReport R;
  lintFilterTapes(Art, Init, "initf", R);
  ASSERT_GE(R.errorCount(), 1u);
  EXPECT_TRUE(hasErrorContaining(R, "init tape rates")) << R.text();
}

TEST(MutationCorpus, MislabeledStateClassIsFlagged) {
  // FIR's FloatSource advances a cursor modulo its table size: the tape
  // proves kind=ModAffine, delta=1. Every mislabel must be rejected.
  StreamPtr Root = buildByName("FIR");
  ASSERT_NE(Root, nullptr);
  CompiledProgram P(*Root, CompiledOptions{});
  int I = findFilter(P, "Source");
  ASSERT_GE(I, 0);
  const flat::Node &N = P.graph().Nodes[static_cast<size_t>(I)];
  const wir::OpProgram &Tape = P.filterArtifact(static_cast<size_t>(I)).Work;

  wir::SteadyStateInfo Claims = Tape.analyzeSteadyState(N.F->fields());
  ASSERT_TRUE(Claims.Reconstructable);
  ASSERT_EQ(Claims.Updates.size(), 1u);
  ASSERT_EQ(Claims.Updates[0].Kind,
            wir::SteadyStateInfo::FieldKind::ModAffine);

  {
    LintReport R; // the true claims audit clean
    lintStateClaims(Tape, N.F->fields(), Claims, N.Name, R);
    EXPECT_EQ(R.errorCount(), 0u) << R.text();
  }
  {
    wir::SteadyStateInfo Bad = Claims; // drop the modulus
    Bad.Updates[0].Kind = wir::SteadyStateInfo::FieldKind::Affine;
    Bad.Updates[0].Mod = 0.0;
    LintReport R;
    lintStateClaims(Tape, N.F->fields(), Bad, N.Name, R);
    EXPECT_GE(R.errorCount(), 1u);
    EXPECT_TRUE(hasErrorContaining(R, "tape computes")) << R.text();
  }
  {
    wir::SteadyStateInfo Bad = Claims; // wrong stride
    Bad.Updates[0].Delta += 1.0;
    LintReport R;
    lintStateClaims(Tape, N.F->fields(), Bad, N.Name, R);
    EXPECT_GE(R.errorCount(), 1u) << R.text();
  }
  {
    wir::SteadyStateInfo Bad = Claims; // wrong modulus
    Bad.Updates[0].Mod *= 2.0;
    LintReport R;
    lintStateClaims(Tape, N.F->fields(), Bad, N.Name, R);
    EXPECT_GE(R.errorCount(), 1u) << R.text();
  }
  {
    wir::SteadyStateInfo Bad = Claims; // "no prior-firing state" lie
    Bad.Updates[0].Kind =
        wir::SteadyStateInfo::FieldKind::InputDetermined;
    LintReport R;
    lintStateClaims(Tape, N.F->fields(), Bad, N.Name, R);
    EXPECT_GE(R.errorCount(), 1u);
    EXPECT_TRUE(hasErrorContaining(R, "prior-firing state")) << R.text();
  }
}

//===----------------------------------------------------------------------===//
// Pipeline integration: the lint passes run under SLIN_VERIFY and their
// failures take the recoverable degradation path
//===----------------------------------------------------------------------===//

TEST(LintPipeline, LintVerifierTripDegradesRecoverably) {
  FaultGuard G;
  StreamPtr Root = buildByName("FIR");
  ASSERT_NE(Root, nullptr);
  PipelineOptions PO;
  PO.Mode = OptMode::Linear;
  PO.Exec.Eng = Engine::Compiled;
  PO.VerifyAfterEachPass = true;
  PO.UseProgramCache = false;
  faults::arm(faults::Point::LintVerifierTrip, 1);
  Expected<CompileResult> R = CompilerPipeline(PO).tryCompile(*Root);
  ASSERT_TRUE(R) << R.status().str();
  EXPECT_TRUE(R->Degraded);
  EXPECT_NE(R->DegradeReason.find("lint-verifier trip"), std::string::npos)
      << R->DegradeReason;
  ASSERT_NE(R->Program, nullptr);
}

TEST(LintPipeline, PersistentLintFailureSurfacesAStatus) {
  FaultGuard G;
  StreamPtr Root = buildByName("FIR");
  ASSERT_NE(Root, nullptr);
  PipelineOptions PO;
  PO.Mode = OptMode::Linear;
  PO.Exec.Eng = Engine::Compiled;
  PO.VerifyAfterEachPass = true;
  PO.UseProgramCache = false;
  faults::arm(faults::Point::LintVerifierTrip, 1, /*Persistent=*/true);
  Expected<CompileResult> R = CompilerPipeline(PO).tryCompile(*Root);
  ASSERT_FALSE(R); // even the Base-mode rung tripped: nothing left
  EXPECT_EQ(R.status().code(), ErrorCode::VerifyFailed);
}

TEST(LintPipeline, CleanCompileRunsLintPassesWithoutFindings) {
  StreamPtr Root = buildByName("FIR");
  ASSERT_NE(Root, nullptr);
  PipelineOptions PO;
  PO.Exec.Eng = Engine::Compiled;
  PO.VerifyAfterEachPass = true;
  PO.UseProgramCache = false;
  CompileResult R = compileStream(*Root, PO);
  ASSERT_NE(R.Program, nullptr);
  bool SawLinear = false, SawBounds = false, SawState = false;
  for (const PassInfo &Pass : R.Passes) {
    SawLinear |= Pass.Name == "verify-linear";
    SawBounds |= Pass.Name == "verify-bounds";
    SawState |= Pass.Name == "verify-state";
  }
  EXPECT_TRUE(SawLinear && SawBounds && SawState)
      << "lint passes missing from the pass list";
}

//===----------------------------------------------------------------------===//
// Store inventory: the lint-what-you-serve hook
//===----------------------------------------------------------------------===//

TEST(StoreInventory, ListArtifactsRoundTripsKeys) {
  std::string Dir =
      (std::filesystem::temp_directory_path() /
       ("slin-verify-test-" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(Dir);
  ArtifactStore Store(Dir);

  StreamPtr Root = buildByName("FIR");
  ASSERT_NE(Root, nullptr);
  CompiledOptions Opts;
  CompiledProgram P(*Root, Opts);
  ArtifactStore::Key K{structuralHash(P.root()), hashOptions(Opts)};
  ASSERT_TRUE(Store.store(K, P).isOk());

  std::vector<ArtifactStore::Key> Keys = Store.listArtifacts();
  ASSERT_EQ(Keys.size(), 1u);
  EXPECT_TRUE(Keys[0].Structure == K.Structure);
  EXPECT_TRUE(Keys[0].Options == K.Options);

  // The listed key loads, and what the store serves lints clean.
  Expected<CompiledProgramRef> Loaded = Store.load(Keys[0]);
  ASSERT_TRUE(Loaded) << Loaded.status().str();
  EXPECT_TRUE((*Loaded)->loadedFromArtifact());
  LintReport R = lintProgram(**Loaded);
  EXPECT_TRUE(R.findings().empty()) << R.text();

  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
}
