//===- wir/Interp.cpp - Work-IR interpreter --------------------------------==//

#include "wir/Interp.h"

#include "support/Diag.h"
#include "support/OpCounters.h"

#include <cassert>
#include <cmath>

using namespace slin;
using namespace slin::wir;

Tape::~Tape() = default;

void Tape::print(double) {}

double wir::evalIntrinsic(Intrinsic Fn, double Arg) {
  switch (Fn) {
  case Intrinsic::Sin:   return std::sin(Arg);
  case Intrinsic::Cos:   return std::cos(Arg);
  case Intrinsic::Tan:   return std::tan(Arg);
  case Intrinsic::Atan:  return std::atan(Arg);
  case Intrinsic::Sqrt:  return std::sqrt(Arg);
  case Intrinsic::Abs:   return std::fabs(Arg);
  case Intrinsic::Exp:   return std::exp(Arg);
  case Intrinsic::Log:   return std::log(Arg);
  case Intrinsic::Floor: return std::floor(Arg);
  case Intrinsic::Round: return std::round(Arg);
  }
  unreachable("unknown intrinsic");
}

namespace {

class Interp {
public:
  Interp(const WorkFunction &Work, const std::vector<FieldDef> &Fields,
         FieldStore &State, Tape &T)
      : Work(Work), Fields(Fields), State(State), T(T),
        Scalars(static_cast<size_t>(Work.NumScalarSlots), 0.0),
        Arrays(static_cast<size_t>(Work.NumArraySlots)) {}

  void run() { execBody(Work.Body); }

private:
  static int toIndex(double V) {
    return static_cast<int>(std::lround(V));
  }

  /// Index and loop-bound expressions model integer/address arithmetic,
  /// which the paper's FLOP counts exclude.
  double evalUncounted(const Expr &E) {
    ops::CountingScope Scope(false);
    return eval(E);
  }

  double eval(const Expr &E) {
    switch (E.kind()) {
    case ExprKind::Const:
      return cast<ConstExpr>(&E)->Value;
    case ExprKind::VarRef: {
      const auto *V = cast<VarRefExpr>(&E);
      assert(V->Slot >= 0 &&
             static_cast<size_t>(V->Slot) < Scalars.size() &&
             "scalar slot out of range (resolver bug)");
      return Scalars[static_cast<size_t>(V->Slot)];
    }
    case ExprKind::ArrayRef: {
      const auto *A = cast<ArrayRefExpr>(&E);
      const std::vector<double> &Arr =
          Arrays[static_cast<size_t>(A->Slot)];
      int I = toIndex(evalUncounted(*A->Index));
      if (I < 0 || static_cast<size_t>(I) >= Arr.size())
        fatalError("array '" + A->Name + "' index out of range");
      return Arr[static_cast<size_t>(I)];
    }
    case ExprKind::FieldRef: {
      const auto *F = cast<FieldRefExpr>(&E);
      const std::vector<double> &Val =
          State.Values[static_cast<size_t>(F->FieldIndex)];
      if (!F->Index)
        return Val[0];
      int I = toIndex(evalUncounted(*F->Index));
      if (I < 0 || static_cast<size_t>(I) >= Val.size())
        fatalError("field '" + F->Name + "' index out of range");
      return Val[static_cast<size_t>(I)];
    }
    case ExprKind::Peek: {
      int I = toIndex(evalUncounted(*cast<PeekExpr>(&E)->Index));
      // Tape implementations only assert in their own debug builds;
      // stop here, at the firing filter, with the offending index.
      assert(I >= 0 && "negative peek index");
      return T.peek(I);
    }
    case ExprKind::Pop:
      return T.pop();
    case ExprKind::Binary: {
      const auto *B = cast<BinaryExpr>(&E);
      double L = eval(*B->LHS);
      // Short-circuit logical operators (integer ops on IA-32; uncounted).
      if (B->Op == BinOp::LAnd)
        return L != 0.0 && eval(*B->RHS) != 0.0 ? 1.0 : 0.0;
      if (B->Op == BinOp::LOr)
        return L != 0.0 || eval(*B->RHS) != 0.0 ? 1.0 : 0.0;
      double R = eval(*B->RHS);
      switch (B->Op) {
      case BinOp::Add: return ops::add(L, R);
      case BinOp::Sub: return ops::sub(L, R);
      case BinOp::Mul: return ops::mul(L, R);
      case BinOp::Div: return ops::div(L, R);
      case BinOp::Mod:
        return ops::mod(L, R);
      case BinOp::Lt: return ops::cmp(L < R) ? 1.0 : 0.0;
      case BinOp::Le: return ops::cmp(L <= R) ? 1.0 : 0.0;
      case BinOp::Gt: return ops::cmp(L > R) ? 1.0 : 0.0;
      case BinOp::Ge: return ops::cmp(L >= R) ? 1.0 : 0.0;
      case BinOp::Eq: return ops::cmp(L == R) ? 1.0 : 0.0;
      case BinOp::Ne: return ops::cmp(L != R) ? 1.0 : 0.0;
      case BinOp::LAnd:
      case BinOp::LOr:
        break;
      }
      unreachable("unknown binop");
    }
    case ExprKind::Unary: {
      const auto *U = cast<UnaryExpr>(&E);
      double V = eval(*U->Operand);
      if (U->Op == UnOp::Neg)
        return ops::sub(0.0, V); // FCHS
      return V == 0.0 ? 1.0 : 0.0;
    }
    case ExprKind::Call: {
      const auto *C = cast<CallExpr>(&E);
      return ops::trans(evalIntrinsic(C->Fn, eval(*C->Arg)));
    }
    }
    unreachable("unknown expr kind");
  }

  void execBody(const StmtList &Body) {
    for (const StmtPtr &S : Body)
      exec(*S);
  }

  void exec(const Stmt &S) {
    switch (S.kind()) {
    case StmtKind::Assign: {
      const auto *A = cast<AssignStmt>(&S);
      Scalars[static_cast<size_t>(A->Slot)] = eval(*A->Value);
      return;
    }
    case StmtKind::ArrayAssign: {
      const auto *A = cast<ArrayAssignStmt>(&S);
      std::vector<double> &Arr = Arrays[static_cast<size_t>(A->Slot)];
      int I = toIndex(evalUncounted(*A->Index));
      if (I < 0 || static_cast<size_t>(I) >= Arr.size())
        fatalError("array '" + A->Name + "' index out of range");
      Arr[static_cast<size_t>(I)] = eval(*A->Value);
      return;
    }
    case StmtKind::FieldAssign: {
      const auto *F = cast<FieldAssignStmt>(&S);
      std::vector<double> &Val =
          State.Values[static_cast<size_t>(F->FieldIndex)];
      if (!F->Index) {
        Val[0] = eval(*F->Value);
        return;
      }
      int I = toIndex(evalUncounted(*F->Index));
      if (I < 0 || static_cast<size_t>(I) >= Val.size())
        fatalError("field '" + F->Name + "' index out of range");
      Val[static_cast<size_t>(I)] = eval(*F->Value);
      return;
    }
    case StmtKind::LocalArray: {
      const auto *L = cast<LocalArrayStmt>(&S);
      Arrays[static_cast<size_t>(L->Slot)].assign(
          static_cast<size_t>(L->Size), 0.0);
      return;
    }
    case StmtKind::Push:
      T.push(eval(*cast<PushStmt>(&S)->Value));
      return;
    case StmtKind::PopDiscard:
      T.pop();
      return;
    case StmtKind::For: {
      const auto *F = cast<ForStmt>(&S);
      int Begin = toIndex(evalUncounted(*F->Begin));
      int End = toIndex(evalUncounted(*F->End));
      for (int I = Begin; I < End; ++I) {
        Scalars[static_cast<size_t>(F->Slot)] = I;
        execBody(F->Body);
      }
      return;
    }
    case StmtKind::If: {
      const auto *I = cast<IfStmt>(&S);
      if (eval(*I->Cond) != 0.0)
        execBody(I->Then);
      else
        execBody(I->Else);
      return;
    }
    case StmtKind::Print:
      T.print(eval(*cast<PrintStmt>(&S)->Value));
      return;
    case StmtKind::Uncounted: {
      ops::CountingScope Scope(false);
      execBody(cast<UncountedStmt>(&S)->Body);
      return;
    }
    }
    unreachable("unknown stmt kind");
  }

  const WorkFunction &Work;
  const std::vector<FieldDef> &Fields;
  FieldStore &State;
  Tape &T;
  std::vector<double> Scalars;
  std::vector<std::vector<double>> Arrays;
};

} // namespace

void wir::interpret(const WorkFunction &Work,
                    const std::vector<FieldDef> &Fields, FieldStore &State,
                    Tape &T) {
  if (!Work.Resolved)
    orDie(resolve(Work, Fields));
  assert(State.Values.size() == Fields.size() &&
         "field store does not match field list");
  Interp(Work, Fields, State, T).run();
}
