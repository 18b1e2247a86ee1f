//===- wir/IR.cpp - Work-function IR implementation -----------------------==//

#include "wir/IR.h"

#include "support/Diag.h"

#include <cstdio>
#include <unordered_map>

using namespace slin;
using namespace slin::wir;

Expr::~Expr() = default;
Stmt::~Stmt() = default;

//===----------------------------------------------------------------------===//
// Cloning
//===----------------------------------------------------------------------===//

static ExprPtr cloneOrNull(const ExprPtr &E) {
  return E ? E->clone() : nullptr;
}

ExprPtr Expr::clone() const {
  switch (Kind) {
  case ExprKind::Const:
    return std::make_unique<ConstExpr>(cast<ConstExpr>(this)->Value);
  case ExprKind::VarRef:
    return std::make_unique<VarRefExpr>(cast<VarRefExpr>(this)->Name);
  case ExprKind::ArrayRef: {
    const auto *A = cast<ArrayRefExpr>(this);
    return std::make_unique<ArrayRefExpr>(A->Name, A->Index->clone());
  }
  case ExprKind::FieldRef: {
    const auto *F = cast<FieldRefExpr>(this);
    return std::make_unique<FieldRefExpr>(F->Name, cloneOrNull(F->Index));
  }
  case ExprKind::Peek:
    return std::make_unique<PeekExpr>(cast<PeekExpr>(this)->Index->clone());
  case ExprKind::Pop:
    return std::make_unique<PopExpr>();
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(this);
    return std::make_unique<BinaryExpr>(B->Op, B->LHS->clone(),
                                        B->RHS->clone());
  }
  case ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(this);
    return std::make_unique<UnaryExpr>(U->Op, U->Operand->clone());
  }
  case ExprKind::Call: {
    const auto *C = cast<CallExpr>(this);
    return std::make_unique<CallExpr>(C->Fn, C->Arg->clone());
  }
  }
  unreachable("unknown expr kind");
}

StmtList wir::cloneStmts(const StmtList &Body) {
  StmtList Out;
  Out.reserve(Body.size());
  for (const StmtPtr &S : Body)
    Out.push_back(S->clone());
  return Out;
}

StmtPtr Stmt::clone() const {
  switch (Kind) {
  case StmtKind::Assign: {
    const auto *A = cast<AssignStmt>(this);
    return std::make_unique<AssignStmt>(A->Name, A->Value->clone());
  }
  case StmtKind::ArrayAssign: {
    const auto *A = cast<ArrayAssignStmt>(this);
    return std::make_unique<ArrayAssignStmt>(A->Name, A->Index->clone(),
                                             A->Value->clone());
  }
  case StmtKind::FieldAssign: {
    const auto *F = cast<FieldAssignStmt>(this);
    return std::make_unique<FieldAssignStmt>(F->Name, cloneOrNull(F->Index),
                                             F->Value->clone());
  }
  case StmtKind::LocalArray: {
    const auto *L = cast<LocalArrayStmt>(this);
    return std::make_unique<LocalArrayStmt>(L->Name, L->Size);
  }
  case StmtKind::Push:
    return std::make_unique<PushStmt>(cast<PushStmt>(this)->Value->clone());
  case StmtKind::PopDiscard:
    return std::make_unique<PopDiscardStmt>();
  case StmtKind::For: {
    const auto *F = cast<ForStmt>(this);
    return std::make_unique<ForStmt>(F->Var, F->Begin->clone(),
                                     F->End->clone(), cloneStmts(F->Body));
  }
  case StmtKind::If: {
    const auto *I = cast<IfStmt>(this);
    return std::make_unique<IfStmt>(I->Cond->clone(), cloneStmts(I->Then),
                                    cloneStmts(I->Else));
  }
  case StmtKind::Print:
    return std::make_unique<PrintStmt>(cast<PrintStmt>(this)->Value->clone());
  case StmtKind::Uncounted:
    return std::make_unique<UncountedStmt>(
        cloneStmts(cast<UncountedStmt>(this)->Body));
  }
  unreachable("unknown stmt kind");
}

WorkFunction WorkFunction::clone() const {
  WorkFunction W(PeekRate, PopRate, PushRate, cloneStmts(Body));
  return W;
}

//===----------------------------------------------------------------------===//
// Resolution
//===----------------------------------------------------------------------===//

namespace {

class Resolver {
public:
  Resolver(const WorkFunction &Work, const std::vector<FieldDef> &Fields)
      : Work(Work), Fields(Fields) {}

  /// Resolves the body; returns the first error (empty on success, and
  /// only then is the work function marked resolved).
  std::string run() {
    resolveBody(Work.Body);
    if (Err.empty()) {
      Work.NumScalarSlots = static_cast<int>(Scalars.size());
      Work.NumArraySlots = static_cast<int>(Arrays.size());
      Work.Resolved = true;
    }
    return Err;
  }

private:
  void resolveBody(const StmtList &Body) {
    for (const StmtPtr &S : Body)
      resolveStmt(*S);
  }

  void resolveStmt(const Stmt &S) {
    switch (S.kind()) {
    case StmtKind::Assign: {
      const auto *A = cast<AssignStmt>(&S);
      resolveExpr(*A->Value);
      A->Slot = defineScalar(A->Name);
      return;
    }
    case StmtKind::ArrayAssign: {
      const auto *A = cast<ArrayAssignStmt>(&S);
      resolveExpr(*A->Index);
      resolveExpr(*A->Value);
      A->Slot = lookupArray(A->Name);
      return;
    }
    case StmtKind::FieldAssign: {
      const auto *F = cast<FieldAssignStmt>(&S);
      if (F->Index)
        resolveExpr(*F->Index);
      resolveExpr(*F->Value);
      F->FieldIndex = lookupField(F->Name, F->Index != nullptr);
      if (F->FieldIndex >= 0 && !Fields[F->FieldIndex].IsMutable)
        fail("assignment to non-mutable field '" + F->Name + "'");
      return;
    }
    case StmtKind::LocalArray: {
      const auto *L = cast<LocalArrayStmt>(&S);
      if (Arrays.count(L->Name) || Scalars.count(L->Name))
        return fail("redeclaration of local '" + L->Name + "'");
      int Slot = static_cast<int>(Arrays.size());
      Arrays[L->Name] = Slot;
      L->Slot = Slot;
      return;
    }
    case StmtKind::Push:
      resolveExpr(*cast<PushStmt>(&S)->Value);
      return;
    case StmtKind::PopDiscard:
      return;
    case StmtKind::For: {
      const auto *F = cast<ForStmt>(&S);
      resolveExpr(*F->Begin);
      resolveExpr(*F->End);
      F->Slot = defineScalar(F->Var);
      resolveBody(F->Body);
      return;
    }
    case StmtKind::If: {
      const auto *I = cast<IfStmt>(&S);
      resolveExpr(*I->Cond);
      resolveBody(I->Then);
      resolveBody(I->Else);
      return;
    }
    case StmtKind::Print:
      resolveExpr(*cast<PrintStmt>(&S)->Value);
      return;
    case StmtKind::Uncounted:
      resolveBody(cast<UncountedStmt>(&S)->Body);
      return;
    }
    unreachable("unknown stmt kind");
  }

  void resolveExpr(const Expr &E) {
    switch (E.kind()) {
    case ExprKind::Const:
    case ExprKind::Pop:
      return;
    case ExprKind::VarRef: {
      const auto *V = cast<VarRefExpr>(&E);
      auto It = Scalars.find(V->Name);
      if (It == Scalars.end())
        return fail("use of undefined variable '" + V->Name + "'");
      V->Slot = It->second;
      return;
    }
    case ExprKind::ArrayRef: {
      const auto *A = cast<ArrayRefExpr>(&E);
      resolveExpr(*A->Index);
      A->Slot = lookupArray(A->Name);
      return;
    }
    case ExprKind::FieldRef: {
      const auto *F = cast<FieldRefExpr>(&E);
      if (F->Index)
        resolveExpr(*F->Index);
      F->FieldIndex = lookupField(F->Name, F->Index != nullptr);
      return;
    }
    case ExprKind::Peek:
      resolveExpr(*cast<PeekExpr>(&E)->Index);
      return;
    case ExprKind::Binary: {
      const auto *B = cast<BinaryExpr>(&E);
      resolveExpr(*B->LHS);
      resolveExpr(*B->RHS);
      return;
    }
    case ExprKind::Unary:
      resolveExpr(*cast<UnaryExpr>(&E)->Operand);
      return;
    case ExprKind::Call:
      resolveExpr(*cast<CallExpr>(&E)->Arg);
      return;
    }
    unreachable("unknown expr kind");
  }

  int defineScalar(const std::string &Name) {
    if (Arrays.count(Name)) {
      fail("'" + Name + "' used both as scalar and array");
      return -1;
    }
    auto It = Scalars.find(Name);
    if (It != Scalars.end())
      return It->second;
    int Slot = static_cast<int>(Scalars.size());
    Scalars[Name] = Slot;
    return Slot;
  }

  int lookupArray(const std::string &Name) {
    auto It = Arrays.find(Name);
    if (It == Arrays.end()) {
      fail("use of undeclared array '" + Name + "'");
      return -1;
    }
    return It->second;
  }

  int lookupField(const std::string &Name, bool Indexed) {
    for (size_t I = 0, E = Fields.size(); I != E; ++I) {
      if (Fields[I].Name != Name)
        continue;
      if (Fields[I].IsArray != Indexed) {
        fail("field '" + Name + "' " +
             (Indexed ? "is not an array" : "requires an index"));
        return -1;
      }
      return static_cast<int>(I);
    }
    fail("use of undefined field '" + Name + "'");
    return -1;
  }

  void fail(std::string Msg) {
    if (Err.empty())
      Err = std::move(Msg);
  }

  const WorkFunction &Work;
  const std::vector<FieldDef> &Fields;
  std::unordered_map<std::string, int> Scalars;
  std::unordered_map<std::string, int> Arrays;
  std::string Err; ///< first error; later ones are consequences
};

} // namespace

Status wir::resolve(const WorkFunction &Work,
                    const std::vector<FieldDef> &Fields) {
  std::string Err = Resolver(Work, Fields).run();
  if (Err.empty())
    return Status::ok();
  return Status(ErrorCode::Internal, std::move(Err));
}

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

namespace {

const char *binOpName(BinOp Op) {
  switch (Op) {
  case BinOp::Add:  return "+";
  case BinOp::Sub:  return "-";
  case BinOp::Mul:  return "*";
  case BinOp::Div:  return "/";
  case BinOp::Mod:  return "%";
  case BinOp::Lt:   return "<";
  case BinOp::Le:   return "<=";
  case BinOp::Gt:   return ">";
  case BinOp::Ge:   return ">=";
  case BinOp::Eq:   return "==";
  case BinOp::Ne:   return "!=";
  case BinOp::LAnd: return "&&";
  case BinOp::LOr:  return "||";
  }
  unreachable("unknown binop");
}

const char *intrinsicName(Intrinsic Fn) {
  switch (Fn) {
  case Intrinsic::Sin:   return "sin";
  case Intrinsic::Cos:   return "cos";
  case Intrinsic::Tan:   return "tan";
  case Intrinsic::Atan:  return "atan";
  case Intrinsic::Sqrt:  return "sqrt";
  case Intrinsic::Abs:   return "abs";
  case Intrinsic::Exp:   return "exp";
  case Intrinsic::Log:   return "log";
  case Intrinsic::Floor: return "floor";
  case Intrinsic::Round: return "round";
  }
  unreachable("unknown intrinsic");
}

void printExpr(const Expr &E, std::string &Out) {
  switch (E.kind()) {
  case ExprKind::Const: {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%g", cast<ConstExpr>(&E)->Value);
    Out += Buf;
    return;
  }
  case ExprKind::VarRef:
    Out += cast<VarRefExpr>(&E)->Name;
    return;
  case ExprKind::ArrayRef: {
    const auto *A = cast<ArrayRefExpr>(&E);
    Out += A->Name + "[";
    printExpr(*A->Index, Out);
    Out += "]";
    return;
  }
  case ExprKind::FieldRef: {
    const auto *F = cast<FieldRefExpr>(&E);
    Out += F->Name;
    if (F->Index) {
      Out += "[";
      printExpr(*F->Index, Out);
      Out += "]";
    }
    return;
  }
  case ExprKind::Peek: {
    Out += "peek(";
    printExpr(*cast<PeekExpr>(&E)->Index, Out);
    Out += ")";
    return;
  }
  case ExprKind::Pop:
    Out += "pop()";
    return;
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(&E);
    Out += "(";
    printExpr(*B->LHS, Out);
    Out += " ";
    Out += binOpName(B->Op);
    Out += " ";
    printExpr(*B->RHS, Out);
    Out += ")";
    return;
  }
  case ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(&E);
    Out += U->Op == UnOp::Neg ? "-" : "!";
    printExpr(*U->Operand, Out);
    return;
  }
  case ExprKind::Call: {
    const auto *C = cast<CallExpr>(&E);
    Out += intrinsicName(C->Fn);
    Out += "(";
    printExpr(*C->Arg, Out);
    Out += ")";
    return;
  }
  }
  unreachable("unknown expr kind");
}

void printBody(const StmtList &Body, int Indent, std::string &Out);

void printStmt(const Stmt &S, int Indent, std::string &Out) {
  Out.append(static_cast<size_t>(Indent) * 2, ' ');
  switch (S.kind()) {
  case StmtKind::Assign: {
    const auto *A = cast<AssignStmt>(&S);
    Out += A->Name + " = ";
    printExpr(*A->Value, Out);
    Out += ";\n";
    return;
  }
  case StmtKind::ArrayAssign: {
    const auto *A = cast<ArrayAssignStmt>(&S);
    Out += A->Name + "[";
    printExpr(*A->Index, Out);
    Out += "] = ";
    printExpr(*A->Value, Out);
    Out += ";\n";
    return;
  }
  case StmtKind::FieldAssign: {
    const auto *F = cast<FieldAssignStmt>(&S);
    Out += F->Name;
    if (F->Index) {
      Out += "[";
      printExpr(*F->Index, Out);
      Out += "]";
    }
    Out += " = ";
    printExpr(*F->Value, Out);
    Out += ";\n";
    return;
  }
  case StmtKind::LocalArray: {
    const auto *L = cast<LocalArrayStmt>(&S);
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "float[%d] %s;\n", L->Size,
                  L->Name.c_str());
    Out += Buf;
    return;
  }
  case StmtKind::Push: {
    Out += "push(";
    printExpr(*cast<PushStmt>(&S)->Value, Out);
    Out += ");\n";
    return;
  }
  case StmtKind::PopDiscard:
    Out += "pop();\n";
    return;
  case StmtKind::For: {
    const auto *F = cast<ForStmt>(&S);
    Out += "for (" + F->Var + " = ";
    printExpr(*F->Begin, Out);
    Out += "; " + F->Var + " < ";
    printExpr(*F->End, Out);
    Out += "; " + F->Var + "++) {\n";
    printBody(F->Body, Indent + 1, Out);
    Out.append(static_cast<size_t>(Indent) * 2, ' ');
    Out += "}\n";
    return;
  }
  case StmtKind::If: {
    const auto *I = cast<IfStmt>(&S);
    Out += "if (";
    printExpr(*I->Cond, Out);
    Out += ") {\n";
    printBody(I->Then, Indent + 1, Out);
    Out.append(static_cast<size_t>(Indent) * 2, ' ');
    if (!I->Else.empty()) {
      Out += "} else {\n";
      printBody(I->Else, Indent + 1, Out);
      Out.append(static_cast<size_t>(Indent) * 2, ' ');
    }
    Out += "}\n";
    return;
  }
  case StmtKind::Print: {
    Out += "print(";
    printExpr(*cast<PrintStmt>(&S)->Value, Out);
    Out += ");\n";
    return;
  }
  case StmtKind::Uncounted: {
    Out += "integer {\n";
    printBody(cast<UncountedStmt>(&S)->Body, Indent + 1, Out);
    Out.append(static_cast<size_t>(Indent) * 2, ' ');
    Out += "}\n";
    return;
  }
  }
  unreachable("unknown stmt kind");
}

void printBody(const StmtList &Body, int Indent, std::string &Out) {
  for (const StmtPtr &S : Body)
    printStmt(*S, Indent, Out);
}

} // namespace

std::string wir::print(const WorkFunction &Work) {
  char Buf[80];
  std::snprintf(Buf, sizeof(Buf), "work peek %d pop %d push %d {\n",
                Work.PeekRate, Work.PopRate, Work.PushRate);
  std::string Out = Buf;
  printBody(Work.Body, 1, Out);
  Out += "}\n";
  return Out;
}

std::string wir::print(const Expr &E) {
  std::string Out;
  printExpr(E, Out);
  return Out;
}
