//===- wir/IR.h - Work-function IR ------------------------------*- C++ -*-===//
///
/// \file
/// The imperative IR for StreamIt work functions. The linear extraction
/// analysis of Section 3.2 (Figure 3-2) is defined over exactly this
/// instruction set: constants, pops, peeks, arithmetic, pushes, loops and
/// branches — plus the small practical extensions the real compiler had
/// (filter fields, local arrays, intrinsic math calls, printing).
///
/// Nodes are a kind-tagged class hierarchy (LLVM-style classof casts).
/// Ownership is by unique_ptr; deep clone() supports graph duplication.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_WIR_IR_H
#define SLIN_WIR_IR_H

#include "support/Error.h"

#include <cassert>
#include <memory>
#include <string>
#include <vector>

namespace slin {
namespace wir {

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

enum class ExprKind {
  Const,    ///< floating-point literal
  VarRef,   ///< local scalar variable
  ArrayRef, ///< local array element
  FieldRef, ///< filter field (scalar or array element)
  Peek,     ///< peek(i): read input tape without consuming
  Pop,      ///< pop(): consume one input item
  Binary,   ///< arithmetic / comparison / logical
  Unary,    ///< negation / logical not
  Call      ///< intrinsic math function
};

enum class BinOp {
  Add, Sub, Mul, Div, Mod,
  Lt, Le, Gt, Ge, Eq, Ne,
  LAnd, LOr
};

enum class UnOp { Neg, LNot };

enum class Intrinsic { Sin, Cos, Tan, Atan, Sqrt, Abs, Exp, Log, Floor, Round };

class Expr;
using ExprPtr = std::unique_ptr<Expr>;

class Expr {
public:
  virtual ~Expr();

  ExprKind kind() const { return Kind; }

  /// Deep copy.
  ExprPtr clone() const;

protected:
  explicit Expr(ExprKind Kind) : Kind(Kind) {}

private:
  ExprKind Kind;
};

class ConstExpr : public Expr {
public:
  explicit ConstExpr(double Value) : Expr(ExprKind::Const), Value(Value) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Const; }

  double Value;
};

class VarRefExpr : public Expr {
public:
  explicit VarRefExpr(std::string Name)
      : Expr(ExprKind::VarRef), Name(std::move(Name)) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::VarRef; }

  std::string Name;
  mutable int Slot = -1; ///< filled in by resolution
};

class ArrayRefExpr : public Expr {
public:
  ArrayRefExpr(std::string Name, ExprPtr Index)
      : Expr(ExprKind::ArrayRef), Name(std::move(Name)),
        Index(std::move(Index)) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::ArrayRef; }

  std::string Name;
  ExprPtr Index;
  mutable int Slot = -1;
};

class FieldRefExpr : public Expr {
public:
  /// \p Index is null for scalar fields.
  FieldRefExpr(std::string Name, ExprPtr Index)
      : Expr(ExprKind::FieldRef), Name(std::move(Name)),
        Index(std::move(Index)) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::FieldRef; }

  std::string Name;
  ExprPtr Index; ///< null for scalar fields
  mutable int FieldIndex = -1;
};

class PeekExpr : public Expr {
public:
  explicit PeekExpr(ExprPtr Index)
      : Expr(ExprKind::Peek), Index(std::move(Index)) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Peek; }

  ExprPtr Index;
};

class PopExpr : public Expr {
public:
  PopExpr() : Expr(ExprKind::Pop) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Pop; }
};

class BinaryExpr : public Expr {
public:
  BinaryExpr(BinOp Op, ExprPtr LHS, ExprPtr RHS)
      : Expr(ExprKind::Binary), Op(Op), LHS(std::move(LHS)),
        RHS(std::move(RHS)) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Binary; }

  BinOp Op;
  ExprPtr LHS;
  ExprPtr RHS;
};

class UnaryExpr : public Expr {
public:
  UnaryExpr(UnOp Op, ExprPtr Operand)
      : Expr(ExprKind::Unary), Op(Op), Operand(std::move(Operand)) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Unary; }

  UnOp Op;
  ExprPtr Operand;
};

class CallExpr : public Expr {
public:
  CallExpr(Intrinsic Fn, ExprPtr Arg)
      : Expr(ExprKind::Call), Fn(Fn), Arg(std::move(Arg)) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Call; }

  Intrinsic Fn;
  ExprPtr Arg;
};

/// LLVM-style cast helpers (kinds are checked by assert).
template <typename T> const T *cast(const Expr *E) {
  assert(E && T::classof(E) && "bad expr cast");
  return static_cast<const T *>(E);
}
template <typename T> const T *dynCast(const Expr *E) {
  return E && T::classof(E) ? static_cast<const T *>(E) : nullptr;
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

enum class StmtKind {
  Assign,      ///< scalar = expr
  ArrayAssign, ///< local array element = expr
  FieldAssign, ///< mutable field (scalar or element) = expr
  LocalArray,  ///< declare a local array of fixed size
  Push,        ///< push(expr)
  PopDiscard,  ///< pop() as a statement
  For,         ///< for (v = begin; v < end; ++v) body
  If,          ///< if (cond) then else
  Print,       ///< print(expr): side effect, routes to the program sink
  Uncounted    ///< integer/address arithmetic: excluded from FLOP counts
};

class Stmt;
using StmtPtr = std::unique_ptr<Stmt>;
using StmtList = std::vector<StmtPtr>;

class Stmt {
public:
  virtual ~Stmt();

  StmtKind kind() const { return Kind; }

  StmtPtr clone() const;

protected:
  explicit Stmt(StmtKind Kind) : Kind(Kind) {}

private:
  StmtKind Kind;
};

/// Deep copy of a statement list.
StmtList cloneStmts(const StmtList &Body);

class AssignStmt : public Stmt {
public:
  AssignStmt(std::string Name, ExprPtr Value)
      : Stmt(StmtKind::Assign), Name(std::move(Name)), Value(std::move(Value)) {}
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Assign; }

  std::string Name;
  ExprPtr Value;
  mutable int Slot = -1;
};

class ArrayAssignStmt : public Stmt {
public:
  ArrayAssignStmt(std::string Name, ExprPtr Index, ExprPtr Value)
      : Stmt(StmtKind::ArrayAssign), Name(std::move(Name)),
        Index(std::move(Index)), Value(std::move(Value)) {}
  static bool classof(const Stmt *S) {
    return S->kind() == StmtKind::ArrayAssign;
  }

  std::string Name;
  ExprPtr Index;
  ExprPtr Value;
  mutable int Slot = -1;
};

class FieldAssignStmt : public Stmt {
public:
  /// \p Index is null for scalar fields.
  FieldAssignStmt(std::string Name, ExprPtr Index, ExprPtr Value)
      : Stmt(StmtKind::FieldAssign), Name(std::move(Name)),
        Index(std::move(Index)), Value(std::move(Value)) {}
  static bool classof(const Stmt *S) {
    return S->kind() == StmtKind::FieldAssign;
  }

  std::string Name;
  ExprPtr Index; ///< null for scalar fields
  ExprPtr Value;
  mutable int FieldIndex = -1;
};

class LocalArrayStmt : public Stmt {
public:
  LocalArrayStmt(std::string Name, int Size)
      : Stmt(StmtKind::LocalArray), Name(std::move(Name)), Size(Size) {}
  static bool classof(const Stmt *S) {
    return S->kind() == StmtKind::LocalArray;
  }

  std::string Name;
  int Size;
  mutable int Slot = -1;
};

class PushStmt : public Stmt {
public:
  explicit PushStmt(ExprPtr Value)
      : Stmt(StmtKind::Push), Value(std::move(Value)) {}
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Push; }

  ExprPtr Value;
};

class PopDiscardStmt : public Stmt {
public:
  PopDiscardStmt() : Stmt(StmtKind::PopDiscard) {}
  static bool classof(const Stmt *S) {
    return S->kind() == StmtKind::PopDiscard;
  }
};

class ForStmt : public Stmt {
public:
  ForStmt(std::string Var, ExprPtr Begin, ExprPtr End, StmtList Body)
      : Stmt(StmtKind::For), Var(std::move(Var)), Begin(std::move(Begin)),
        End(std::move(End)), Body(std::move(Body)) {}
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::For; }

  std::string Var;
  ExprPtr Begin;
  ExprPtr End; ///< exclusive; evaluated once at loop entry
  StmtList Body;
  mutable int Slot = -1;
};

class IfStmt : public Stmt {
public:
  IfStmt(ExprPtr Cond, StmtList Then, StmtList Else)
      : Stmt(StmtKind::If), Cond(std::move(Cond)), Then(std::move(Then)),
        Else(std::move(Else)) {}
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::If; }

  ExprPtr Cond;
  StmtList Then;
  StmtList Else;
};

class PrintStmt : public Stmt {
public:
  explicit PrintStmt(ExprPtr Value)
      : Stmt(StmtKind::Print), Value(std::move(Value)) {}
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Print; }

  ExprPtr Value;
};

/// Statements whose arithmetic models integer/address computation (e.g.
/// circular-buffer index updates in redundancy-eliminated filters); the
/// interpreter executes them with FLOP counting suspended, mirroring the
/// paper's distinction between floating-point and address instructions.
class UncountedStmt : public Stmt {
public:
  explicit UncountedStmt(StmtList Body)
      : Stmt(StmtKind::Uncounted), Body(std::move(Body)) {}
  static bool classof(const Stmt *S) {
    return S->kind() == StmtKind::Uncounted;
  }

  StmtList Body;
};

template <typename T> const T *cast(const Stmt *S) {
  assert(S && T::classof(S) && "bad stmt cast");
  return static_cast<const T *>(S);
}
template <typename T> const T *dynCast(const Stmt *S) {
  return S && T::classof(S) ? static_cast<const T *>(S) : nullptr;
}

//===----------------------------------------------------------------------===//
// Fields and work functions
//===----------------------------------------------------------------------===//

/// A filter field. Fields initialized at construction ("init") and never
/// written by work functions are constants that the extraction analysis
/// folds; fields written by work functions are persistent state, and any
/// access to them makes the filter nonlinear (Section 3.2).
struct FieldDef {
  std::string Name;
  bool IsArray = false;
  bool IsMutable = false;
  std::vector<double> Init; ///< size 1 for scalars

  static FieldDef constScalar(std::string Name, double Value) {
    return {std::move(Name), false, false, {Value}};
  }
  static FieldDef constArray(std::string Name, std::vector<double> Values) {
    return {std::move(Name), true, false, std::move(Values)};
  }
  static FieldDef mutableScalar(std::string Name, double Value) {
    return {std::move(Name), false, true, {Value}};
  }
  static FieldDef mutableArray(std::string Name, std::vector<double> Values) {
    return {std::move(Name), true, true, std::move(Values)};
  }
};

/// A work function: declared I/O rates plus a statement body.
struct WorkFunction {
  int PeekRate = 0;
  int PopRate = 0;
  int PushRate = 0;
  StmtList Body;

  // Filled in by resolve():
  mutable int NumScalarSlots = 0;
  mutable int NumArraySlots = 0;
  mutable bool Resolved = false;

  WorkFunction() = default;
  WorkFunction(int Peek, int Pop, int Push, StmtList Body)
      : PeekRate(Peek), PopRate(Pop), PushRate(Push), Body(std::move(Body)) {}

  WorkFunction clone() const;
};

/// Assigns local-variable slots and field indices throughout \p Work.
/// Use of an undefined variable/field, a scalar used as an array (or
/// vice versa), or assignment to a non-mutable field comes back as
/// ErrorCode::Internal; \p Work is marked resolved only on success.
/// Graphs built in code hold such errors as programmer errors (their
/// lowering wraps this in orDie); the artifact loader, decoding work
/// functions from untrusted bytes, turns one into a miss.
Status resolve(const WorkFunction &Work, const std::vector<FieldDef> &Fields);

/// Renders the work function as StreamIt-like text (for debugging and
/// golden tests).
std::string print(const WorkFunction &Work);
std::string print(const Expr &E);

} // namespace wir
} // namespace slin

#endif // SLIN_WIR_IR_H
