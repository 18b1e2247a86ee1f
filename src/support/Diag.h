//===- support/Diag.h - Diagnostics and fatal errors ----------*- C++ -*-===//
//
// Part of slin, a reproduction of "Linear Analysis and Optimization of
// Stream Programs" (Lamb, Thies, Amarasinghe; PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Minimal diagnostic helpers. The library never throws; unrecoverable
/// misuse (malformed stream graphs, violated invariants) reports a
/// message to stderr and aborts, in the spirit of report_fatal_error.
/// Failures a caller can recover from travel as support/Error.h Status.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_SUPPORT_DIAG_H
#define SLIN_SUPPORT_DIAG_H

#include <string>

namespace slin {

/// Prints "slin fatal error: <message>" to stderr and aborts.
[[noreturn]] void fatalError(const std::string &Message);

/// Marks a point that must be unreachable; aborts with \p Message.
[[noreturn]] void unreachable(const char *Message);

} // namespace slin

#endif // SLIN_SUPPORT_DIAG_H
