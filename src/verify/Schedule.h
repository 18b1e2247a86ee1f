//===- verify/Schedule.h - Rate and schedule verifiers ----------*- C++ -*-===//
///
/// \file
/// The two rate verifiers the compiler pipeline runs under SLIN_VERIFY
/// (PipelineOptions::VerifyAfterEachPass), each reporting the first
/// inconsistency as a string instead of executing anything:
///
///  * verifyStreamRates — after every rewrite pass, re-derives the
///    push/pop/peek balance equations of the stream hierarchy (the
///    verify-rates pass);
///  * verifySchedule — after lowering, replays the program's init, batch
///    and steady firing programs symbolically against the flat graph and
///    cross-checks every cached StaticSchedule field. This is the one
///    schedule oracle: the compiled, native and sharded engines index flat
///    buffers by exactly these numbers. Its pipeline form is the
///    verify-schedule lint pass (verify/Lint.h).
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_VERIFY_SCHEDULE_H
#define SLIN_VERIFY_SCHEDULE_H

#include <string>

namespace slin {

class Stream;
struct StaticSchedule;
namespace flat {
struct FlatGraph;
}

/// Re-derives the balance equations of \p Root; returns the first
/// inconsistency ("" when the graph has a valid steady state). Also
/// rejects negative rates, peek < pop windows and malformed init rates.
std::string verifyStreamRates(const Stream &Root);

/// Cross-checks \p S against \p G: a firing-accurate symbolic replay of
/// the init, batch and steady programs (channel underflow, unsatisfied
/// peek windows, firing-count totals against Repetitions and
/// InitFirings), and equality of every derived schedule field
/// (PostInitLive, ChannelHighWater, ChannelBufSize, external
/// pops/needs/pushes). Balance of Repetitions follows: each steady
/// program fires every node exactly its repetition count and returns
/// every internal channel to PostInitLive. Returns the first mismatch,
/// "" when consistent.
std::string verifySchedule(const flat::FlatGraph &G, const StaticSchedule &S);

} // namespace slin

#endif // SLIN_VERIFY_SCHEDULE_H
