//===- perfbench/harness/Trace.h - In-memory span recorder ------*- C++ -*-===//
///
/// \file
/// The traced run's span recorder. Spans wrap the benchmark's own calls
/// into each slin module's public functions (no tracing lives inside
/// src/). Each span has a name, a start, an end and a parent; the spans
/// of one operation (a compile op, a window, a request) share an op id.
/// Spans are held in memory and written once, at exit, as Chrome
/// trace-event JSON (chrome://tracing, Perfetto). With tracing off every
/// entry point is one branch on a plain bool.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
public:
  struct Span {
    std::string Name;
    double StartUs = 0.0;
    double EndUs = 0.0;
    int Parent = -1; ///< index into spans(), -1 for a root span
    uint64_t OpId = 0;
    int Thread = 0; ///< small per-thread index (the trace's tid)
  };

  static Tracer &get();

  bool enabled() const { return On; }
  void enable() { On = true; }

  /// Starts a new operation on the calling thread: spans it opens until
  /// its next beginOp() share one id.
  void beginOp();

  /// Opens a span under the innermost open one; returns its index.
  int open(const char *Name);
  void close(int Index);
  /// Records an already-measured child interval of the innermost open
  /// span (used for the pipeline's own per-pass timings).
  void addChild(const std::string &Name, double StartUs, double EndUs);

  double nowUs() const;
  /// Snapshot of every recorded span (call once recording is over).
  std::vector<Span> spans() const;

  /// Per span name: summed self time in ms, i.e. each span's duration
  /// minus the part of it that its child spans cover.
  std::map<std::string, double> selfTimeMs() const;

  /// Writes the spans as Chrome trace-event JSON; false on I/O failure.
  bool writeChromeJson(const std::string &Path) const;

private:
  Tracer();
  int push(Span S);
  bool On = false;
  mutable std::mutex Mutex;
  uint64_t NextOp = 0;
  int NextThread = 0;
  std::vector<Span> Spans;
  std::chrono::steady_clock::time_point Epoch;
};

/// RAII span; a no-op when tracing is off. Spans opened on one thread
/// must close on it, innermost first.
class Scope {
public:
  explicit Scope(const char *Name)
      : Index(Tracer::get().enabled() ? Tracer::get().open(Name) : -1) {}
  ~Scope() {
    if (Index >= 0)
      Tracer::get().close(Index);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  int Index;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
