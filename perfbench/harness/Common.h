//===- perfbench/harness/Common.h - Shared harness pieces -------*- C++ -*-===//
///
/// \file
/// What the three workloads share: options, the program suite,
/// statistics (medians, percentiles, geometric means over cells), the
/// output oracle, cache and directory helpers, the host record, the
/// host-speed probe and the metric sink the result line is printed from.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "compiler/Program.h"
#include "graph/Stream.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10.0;
  bool Trace = false;
  /// Test mode: one short cycle, one set-up, small windows (the
  /// benchmark's own tests); never used for measurements.
  bool Tiny = false;
  /// Test mode: corrupt one reference output so the oracle must count a
  /// failed op.
  bool CorruptReference = false;
  /// Setup repetitions; setup_s is their median.
  int SetupReps = 3;
  std::string WorkDir;    ///< scratch space inside the checkout
  std::string DaemonPath; ///< slin-serviced binary (service workload)
  std::string TraceOut;   ///< Chrome trace path (traced runs)
};

//===----------------------------------------------------------------------===//
// Program suite
//===----------------------------------------------------------------------===//

/// One fig 5-1 program, built with the paper's default parameters.
struct ProgramDef {
  std::string Name;
  std::function<slin::StreamPtr()> Build;
};

/// The nine programs in the paper's order. Every seed builds the same
/// programs: drawing builder parameters even 3% from the defaults moves
/// frequency-replaced steady states by orders of magnitude (README.md).
std::vector<ProgramDef> programSuite();

/// The round-robin order of a workload's \p N cells: a permutation drawn
/// from \p Seed; seed 0 keeps the paper's order.
std::vector<size_t> seededOrder(size_t N, uint64_t Seed);

/// Deterministic 64-bit generator (splitmix64), so a seed yields the
/// same draws with every standard library.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed * 0x9e3779b97f4a7c15ULL + 1) {}
  uint64_t next();

private:
  uint64_t State;
};

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double median(std::vector<double> V);
/// Nearest-rank percentile, \p P in [0, 100].
double percentile(std::vector<double> V, double P);
double geomean(const std::vector<double> &V);

//===----------------------------------------------------------------------===//
// Oracle
//===----------------------------------------------------------------------===//

/// Bitwise equality of the first \p N items (false if either is shorter).
bool bitIdentical(const std::vector<double> &A, const std::vector<double> &B,
                  size_t N);
/// |A[i] - B[i]| <= RelTol * max(1, max_i |B[i]|) over the first \p N
/// items; B is the reference.
bool withinTolerance(const std::vector<double> &A,
                     const std::vector<double> &B, size_t N, double RelTol);
/// FNV-1a over the bytes of \p V (service responses are checked by hash).
uint64_t hashOutputs(const std::vector<double> &V);
/// What an executor of \p P has emitted: its external output channel, or
/// the printed values of a void->void graph.
template <class ExecutorT>
std::vector<double> outputsOf(const slin::CompiledProgram &P,
                              const ExecutorT &E) {
  return P.graph().RootProducesOutput ? E.outputSnapshot() : E.printed();
}
/// Tree-interpreter outputs of \p Root: the first \p N outputs.
std::vector<double> interpreterOutputs(const slin::Stream &Root, size_t N);

//===----------------------------------------------------------------------===//
// Environment
//===----------------------------------------------------------------------===//

/// Clears the in-memory compiler caches (analysis, program, native).
void clearMemoryCaches();
void makeDirs(const std::string &Path);
/// Deletes every entry of \p Dir (recursively), keeping \p Dir itself.
void emptyDir(const std::string &Dir);
uint64_t fileSize(const std::string &Path);
/// Peak resident set of this process, in MB.
double peakRssMb();
/// One JSON object: nproc, CPU model, compiler, build type.
std::string hostJson();

//===----------------------------------------------------------------------===//
// Host speed
//===----------------------------------------------------------------------===//

/// How fast the shared host runs right now, from a fixed probe in the
/// benchmark's own code: a dependent arithmetic chain, an allocating
/// ordered-map build and a streaming update of a 1 MB array. No slin code
/// runs in it, so a change to slin cannot move it, while a host that
/// slows down for every tenant moves it with the workload. Workloads
/// sample it between timed ops; the end-to-end times are divided by
/// index() (README.md, "Host-speed normalisation").
class HostSpeed {
public:
  /// Runs the probe once (about 3 ms).
  void sample();
  /// Geometric mean over the three parts of median time / nominal time.
  double index() const;
  std::string json() const;

private:
  std::vector<double> AluMs, MapMs, StreamMs;
};

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

/// Everything a workload reports. The result line carries the
/// end-to-end metrics (untraced run) or the per-layer metrics (traced
/// run); the detail line carries the rest.
struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// name -> (value, unit)
  std::map<std::string, std::pair<double, std::string>> Metrics;
  /// Extra JSON members for the detail line (windows, parameters, ...).
  std::vector<std::pair<std::string, std::string>> Detail;
  HostSpeed Host;

  void set(const std::string &Name, double Value, const std::string &Unit) {
    Metrics[Name] = {Value, Unit};
  }
  /// An end-to-end time (\p IsTime) or rate that normalize() rescales.
  void setScaled(const std::string &Name, double Value,
                 const std::string &Unit, bool IsTime) {
    set(Name, Value, Unit);
    Scaled[Name] = IsTime;
  }
  void detail(const std::string &Key, const std::string &Json) {
    Detail.push_back({Key, Json});
  }
  /// Divides the setScaled times by Host.index() (rates are multiplied)
  /// and records the raw values and the index in the detail line.
  void normalize();

private:
  std::map<std::string, bool> Scaled;
};

std::string jsonString(const std::string &S);
std::string jsonNumber(double V);

void runCompile(const Options &O, Report &R);
void runSteady(const Options &O, Report &R);
void runService(const Options &O, Report &R);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
