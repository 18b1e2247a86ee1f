//===- perfbench/harness/main.cpp - Benchmark harness entry point ---------===//
///
/// \file
///   perfbench --workload compile|steady|service --seed N --seconds S
///             --trace 0|1 --work-dir DIR [--daemon PATH] [--trace-out F]
///             [--tiny] [--corrupt-reference]
///
/// Prints one detail line ("perfbench-detail {...}": seed, host, windows,
/// tracing self times) and, last, one JSON result line with every metric
/// the workload measured. perfbench/run.py builds this binary and narrows
/// the result line to the metric set BENCHMARK.json names for the mode.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Trace.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload compile|steady|service --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--daemon PATH] "
               "[--trace-out FILE] [--tiny] "
               "[--corrupt-reference]\n",
               Why);
  std::exit(2);
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage((Arg + " needs a value").c_str());
      return Argv[++I];
    };
    if (Arg == "--workload")
      O.Workload = Value();
    else if (Arg == "--seed")
      O.Seed = std::strtoull(Value().c_str(), nullptr, 10);
    else if (Arg == "--seconds")
      O.Seconds = std::atof(Value().c_str());
    else if (Arg == "--trace")
      O.Trace = Value() != "0";
    else if (Arg == "--work-dir")
      O.WorkDir = Value();
    else if (Arg == "--daemon")
      O.DaemonPath = Value();
    else if (Arg == "--trace-out")
      O.TraceOut = Value();
    else if (Arg == "--tiny")
      O.Tiny = true;
    else if (Arg == "--corrupt-reference")
      O.CorruptReference = true;
    else
      usage(("unknown argument " + Arg).c_str());
  }
  if (O.WorkDir.empty())
    usage("--work-dir is required");
  if (O.Tiny)
    O.SetupReps = 1;
  makeDirs(O.WorkDir);
  if (O.Trace)
    Tracer::get().enable();

  Report R;
  try {
    if (O.Workload == "compile")
      runCompile(O, R);
    else if (O.Workload == "steady")
      runSteady(O, R);
    else if (O.Workload == "service")
      runService(O, R);
    else
      usage(("unknown workload '" + O.Workload + "'").c_str());
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 1;
  }
  R.normalize();
  R.set("error_rate",
        R.Attempted ? static_cast<double>(R.Failed) / R.Attempted : 1.0,
        "ratio");

  std::string Detail = "{\"workload\":" + jsonString(O.Workload) +
                       ",\"seed\":" + std::to_string(O.Seed) +
                       ",\"seconds\":" + jsonNumber(O.Seconds) +
                       ",\"trace\":" + (O.Trace ? "true" : "false") +
                       ",\"setup_reps\":" + std::to_string(O.SetupReps) +
                       ",\"host\":" + hostJson();
  for (const auto &[Key, Json] : R.Detail)
    Detail += "," + jsonString(Key) + ":" + Json;
  if (O.Trace) {
    std::string Self = "{";
    for (const auto &[Name, Ms] : Tracer::get().selfTimeMs())
      Self += (Self.size() > 1 ? "," : "") + jsonString(Name) + ":" +
              jsonNumber(Ms);
    Detail += ",\"self_time_ms\":" + Self + "}";
    if (!O.TraceOut.empty()) {
      if (!Tracer::get().writeChromeJson(O.TraceOut))
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     O.TraceOut.c_str());
      Detail += ",\"trace_file\":" + jsonString(O.TraceOut);
    }
  }
  std::printf("perfbench-detail %s}\n", Detail.c_str());

  std::string Metrics = "{";
  for (const auto &[Name, VU] : R.Metrics)
    Metrics += (Metrics.size() > 1 ? "," : "") + jsonString(Name) +
               ":{\"value\":" + jsonNumber(VU.first) +
               ",\"unit\":" + jsonString(VU.second) + "}";
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}}\n",
              R.Failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed), Metrics.c_str());
  return 0;
}
