//===- perfbench/harness/Common.cpp - Shared harness pieces ---------------===//

#include "Common.h"

#include "apps/Benchmarks.h"
#include "codegen/NativeModule.h"
#include "compiler/AnalysisManager.h"
#include "compiler/Program.h"
#include "exec/Measure.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fstream>
#ifdef __GLIBC__
#include <malloc.h>
#endif
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace slin;
using namespace perfbench;

uint64_t Rng::next() {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

std::vector<ProgramDef> perfbench::programSuite() {
  std::vector<ProgramDef> Out;
  for (const apps::BenchmarkEntry &B : apps::allBenchmarks())
    Out.push_back({B.Name, B.Build});
  return Out;
}

std::vector<size_t> perfbench::seededOrder(size_t N, uint64_t Seed) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I != N; ++I)
    Order[I] = I;
  if (Seed == 0)
    return Order;
  Rng G(Seed);
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[G.next() % I]);
  return Order;
}

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double perfbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * V.size()));
  return V[std::min(V.size(), std::max<size_t>(Rank, 1)) - 1];
}

double perfbench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

bool perfbench::bitIdentical(const std::vector<double> &A,
                             const std::vector<double> &B, size_t N) {
  return A.size() >= N && B.size() >= N &&
         std::memcmp(A.data(), B.data(), N * sizeof(double)) == 0;
}

bool perfbench::withinTolerance(const std::vector<double> &A,
                                const std::vector<double> &B, size_t N,
                                double RelTol) {
  if (A.size() < N || B.size() < N)
    return false;
  double Scale = 1.0;
  for (size_t I = 0; I != N; ++I)
    Scale = std::max(Scale, std::fabs(B[I]));
  for (size_t I = 0; I != N; ++I)
    if (!(std::fabs(A[I] - B[I]) <= RelTol * Scale))
      return false;
  return true;
}

uint64_t perfbench::hashOutputs(const std::vector<double> &V) {
  uint64_t H = 0xcbf29ce484222325ULL;
  const unsigned char *P = reinterpret_cast<const unsigned char *>(V.data());
  for (size_t I = 0, E = V.size() * sizeof(double); I != E; ++I)
    H = (H ^ P[I]) * 0x100000001b3ULL;
  return H ^ V.size();
}

std::vector<double> perfbench::interpreterOutputs(const Stream &Root,
                                                  size_t N) {
  std::vector<double> Out = collectOutputs(Root, N, Engine::Dynamic);
  Out.resize(std::min(Out.size(), N));
  return Out;
}

void perfbench::clearMemoryCaches() {
  AnalysisManager::global().invalidate();
  ProgramCache::global().clear();
  codegen::NativeModuleCache::global().clear();
#ifdef __GLIBC__
  // Hand freed pages back, so every op starts from the same heap and the
  // peak RSS is one op's transient, not the fragmentation of earlier ones.
  ::malloc_trim(0);
#endif
}

void perfbench::makeDirs(const std::string &Path) {
  for (size_t Pos = 1; Pos <= Path.size(); ++Pos)
    if (Pos == Path.size() || Path[Pos] == '/')
      ::mkdir(Path.substr(0, Pos).c_str(), 0755);
}

void perfbench::emptyDir(const std::string &Dir) {
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return;
  std::vector<std::string> Names;
  while (dirent *E = ::readdir(D))
    if (std::strcmp(E->d_name, ".") && std::strcmp(E->d_name, ".."))
      Names.push_back(E->d_name);
  ::closedir(D);
  for (const std::string &N : Names) {
    std::string P = Dir + "/" + N;
    struct stat St;
    if (::lstat(P.c_str(), &St) == 0 && S_ISDIR(St.st_mode)) {
      emptyDir(P);
      ::rmdir(P.c_str());
    } else {
      ::unlink(P.c_str());
    }
  }
}

uint64_t perfbench::fileSize(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 ? static_cast<uint64_t>(St.st_size)
                                        : 0;
}

double perfbench::peakRssMb() {
  struct rusage U;
  ::getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

namespace {
/// Medians of each probe part on a quiet 4-vCPU x86 Xeon host.
constexpr double NominalAluMs = 1.5;
constexpr double NominalMapMs = 3.0;
constexpr double NominalStreamMs = 0.8;
} // namespace

void HostSpeed::sample() {
  Clock::time_point T0 = Clock::now();
  double X = 1.0;
  uint64_t H = 1;
  for (int I = 0; I != 500000; ++I) {
    X = X * 1.0000001 + 1e-9;
    H = H * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  volatile double SinkA = X + static_cast<double>(H & 1);
  (void)SinkA;
  AluMs.push_back(secondsSince(T0) * 1e3);

  T0 = Clock::now();
  {
    std::map<uint64_t, uint64_t> M;
    Rng G(7);
    for (int I = 0; I != 10000; ++I)
      M[G.next()] = static_cast<uint64_t>(I);
    volatile size_t SinkM = M.size();
    (void)SinkM;
  }
  MapMs.push_back(secondsSince(T0) * 1e3);

  static std::vector<double> A(1 << 17, 1.0), B(1 << 17, 0.5);
  T0 = Clock::now();
  for (int Pass = 0; Pass != 8; ++Pass)
    for (size_t I = 0; I != A.size(); ++I)
      A[I] = A[I] * 0.999 + B[I];
  volatile double SinkS = A[A.size() / 2];
  (void)SinkS;
  StreamMs.push_back(secondsSince(T0) * 1e3);
}

double HostSpeed::index() const {
  if (AluMs.empty())
    return 1.0;
  return std::cbrt(median(AluMs) / NominalAluMs * median(MapMs) /
                   NominalMapMs * median(StreamMs) / NominalStreamMs);
}

std::string HostSpeed::json() const {
  return "{\"index\":" + jsonNumber(index()) +
         ",\"samples\":" + std::to_string(AluMs.size()) +
         ",\"alu_ms\":" + jsonNumber(median(AluMs)) +
         ",\"map_ms\":" + jsonNumber(median(MapMs)) +
         ",\"stream_ms\":" + jsonNumber(median(StreamMs)) + "}";
}

void Report::normalize() {
  const double Index = Host.index();
  std::string Raw = "{";
  for (const auto &[Name, IsTime] : Scaled) {
    double &V = Metrics[Name].first;
    Raw += (Raw.size() > 1 ? "," : "") + jsonString(Name) + ":" +
           jsonNumber(V);
    V = IsTime ? V / Index : V * Index;
  }
  detail("host_speed", Host.json());
  detail("raw_end_to_end", Raw + "}");
}

std::string perfbench::jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out + "\"";
}

std::string perfbench::jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string perfbench::hostJson() {
  std::string Cpu = "unknown";
  std::ifstream In("/proc/cpuinfo");
  for (std::string Line; std::getline(In, Line);)
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos)
        Cpu = Line.substr(Line.find_first_not_of(' ', Colon + 1));
      break;
    }
  return "{\"nproc\":" + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
         ",\"cpu\":" + jsonString(Cpu) +
         ",\"compiler\":" + jsonString(PERFBENCH_CXX_ID) +
         ",\"build_type\":" + jsonString(PERFBENCH_BUILD_TYPE) + "}";
}
