//===- support/Serialize.h - Endian-stable binary serialization -*- C++ -*-===//
///
/// \file
/// A minimal byte-oriented serialization layer for persistent compiler
/// artifacts (compiler/ArtifactStore.h). Everything is written in
/// fixed-width little-endian regardless of host byte order, so an
/// artifact written on one machine loads on any other.
///
/// The Reader is designed for *untrusted* input: every read is bounds-
/// checked, element counts are validated against the remaining bytes
/// before any allocation, and the first malformed read latches a failure
/// flag instead of crashing — callers check ok() once at the end and
/// treat failure as a cache miss (recompile), never an error.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_SUPPORT_SERIALIZE_H
#define SLIN_SUPPORT_SERIALIZE_H

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace slin {

struct HashDigest;

namespace serial {

/// Content digest of a raw byte span (the artifact payload checksum:
/// catches any bit flip the per-section parsers would accept).
HashDigest hashBytes(const uint8_t *Data, size_t Size);

/// Append-only byte sink; all multi-byte values little-endian.
class Writer {
public:
  void u8(uint8_t V) { Bytes.push_back(V); }
  void u32(uint32_t V) {
    for (int I = 0; I != 4; ++I)
      Bytes.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void u64(uint64_t V) {
    for (int I = 0; I != 8; ++I)
      Bytes.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void i32(int32_t V) { u32(static_cast<uint32_t>(V)); }
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
  void f64(double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    u64(Bits);
  }
  void boolean(bool V) { u8(V ? 1 : 0); }
  void str(const std::string &S) {
    u32(static_cast<uint32_t>(S.size()));
    Bytes.insert(Bytes.end(), S.begin(), S.end());
  }
  void f64s(const std::vector<double> &V) {
    u32(static_cast<uint32_t>(V.size()));
    for (double D : V)
      f64(D);
  }
  void ints(const std::vector<int> &V) {
    u32(static_cast<uint32_t>(V.size()));
    for (int D : V)
      i32(D);
  }
  void strs(const std::vector<std::string> &V) {
    u32(static_cast<uint32_t>(V.size()));
    for (const std::string &S : V)
      str(S);
  }

  const std::vector<uint8_t> &bytes() const { return Bytes; }
  size_t size() const { return Bytes.size(); }

private:
  std::vector<uint8_t> Bytes;
};

/// Bounds-checked cursor over a byte span. Reads past the end (or with
/// absurd element counts) latch fail(); subsequent reads return zeros.
class Reader {
public:
  Reader(const uint8_t *Data, size_t Size) : P(Data), N(Size) {}
  explicit Reader(const std::vector<uint8_t> &Bytes)
      : Reader(Bytes.data(), Bytes.size()) {}
  /// The reader borrows the bytes; a temporary would dangle.
  explicit Reader(std::vector<uint8_t> &&) = delete;

  bool ok() const { return !Failed; }
  /// True when every byte was consumed (trailing garbage is a failure
  /// mode its own — a truncated-then-padded file must not load).
  bool atEnd() const { return Pos == N; }
  size_t remaining() const { return N - Pos; }
  void fail() { Failed = true; }

  uint8_t u8() {
    if (!take(1))
      return 0;
    return P[Pos - 1];
  }
  uint32_t u32() {
    if (!take(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I != 4; ++I)
      V |= static_cast<uint32_t>(P[Pos - 4 + I]) << (8 * I);
    return V;
  }
  uint64_t u64() {
    if (!take(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I != 8; ++I)
      V |= static_cast<uint64_t>(P[Pos - 8 + I]) << (8 * I);
    return V;
  }
  int32_t i32() { return static_cast<int32_t>(u32()); }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  double f64() {
    uint64_t Bits = u64();
    double V;
    std::memcpy(&V, &Bits, sizeof(V));
    return V;
  }
  bool boolean() {
    uint8_t V = u8();
    if (V > 1)
      fail();
    return V == 1;
  }
  std::string str() {
    uint32_t Len = u32();
    if (!take(Len))
      return std::string();
    return std::string(reinterpret_cast<const char *>(P + Pos - Len), Len);
  }
  std::vector<double> f64s() { return readVec<double, 8>([this] { return f64(); }); }
  std::vector<int> ints() { return readVec<int, 4>([this] { return i32(); }); }
  std::vector<std::string> strs() {
    uint32_t Count = u32();
    std::vector<std::string> V;
    if (Failed || Count > remaining()) { // each string needs >= 4 bytes; cheap cap
      if (Count)
        fail();
      return V;
    }
    V.reserve(Count);
    for (uint32_t I = 0; I != Count && !Failed; ++I)
      V.push_back(str());
    return V;
  }

private:
  bool take(size_t K) {
    if (Failed || K > N - Pos) {
      Failed = true;
      return false;
    }
    Pos += K;
    return true;
  }

  template <class T, size_t ElemBytes, class Fn> std::vector<T> readVec(Fn Read) {
    uint32_t Count = u32();
    std::vector<T> V;
    if (Failed || static_cast<uint64_t>(Count) * ElemBytes > remaining()) {
      if (Count)
        fail();
      return V;
    }
    V.reserve(Count);
    for (uint32_t I = 0; I != Count; ++I)
      V.push_back(Read());
    return V;
  }

  const uint8_t *P;
  size_t N;
  size_t Pos = 0;
  bool Failed = false;
};

} // namespace serial
} // namespace slin

#endif // SLIN_SUPPORT_SERIALIZE_H
