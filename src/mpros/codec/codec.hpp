#pragma once
// Little-endian binary codec shared by every byte format in MPROS: the wire
// protocol (net), the write-ahead log and snapshot (db) and the flight
// recorder (telemetry).
//
// Layout: integers little-endian, f64 as its IEEE-754 bits in a u64, a
// string as a u32 byte count followed by the bytes. The paper's components
// talk DCOM; our substitute serializes to these explicit layouts so the
// network simulator can delay, drop, duplicate and reorder them like a real
// transport would, and so durable state survives a restart byte for byte.
//
// Dependency-free: telemetry, the bottom of the library stack, links it.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace mpros::codec {

class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { put_le<2>(v); }
  void u32(std::uint32_t v) { put_le<4>(v); }
  void u64(std::uint64_t v) { put_le<8>(v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  /// Length-prefixed (u32) UTF-8 bytes.
  void str(const std::string& s);
  /// Appends `bytes` as they are, with no length prefix.
  void raw(std::span<const std::uint8_t> bytes);
  /// Overwrites the u32 at byte offset `at` (a length or checksum field
  /// reserved before its payload was written).
  void patch_u32(std::size_t at, std::uint32_t v);

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  void clear() { buf_.clear(); }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  template <std::size_t N>
  void put_le(std::uint64_t v) {
    for (std::size_t i = 0; i < N; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> buf_;
};

/// Fail-soft reader, the one decode path for wire datagrams, flight-recorder
/// files and durable state: a truncated or bit-flipped frame must produce a
/// decode error, never a crash. A failed read returns zero/empty and
/// latches ok() false; callers check ok() once at the end, or early to stop
/// a loop. Count fields must still be checked against remaining() before
/// anything is sized by them (memory-bomb guard).
class TryReader {
 public:
  explicit TryReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(get_le<1>()); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(get_le<2>()); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(get_le<4>()); }
  std::uint64_t u64() { return get_le<8>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  std::string str();
  /// Decodes into `out`, reusing its capacity — the arena-decode path reads
  /// thousands of strings per second and must not allocate at steady state.
  void str(std::string& out);
  /// A u32-length-prefixed byte run, into `out`.
  void bytes(std::vector<std::uint8_t>& out);

  [[nodiscard]] bool ok() const { return ok_; }
  void fail() { ok_ = false; }
  [[nodiscard]] bool done() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  bool take(std::size_t n) {
    if (!ok_ || data_.size() - pos_ < n) ok_ = false;
    return ok_;
  }
  template <std::size_t N>
  std::uint64_t get_le() {
    if (!take(N)) return 0;
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < N; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += N;
    return v;
  }
  /// The next u32-prefixed run, or an empty span (latched) when truncated.
  std::span<const std::uint8_t> prefixed();

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// The whole of `path`, or nullopt when it cannot be opened.
[[nodiscard]] std::optional<std::vector<std::uint8_t>> read_file(
    const std::string& path);

}  // namespace mpros::codec
