#include "mpros/codec/codec.hpp"

#include <array>
#include <bit>
#include <cstdio>
#include <cstdlib>

namespace mpros::codec {

void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::str(const std::string& s) {
  // A length the u32 prefix cannot hold is a caller bug; abort like the
  // always-on contracts rather than write a frame that decodes wrong.
  if (s.size() > 0xFFFFFFFFu) std::abort();
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Writer::raw(std::span<const std::uint8_t> bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void Writer::patch_u32(std::size_t at, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    buf_.at(at + i) = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

double TryReader::f64() { return std::bit_cast<double>(u64()); }

std::span<const std::uint8_t> TryReader::prefixed() {
  const std::uint32_t len = u32();
  // Length check before anything is sized by it: a corrupted length must
  // not become a multi-gigabyte allocation.
  if (!take(len)) return {};
  const std::span<const std::uint8_t> run = data_.subspan(pos_, len);
  pos_ += len;
  return run;
}

std::string TryReader::str() {
  const std::span<const std::uint8_t> run = prefixed();
  return {reinterpret_cast<const char*>(run.data()), run.size()};
}

void TryReader::str(std::string& out) {
  const std::span<const std::uint8_t> run = prefixed();
  out.assign(reinterpret_cast<const char*>(run.data()), run.size());
}

void TryReader::bytes(std::vector<std::uint8_t>& out) {
  const std::span<const std::uint8_t> run = prefixed();
  out.assign(run.begin(), run.end());
}

std::optional<std::vector<std::uint8_t>> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::vector<std::uint8_t> bytes;
  std::array<std::uint8_t, 1 << 16> buf;
  std::size_t n = 0;
  while ((n = std::fread(buf.data(), 1, buf.size(), f)) > 0) {
    bytes.insert(bytes.end(), buf.data(), buf.data() + n);
  }
  std::fclose(f);
  return bytes;
}

}  // namespace mpros::codec
