#include "mpros/telemetry/recorder.hpp"

#include <cstdio>

#include "mpros/codec/codec.hpp"

namespace mpros::telemetry {

namespace {

constexpr std::uint8_t kMagic[3] = {'M', 'F', 'R'};

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void FlightRecorder::set_header(RecorderHeader header) {
  std::lock_guard lock(mu_);
  header_ = header;
  header_.version = kRecorderVersion;
}

RecorderHeader FlightRecorder::header() const {
  std::lock_guard lock(mu_);
  return header_;
}

void FlightRecorder::push_locked(RecorderFrame frame) {
  if (ring_.size() == capacity_) {
    ring_.pop_front();
    ++evicted_;
  }
  ring_.push_back(std::move(frame));
  ++recorded_;
}

void FlightRecorder::record_message(std::int64_t time_us, std::string from,
                                    std::string to,
                                    std::vector<std::uint8_t> payload) {
  std::lock_guard lock(mu_);
  RecorderFrame frame;
  frame.kind = FrameKind::NetMessage;
  frame.time_us = time_us;
  frame.from = std::move(from);
  frame.to = std::move(to);
  frame.payload = std::move(payload);
  push_locked(std::move(frame));
}

void FlightRecorder::record_event(std::int64_t time_us, std::string component,
                                  const std::string& text) {
  std::lock_guard lock(mu_);
  RecorderFrame frame;
  frame.kind = FrameKind::Event;
  frame.time_us = time_us;
  frame.from = std::move(component);
  frame.payload.assign(text.begin(), text.end());
  push_locked(std::move(frame));
}

std::vector<RecorderFrame> FlightRecorder::frames() const {
  std::lock_guard lock(mu_);
  return {ring_.begin(), ring_.end()};
}

std::uint64_t FlightRecorder::recorded() const {
  std::lock_guard lock(mu_);
  return recorded_;
}

std::uint64_t FlightRecorder::evicted() const {
  std::lock_guard lock(mu_);
  return evicted_;
}

void FlightRecorder::clear() {
  std::lock_guard lock(mu_);
  ring_.clear();
  recorded_ = evicted_ = 0;
}

std::vector<std::uint8_t> FlightRecorder::encode() const {
  std::lock_guard lock(mu_);
  codec::Writer out;
  out.raw(kMagic);
  out.u8(kRecorderVersion);
  out.u8(header_.pdme_dedup ? 0x01 : 0x00);
  out.u32(header_.plant_count);
  out.u64(header_.seed);
  out.u32(static_cast<std::uint32_t>(ring_.size()));
  for (const RecorderFrame& frame : ring_) {
    out.u8(static_cast<std::uint8_t>(frame.kind));
    out.i64(frame.time_us);
    out.str(frame.from);
    out.str(frame.to);
    out.u32(static_cast<std::uint32_t>(frame.payload.size()));
    out.raw(frame.payload);
  }
  return out.take();
}

bool FlightRecorder::dump(const std::string& path) const {
  const std::vector<std::uint8_t> bytes = encode();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool ok = std::fclose(f) == 0 && written == bytes.size();
  return ok;
}

std::optional<FlightRecorder::Decoded> FlightRecorder::decode(
    std::span<const std::uint8_t> bytes) {
  codec::TryReader in(bytes);
  for (const std::uint8_t m : kMagic) {
    if (in.u8() != m) return std::nullopt;
  }
  Decoded out;
  out.header.version = in.u8();
  out.header.pdme_dedup = (in.u8() & 0x01) != 0;
  out.header.plant_count = in.u32();
  out.header.seed = in.u64();
  const std::uint32_t frame_count = in.u32();
  if (!in.ok() || out.header.version != kRecorderVersion) return std::nullopt;

  // Each frame needs at least kind + time + three u32 lengths: reject frame
  // counts the remaining bytes cannot possibly hold (memory-bomb guard).
  constexpr std::size_t kMinFrameBytes = 1 + 8 + 4 + 4 + 4;
  if (frame_count > in.remaining() / kMinFrameBytes) return std::nullopt;

  out.frames.reserve(frame_count);
  for (std::uint32_t i = 0; i < frame_count; ++i) {
    RecorderFrame frame;
    const std::uint8_t kind = in.u8();
    frame.time_us = in.i64();
    in.str(frame.from);
    in.str(frame.to);
    in.bytes(frame.payload);
    if (!in.ok()) return std::nullopt;
    if (kind != static_cast<std::uint8_t>(FrameKind::NetMessage) &&
        kind != static_cast<std::uint8_t>(FrameKind::Event)) {
      return std::nullopt;
    }
    frame.kind = static_cast<FrameKind>(kind);
    out.frames.push_back(std::move(frame));
  }
  if (!in.done()) return std::nullopt;  // trailing garbage
  return out;
}

std::optional<FlightRecorder::Decoded> FlightRecorder::load(
    const std::string& path) {
  const std::optional<std::vector<std::uint8_t>> bytes =
      codec::read_file(path);
  if (!bytes.has_value()) return std::nullopt;
  return decode(*bytes);
}

}  // namespace mpros::telemetry
