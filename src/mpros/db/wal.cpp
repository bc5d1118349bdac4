#include "mpros/db/wal.hpp"

#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <optional>

#include "mpros/common/assert.hpp"
#include "mpros/common/log.hpp"

namespace mpros::db {

namespace walfmt {

void put_value(codec::Writer& out, const Value& v) {
  out.u8(static_cast<std::uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::Null: break;
    case ValueType::Integer: out.i64(v.as_integer()); break;
    case ValueType::Real: out.f64(v.as_real()); break;
    case ValueType::Text: out.str(v.as_text()); break;
  }
}

void put_row(codec::Writer& out, const Row& row) {
  out.u32(static_cast<std::uint32_t>(row.size()));
  for (const Value& v : row) put_value(out, v);
}

void put_schema(codec::Writer& out, const TableSchema& schema) {
  out.str(schema.name);
  out.u32(static_cast<std::uint32_t>(schema.columns.size()));
  for (const ColumnDef& col : schema.columns) {
    out.str(col.name);
    out.u8(static_cast<std::uint8_t>(col.type));
    out.u8(col.nullable ? 1 : 0);
  }
}

void put_op(codec::Writer& out, const RedoOp& op) {
  out.u8(static_cast<std::uint8_t>(op.kind));
  out.str(op.table);
  switch (op.kind) {
    case RedoOp::Kind::CreateTable:
      put_schema(out, op.schema);
      break;
    case RedoOp::Kind::DropTable:
      break;
    case RedoOp::Kind::CreateIndex:
      out.str(op.column);
      break;
    case RedoOp::Kind::Insert:
      out.i64(op.key);
      put_row(out, op.row);
      break;
    case RedoOp::Kind::Update:
      out.i64(op.key);
      out.str(op.column);
      put_value(out, op.value);
      break;
    case RedoOp::Kind::Erase:
      out.i64(op.key);
      break;
  }
}

Value read_value(codec::TryReader& in) {
  switch (static_cast<ValueType>(in.u8())) {
    case ValueType::Null: return Value();
    case ValueType::Integer: return Value(in.i64());
    case ValueType::Real: return Value(in.f64());
    case ValueType::Text: return Value(in.str());
  }
  in.fail();  // unknown tag
  return Value();
}

Row read_row(codec::TryReader& in) {
  const std::uint32_t count = in.u32();
  Row row;
  // Memory-bomb guard: a value is at least one tag byte.
  if (count > in.remaining()) {
    in.fail();
    return row;
  }
  row.reserve(count);
  for (std::uint32_t i = 0; i < count && in.ok(); ++i) {
    row.push_back(read_value(in));
  }
  return row;
}

TableSchema read_schema(codec::TryReader& in) {
  TableSchema schema;
  in.str(schema.name);
  const std::uint32_t count = in.u32();
  // A column is at least name-len(4) + type(1) + nullable(1) bytes.
  if (count > in.remaining() / 6) {
    in.fail();
    return schema;
  }
  schema.columns.reserve(count);
  for (std::uint32_t i = 0; i < count && in.ok(); ++i) {
    ColumnDef col;
    in.str(col.name);
    const std::uint8_t type = in.u8();
    const std::uint8_t nullable = in.u8();
    if (type > static_cast<std::uint8_t>(ValueType::Text) || nullable > 1) {
      in.fail();
    }
    col.type = static_cast<ValueType>(type);
    col.nullable = nullable == 1;
    schema.columns.push_back(std::move(col));
  }
  return schema;
}

RedoOp read_op(codec::TryReader& in) {
  RedoOp op;
  const std::uint8_t kind = in.u8();
  if (kind < static_cast<std::uint8_t>(RedoOp::Kind::CreateTable) ||
      kind > static_cast<std::uint8_t>(RedoOp::Kind::Erase)) {
    in.fail();
    return op;
  }
  op.kind = static_cast<RedoOp::Kind>(kind);
  in.str(op.table);
  switch (op.kind) {
    case RedoOp::Kind::CreateTable:
      op.schema = read_schema(in);
      break;
    case RedoOp::Kind::DropTable:
      break;
    case RedoOp::Kind::CreateIndex:
      in.str(op.column);
      break;
    case RedoOp::Kind::Insert:
      op.key = in.i64();
      op.row = read_row(in);
      break;
    case RedoOp::Kind::Update:
      op.key = in.i64();
      in.str(op.column);
      op.value = read_value(in);
      break;
    case RedoOp::Kind::Erase:
      op.key = in.i64();
      break;
  }
  return op;
}

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : data) {
    c = table[(c ^ b) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace walfmt

namespace {

constexpr char kWalMagic[4] = {'M', 'W', 'A', 'L'};
constexpr std::size_t kHeaderBytes = sizeof(kWalMagic) + 1;  // magic + version
constexpr std::size_t kFrameOverhead = 8;                    // len + crc

bool header_intact(std::span<const std::uint8_t> bytes) {
  return bytes.size() >= kHeaderBytes &&
         std::memcmp(bytes.data(), kWalMagic, sizeof(kWalMagic)) == 0 &&
         bytes[sizeof(kWalMagic)] == kWalVersion;
}

}  // namespace

WriteAheadLog::WriteAheadLog(std::string path, std::uint64_t next_seq)
    : path_(std::move(path)), next_seq_(next_seq) {
  MPROS_EXPECTS(next_seq_ >= 1);
  const std::optional<std::vector<std::uint8_t>> bytes =
      codec::read_file(path_);
  const bool fresh = !bytes.has_value() || !header_intact(*bytes);
  file_ = std::fopen(path_.c_str(), fresh ? "wb" : "ab");
  if (file_ == nullptr) {
    MPROS_LOG_ERROR("db", "wal: cannot open %s: %s", path_.c_str(),
                    std::strerror(errno));
    return;
  }
  if (fresh) {
    if (!write_header()) return;
  } else {
    synced_bytes_ = bytes->size();
  }
}

WriteAheadLog::~WriteAheadLog() {
  // Deliberately no flush: anything not group-committed through sync() is
  // not durable, which is exactly the crash semantics recovery expects.
  if (file_ != nullptr) std::fclose(file_);
}

bool WriteAheadLog::write_header() {
  std::uint8_t header[kHeaderBytes];
  std::memcpy(header, kWalMagic, sizeof(kWalMagic));
  header[sizeof(kWalMagic)] = kWalVersion;
  if (std::fwrite(header, 1, kHeaderBytes, file_) != kHeaderBytes ||
      std::fflush(file_) != 0 || ::fsync(fileno(file_)) != 0) {
    MPROS_LOG_ERROR("db", "wal: cannot write header to %s", path_.c_str());
    std::fclose(file_);
    file_ = nullptr;
    return false;
  }
  synced_bytes_ = kHeaderBytes;
  return true;
}

void WriteAheadLog::append(const RedoOp& op) {
  walfmt::put_op(pending_, op);
  ++pending_ops_;
  ++stats_.records;
}

void WriteAheadLog::discard_pending() {
  pending_.clear();
  pending_ops_ = 0;
}

std::uint64_t WriteAheadLog::seal() {
  if (pending_ops_ == 0) return 0;
  const std::uint64_t seq = next_seq_++;
  // Frame in place: reserve len + crc, write the payload behind them, then
  // fill both in.
  const std::size_t frame = sealed_.size();
  sealed_.u64(0);
  sealed_.u64(seq);
  sealed_.u32(static_cast<std::uint32_t>(pending_ops_));
  sealed_.raw(pending_.bytes());
  const std::span<const std::uint8_t> payload =
      std::span(sealed_.bytes()).subspan(frame + kFrameOverhead);
  sealed_.patch_u32(frame, static_cast<std::uint32_t>(payload.size()));
  sealed_.patch_u32(frame + 4, walfmt::crc32(payload));
  discard_pending();
  ++stats_.commits;
  return seq;
}

bool WriteAheadLog::sync(bool do_fsync) {
  if (sealed_.size() == 0) return true;
  if (file_ == nullptr) return false;
  const std::size_t n = sealed_.size();
  if (std::fwrite(sealed_.bytes().data(), 1, n, file_) != n ||
      std::fflush(file_) != 0 ||
      (do_fsync && ::fsync(fileno(file_)) != 0)) {
    MPROS_LOG_ERROR("db", "wal: write to %s failed: %s", path_.c_str(),
                    std::strerror(errno));
    return false;
  }
  synced_bytes_ += n;
  sealed_.clear();
  if (do_fsync) ++stats_.fsyncs;
  return true;
}

bool WriteAheadLog::reset(std::uint64_t next_seq) {
  MPROS_EXPECTS(next_seq >= 1);
  discard_pending();
  sealed_.clear();
  if (file_ != nullptr) std::fclose(file_);
  file_ = std::fopen(path_.c_str(), "wb");
  next_seq_ = next_seq;
  synced_bytes_ = 0;
  if (file_ == nullptr) {
    MPROS_LOG_ERROR("db", "wal: cannot reopen %s: %s", path_.c_str(),
                    std::strerror(errno));
    return false;
  }
  return write_header();
}

WalReplayResult WriteAheadLog::replay(
    const std::string& path, std::uint64_t after_seq,
    const std::function<bool(std::uint64_t, RedoOp&&)>& apply) {
  WalReplayResult result;
  const std::optional<std::vector<std::uint8_t>> file =
      codec::read_file(path);
  if (!file.has_value()) return result;
  const std::vector<std::uint8_t>& bytes = *file;
  if (!header_intact(bytes)) {
    // Torn before the header finished (or not a WAL at all): empty log.
    result.truncated_bytes = bytes.size();
    return result;
  }
  result.valid_bytes = kHeaderBytes;

  std::size_t pos = kHeaderBytes;
  while (pos < bytes.size()) {
    codec::TryReader frame{std::span(bytes).subspan(pos)};
    const std::uint32_t len = frame.u32();
    const std::uint32_t crc = frame.u32();
    if (!frame.ok() || frame.remaining() < len) break;
    const std::span<const std::uint8_t> payload =
        std::span(bytes).subspan(pos + kFrameOverhead, len);
    if (walfmt::crc32(payload) != crc) break;

    codec::TryReader body(payload);
    const std::uint64_t seq = body.u64();
    const std::uint32_t op_count = body.u32();
    if (!body.ok() || op_count > body.remaining()) break;  // an op is >= 1 B

    // Decode the WHOLE frame before applying any of it, so a frame that
    // turns out malformed halfway through never leaves partial effects.
    std::vector<RedoOp> ops;
    ops.reserve(op_count);
    for (std::uint32_t i = 0; i < op_count && body.ok(); ++i) {
      ops.push_back(walfmt::read_op(body));
    }
    if (!body.ok() || !body.done()) break;

    // A CRC-valid but semantically inadmissible op poisons the tail the
    // same way torn bytes do — but by then earlier ops of the frame have
    // been applied, so tell the caller (partial_frame) to redo recovery
    // capped at last_seq.
    const bool replay_frame = seq > after_seq;
    if (replay_frame) {
      std::uint64_t applied = 0;
      for (RedoOp& op : ops) {
        if (!apply(seq, std::move(op))) break;
        ++applied;
      }
      if (applied < ops.size()) {
        result.partial_frame = applied > 0;
        break;
      }
    }

    pos += kFrameOverhead + len;
    result.valid_bytes = pos;
    result.last_seq = seq;
    if (replay_frame) {
      ++result.commits;
      result.records += op_count;
    }
  }
  result.truncated_bytes = bytes.size() - result.valid_bytes;
  return result;
}

bool WriteAheadLog::truncate_torn_tail(const std::string& path,
                                       const WalReplayResult& result) {
  std::error_code ec;
  if (result.valid_bytes < kHeaderBytes) {
    // Missing or header-torn: lay down a fresh empty log.
    WriteAheadLog fresh(path);
    return fresh.ok();
  }
  if (result.truncated_bytes == 0) return true;
  std::filesystem::resize_file(path, result.valid_bytes, ec);
  if (ec) {
    MPROS_LOG_ERROR("db", "wal: truncate %s to %llu bytes failed: %s",
                    path.c_str(),
                    static_cast<unsigned long long>(result.valid_bytes),
                    ec.message().c_str());
    return false;
  }
  return true;
}

}  // namespace mpros::db
