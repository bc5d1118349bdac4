// Golden bytes for the four binary formats: the report datagram, the
// write-ahead log, the database snapshot and the flight recorder. Each test
// encodes a fixed input and compares it to hex recorded once, then decodes
// that hex and checks the values it carries. A codec change that alters a
// single byte of any format (and so breaks reading files written by an
// older build) fails here, where the round-trip suites would stay green.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "mpros/db/snapshot.hpp"
#include "mpros/db/wal.hpp"
#include "mpros/net/messages.hpp"
#include "mpros/net/report.hpp"
#include "mpros/telemetry/recorder.hpp"

namespace mpros {
namespace {

namespace fs = std::filesystem;

std::string hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

std::vector<std::uint8_t> unhex(std::string_view text) {
  const auto nibble = [](char c) {
    return static_cast<std::uint8_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  };
  std::vector<std::uint8_t> out;
  out.reserve(text.size() / 2);
  for (std::size_t i = 0; i + 1 < text.size(); i += 2) {
    out.push_back(
        static_cast<std::uint8_t>(nibble(text[i]) << 4 | nibble(text[i + 1])));
  }
  return out;
}

/// A file path under the system temp root, unique per test and process,
/// removed on teardown.
class TempFile {
 public:
  TempFile() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = fs::temp_directory_path() /
            (std::string("mpros_golden_") + info->name() + "_" +
             std::to_string(::getpid()));
    fs::remove(path_);
  }
  ~TempFile() { fs::remove(path_); }

  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// --- Report datagram ---------------------------------------------------------

std::vector<net::FailureReport> golden_reports() {
  std::vector<net::FailureReport> out(2);
  out[0].dc = DcId(3);
  out[0].knowledge_source = KnowledgeSourceId(2);
  out[0].sensed_object = ObjectId(17);
  out[0].machine_condition = ConditionId(5);
  out[0].severity = 0.625;
  out[0].belief = 0.875;
  out[0].explanation = "1x high";
  out[0].recommendations = "balance";
  out[0].timestamp = SimTime::from_seconds(90.0);
  out[0].prognostics = {{0.25, 86400.0}, {0.75, 604800.0}};
  out[0].trace = 0xABCDEF01ull;
  out[1].dc = DcId(3);
  out[1].knowledge_source = KnowledgeSourceId(4);
  out[1].sensed_object = ObjectId(18);
  out[1].machine_condition = ConditionId(9);
  out[1].severity = 0.5;
  out[1].belief = 1.0;
  out[1].additional_info = "x";
  out[1].timestamp = SimTime::from_seconds(91.5);
  return out;
}

constexpr std::string_view kBatchEnvelopeHex =
    "0b03000000000000000700000000000000524201030000000000000002000000"
    "524d0201efcdab00000000030000000000000002000000000000001100000000"
    "0000000500000000000000000000000000e43f000000000000ec3f0700000031"
    "7820686967680700000062616c616e6365804a5d050000000000000000020000"
    "00000000000000d03f000000000018f540000000000000e83f00000000007522"
    "41524d0200000000000000000300000000000000040000000000000012000000"
    "000000000900000000000000000000000000e03f000000000000f03f00000000"
    "00000000e02d740500000000010000007800000000";

TEST(FormatGoldenTest, ReportBatchEnvelopeBytes) {
  const auto reports = golden_reports();
  EXPECT_EQ(hex(net::wrap_batch_envelope(DcId(3), 7, reports)),
            kBatchEnvelopeHex);

  std::vector<net::ReportEnvelope> arena;
  const auto view = net::try_unwrap_reports_into(unhex(kBatchEnvelopeHex),
                                                 arena);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->dc, DcId(3));
  EXPECT_EQ(view->sequence, 7u);
  ASSERT_EQ(view->count, 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(arena[i].dc, DcId(3));
    EXPECT_EQ(arena[i].sequence, 7u);
    EXPECT_EQ(arena[i].report, reports[i]) << "report " << i;
  }
}

// --- Write-ahead log ---------------------------------------------------------

db::TableSchema crew_schema() {
  return db::TableSchema{
      "crew",
      {db::ColumnDef{"id", db::ValueType::Integer, false},
       db::ColumnDef{"name", db::ValueType::Text, false},
       db::ColumnDef{"score", db::ValueType::Real, true}}};
}

/// One op of every RedoOp kind, in an order a live database could emit.
std::vector<db::RedoOp> golden_ops() {
  using Kind = db::RedoOp::Kind;
  std::vector<db::RedoOp> ops(7);
  ops[0].kind = Kind::CreateTable;
  ops[0].table = "crew";
  ops[0].schema = crew_schema();
  ops[1].kind = Kind::CreateIndex;
  ops[1].table = "crew";
  ops[1].column = "name";
  ops[2].kind = Kind::Insert;
  ops[2].table = "crew";
  ops[2].key = 1;
  ops[2].row = {db::Value(std::int64_t{1}), db::Value("ada"), db::Value(2.5)};
  ops[3].kind = Kind::Insert;
  ops[3].table = "crew";
  ops[3].key = 2;
  ops[3].row = {db::Value(std::int64_t{2}), db::Value("bo"), db::Value()};
  ops[4].kind = Kind::Update;
  ops[4].table = "crew";
  ops[4].key = 2;
  ops[4].column = "score";
  ops[4].value = db::Value(0.125);
  ops[5].kind = Kind::Erase;
  ops[5].table = "crew";
  ops[5].key = 1;
  ops[6].kind = Kind::DropTable;
  ops[6].table = "crew";
  return ops;
}

constexpr std::string_view kWalHex =
    "4d57414c01e1000000cb38d92305000000000000000700000001040000006372"
    "65770400000063726577030000000200000069640100040000006e616d650300"
    "0500000073636f72650201030400000063726577040000006e616d6504040000"
    "0063726577010000000000000003000000010100000000000000030300000061"
    "6461020000000000000440040400000063726577020000000000000003000000"
    "0102000000000000000302000000626f00050400000063726577020000000000"
    "00000500000073636f726502000000000000c03f060400000063726577010000"
    "0000000000020400000063726577";

TEST(FormatGoldenTest, WalCommitWithEveryOpKindBytes) {
  const TempFile file;
  const auto ops = golden_ops();
  {
    db::WriteAheadLog wal(file.str(), 5);
    ASSERT_TRUE(wal.ok());
    for (const db::RedoOp& op : ops) wal.append(op);
    EXPECT_EQ(wal.seal(), 5u);
    ASSERT_TRUE(wal.sync(false));
  }
  EXPECT_EQ(hex(read_bytes(file.str())), kWalHex);

  write_bytes(file.str(), unhex(kWalHex));
  std::vector<db::RedoOp> got;
  const db::WalReplayResult result = db::WriteAheadLog::replay(
      file.str(), 0, [&](std::uint64_t seq, db::RedoOp&& op) {
        EXPECT_EQ(seq, 5u);
        got.push_back(std::move(op));
        return true;
      });
  EXPECT_EQ(result.commits, 1u);
  EXPECT_EQ(result.records, ops.size());
  EXPECT_EQ(result.last_seq, 5u);
  EXPECT_EQ(result.valid_bytes, kWalHex.size() / 2);
  EXPECT_EQ(result.truncated_bytes, 0u);
  ASSERT_EQ(got.size(), ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(got[i].kind, ops[i].kind) << "op " << i;
    EXPECT_EQ(got[i].table, ops[i].table) << "op " << i;
    EXPECT_EQ(got[i].column, ops[i].column) << "op " << i;
    EXPECT_EQ(got[i].key, ops[i].key) << "op " << i;
    EXPECT_EQ(got[i].row, ops[i].row) << "op " << i;
    EXPECT_EQ(got[i].value, ops[i].value) << "op " << i;
  }
  const db::TableSchema& schema = got[0].schema;
  EXPECT_EQ(schema.name, "crew");
  ASSERT_EQ(schema.columns.size(), 3u);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(schema.columns[c].name, crew_schema().columns[c].name);
    EXPECT_EQ(schema.columns[c].type, crew_schema().columns[c].type);
    EXPECT_EQ(schema.columns[c].nullable, crew_schema().columns[c].nullable);
  }
}

// --- Database snapshot -------------------------------------------------------

db::Database golden_database() {
  db::Database db;
  db.create_table(crew_schema());
  db.create_index("crew", "name");
  db.insert_auto("crew", {db::Value("ada"), db::Value(2.5)});
  db.insert_auto("crew", {db::Value("bo"), db::Value()});
  db.create_table(db::TableSchema{
      "log", {db::ColumnDef{"id", db::ValueType::Integer, false},
              db::ColumnDef{"note", db::ValueType::Text, false}}});
  db.insert("log", {db::Value(std::int64_t{42}), db::Value("hello")});
  return db;
}

constexpr std::string_view kSnapshotHex =
    "4d44425301090000000000000002000000040000006372657703000000020000"
    "0069640100040000006e616d6503000500000073636f72650201030000000000"
    "000001000000040000006e616d65020000000000000003000000010100000000"
    "0000000303000000616461020000000000000440030000000102000000000000"
    "000302000000626f00030000006c6f6702000000020000006964010004000000"
    "6e6f746503002b0000000000000000000000010000000000000002000000012a"
    "00000000000000030500000068656c6c6f";

TEST(FormatGoldenTest, TwoTableSnapshotBytes) {
  EXPECT_EQ(hex(db::encode_snapshot(golden_database(), 9)), kSnapshotHex);

  const auto decoded = db::decode_snapshot(unhex(kSnapshotHex));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->wal_seq, 9u);
  const db::Table& crew = decoded->db.table("crew");
  ASSERT_EQ(crew.row_count(), 2u);
  EXPECT_EQ(*crew.find(1),
            (db::Row{db::Value(std::int64_t{1}), db::Value("ada"),
                     db::Value(2.5)}));
  EXPECT_EQ(*crew.find(2), (db::Row{db::Value(std::int64_t{2}),
                                    db::Value("bo"), db::Value()}));
  EXPECT_EQ(crew.lookup("name", db::Value("bo")),
            std::vector<std::int64_t>{2});
  EXPECT_EQ(crew.next_auto_key(), 3);
  const db::Table& log = decoded->db.table("log");
  ASSERT_EQ(log.row_count(), 1u);
  EXPECT_EQ(*log.find(42),
            (db::Row{db::Value(std::int64_t{42}), db::Value("hello")}));
}

// --- Flight recorder ---------------------------------------------------------

constexpr std::string_view kRecorderHex =
    "4d4652010104000000efcdab8967452301020000000160e31600000000000400"
    "000064632d310400000070646d65030000000b01ff0280841e00000000000400"
    "000064632d320000000006000000776564676564";

TEST(FormatGoldenTest, FlightRecorderOneFrameOfEachKindBytes) {
  telemetry::FlightRecorder recorder;
  telemetry::RecorderHeader header;
  header.pdme_dedup = true;
  header.plant_count = 4;
  header.seed = 0x0123456789ABCDEFull;
  recorder.set_header(header);
  recorder.record_message(1'500'000, "dc-1", "pdme", {0x0B, 0x01, 0xFF});
  recorder.record_event(2'000'000, "dc-2", "wedged");
  EXPECT_EQ(hex(recorder.encode()), kRecorderHex);

  const auto decoded = telemetry::FlightRecorder::decode(unhex(kRecorderHex));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->header, recorder.header());
  ASSERT_EQ(decoded->frames.size(), 2u);
  EXPECT_EQ(decoded->frames[0].kind, telemetry::FrameKind::NetMessage);
  EXPECT_EQ(decoded->frames[0].time_us, 1'500'000);
  EXPECT_EQ(decoded->frames[0].from, "dc-1");
  EXPECT_EQ(decoded->frames[0].to, "pdme");
  EXPECT_EQ(decoded->frames[0].payload,
            (std::vector<std::uint8_t>{0x0B, 0x01, 0xFF}));
  EXPECT_EQ(decoded->frames[1].kind, telemetry::FrameKind::Event);
  EXPECT_EQ(decoded->frames[1].time_us, 2'000'000);
  EXPECT_EQ(decoded->frames[1].from, "dc-2");
  EXPECT_EQ(decoded->frames[1].to, "");
  EXPECT_EQ(decoded->frames[1].payload,
            (std::vector<std::uint8_t>{'w', 'e', 'd', 'g', 'e', 'd'}));
}

}  // namespace
}  // namespace mpros
