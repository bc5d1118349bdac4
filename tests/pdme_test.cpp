// PDME tests: the §5.1 report flow through the OOSM, fusion of conflicting
// and reinforcing reports, prioritized list, browser rendering, ICAS export.

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <limits>
#include <string>

#include "mpros/codec/codec.hpp"
#include "mpros/dc/data_concentrator.hpp"
#include "mpros/oosm/ship_builder.hpp"
#include "mpros/pdme/browser.hpp"
#include "mpros/pdme/mimosa.hpp"
#include "mpros/oosm/persistence.hpp"
#include "mpros/pdme/pdme.hpp"
#include "mpros/telemetry/metrics.hpp"

namespace mpros::pdme {
namespace {

using domain::FailureMode;

net::FailureReport make_report(ObjectId machine, FailureMode mode,
                               double severity, double belief,
                               std::uint64_t ks = 1, double t_seconds = 100.0,
                               std::uint64_t dc = 1) {
  net::FailureReport r;
  r.dc = DcId(dc);
  r.knowledge_source = KnowledgeSourceId(ks);
  r.sensed_object = machine;
  r.machine_condition = domain::condition_id(mode);
  r.severity = severity;
  r.belief = belief;
  r.timestamp = SimTime::from_seconds(t_seconds);
  r.explanation = "test report";
  r.prognostics = {{0.1, 7.0 * 86400.0}, {0.9, 60.0 * 86400.0}};
  return r;
}

/// A retired report type byte in front of a well-formed body of the shape
/// it used to carry: 1 = one report frame, 4 = dc + sequence + one report
/// frame, 10 = an unsequenced batch body.
std::vector<std::uint8_t> retired_datagram(net::MessageType type,
                                           const net::FailureReport& r) {
  codec::Writer w;
  w.u8(static_cast<std::uint8_t>(type));
  if (type == net::MessageType::ReportEnvelopeMsg) {
    w.u64(r.dc.value());
    w.u64(1);
  }
  std::vector<std::uint8_t> out = w.take();
  // The batch body is what follows the type byte, dc and sequence of the
  // live datagram.
  const auto body = type == net::MessageType::ReportBatchMsg
                        ? net::wrap_batch_envelope(r.dc, 1, {&r, 1})
                        : net::serialize(r);
  const std::size_t skip = type == net::MessageType::ReportBatchMsg ? 17 : 0;
  out.insert(out.end(), body.begin() + static_cast<std::ptrdiff_t>(skip),
             body.end());
  return out;
}

class PdmeTest : public ::testing::Test {
 protected:
  PdmeTest() : ship_(oosm::build_ship(model_, "Test", 1, 1)), pdme_(model_) {
    motor_ = ship_.plants.front().motor;
  }

  oosm::ObjectModel model_;
  oosm::ShipModel ship_;
  PdmeExecutive pdme_;
  ObjectId motor_;
};

TEST_F(PdmeTest, AcceptPostsReportObjectIntoOosm) {
  const std::size_t before = model_.object_count();
  const auto obj = pdme_.accept(
      make_report(motor_, FailureMode::MotorImbalance, 0.6, 0.8));
  ASSERT_TRUE(obj.has_value());
  EXPECT_EQ(model_.object_count(), before + 1);
  EXPECT_EQ(model_.kind(*obj), domain::EquipmentKind::Report);
  // The report RefersTo the machine (§4.2).
  EXPECT_TRUE(model_.has_relation(*obj, oosm::Relation::RefersTo, motor_));
  EXPECT_DOUBLE_EQ(model_.property(*obj, "severity")->as_real(), 0.6);
}

TEST_F(PdmeTest, FusionTriggeredViaOosmEvents) {
  pdme_.accept(make_report(motor_, FailureMode::MotorImbalance, 0.6, 0.8));
  const auto state =
      pdme_.group_state(motor_, domain::LogicalGroup::RotorDynamics);
  EXPECT_EQ(state.report_count, 1u);
  EXPECT_NEAR(state.modes[0].belief, 0.8, 1e-9);
  EXPECT_EQ(pdme_.snapshot().reports_accepted, 1u);
}

TEST_F(PdmeTest, ThirdPartyReportObjectAlsoFused) {
  // §4.5: fusion reacts to the OOSM, so a report object posted by hand (not
  // via accept()) must reach knowledge fusion too.
  const ObjectId obj =
      model_.create_object("manual report", domain::EquipmentKind::Report);
  model_.set_property(obj, "dc", std::int64_t{9});
  model_.set_property(obj, "ks", std::int64_t{2});
  model_.set_property(obj, "sensed",
                      static_cast<std::int64_t>(motor_.value()));
  model_.set_property(
      obj, "condition",
      static_cast<std::int64_t>(
          domain::condition_id(FailureMode::RotorBarDefect).value()));
  model_.set_property(obj, "severity", 0.5);
  model_.set_property(obj, "belief", 0.7);
  model_.set_property(obj, "timestamp_us", std::int64_t{1000});
  model_.set_property(obj, "prognostics", "");
  model_.set_property(obj, "posted", std::int64_t{1});

  const auto state =
      pdme_.group_state(motor_, domain::LogicalGroup::Electrical);
  EXPECT_EQ(state.report_count, 1u);
  EXPECT_NEAR(state.modes[0].belief, 0.7, 1e-9);
}

TEST_F(PdmeTest, ReinforcingReportsRaiseBelief) {
  pdme_.accept(make_report(motor_, FailureMode::MotorImbalance, 0.6, 0.6,
                           /*ks=*/1));
  pdme_.accept(make_report(motor_, FailureMode::MotorImbalance, 0.5, 0.6,
                           /*ks=*/3, /*t=*/200.0));
  const auto state =
      pdme_.group_state(motor_, domain::LogicalGroup::RotorDynamics);
  EXPECT_NEAR(state.modes[0].belief, 1.0 - 0.4 * 0.4, 1e-9);
}

TEST_F(PdmeTest, ConflictingReportsShareGroupBelief) {
  pdme_.accept(make_report(motor_, FailureMode::MotorImbalance, 0.6, 0.7,
                           /*ks=*/1));
  pdme_.accept(make_report(motor_, FailureMode::ShaftMisalignment, 0.6, 0.7,
                           /*ks=*/3, /*t=*/200.0));
  const auto state =
      pdme_.group_state(motor_, domain::LogicalGroup::RotorDynamics);
  EXPECT_GT(state.last_conflict, 0.0);
  EXPECT_NEAR(state.modes[0].belief, state.modes[1].belief, 1e-9);
}

TEST_F(PdmeTest, DuplicateRetransmissionDropped) {
  const auto report =
      make_report(motor_, FailureMode::MotorImbalance, 0.6, 0.8);
  EXPECT_TRUE(pdme_.accept(report).has_value());
  EXPECT_FALSE(pdme_.accept(report).has_value());
  EXPECT_EQ(pdme_.snapshot().duplicates_dropped, 1u);
  const auto state =
      pdme_.group_state(motor_, domain::LogicalGroup::RotorDynamics);
  EXPECT_EQ(state.report_count, 1u);  // fused once, not twice
}

TEST_F(PdmeTest, PrioritizedListOrdersBySeverityWeightedBelief) {
  pdme_.accept(make_report(motor_, FailureMode::MotorImbalance, 0.9, 0.9));
  pdme_.accept(make_report(motor_, FailureMode::RotorBarDefect, 0.2, 0.4,
                           /*ks=*/2, 150.0));
  const auto list = pdme_.prioritized_list();
  ASSERT_GE(list.size(), 2u);
  EXPECT_EQ(list.front().mode, FailureMode::MotorImbalance);
  for (std::size_t i = 1; i < list.size(); ++i) {
    EXPECT_GE(list[i - 1].priority, list[i].priority);
  }
}

TEST_F(PdmeTest, HandPostedPrognosticsReadOnlyTheBitHexForm) {
  // The prognostics property is the bit-hex codec blob
  // ("x<prob bits>:<time bits>;"). Any other token — decimal, hex-float or
  // garbage — is skipped, so exactly the bit-hex pair reaches fusion.
  const auto bits = [](double v) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
    return std::string(buf);
  };
  const std::string prognostics = "0.25:86400;1.8p-1:1.2p+20;not-a-pair;x" +
                                  bits(0.5) + ":" + bits(864000.0) + ";";
  const ObjectId obj =
      model_.create_object("manual report", domain::EquipmentKind::Report);
  model_.set_property(obj, "dc", std::int64_t{9});
  model_.set_property(obj, "ks", std::int64_t{2});
  model_.set_property(obj, "sensed",
                      static_cast<std::int64_t>(motor_.value()));
  model_.set_property(
      obj, "condition",
      static_cast<std::int64_t>(
          domain::condition_id(FailureMode::MotorImbalance).value()));
  model_.set_property(obj, "severity", 0.5);
  model_.set_property(obj, "belief", 0.7);
  model_.set_property(obj, "timestamp_us", std::int64_t{1000});
  model_.set_property(obj, "prognostics", prognostics);
  model_.set_property(obj, "posted", std::int64_t{1});

  const auto reports = pdme_.reports_for(motor_);
  ASSERT_EQ(reports.size(), 1u);
  ASSERT_EQ(reports.front().prognostics.size(), 1u);
  EXPECT_EQ(reports.front().prognostics.front().probability, 0.5);
  EXPECT_EQ(reports.front().prognostics.front().time_seconds, 864000.0);
  EXPECT_TRUE(pdme_.prognosis(motor_, FailureMode::MotorImbalance).has_value());
}

TEST_F(PdmeTest, PrognosticFusionFeedsTimeToFailure) {
  pdme_.accept(make_report(motor_, FailureMode::MotorImbalance, 0.7, 0.9));
  const auto prognosis =
      pdme_.prognosis(motor_, FailureMode::MotorImbalance);
  ASSERT_TRUE(prognosis.has_value());
  const auto list = pdme_.prioritized_list(motor_);
  ASSERT_FALSE(list.empty());
  ASSERT_TRUE(list.front().median_ttf.has_value());
  EXPECT_GT(list.front().median_ttf->days(), 0.0);
}

TEST_F(PdmeTest, ConservativePrognosticDominates) {
  auto early = make_report(motor_, FailureMode::MotorImbalance, 0.7, 0.9);
  early.prognostics = {{0.9, 10.0 * 86400.0}};  // 90% at 10 days
  auto late = make_report(motor_, FailureMode::MotorImbalance, 0.5, 0.8,
                          /*ks=*/3, 200.0);
  late.prognostics = {{0.9, 100.0 * 86400.0}};
  pdme_.accept(late);
  pdme_.accept(early);
  const auto list = pdme_.prioritized_list(motor_);
  ASSERT_TRUE(list.front().p90_ttf.has_value());
  EXPECT_LE(list.front().p90_ttf->days(), 10.5);
}

TEST_F(PdmeTest, NetworkAttachDeliversReports) {
  net::SimNetwork network;
  pdme_.attach_to_network(network);
  net::ReliableSender sender{DcId(1)};
  network.register_endpoint("dc-1", [&](const net::Message& m) {
    if (const auto ack = net::try_unwrap_ack(m.payload)) sender.on_ack(*ack);
  });
  const net::FailureReport r =
      make_report(motor_, FailureMode::GearMeshWear, 0.5, 0.8);
  network.send("dc-1", "pdme", sender.envelope({&r, 1}, SimTime(0)),
               SimTime(0));
  network.flush();
  EXPECT_EQ(pdme_.snapshot().reports_accepted, 1u);
  EXPECT_EQ(sender.unacked(), 0u);
}

TEST_F(PdmeTest, RetiredReportTypesCountedMalformedNotFusedNotAcked) {
  // Type bytes 1, 4 and 10 once carried reports (bare report, sequenced
  // report, bare batch). Each, in front of a well-formed body of its old
  // shape, must now be dropped as malformed: nothing fused, nothing acked.
  net::SimNetwork network;
  pdme_.attach_to_network(network);
  std::size_t to_dc = 0;
  network.register_endpoint("dc-1",
                            [&](const net::Message&) { ++to_dc; });
  const net::FailureReport r =
      make_report(motor_, FailureMode::MotorImbalance, 0.6, 0.8);
  for (const net::MessageType type :
       {net::MessageType::FailureReportMsg,
        net::MessageType::ReportEnvelopeMsg,
        net::MessageType::ReportBatchMsg}) {
    network.send("dc-1", "pdme", retired_datagram(type, r), SimTime(0));
  }
  network.flush();
  const auto stats = pdme_.snapshot();
  EXPECT_EQ(stats.malformed_dropped, 3u);
  EXPECT_EQ(stats.reports_accepted, 0u);
  EXPECT_EQ(stats.envelopes_accepted, 0u);
  EXPECT_EQ(stats.acks_sent, 0u);
  EXPECT_EQ(to_dc, 0u);
  EXPECT_TRUE(pdme_.prioritized_list(motor_).empty());

  // The same report in the live form is fused and acked.
  network.send("dc-1", "pdme", net::wrap_batch_envelope(r.dc, 1, {&r, 1}),
               SimTime(0));
  network.flush();
  EXPECT_EQ(pdme_.snapshot().reports_accepted, 1u);
  EXPECT_EQ(to_dc, 1u);
}

TEST_F(PdmeTest, ResetMachineForgets) {
  pdme_.accept(make_report(motor_, FailureMode::MotorImbalance, 0.6, 0.8));
  pdme_.reset_machine(motor_);
  EXPECT_TRUE(pdme_.prioritized_list(motor_).empty());
  EXPECT_TRUE(pdme_.reports_for(motor_).empty());
}

TEST_F(PdmeTest, BrowserRendersFig2Layout) {
  // Fig 2's situation: six condition reports from four knowledge sources,
  // some conflicting and some reinforcing, for A/C Compressor Motor 1.
  pdme_.accept(make_report(motor_, FailureMode::MotorImbalance, 0.6, 0.7,
                           /*ks=*/1, 100));
  pdme_.accept(make_report(motor_, FailureMode::MotorImbalance, 0.5, 0.6,
                           /*ks=*/3, 110));
  pdme_.accept(make_report(motor_, FailureMode::ShaftMisalignment, 0.4, 0.5,
                           /*ks=*/2, 120));
  pdme_.accept(make_report(motor_, FailureMode::RotorBarDefect, 0.3, 0.6,
                           /*ks=*/1, 130));
  pdme_.accept(make_report(motor_, FailureMode::MotorBearingWear, 0.5, 0.7,
                           /*ks=*/4, 140));
  pdme_.accept(make_report(motor_, FailureMode::MotorBearingWear, 0.6, 0.8,
                           /*ks=*/2, 150));

  const std::string screen = render_machine(pdme_, model_, motor_);
  EXPECT_NE(screen.find("A/C Compressor Motor 1"), std::string::npos);
  EXPECT_NE(screen.find("Condition reports received: 6"), std::string::npos);
  EXPECT_NE(screen.find("DLI Expert System"), std::string::npos);
  EXPECT_NE(screen.find("Fuzzy Logic"), std::string::npos);
  EXPECT_NE(screen.find("motor imbalance"), std::string::npos);
  EXPECT_NE(screen.find("Failure predictions"), std::string::npos);
}

TEST_F(PdmeTest, SummaryAndIcasExport) {
  pdme_.accept(make_report(motor_, FailureMode::MotorImbalance, 0.8, 0.9));
  const std::string summary = render_summary(pdme_, model_);
  EXPECT_NE(summary.find("Prioritized Maintenance List"), std::string::npos);
  EXPECT_NE(summary.find("A/C Compressor Motor 1"), std::string::npos);

  const std::string csv = export_icas_csv(pdme_, model_);
  EXPECT_NE(csv.find("machine,condition"), std::string::npos);
  EXPECT_NE(csv.find("motor imbalance"), std::string::npos);
}

TEST_F(PdmeTest, RebuildFromModelRecoversFusionState) {
  // §4.9: the OOSM is the persistent record; a restarted executive must
  // recover the maintenance picture from the Report objects alone.
  pdme_.accept(make_report(motor_, FailureMode::MotorImbalance, 0.7, 0.6,
                           /*ks=*/1, 100));
  pdme_.accept(make_report(motor_, FailureMode::MotorImbalance, 0.6, 0.6,
                           /*ks=*/3, 200));
  pdme_.accept(make_report(motor_, FailureMode::RotorBarDefect, 0.4, 0.5,
                           /*ks=*/2, 300));
  const auto original = pdme_.prioritized_list(motor_);

  db::Database store;
  oosm::Persistence::save(model_, store);
  oosm::ObjectModel restored = oosm::Persistence::load(store);
  PdmeExecutive recovered(restored);
  EXPECT_EQ(recovered.rebuild_from_model(), 3u);

  const auto rebuilt = recovered.prioritized_list(motor_);
  ASSERT_EQ(rebuilt.size(), original.size());
  for (std::size_t i = 0; i < rebuilt.size(); ++i) {
    EXPECT_EQ(rebuilt[i].mode, original[i].mode);
    EXPECT_NEAR(rebuilt[i].fused_belief, original[i].fused_belief, 1e-9);
    EXPECT_NEAR(rebuilt[i].max_severity, original[i].max_severity, 1e-9);
  }
  // Recovery also primes dedup: a replayed datagram is still dropped.
  EXPECT_FALSE(recovered
                   .accept(make_report(motor_, FailureMode::MotorImbalance,
                                       0.7, 0.6, /*ks=*/1, 100))
                   .has_value());
}

TEST_F(PdmeTest, TrendProjectionFromEscalatingReports) {
  // §10.1 temporal reasoning in the live path: reports escalate linearly
  // (0.2 -> 0.6 over 40 days), so the trend projects failure ~40 days past
  // the last report (severity 1.0 at the extrapolated crossing).
  for (int i = 0; i <= 4; ++i) {
    pdme_.accept(make_report(motor_, FailureMode::MotorImbalance,
                             0.2 + 0.1 * i, 0.8, /*ks=*/1,
                             /*t=*/86400.0 * 10.0 * i));
  }
  const auto list = pdme_.prioritized_list(motor_);
  ASSERT_FALSE(list.empty());
  ASSERT_TRUE(list.front().trend_ttf.has_value());
  EXPECT_NEAR(list.front().trend_ttf->days(), 40.0, 1.0);

  const auto curve =
      pdme_.trend_prognosis(motor_, FailureMode::MotorImbalance);
  ASSERT_FALSE(curve.empty());
  EXPECT_NEAR(curve.probability_at(SimTime::from_days(40.0)), 0.5, 0.02);
}

TEST_F(PdmeTest, FlatSeverityHasNoTrendProjection) {
  for (int i = 0; i <= 4; ++i) {
    pdme_.accept(make_report(motor_, FailureMode::MotorImbalance, 0.4, 0.8,
                             /*ks=*/1, /*t=*/86400.0 * 10.0 * i));
  }
  const auto list = pdme_.prioritized_list(motor_);
  ASSERT_FALSE(list.empty());
  EXPECT_FALSE(list.front().trend_ttf.has_value());
}

TEST_F(PdmeTest, MimosaExportCarriesStandardRecords) {
  // §3.3: MIMOSA integration — asset, health-assessment and proposed-event
  // records for every fused conclusion.
  pdme_.accept(make_report(motor_, FailureMode::MotorImbalance, 0.9, 0.9));
  const std::string doc = export_mimosa(pdme_, model_);

  EXPECT_NE(doc.find("HD|USNS-MERCY|MPROS-PDME|"), std::string::npos);
  EXPECT_NE(doc.find("AS|USNS-MERCY|"), std::string::npos);
  EXPECT_NE(doc.find("A/C Compressor Motor 1|InductionMotor"),
            std::string::npos);
  EXPECT_NE(doc.find("HA|USNS-MERCY|"), std::string::npos);
  EXPECT_NE(doc.find("|motor imbalance|CRITICAL|"), std::string::npos);
  EXPECT_NE(doc.find("PE|USNS-MERCY|"), std::string::npos);
}

TEST_F(PdmeTest, MimosaGradeLadder) {
  MaintenanceItem item;
  item.fused_belief = 0.05;
  item.max_severity = 0.5;
  EXPECT_STREQ(mimosa_grade(item), "NORMAL");
  item.fused_belief = 0.5;
  item.max_severity = 0.4;
  EXPECT_STREQ(mimosa_grade(item), "WARNING");
  item.fused_belief = 0.9;
  item.max_severity = 0.5;
  EXPECT_STREQ(mimosa_grade(item), "ALERT");
  item.fused_belief = 0.95;
  item.max_severity = 0.9;
  EXPECT_STREQ(mimosa_grade(item), "CRITICAL");
}

TEST_F(PdmeTest, MalformedConditionDropped) {
  auto bad = make_report(motor_, FailureMode::MotorImbalance, 0.5, 0.5);
  bad.machine_condition = ConditionId(999);
  pdme_.accept(bad);
  EXPECT_EQ(pdme_.snapshot().malformed_dropped, 1u);
  EXPECT_EQ(pdme_.snapshot().reports_accepted, 0u);
}

TEST_F(PdmeTest, NonFiniteReportValuesCountedMalformed) {
  // A NaN belief used to abort Dempster-Shafer and an infinite severity made
  // the priority infinite. Each must be dropped as malformed, whether it is
  // posted in-process or arrives in a wired batch — and the datagram is
  // still acked so the DC stops retransmitting it.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto hostile = [&](double t_seconds) {
    std::vector<net::FailureReport> out(
        3, make_report(motor_, FailureMode::MotorImbalance, 0.6, 0.8, 1,
                       t_seconds));
    out[0].belief = kNan;
    out[1].severity = kInf;
    out[2].prognostics[1].time_seconds = kNan;
    out[1].timestamp += SimTime::from_seconds(1);
    out[2].timestamp += SimTime::from_seconds(2);
    return out;
  };

  for (const net::FailureReport& r : hostile(100.0)) {
    EXPECT_FALSE(pdme_.accept(r).has_value());
  }
  EXPECT_EQ(pdme_.snapshot().malformed_dropped, 3u);

  net::SimNetwork network;
  pdme_.attach_to_network(network);
  std::vector<net::AckMessage> acks;
  network.register_endpoint("dc-1", [&](const net::Message& m) {
    if (const auto ack = net::try_unwrap_ack(m.payload)) acks.push_back(*ack);
  });
  const auto wired = hostile(200.0);
  network.send("dc-1", "pdme", net::wrap_batch_envelope(DcId(1), 1, wired),
               SimTime(0));
  network.flush();

  const auto stats = pdme_.snapshot();
  EXPECT_EQ(stats.malformed_dropped, 6u);
  EXPECT_EQ(stats.reports_accepted, 0u);
  EXPECT_EQ(stats.fusion_updates, 0u);
  EXPECT_EQ(stats.envelopes_accepted, 1u);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].cumulative, 1u);
  EXPECT_TRUE(pdme_.prioritized_list().empty());
  EXPECT_FALSE(
      pdme_.prognosis(motor_, FailureMode::MotorImbalance).has_value());
  // Screened before posting: none became a Report object (on a durable
  // ship, a WAL record) that recovery would find again.
  EXPECT_TRUE(
      model_.objects_of_kind(domain::EquipmentKind::Report).empty());

  // The executive is unharmed: a sane report still fuses.
  pdme_.accept(make_report(motor_, FailureMode::MotorImbalance, 0.6, 0.8, 1,
                           300.0));
  ASSERT_EQ(pdme_.prioritized_list().size(), 1u);
  EXPECT_NEAR(pdme_.prioritized_list()[0].fused_belief, 0.8, 1e-9);
}

TEST_F(PdmeTest, MalformedThirdPartyReportObjectsCountedNotFatal) {
  // §4.5 lets anyone post a Report object. One missing a required property,
  // or holding one of the wrong type, is counted malformed — live and again
  // on recovery — instead of aborting the PDME.
  const auto post = [&](const char* skip, const char* text_key) {
    const ObjectId obj =
        model_.create_object("manual report", domain::EquipmentKind::Report);
    const std::pair<const char*, std::int64_t> ints[] = {
        {"dc", 9},
        {"ks", 2},
        {"sensed", static_cast<std::int64_t>(motor_.value())},
        {"condition",
         static_cast<std::int64_t>(
             domain::condition_id(FailureMode::RotorBarDefect).value())},
        {"timestamp_us", 1000}};
    for (const auto& [key, value] : ints) {
      if (std::string(key) != skip) model_.set_property(obj, key, value);
    }
    model_.set_property(obj, "severity", 0.5);
    model_.set_property(obj, "belief", 0.7);
    if (text_key != nullptr) model_.set_property(obj, text_key, "oops");
    model_.set_property(obj, "posted", std::int64_t{1});
  };
  post("dc", nullptr);          // missing source DC
  post("", "severity");         // severity as text
  post("", "condition");        // condition as text
  post("", "trace");            // trace id as text
  EXPECT_EQ(pdme_.snapshot().malformed_dropped, 4u);
  EXPECT_EQ(pdme_.snapshot().reports_accepted, 0u);
  EXPECT_TRUE(pdme_.prioritized_list().empty());

  pdme_.accept(make_report(motor_, FailureMode::MotorImbalance, 0.6, 0.8));

  // Recovery over the same model re-fuses the one well-formed report and
  // counts the four hand-posted ones again.
  PdmeExecutive recovered(model_);
  EXPECT_EQ(recovered.rebuild_from_model(), 1u);
  EXPECT_EQ(recovered.snapshot().malformed_dropped, 4u);
  EXPECT_EQ(recovered.snapshot().reports_accepted, 1u);
  EXPECT_EQ(recovered.prioritized_list().size(), 1u);
}

TEST_F(PdmeTest, SnapshotCountersMatchRegistryDeltas) {
  // One counter ledger: every Stats field with a pdme.* registry twin moves
  // by exactly the same amount over a mixed stream.
  auto& reg = telemetry::Registry::instance();
  const char* const names[] = {"pdme.reports_accepted",
                               "pdme.duplicates_dropped",
                               "pdme.malformed_dropped",
                               "pdme.fusion_updates",
                               "pdme.sensor_fault_reports"};
  std::vector<std::uint64_t> before;
  for (const char* name : names) before.push_back(reg.counter(name).value());

  net::SimNetwork network;
  pdme_.attach_to_network(network);
  network.register_endpoint("dc-1", [](const net::Message&) {});
  const net::FailureReport fresh =
      make_report(motor_, FailureMode::MotorImbalance, 0.6, 0.8);
  const auto datagram = net::wrap_batch_envelope(DcId(1), 1, {&fresh, 1});
  network.send("dc-1", "pdme", datagram, SimTime(0));
  network.send("dc-1", "pdme", datagram, SimTime(1));  // sequenced duplicate
  network.flush();
  pdme_.accept(fresh);  // signature duplicate

  auto bad_condition = make_report(motor_, FailureMode::MotorImbalance, 0.5,
                                   0.5, 1, 200.0);
  bad_condition.machine_condition = ConditionId(999);
  pdme_.accept(bad_condition);

  auto sensor_fault = make_report(motor_, FailureMode::MotorImbalance, 1.0,
                                  0.9, /*ks=*/5, 300.0);
  sensor_fault.machine_condition =
      domain::sensor_fault_condition(domain::SensorFaultKind::Spike);
  pdme_.accept(sensor_fault);

  auto nan_belief = make_report(motor_, FailureMode::GearMeshWear, 0.5, 0.5,
                                1, 400.0);
  nan_belief.belief = std::numeric_limits<double>::quiet_NaN();
  network.send("dc-1", "pdme",
               net::wrap_batch_envelope(DcId(1), 2, {&nan_belief, 1}),
               SimTime(2));
  network.flush();

  const auto stats = pdme_.snapshot();
  const std::uint64_t fields[] = {
      stats.reports_accepted, stats.duplicates_dropped,
      stats.malformed_dropped, stats.fusion_updates,
      stats.sensor_fault_reports};
  const std::uint64_t expected[] = {2, 2, 2, 1, 1};
  for (std::size_t i = 0; i < std::size(names); ++i) {
    EXPECT_EQ(fields[i], expected[i]) << names[i];
    EXPECT_EQ(reg.counter(names[i]).value() - before[i], fields[i])
        << names[i];
  }
}

// --- Reliable envelope intake ------------------------------------------------

TEST_F(PdmeTest, EnvelopeStreamGapsDetectedAckedAndHealed) {
  net::NetworkConfig ncfg;
  ncfg.base_latency = SimTime::from_millis(1.0);
  ncfg.jitter = SimTime(0);
  net::SimNetwork network(ncfg);
  pdme_.attach_to_network(network);

  std::vector<net::AckMessage> acks;
  network.register_endpoint("dc-1", [&](const net::Message& m) {
    const auto ack = net::try_unwrap_ack(m.payload);
    if (ack.has_value()) acks.push_back(*ack);
  });

  net::ReliableSender sender{DcId(1)};
  const auto seal = [&](double severity, double t_seconds) {
    const net::FailureReport r = make_report(
        motor_, FailureMode::MotorImbalance, severity, 0.8, 1, t_seconds);
    return sender.envelope({&r, 1}, SimTime(0));
  };
  const auto p1 = seal(0.5, 100.0);
  const auto p2 = seal(0.6, 200.0);
  const auto p3 = seal(0.7, 300.0);

  // Sequence 2 is lost in transit; 3's arrival exposes the gap.
  network.send("dc-1", "pdme", p1, SimTime::from_seconds(1));
  network.send("dc-1", "pdme", p3, SimTime::from_seconds(2));
  network.flush();
  EXPECT_EQ(pdme_.snapshot().envelopes_accepted, 2u);
  EXPECT_EQ(pdme_.snapshot().gaps_detected, 1u);
  ASSERT_EQ(acks.size(), 2u);
  EXPECT_EQ(acks.back().cumulative, 1u);  // can't ack past the hole

  // The retransmission heals the gap and the cumulative ack jumps to 3.
  network.send("dc-1", "pdme", p2, SimTime::from_seconds(3));
  network.flush();
  ASSERT_EQ(acks.size(), 3u);
  EXPECT_EQ(acks.back().cumulative, 3u);
  EXPECT_EQ(pdme_.receiver().snapshot().gaps_healed, 1u);
  EXPECT_EQ(pdme_.snapshot().reports_accepted, 3u);

  // A spurious re-retransmission is dropped but still acked (the DC may
  // simply have missed our ack).
  network.send("dc-1", "pdme", p2, SimTime::from_seconds(4));
  network.flush();
  EXPECT_EQ(pdme_.snapshot().duplicates_dropped, 1u);
  ASSERT_EQ(acks.size(), 4u);
  EXPECT_EQ(acks.back().cumulative, 3u);
  EXPECT_EQ(pdme_.snapshot().reports_accepted, 3u);

  sender.on_ack(acks.back());
  EXPECT_EQ(sender.unacked(), 0u);
}

// --- DC liveness supervision -------------------------------------------------

TEST_F(PdmeTest, WatchdogMarksSilentDcStaleThenLost) {
  pdme_.expect_dc(DcId(9), SimTime(0));  // 60 s heartbeat interval (default)

  pdme_.update_liveness(SimTime::from_seconds(60));
  EXPECT_EQ(pdme_.dc_liveness(DcId(9)), DcLiveness::Alive);
  pdme_.update_liveness(SimTime::from_seconds(120));
  EXPECT_EQ(pdme_.dc_liveness(DcId(9)), DcLiveness::Stale);
  pdme_.update_liveness(SimTime::from_seconds(180));
  EXPECT_EQ(pdme_.dc_liveness(DcId(9)), DcLiveness::Lost);

  // Any arrival restores the space to Alive.
  pdme_.accept(net::HeartbeatMessage{DcId(9), SimTime::from_seconds(200), 0},
               SimTime::from_seconds(200));
  EXPECT_EQ(pdme_.dc_liveness(DcId(9)), DcLiveness::Alive);
  EXPECT_EQ(pdme_.snapshot().heartbeats_received, 1u);
  EXPECT_GE(pdme_.snapshot().liveness_transitions, 3u);

  // The watchdog never resurrects a DC on its own.
  pdme_.update_liveness(SimTime::from_seconds(500));
  EXPECT_EQ(pdme_.dc_liveness(DcId(9)), DcLiveness::Lost);
  pdme_.update_liveness(SimTime::from_seconds(510));
  EXPECT_EQ(pdme_.dc_liveness(DcId(9)), DcLiveness::Lost);
}

TEST_F(PdmeTest, SummaryShowsNoDataSinceForDeadDc) {
  pdme_.expect_dc(DcId(2), SimTime(0));
  pdme_.update_liveness(SimTime::from_hours(1.0));
  const std::string out = render_summary(pdme_, model_);
  EXPECT_NE(out.find("Data Concentrator health"), std::string::npos);
  EXPECT_NE(out.find("Lost"), std::string::npos);
  EXPECT_NE(out.find("NO DATA since"), std::string::npos);
}

TEST_F(PdmeTest, HeartbeatAdvertisedTailSequenceCountsGaps) {
  // Nothing arrived, but the DC claims it sent 2 reports: both are gaps.
  pdme_.accept(net::HeartbeatMessage{DcId(1), SimTime::from_seconds(60), 2},
               SimTime::from_seconds(60));
  EXPECT_EQ(pdme_.snapshot().gaps_detected, 2u);
  EXPECT_EQ(pdme_.receiver().open_gaps(DcId(1)), 2u);
}

// --- Sensor-fault routing ----------------------------------------------------

TEST_F(PdmeTest, SensorFaultReportsBypassFusionIntoQuarantineLedger) {
  net::FailureReport r =
      make_report(motor_, FailureMode::MotorImbalance, 1.0, 0.9, /*ks=*/5);
  r.machine_condition =
      domain::sensor_fault_condition(domain::SensorFaultKind::Spike);
  r.explanation = "vib.motor: impulsive outliers beyond robust scatter";
  pdme_.accept(r);

  EXPECT_EQ(pdme_.snapshot().sensor_fault_reports, 1u);
  // The instrument fault never reaches Dempster-Shafer or the list.
  EXPECT_TRUE(pdme_.prioritized_list(motor_).empty());
  const auto faults = pdme_.sensor_faults();
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0].kind, domain::SensorFaultKind::Spike);
  EXPECT_EQ(faults[0].dc, DcId(1));

  // The operator's summary page lists the quarantined channel.
  const std::string out = render_summary(pdme_, model_);
  EXPECT_NE(out.find("Quarantined sensor channels"), std::string::npos);
  EXPECT_NE(out.find("vib.motor"), std::string::npos);

  // The all-clear (severity 0) retires the active entry but keeps history.
  net::FailureReport clear = r;
  clear.severity = 0.0;
  clear.timestamp = r.timestamp + SimTime::from_seconds(300);
  pdme_.accept(clear);
  EXPECT_TRUE(pdme_.sensor_faults().empty());
  EXPECT_EQ(pdme_.sensor_faults(/*active_only=*/false).size(), 1u);
}

}  // namespace
}  // namespace mpros::pdme
