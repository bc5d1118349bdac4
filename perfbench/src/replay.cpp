// The traced run's DC duty-cycle replay.
//
// DataConcentrator::advance_to hides the plant, validation, DSP and analyzer
// layers behind one call. Twin A runs a real DataConcentrator (timed as
// dc.advance); twin B, an identical plant with the identical fault schedule,
// replays the same duty cycle through the layers' public functions in the
// DC's call order, so both twins draw the same samples and B's spans time
// the work A did. A's reports then go through the wire layers: sealed by a
// ReliableSender, carried by a SimNetwork, decoded and submitted to a PDME.

#include <algorithm>
#include <array>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "mpros/common/rng.hpp"
#include "mpros/db/database.hpp"
#include "mpros/fuzzy/chiller_fuzzy.hpp"
#include "mpros/mpros/wnn_training.hpp"
#include "mpros/oosm/ship_builder.hpp"
#include "mpros/rules/dli_rules.hpp"
#include "mpros/rules/features.hpp"
#include "mpros/sbfr/library.hpp"
#include "twin.hpp"
#include "workloads.hpp"

namespace perfbench {

using mpros::SimTime;
using mpros::domain::FailureMode;
namespace plant = mpros::plant;
namespace rules = mpros::rules;

namespace {

/// The DC's accelerometer-point ownership filter (which modes each point's
/// analyzers may report).
bool point_owns(plant::MachinePoint point, FailureMode mode) {
  switch (point) {
    case plant::MachinePoint::Motor:
      return mode == FailureMode::MotorImbalance ||
             mode == FailureMode::ShaftMisalignment ||
             mode == FailureMode::RotorBarDefect ||
             mode == FailureMode::StatorWindingFault ||
             mode == FailureMode::MotorBearingWear;
    case plant::MachinePoint::Gearbox:
      return mode == FailureMode::GearMeshWear;
    case plant::MachinePoint::Compressor:
      return mode == FailureMode::CompressorBearingWear ||
             mode == FailureMode::BearingHousingLooseness ||
             mode == FailureMode::PumpCavitation;
  }
  return false;
}

/// The DC's SBFR machine set (channels: bearing temp, oil temp, condensing
/// pressure, evaporator pressure deficit).
mpros::sbfr::SbfrSystem make_sbfr() {
  const auto nominals = mpros::domain::navy_chiller_nominals();
  mpros::sbfr::SbfrSystem sbfr(4);
  sbfr.add_machine(mpros::sbfr::make_threshold_machine(
      0, nominals.bearing_temp_c + 18.0, 2, 0, 0x60));
  sbfr.add_machine(mpros::sbfr::make_trend_machine(1, 0.15, 5, 1, 0x61));
  sbfr.add_machine(mpros::sbfr::make_threshold_machine(
      2, nominals.cond_pressure_kpa + 220.0, 2, 2, 0x62));
  sbfr.add_machine(mpros::sbfr::make_threshold_machine(3, 60.0, 2, 3, 0x63));
  return sbfr;
}

}  // namespace

void dc_replay(std::uint64_t seed, const mpros::dc::DcConfig& dc_template,
               bool use_wnn, SimTime span, Checks& checks, Trace& trace) {
  Tracer& tr = trace.tracer;
  mpros::Rng rng(seed);

  // One faulted plant, faults from two groups the vibration and process
  // paths both see.
  plant::ChillerConfig pc;
  pc.seed = rng.integer(1, ~0ULL);
  std::vector<plant::FaultEvent> faults;
  const FailureMode vib_modes[] = {FailureMode::MotorImbalance,
                                   FailureMode::GearMeshWear,
                                   FailureMode::CompressorBearingWear};
  const FailureMode proc_modes[] = {FailureMode::CondenserFouling,
                                    FailureMode::RefrigerantLeak};
  for (const FailureMode mode :
       {vib_modes[rng.integer(0, 2)], proc_modes[rng.integer(0, 1)]}) {
    plant::FaultEvent f;
    f.mode = mode;
    f.onset = SimTime::from_seconds(span.seconds() * rng.uniform(0.0, 0.3));
    f.ramp = SimTime::from_seconds(span.seconds() * 0.3);
    f.max_severity = rng.uniform(0.6, 0.9);
    faults.push_back(f);
  }
  plant::ChillerSimulator plant_a(pc);
  plant::ChillerSimulator plant_b(pc);
  for (const auto& f : faults) {
    plant_a.faults().schedule(f);
    plant_b.faults().schedule(f);
  }

  mpros::oosm::ObjectModel model;
  const mpros::oosm::ShipModel ship = mpros::oosm::build_ship(model, "USNS Mercy", 1, 2);
  const auto& objs = ship.plants[0];
  std::shared_ptr<mpros::nn::WnnClassifier> wnn;
  if (use_wnn) wnn = mpros::train_wnn_classifier();
  mpros::dc::DcConfig dc_cfg = dc_template;
  dc_cfg.id = mpros::DcId(1);
  mpros::dc::DataConcentrator dc(
      dc_cfg, {objs.chiller, objs.motor, objs.gearbox, objs.compressor},
      plant_a, wnn);

  // Twin B's layers.
  mpros::dc::SensorValidator validator(dc_cfg.sensor_validation);
  const rules::FeatureExtractor extractor(plant_b.signature());
  const rules::RuleEngine dli(rules::chiller_rulebase(plant_b.signature()));
  const mpros::fuzzy::FuzzyDiagnoser fuzzy;
  mpros::sbfr::SbfrSystem sbfr = make_sbfr();
  const rules::BelievabilityTable beliefs;
  mpros::db::Database db;
  db.create_table(mpros::db::TableSchema{
      "measurements",
      {mpros::db::ColumnDef{"id", mpros::db::ValueType::Integer, false},
       mpros::db::ColumnDef{"time_us", mpros::db::ValueType::Integer, false},
       mpros::db::ColumnDef{"key", mpros::db::ValueType::Text, false},
       mpros::db::ColumnDef{"value", mpros::db::ValueType::Real, false}}});
  db.table("measurements").create_index("key");
  std::vector<double> vib(dc_cfg.window);
  std::vector<double> current(dc_cfg.current_window);
  const char* sbfr_keys[] = {rules::feat::kBearingTemp, rules::feat::kOilTemp,
                             rules::feat::kCondPressure,
                             rules::feat::kEvapPressure};
  std::set<std::string> quarantined_channels;

  // Wire layers for A's reports.
  mpros::net::ReliableSender sender(dc_cfg.id, dc_cfg.reliable);
  mpros::net::SimNetwork network;
  Tap tap(network, "pdme");
  network.register_endpoint("pdme", [](const mpros::net::Message&) {});
  mpros::pdme::PdmeConfig pcfg;
  pcfg.heartbeat_interval = dc_cfg.heartbeat_period;
  TwinPdme pdme(1, 1, pcfg);

  double diagnoses = 0.0;
  double samples = 0.0;
  double vib_tests = 0.0;
  double scans = 0.0;
  const auto validate = [&](const std::string& channel,
                            std::span<const double> window) {
    Tracer::Scope s(tr, "dc.validate_window");
    const auto v = validator.check_window(channel, window);
    if (v.newly_quarantined) quarantined_channels.insert(channel);
    return !validator.quarantined(channel);
  };

  const auto vibration_test = [&] {
    Tracer::Scope test(tr, "replay.vibration_test");
    ++vib_tests;
    plant::ProcessSnapshot process;
    {
      Tracer::Scope s(tr, "plant.snapshot");
      process = plant_b.process_snapshot();
    }
    const double load = plant_b.load();
    {
      Tracer::Scope s(tr, "plant.acquire");
      plant_b.acquire_current(dc_cfg.current_sample_rate_hz, current);
    }
    samples += static_cast<double>(current.size());
    const bool current_ok = validate(plant::kCurrentChannel, current);
    for (const plant::MachinePoint point :
         {plant::MachinePoint::Motor, plant::MachinePoint::Gearbox,
          plant::MachinePoint::Compressor}) {
      {
        Tracer::Scope s(tr, "plant.acquire");
        plant_b.acquire_vibration(point, dc_cfg.sample_rate_hz, vib);
      }
      samples += static_cast<double>(vib.size());
      if (!validate(plant::vibration_channel(point), vib)) continue;
      rules::FeatureFrame frame;
      {
        Tracer::Scope s(tr, "dsp.extract_vibration");
        extractor.extract_vibration(vib, dc_cfg.sample_rate_hz, frame);
      }
      if (point == plant::MachinePoint::Motor && current_ok) {
        Tracer::Scope s(tr, "dsp.extract_current");
        extractor.extract_current(current, dc_cfg.current_sample_rate_hz,
                                  load, frame);
      }
      for (const auto& [key, value] : process) {
        if (!validator.quarantined(key)) frame.set(key, value);
      }
      std::vector<rules::Diagnosis> found;
      {
        Tracer::Scope s(tr, "rules.dli_evaluate");
        found = dli.evaluate(frame, beliefs);
      }
      for (const auto& d : found) diagnoses += point_owns(point, d.mode) ? 1 : 0;
      if (wnn && (point == plant::MachinePoint::Motor ||
                  point == plant::MachinePoint::Compressor)) {
        mpros::nn::WnnContext ctx;
        ctx.shaft_hz = plant_b.signature().shaft_hz;
        ctx.load_fraction = load;
        const auto temp = process.find(rules::feat::kBearingTemp);
        if (temp != process.end() && !validator.quarantined(temp->first)) {
          ctx.bearing_temp_c = temp->second;
        }
        Tracer::Scope s(tr, "nn.wnn_diagnose");
        for (const auto& d : wnn->diagnose(vib, dc_cfg.sample_rate_hz, ctx,
                                           beliefs,
                                           dc_cfg.wnn_report_threshold)) {
          diagnoses += point_owns(point, d.mode) ? 1 : 0;
        }
      }
    }
  };

  const auto process_scan = [&](SimTime now) {
    Tracer::Scope scan(tr, "replay.process_scan");
    ++scans;
    plant::ProcessSnapshot snapshot;
    {
      Tracer::Scope s(tr, "plant.snapshot");
      snapshot = plant_b.process_snapshot();
    }
    {
      Tracer::Scope s(tr, "dc.validate_scan");
      for (auto it = snapshot.begin(); it != snapshot.end();) {
        const auto v = validator.check_value(it->first, it->second);
        if (v.newly_quarantined) quarantined_channels.insert(it->first);
        it = validator.quarantined(it->first) ? snapshot.erase(it)
                                              : std::next(it);
      }
    }
    {
      Tracer::Scope s(tr, "dc.db_insert");
      mpros::db::Table& m = db.table("measurements");
      for (const auto& [key, value] : snapshot) {
        m.insert_auto({mpros::db::Value(now.micros()), mpros::db::Value(key),
                       mpros::db::Value(value)});
      }
    }
    {
      Tracer::Scope s(tr, "fuzzy.evaluate");
      diagnoses += static_cast<double>(fuzzy.evaluate(snapshot, beliefs).size());
    }
    bool inputs_ok = true;
    for (const char* key : sbfr_keys) inputs_ok = inputs_ok && snapshot.contains(key);
    if (!inputs_ok) return;
    const std::array<double, 4> inputs = {
        snapshot.at(sbfr_keys[0]), snapshot.at(sbfr_keys[1]),
        snapshot.at(sbfr_keys[2]),
        mpros::domain::navy_chiller_nominals().evap_pressure_kpa -
            snapshot.at(sbfr_keys[3])};
    Tracer::Scope s(tr, "sbfr.step");
    sbfr.step(inputs);
    for (const auto& e : sbfr.drain_events()) {
      diagnoses += 1;
      sbfr.set_status(e.machine, 0.0);
    }
  };

  // The DC's stepping: plant slices of max(30 s, half the fastest period);
  // a vibration test fires before a process scan due at the same instant.
  const SimTime step = SimTime::from_seconds(60.0);
  const SimTime slice = std::max(
      SimTime::from_seconds(30.0),
      SimTime(std::min(dc_cfg.process_period.micros(),
                       dc_cfg.vibration_period.micros()) / 2));
  double reports = 0.0;
  for (SimTime t = step; t <= span; t = t + step) {
    tr.set_step(static_cast<std::uint32_t>(t.micros() / step.micros()));
    std::vector<mpros::net::FailureReport> out;
    {
      Tracer::Scope s(tr, "dc.advance");
      out = dc.advance_to(t);
    }
    while (plant_b.now() < t) {
      {
        Tracer::Scope s(tr, "plant.advance");
        plant_b.advance(std::min(t, plant_b.now() + slice) - plant_b.now());
      }
      const SimTime now = plant_b.now();
      if (now.micros() % dc_cfg.vibration_period.micros() == 0) vibration_test();
      if (now.micros() % dc_cfg.process_period.micros() == 0) process_scan(now);
    }
    if (!out.empty()) {
      std::vector<std::uint8_t> payload;
      {
        Tracer::Scope s(tr, "net.encode");
        payload = sender.envelope(
            std::span<const mpros::net::FailureReport>(out.data(), out.size()),
            t);
      }
      tr.count("net.reports_encoded", static_cast<double>(out.size()));
      reports += static_cast<double>(out.size());
      network.send("dc-1", "pdme", std::move(payload), t);
    }
    {
      Tracer::Scope s(tr, "net.advance");
      network.advance_to(t);
    }
    pdme.consume(tap.take(), t, tr, /*barrier=*/true);
  }

  const auto& st = dc.stats();
  checks.check(static_cast<double>(st.vibration_tests) == vib_tests &&
                   static_cast<double>(st.process_scans) == scans &&
                   static_cast<double>(st.samples_processed) == samples,
               Checks::Kind::Integrity, "trace_replay_matches_dc_stats",
               "replay ran " + std::to_string(vib_tests) + " tests, " +
                   std::to_string(scans) + " scans; the DC " +
                   std::to_string(st.vibration_tests) + ", " +
                   std::to_string(st.process_scans));
  tr.count("plant.vibration_tests", vib_tests);
  tr.count("plant.process_scans", scans);

  // plant.world_share: the twin's plant time over its whole replay time.
  const auto layers = tr.layers();
  const auto self = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.self_s;
  };
  const auto total = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.total_s;
  };
  const double world =
      self("plant.acquire") + self("plant.snapshot") + self("plant.advance");
  const double replay = total("replay.vibration_test") +
                        total("replay.process_scan") + total("plant.advance");
  LayerValues& v = trace.values;
  v["plant.world_share"] = world / std::max(1e-12, replay);
  v["dc.report_ratio"] =
      static_cast<double>(st.reports_emitted - st.sensor_fault_reports) /
      std::max(1.0, diagnoses);
  double rows = 0.0;
  for (const std::string& name : dc.database().table_names()) {
    rows += static_cast<double>(dc.database().table(name).row_count());
  }
  v["dc.db_rows"] = rows;
  v["dc.false_quarantines"] = static_cast<double>(quarantined_channels.size());
  const auto real = pdme.pdme().snapshot();
  v["pdme.accept_ratio"] =
      static_cast<double>(real.reports_accepted) /
      std::max(1.0, static_cast<double>(real.reports_accepted +
                                        real.duplicates_dropped));
  v["oosm.objects"] = static_cast<double>(pdme.pdme().model().object_count());
  const auto ns = network.stats();
  v["net.delivered_ratio"] = static_cast<double>(ns.delivered) /
                             std::max(1.0, static_cast<double>(ns.sent));
  v["net.retransmits_per_report"] =
      static_cast<double>(sender.snapshot().retransmits) / std::max(1.0, reports);
}

}  // namespace perfbench
