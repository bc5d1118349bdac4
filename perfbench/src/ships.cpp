// ship_vib and fleet_scan: assembled ShipSystems, stepped closed loop.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "mpros/common/rng.hpp"
#include "mpros/fleet/fleet_server.hpp"
#include "mpros/mpros/ship_system.hpp"
#include "mpros/rules/features.hpp"
#include "twin.hpp"
#include "workloads.hpp"

namespace perfbench {

using mpros::Rng;
using mpros::ShipSystem;
using mpros::SimTime;
using mpros::domain::FailureMode;
namespace domain = mpros::domain;
namespace plant = mpros::plant;

namespace {

const SimTime kStep = SimTime::from_seconds(60.0);

std::uint64_t episode_seed(std::uint64_t seed, std::size_t episode) {
  return mpros::splitmix64(seed ^ mpros::splitmix64(episode + 1));
}

/// Ground truth the benchmark injected into one plant.
struct PlantTruth {
  std::vector<plant::FaultEvent> faults;
  std::vector<plant::SensorFaultEvent> sensor_faults;
};

void apply(ShipSystem& ship, std::size_t p, const PlantTruth& truth) {
  for (const plant::FaultEvent& f : truth.faults) {
    ship.chiller(p).faults().schedule(f);
  }
  for (const plant::SensorFaultEvent& s : truth.sensor_faults) {
    ship.chiller(p).sensor_faults().schedule(s);
  }
}

/// The plant object a sensor channel's quarantine report names (the DC's
/// channel -> object mapping: motor accelerometer and motor current on the
/// motor, the other accelerometers on their machines, process keys on the
/// chiller).
mpros::ObjectId object_for_channel(const mpros::oosm::ChillerPlant& objs,
                                   const std::string& channel) {
  if (channel == "vib.motor" || channel == plant::kCurrentChannel) {
    return objs.motor;
  }
  if (channel == "vib.gearbox") return objs.gearbox;
  if (channel == "vib.compressor") return objs.compressor;
  return objs.chiller;
}

/// The ship-level ground-truth checks shared by ship_vib and fleet_scan:
///  - every scheduled machinery fault is on its plant's prioritized list;
///  - an unfaulted plant has no maintenance item;
///  - no sensor-fault report names an object none of whose channels had an
///    injected sensor fault.
/// Returns the number of false quarantines (the last kind's failures).
std::uint64_t check_ship(ShipSystem& ship,
                         const std::vector<PlantTruth>& truth,
                         const std::string& hull, Checks& checks) {
  const std::vector<mpros::pdme::MaintenanceItem> items =
      ship.pdme().prioritized_list();
  const auto faults = ship.pdme().sensor_faults(/*active_only=*/false);
  std::uint64_t false_quarantines = 0;
  for (std::size_t p = 0; p < truth.size(); ++p) {
    const mpros::oosm::ChillerPlant& objs = ship.plant_objects(p);
    const std::set<std::uint64_t> machines{
        objs.chiller.value(), objs.motor.value(), objs.gearbox.value(),
        objs.compressor.value()};
    std::set<FailureMode> listed;
    for (const auto& item : items) {
      if (machines.contains(item.machine.value())) listed.insert(item.mode);
    }
    const std::string where = hull + " plant " + std::to_string(p + 1);
    for (const plant::FaultEvent& f : truth[p].faults) {
      checks.check(listed.contains(f.mode), Checks::Kind::Diagnostic, "fault_detected",
                   where + " " + domain::to_string(f.mode) +
                       " not on the prioritized list");
    }
    if (truth[p].faults.empty()) {
      std::string names;
      for (const FailureMode m : listed) {
        names += std::string(" ") + domain::to_string(m);
      }
      checks.check(listed.empty(), Checks::Kind::Diagnostic, "no_item_on_unfaulted_plant",
                   where + " lists" + names);
    }
    std::set<std::uint64_t> injected;
    for (const plant::SensorFaultEvent& s : truth[p].sensor_faults) {
      injected.insert(object_for_channel(objs, s.channel).value());
    }
    for (const std::uint64_t object : machines) {
      if (injected.contains(object)) continue;
      std::string kinds;
      for (const auto& rec : faults) {
        if (rec.object.value() == object && rec.severity > 0.0) {
          kinds += " " + rec.explanation;
        }
      }
      const bool ok = kinds.empty();
      if (!ok) ++false_quarantines;
      checks.check(ok, Checks::Kind::Diagnostic, "no_false_sensor_fault",
                   where + " object " + std::to_string(object) + ":" + kinds);
    }
  }
  return false_quarantines;
}

/// The integrity checks shared by ship_vib and fleet_scan:
///  - every DC ran every vibration test and process scan its schedule held
///    through `horizon` (one per period, the first one period in);
///  - the PDME dropped no report as malformed or evicted from a full queue.
void check_duty(ShipSystem& ship, const mpros::dc::DcConfig& dc,
                SimTime horizon, const std::string& hull, Checks& checks) {
  const auto due = [&](SimTime period) {
    return static_cast<std::uint64_t>(horizon.micros() / period.micros());
  };
  for (std::size_t p = 0; p < ship.plant_count(); ++p) {
    const auto& st = ship.concentrator(p).stats();
    checks.check(st.vibration_tests == due(dc.vibration_period) &&
                     st.process_scans == due(dc.process_period),
                 Checks::Kind::Integrity, "dc_schedule_ran",
                 hull + " plant " + std::to_string(p + 1) + ": " +
                     std::to_string(st.vibration_tests) + " tests of " +
                     std::to_string(due(dc.vibration_period)) + ", " +
                     std::to_string(st.process_scans) + " scans of " +
                     std::to_string(due(dc.process_period)));
  }
  const auto s = ship.pdme().snapshot();
  checks.check(s.malformed_dropped == 0 && s.queue_full == 0,
               Checks::Kind::Integrity, "pdme_dropped_no_report",
               hull + ": " + std::to_string(s.malformed_dropped) +
                   " malformed, " + std::to_string(s.queue_full) +
                   " evicted");
}

double db_rows(ShipSystem& ship) {
  double rows = 0.0;
  for (std::size_t p = 0; p < ship.plant_count(); ++p) {
    mpros::db::Database& db = ship.concentrator(p).database();
    for (const std::string& name : db.table_names()) {
      rows += static_cast<double>(db.table(name).row_count());
    }
  }
  return rows / static_cast<double>(ship.plant_count());
}

/// Reports emitted vs retransmitted on the DCs' reliable streams.
std::pair<double, double> dc_stream_totals(ShipSystem& ship) {
  double enveloped = 0.0;
  double retransmits = 0.0;
  for (std::size_t p = 0; p < ship.plant_count(); ++p) {
    const auto s = ship.concentrator(p).reliable().snapshot();
    enveloped += static_cast<double>(s.enveloped);
    retransmits += static_cast<double>(s.retransmits);
  }
  return {enveloped, retransmits};
}

}  // namespace

// ---------------------------------------------------------------- ship_vib

mpros::dc::DcConfig ship_vib_dc_config() {
  mpros::dc::DcConfig dc;
  dc.vibration_period = kStep;  // one vibration test per DC per step
  dc.process_period = kStep;
  return dc;
}

ShipVibParams ship_vib_params(const Host& host) {
  ShipVibParams p;
  // More DCs than workers so the pool's static chunks matter; capped so
  // the workload is the same size on any host with 4 or more CPUs.
  p.workers = std::clamp<std::size_t>(host.nproc > 1 ? host.nproc - 1 : 1, 1, 3);
  p.plants = 2 * p.workers;
  return p;
}

Totals ship_vib_episode(std::uint64_t seed, std::size_t episode,
                        const ShipVibParams& p, Checks& checks, Trace* trace) {
  Rng rng(episode_seed(seed, episode));
  // Ground truth: half the plants carry one machinery fault each, and the
  // five logical groups are spread over them (the first faulted plants get
  // a second group when there are fewer than five), seeded-fault style:
  // full severity at onset, within the first ten minutes. The mode within
  // each group steps through the group episode by episode, so every run
  // exercises every failure mode whatever its seed.
  const std::size_t cycle = static_cast<std::size_t>(mpros::splitmix64(seed) % 6) + episode;
  std::vector<std::size_t> order(p.plants);
  for (std::size_t i = 0; i < p.plants; ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng.engine());
  const std::size_t faulted = std::max<std::size_t>(1, p.plants / 2);
  std::vector<std::size_t> groups(domain::kLogicalGroupCount);
  for (std::size_t g = 0; g < groups.size(); ++g) groups[g] = g;
  std::shuffle(groups.begin(), groups.end(), rng.engine());
  std::vector<PlantTruth> truth(p.plants);
  for (std::size_t k = 0; k < std::max(faulted, groups.size()); ++k) {
    const auto group = static_cast<domain::LogicalGroup>(groups[k % groups.size()]);
    const auto modes = domain::modes_in_group(group);
    plant::FaultEvent f;
    f.mode = modes[cycle % modes.size()];
    f.onset = SimTime::from_seconds(rng.uniform(0.0, 600.0));
    f.max_severity = rng.uniform(0.6, 0.9);
    f.profile = plant::GrowthProfile::Step;
    truth[order[k % faulted]].faults.push_back(f);
  }

  mpros::ShipSystemConfig cfg;
  cfg.plant_count = p.plants;
  cfg.worker_threads = p.workers;
  cfg.use_wnn = true;
  cfg.dc_template = ship_vib_dc_config();
  cfg.seed = rng.integer(1, ~0ULL);
  cfg.network.seed = rng.integer(1, ~0ULL);

  Totals out;
  const auto t_setup = Clock::now();
  ShipSystem ship(cfg);
  out.setup_s.push_back(seconds_since(t_setup));
  for (std::size_t i = 0; i < p.plants; ++i) apply(ship, i, truth[i]);

  std::unique_ptr<Tap> tap;
  std::unique_ptr<TwinPdme> twin;
  Tracer& tr = trace != nullptr ? trace->tracer : trace_off();
  if (trace != nullptr) {
    tap = std::make_unique<Tap>(ship.network(), "pdme");
    mpros::pdme::PdmeConfig pcfg = cfg.pdme;
    pcfg.heartbeat_interval = cfg.dc_template.heartbeat_period;
    twin = std::make_unique<TwinPdme>((p.plants + 1) / 2, p.plants, pcfg);
  }

  for (std::size_t k = 1; k <= p.steps; ++k) {
    const SimTime t(kStep.micros() * static_cast<std::int64_t>(k));
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    tr.set_step(static_cast<std::uint32_t>(k));
    {
      Tracer::Scope s(tr, "mpros.advance");
      ship.advance_to(t);
    }
    const double wall = seconds_since(t0);
    out.step_cpu_s += cpu_seconds() - c0;
    out.step_ms.push_back(wall * 1e3);
    out.step_wall_s += wall;
    if (twin) twin->consume(tap->take(), t, tr, /*barrier=*/true);
  }
  out.rss_mb.push_back(rss_mb());
  out.sim_hours = static_cast<double>(p.steps) * kStep.hours();
  out.reports_fused =
      static_cast<double>(ship.pdme().snapshot().reports_accepted);
  out.episodes = 1;

  check_duty(ship, cfg.dc_template,
             SimTime(kStep.micros() * static_cast<std::int64_t>(p.steps)), "ship",
             checks);
  const std::uint64_t false_q = check_ship(ship, truth, "ship", checks);
  if (trace != nullptr) {
    const auto real = ship.pdme().snapshot();
    const auto twin_stats = twin->pdme().snapshot();
    checks.check(twin_stats.reports_accepted == real.reports_accepted &&
                     twin_stats.duplicates_dropped == real.duplicates_dropped,
                 Checks::Kind::Integrity, "trace_twin_pdme_matches",
                 "twin PDME accepted " +
                     std::to_string(twin_stats.reports_accepted) + " vs " +
                     std::to_string(real.reports_accepted));
    LayerValues& v = trace->values;
    v["mpros.barrier_idle_share"] =
        1.0 - out.step_cpu_s / (static_cast<double>(p.workers) * out.step_wall_s);
    v["pdme.accept_ratio"] =
        static_cast<double>(real.reports_accepted) /
        std::max(1.0, static_cast<double>(real.reports_accepted +
                                          real.duplicates_dropped));
    v["oosm.objects"] = static_cast<double>(ship.model().object_count());
    const auto net = ship.network().stats();
    v["net.delivered_ratio"] = static_cast<double>(net.delivered) /
                               std::max(1.0, static_cast<double>(net.sent));
    const auto [enveloped, retransmits] = dc_stream_totals(ship);
    v["net.retransmits_per_report"] = retransmits / std::max(1.0, enveloped);
    v["dc.db_rows"] = db_rows(ship);
    v["dc.false_quarantines"] = static_cast<double>(false_q);
  }
  return out;
}

// -------------------------------------------------------------- fleet_scan

mpros::dc::DcConfig fleet_scan_dc_config(const FleetParams& p) {
  mpros::dc::DcConfig dc;
  dc.vibration_period = p.vibration_period;  // occasional survey
  dc.process_period = kStep;                 // process scan every minute
  return dc;
}

FleetParams fleet_scan_params(const Host& host) {
  FleetParams p;
  // Hulls advance serially on the driver thread, each with a 1-worker
  // pool: at most nproc - 1 of them keeps one CPU for the driver.
  p.hulls = std::clamp<std::size_t>(host.nproc > 1 ? host.nproc - 1 : 1, 1, 3);
  p.dir = host.work_dir + "/fleet";
  return p;
}

Totals fleet_scan_episode(std::uint64_t seed, std::size_t episode,
                          const FleetParams& p, Checks& checks, Trace* trace) {
  Rng rng(episode_seed(seed, episode));
  const SimTime horizon(p.step.micros() * static_cast<std::int64_t>(p.steps));
  const FailureMode process_modes[] = {
      FailureMode::RefrigerantLeak, FailureMode::CondenserFouling,
      FailureMode::PumpCavitation, FailureMode::OilDegradation};
  const char* sensor_channels[] = {
      mpros::rules::feat::kOilTemp, mpros::rules::feat::kBearingTemp,
      mpros::rules::feat::kCondPressure, mpros::rules::feat::kEvapPressure,
      mpros::rules::feat::kWindingTemp};

  // Ground truth per hull: two plants with a process-group fault ramping in
  // over the first half of the episode, one other plant with an
  // instrument fault (stuck-at or out-of-range) on one process channel.
  // Modes, channels and fault types step through their lists across hulls
  // and episodes, so every run exercises all of them whatever its seed.
  std::size_t cycle = static_cast<std::size_t>(mpros::splitmix64(seed) % 20) +
                      episode * 3 * p.hulls;
  std::vector<std::vector<PlantTruth>> truth(p.hulls);
  for (auto& hull : truth) {
    hull.resize(p.plants);
    std::vector<std::size_t> order(p.plants);
    for (std::size_t i = 0; i < p.plants; ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng.engine());
    const std::size_t faulted = std::min<std::size_t>(2, p.plants);
    for (std::size_t k = 0; k < faulted; ++k) {
      plant::FaultEvent f;
      f.mode = process_modes[cycle++ % 4];
      f.onset = SimTime::from_seconds(horizon.seconds() * rng.uniform(0.05, 0.25));
      f.ramp = SimTime::from_seconds(horizon.seconds() * 0.25);
      f.max_severity = rng.uniform(0.7, 0.95);
      f.profile = plant::GrowthProfile::Linear;
      hull[order[k]].faults.push_back(f);
    }
    if (p.plants > faulted) {
      plant::SensorFaultEvent s;
      s.channel = sensor_channels[cycle % 5];
      const bool stuck = (cycle++ / 5) % 2 == 0;
      s.type = stuck ? plant::SensorFaultType::StuckAt
                     : plant::SensorFaultType::OutOfRange;
      s.level = stuck ? 42.0 : 5000.0;
      s.from = SimTime::from_seconds(horizon.seconds() * rng.uniform(0.1, 0.4));
      s.to = SimTime::from_seconds(s.from.seconds() + horizon.seconds() * 0.2);
      hull[order[faulted]].sensor_faults.push_back(s);
    }
  }

  mpros::fleet::FleetServerConfig server_cfg;
  mpros::net::NetworkConfig shore_cfg;
  shore_cfg.base_latency = SimTime::from_millis(250.0);
  shore_cfg.jitter = SimTime::from_seconds(2.0);
  shore_cfg.drop_probability = 0.05;
  shore_cfg.duplicate_probability = 0.02;
  shore_cfg.seed = rng.integer(1, ~0ULL);

  std::vector<mpros::ShipSystemConfig> hull_cfgs(p.hulls);
  std::vector<std::string> names(p.hulls);
  for (std::size_t k = 0; k < p.hulls; ++k) {
    mpros::ShipSystemConfig& cfg = hull_cfgs[k];
    cfg.plant_count = p.plants;
    cfg.worker_threads = 1;
    cfg.dc_template = fleet_scan_dc_config(p);
    cfg.seed = rng.integer(1, ~0ULL);
    cfg.network.drop_probability = 0.05;
    cfg.network.duplicate_probability = 0.03;
    cfg.network.jitter = SimTime::from_millis(500.0);
    cfg.network.seed = rng.integer(1, ~0ULL);
    // One durability directory per hull (FleetSim would hand every hull
    // the same one).
    cfg.enable_durability = true;
    cfg.durability.directory = p.dir + "/hull-" + std::to_string(k + 1);
    // Group commit writes every barrier's WAL frame; the device flush is
    // left out because fsync latency on a shared VM swings 2x over minutes.
    // The traced run's replay database flushes, so db.commit_ms and
    // db.fsyncs still see the device.
    cfg.durability.fsync = false;
    cfg.uplink.enabled = true;
    cfg.uplink.ship = mpros::ShipId(k + 1);
    names[k] = "Hull-" + std::to_string(k + 1);
    cfg.uplink.name = names[k];
    cfg.uplink.summary_period = server_cfg.summary_interval;
  }
  std::filesystem::remove_all(p.dir);

  Totals out;
  const auto t_setup = Clock::now();
  mpros::net::SimNetwork shore(shore_cfg);
  mpros::fleet::FleetServer server(server_cfg);
  server.attach_to_network(shore, "fleet");
  std::vector<std::unique_ptr<ShipSystem>> hulls;
  for (std::size_t k = 0; k < p.hulls; ++k) {
    hulls.push_back(std::make_unique<ShipSystem>(hull_cfgs[k]));
    ShipSystem* hull = hulls.back().get();
    shore.register_endpoint(hull->uplink_endpoint(),
                            [hull](const mpros::net::Message& msg) {
                              hull->handle_uplink_wire(msg);
                            });
    server.expect_ship(mpros::ShipId(k + 1), names[k], SimTime(0));
  }
  out.setup_s.push_back(seconds_since(t_setup));
  for (std::size_t k = 0; k < p.hulls; ++k) {
    for (std::size_t i = 0; i < p.plants; ++i) apply(*hulls[k], i, truth[k][i]);
  }

  // Traced run: twin PDME on hull 1's shipboard network, twin FleetServer
  // on the shore link, and a replay database that commits each barrier's
  // record count through DurableDatabase::commit (the hulls commit inside
  // ShipSystem::advance_to).
  Tracer& tr = trace != nullptr ? trace->tracer : trace_off();
  std::unique_ptr<Tap> pdme_tap;
  std::unique_ptr<Tap> shore_tap;
  std::unique_ptr<TwinPdme> twin_pdme;
  std::unique_ptr<TwinFleet> twin_fleet;
  std::unique_ptr<mpros::db::DurableDatabase> replay_db;
  std::vector<double> wal_bytes(p.hulls, 0.0);
  std::vector<std::uintmax_t> wal_size(p.hulls, 0);
  if (trace != nullptr) {
    pdme_tap = std::make_unique<Tap>(hulls[0]->network(), "pdme");
    shore_tap = std::make_unique<Tap>(shore, "fleet");
    mpros::pdme::PdmeConfig pcfg = hull_cfgs[0].pdme;
    pcfg.heartbeat_interval = hull_cfgs[0].dc_template.heartbeat_period;
    twin_pdme = std::make_unique<TwinPdme>((p.plants + 1) / 2, p.plants, pcfg);
    twin_fleet = std::make_unique<TwinFleet>(server_cfg);
    for (std::size_t k = 0; k < p.hulls; ++k) {
      twin_fleet->expect_ship(mpros::ShipId(k + 1), names[k]);
    }
    mpros::db::DurabilityConfig dcfg = hull_cfgs[0].durability;
    dcfg.directory = p.dir + "/replay";
    dcfg.fsync = true;
    replay_db = std::make_unique<mpros::db::DurableDatabase>(dcfg);
    replay_db->db().create_table(mpros::db::TableSchema{
        "replay",
        {mpros::db::ColumnDef{"id", mpros::db::ValueType::Integer, false},
         mpros::db::ColumnDef{"value", mpros::db::ValueType::Real, false}}});
    (void)replay_db->commit();
  }

  // Hull-side top item at each barrier, to compare with the shore.
  using Top = std::optional<mpros::pdme::MaintenanceItem>;
  std::vector<std::map<std::int64_t, Top>> tops(p.hulls);
  double advance_cpu = 0.0;
  double advance_wall = 0.0;
  std::uint64_t replay_records = 0;
  for (std::size_t k = 1; k <= p.steps; ++k) {
    const SimTime t(p.step.micros() * static_cast<std::int64_t>(k));
    tr.set_step(static_cast<std::uint32_t>(k));
    const double step_c0 = cpu_seconds();
    const auto t0 = Clock::now();
    // Hulls advance one after another on this thread, as FleetSim's do.
    for (auto& hull : hulls) {
      const double c0 = cpu_seconds();
      const auto a0 = Clock::now();
      {
        Tracer::Scope s(tr, "mpros.advance");
        hull->advance_to(t);
      }
      advance_wall += seconds_since(a0);
      advance_cpu += cpu_seconds() - c0;
    }
    for (auto& hull : hulls) {
      for (ShipSystem::UplinkDatagram& d : hull->drain_uplink()) {
        shore.send(hull->uplink_endpoint(), "fleet", std::move(d.payload), d.at);
      }
    }
    {
      Tracer::Scope s(tr, "net.advance");
      shore.advance_to(t);
    }
    {
      Tracer::Scope s(tr, "fleet.publish");
      server.publish(t);
    }
    const double wall = seconds_since(t0);
    out.step_cpu_s += cpu_seconds() - step_c0;
    out.step_ms.push_back(wall * 1e3);
    out.step_wall_s += wall;

    // A summary sealed at this barrier carries the barrier's time.
    for (std::size_t h = 0; h < p.hulls; ++h) {
      const auto list = hulls[h]->pdme().prioritized_list();
      tops[h][t.micros()] = list.empty() ? Top{} : Top{list.front()};
    }
    if (trace != nullptr) {
      twin_pdme->consume(pdme_tap->take(), t, tr, /*barrier=*/true);
      twin_fleet->consume(shore_tap->take(), tr);
      // Replay hull 1's barrier commit: the same number of records, one
      // group commit.
      const std::uint64_t records = hulls[0]->durable()->wal_stats().records;
      mpros::db::Database& db = replay_db->db();
      for (; replay_records < records; ++replay_records) {
        db.insert("replay", {mpros::db::Value(static_cast<std::int64_t>(
                                 replay_records + 1)),
                             mpros::db::Value(static_cast<double>(k))});
      }
      tr.set_replica(true);
      {
        Tracer::Scope s(tr, "db.commit");
        (void)replay_db->commit();
      }
      tr.set_replica(false);
      for (std::size_t h = 0; h < p.hulls; ++h) {
        std::error_code ec;
        const auto size = std::filesystem::file_size(
            mpros::db::DurableDatabase::wal_path(hull_cfgs[h].durability.directory),
            ec);
        if (ec) continue;
        // A checkpoint compacts the log: count only what was appended.
        wal_bytes[h] += static_cast<double>(
            size >= wal_size[h] ? size - wal_size[h] : size);
        wal_size[h] = size;
      }
    }
  }
  out.rss_mb.push_back(rss_mb());
  out.sim_hours = horizon.hours();
  for (auto& hull : hulls) {
    out.reports_fused +=
        static_cast<double>(hull->pdme().snapshot().reports_accepted);
  }
  out.episodes = 1;

  // Ground truth per hull, then the fleet-tier checks.
  std::uint64_t false_q = 0;
  for (std::size_t k = 0; k < p.hulls; ++k) {
    check_duty(*hulls[k], hull_cfgs[k].dc_template, horizon, names[k], checks);
    false_q += check_ship(*hulls[k], truth[k], names[k], checks);
  }
  const auto snap = server.snapshot();
  for (std::size_t k = 0; k < p.hulls; ++k) {
    const mpros::fleet::ShipStatus* status = nullptr;
    for (const auto& s : snap->ships) {
      if (s.ship.value() == k + 1) status = &s;
    }
    checks.check(status != nullptr &&
                     status->liveness == mpros::fleet::ShipLiveness::Alive,
                 Checks::Kind::Integrity, "hull_alive",
                 names[k] + " is " +
                     (status == nullptr ? std::string("unknown")
                                        : mpros::fleet::to_string(status->liveness)));
    // The shore's top item for this hull must be the hull PDME's top item
    // at the summary the shore last applied (or tie with it on priority).
    const mpros::fleet::FleetMaintenanceItem* shore_top = nullptr;
    for (const auto& item : snap->items) {
      if (item.ship.value() == k + 1 && item.has_diagnosis) {
        shore_top = &item;
        break;
      }
    }
    bool agree = false;
    std::string what = names[k] + ": no applied summary";
    if (status != nullptr && status->has_summary) {
      const auto it = tops[k].find(status->last_summary_time.micros());
      if (it != tops[k].end()) {
        const Top& hull_top = it->second;
        if (!hull_top.has_value() || shore_top == nullptr) {
          agree = !hull_top.has_value() && shore_top == nullptr;
        } else {
          agree = (shore_top->machine == hull_top->machine &&
                   shore_top->mode == hull_top->mode) ||
                  shore_top->priority == hull_top->priority;
        }
        what = names[k] + ": shore top " +
               (shore_top ? domain::to_string(shore_top->mode) : "none") +
               " vs hull top " +
               (hull_top ? domain::to_string(hull_top->mode) : "none");
      }
    }
    checks.check(agree, Checks::Kind::Integrity, "shore_top_matches_hull", what);
  }

  if (trace != nullptr) {
    tr.set_replica(true);
    {
      Tracer::Scope s(tr, "db.checkpoint");
      (void)replay_db->checkpoint();
    }
    tr.set_replica(false);
    const auto real = hulls[0]->pdme().snapshot();
    const auto twin_stats = twin_pdme->pdme().snapshot();
    checks.check(twin_stats.reports_accepted == real.reports_accepted &&
                     twin_stats.duplicates_dropped == real.duplicates_dropped,
                 Checks::Kind::Integrity, "trace_twin_pdme_matches",
                 "twin PDME accepted " +
                     std::to_string(twin_stats.reports_accepted) + " vs " +
                     std::to_string(real.reports_accepted));
    const auto twin_fleet_stats = twin_fleet->server().stats_snapshot();
    const auto fleet_stats = server.stats_snapshot();
    checks.check(twin_fleet_stats.summaries_applied == fleet_stats.summaries_applied,
                 Checks::Kind::Integrity, "trace_twin_fleet_matches",
                 "twin fleet applied " +
                     std::to_string(twin_fleet_stats.summaries_applied) +
                     " vs " + std::to_string(fleet_stats.summaries_applied));

    LayerValues& v = trace->values;
    v["mpros.barrier_idle_share"] = 1.0 - advance_cpu / advance_wall;
    double accepted = 0.0;
    double offered = 0.0;
    double sent = 0.0;
    double delivered = 0.0;
    double enveloped = 0.0;
    double retransmits = 0.0;
    double commits = 0.0;
    double records = 0.0;
    double rows = 0.0;
    for (auto& hull : hulls) {
      const auto s = hull->pdme().snapshot();
      accepted += static_cast<double>(s.reports_accepted);
      offered += static_cast<double>(s.reports_accepted + s.duplicates_dropped);
      const auto n = hull->network().stats();
      sent += static_cast<double>(n.sent);
      delivered += static_cast<double>(n.delivered);
      const auto [e, r] = dc_stream_totals(*hull);
      enveloped += e;
      retransmits += r;
      const auto& w = hull->durable()->wal_stats();
      commits += static_cast<double>(w.commits);
      records += static_cast<double>(w.records);
      rows += db_rows(*hull);
    }
    double bytes = 0.0;
    for (const double b : wal_bytes) bytes += b;
    v["pdme.accept_ratio"] = accepted / std::max(1.0, offered);
    v["oosm.objects"] = static_cast<double>(hulls[0]->model().object_count());
    v["net.delivered_ratio"] = delivered / std::max(1.0, sent);
    v["net.retransmits_per_report"] = retransmits / std::max(1.0, enveloped);
    v["db.records_per_commit"] = records / std::max(1.0, commits);
    const auto& replay_wal = replay_db->wal_stats();
    v["db.fsyncs"] = static_cast<double>(replay_wal.fsyncs) /
                     std::max(1.0, static_cast<double>(replay_wal.commits));
    v["db.wal_bytes_per_sim_hour"] =
        bytes / (static_cast<double>(p.hulls) * horizon.hours());
    v["dc.db_rows"] = rows / static_cast<double>(p.hulls);
    v["dc.false_quarantines"] = static_cast<double>(false_q);
  }
  hulls.clear();
  replay_db.reset();
  std::filesystem::remove_all(p.dir);
  return out;
}

}  // namespace perfbench
