// pdme_ingest: the PDME alone, fed a seeded DC-shaped report stream over a
// hostile SimNetwork through per-DC ReliableSenders.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mpros/common/rng.hpp"
#include "mpros/net/reliable.hpp"
#include "mpros/oosm/ship_builder.hpp"
#include "mpros/pdme/pdme.hpp"
#include "twin.hpp"
#include "workloads.hpp"

namespace perfbench {

using mpros::DcId;
using mpros::SimTime;
using mpros::domain::FailureMode;
namespace net = mpros::net;

namespace {

const SimTime kWindow = SimTime::from_seconds(60.0);
/// Retransmit/ack rounds allowed after the last window for the stream to
/// drain before exactly-once delivery is judged.
constexpr std::size_t kDrainWindows = 120;

/// The machine a DC's report for `mode` names (the DC's sensed-object map).
mpros::ObjectId sensed(const mpros::oosm::ChillerPlant& objs, FailureMode m) {
  switch (m) {
    case FailureMode::MotorImbalance:
    case FailureMode::ShaftMisalignment:
    case FailureMode::RotorBarDefect:
    case FailureMode::StatorWindingFault:
    case FailureMode::MotorBearingWear:
      return objs.motor;
    case FailureMode::GearMeshWear:
      return objs.gearbox;
    case FailureMode::CompressorBearingWear:
    case FailureMode::BearingHousingLooseness:
    case FailureMode::PumpCavitation:
      return objs.compressor;
    default:
      return objs.chiller;
  }
}

/// One DC's behaviour over the episode: which modes it reports and how
/// their severity ramps.
struct DcProfile {
  struct Mode {
    FailureMode mode{};
    std::uint64_t ks = 1;
    double s0 = 0.0;
    double per_hour = 0.0;
    double belief = 0.7;
  };
  std::vector<Mode> modes;
  double activity = 0.25;  ///< chance the DC flushes a batch in a window
};

struct Stream {
  /// windows[w] = (dc index, reports) batches in generation order.
  std::vector<std::vector<std::pair<std::size_t, std::vector<net::FailureReport>>>>
      windows;
  std::size_t reports = 0;
};

Stream generate(mpros::Rng& rng, const IngestParams& p,
                const mpros::oosm::ShipModel& ship) {
  const auto modes = mpros::domain::all_failure_modes();
  const double horizons_days[] = {1, 7, 30, 90, 180, 365};
  std::vector<DcProfile> profiles(p.dcs);
  for (DcProfile& prof : profiles) {
    const std::size_t n = rng.integer(1, 2);
    for (std::size_t i = 0; i < n; ++i) {
      DcProfile::Mode m;
      m.mode = modes[rng.integer(0, modes.size() - 1)];
      m.ks = rng.integer(1, 4);
      m.s0 = rng.uniform(0.05, 0.4);
      m.per_hour = rng.uniform(0.005, 0.15);
      m.belief = rng.uniform(0.5, 0.9);
      prof.modes.push_back(m);
    }
    prof.activity = rng.uniform(0.05, 0.2);
  }

  Stream s;
  s.windows.resize(p.windows);
  for (std::size_t w = 0; w < p.windows; ++w) {
    const SimTime t0(kWindow.micros() * static_cast<std::int64_t>(w + 1));
    for (std::size_t d = 0; d < p.dcs; ++d) {
      const DcProfile& prof = profiles[d];
      if (!rng.bernoulli(prof.activity)) continue;
      const std::size_t k = rng.integer(1, 8);
      std::vector<net::FailureReport> batch;
      for (std::size_t i = 0; i < k; ++i) {
        const DcProfile::Mode& m = prof.modes[rng.integer(0, prof.modes.size() - 1)];
        net::FailureReport r;
        r.dc = DcId(d + 1);
        r.knowledge_source = mpros::KnowledgeSourceId(m.ks);
        r.sensed_object = sensed(ship.plants[d], m.mode);
        r.machine_condition = mpros::domain::condition_id(m.mode);
        const double hours = t0.hours();
        r.severity = std::clamp(m.s0 + m.per_hour * hours + rng.normal(0.0, 0.02),
                                0.0, 1.0);
        r.belief = m.belief;
        r.explanation = std::string(mpros::domain::to_string(m.mode)) +
                        " indicated; severity trend rising";
        r.recommendations = "Schedule inspection at next availability.";
        // Unique per (dc, report): exactly-once is judged on this stamp.
        r.timestamp = SimTime(t0.micros() + static_cast<std::int64_t>(i));
        for (const double days : horizons_days) {
          const double rate = 0.02 + 0.5 * r.severity * r.severity;
          r.prognostics.push_back(
              {1.0 - std::exp(-rate * days / 30.0), days * 86400.0});
        }
        batch.push_back(std::move(r));
      }
      s.reports += batch.size();
      s.windows[w].emplace_back(d, std::move(batch));
    }
  }
  return s;
}

bool same_items(const std::vector<mpros::pdme::MaintenanceItem>& a,
                const std::vector<mpros::pdme::MaintenanceItem>& b,
                std::string& why) {
  // Order-insensitive on exact priority ties; beliefs may differ in the
  // last bits because Dempster-Shafer folds in arrival order.
  const auto key = [](const mpros::pdme::MaintenanceItem& i) {
    return std::pair{i.machine.value(), static_cast<int>(i.mode)};
  };
  if (a.size() != b.size()) {
    why = std::to_string(a.size()) + " items vs " + std::to_string(b.size());
    return false;
  }
  std::map<std::pair<std::uint64_t, int>, const mpros::pdme::MaintenanceItem*> ref;
  for (const auto& i : b) ref[key(i)] = &i;
  for (const auto& i : a) {
    const auto it = ref.find(key(i));
    if (it == ref.end()) {
      why = "item for machine " + std::to_string(i.machine.value()) +
            " missing from the reference";
      return false;
    }
    const auto& r = *it->second;
    const auto close = [](double x, double y) {
      return std::fabs(x - y) <= 1e-9 * std::max(1.0, std::fabs(y));
    };
    if (i.report_count != r.report_count || !close(i.fused_belief, r.fused_belief) ||
        !close(i.max_severity, r.max_severity) || !close(i.priority, r.priority)) {
      why = "machine " + std::to_string(i.machine.value()) + " " +
            mpros::domain::to_string(i.mode) + ": belief " +
            std::to_string(i.fused_belief) + " vs " +
            std::to_string(r.fused_belief) + ", reports " +
            std::to_string(i.report_count) + " vs " +
            std::to_string(r.report_count);
      return false;
    }
  }
  return true;
}

/// One PDME program: the object model, the executive attached to its
/// network, and one ReliableSender per DC whose acks come back over it.
struct Pipeline {
  Pipeline(std::size_t dcs, const net::NetworkConfig& ncfg,
           const mpros::pdme::PdmeConfig& pcfg)
      : ship(mpros::oosm::build_ship(model, "USNS Mercy", (dcs + 1) / 2, 2)),
        pdme(model, pcfg),
        network(ncfg) {
    pdme.attach_to_network(network);
    for (std::size_t d = 0; d < dcs; ++d) {
      names.push_back("dc-" + std::to_string(d + 1));
      senders.push_back(std::make_unique<net::ReliableSender>(DcId(d + 1)));
      net::ReliableSender* sender = senders.back().get();
      network.register_endpoint(names.back(), [sender](const net::Message& msg) {
        const auto ack = net::try_unwrap_ack(msg.payload);
        if (ack.has_value()) sender->on_ack(*ack);
      });
      pdme.expect_dc(DcId(d + 1), SimTime(0));
    }
  }
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// One sync window: every active DC seals its window into one ReportBatch
  /// envelope, every DC beats, due retransmissions go out; the network
  /// delivers through the end of the window; the PDME barrier runs.
  void window(const Stream& stream, std::size_t w, SimTime t, Tracer& tr) {
    if (w < stream.windows.size()) {
      for (const auto& [d, batch] : stream.windows[w]) {
        std::vector<std::uint8_t> payload;
        {
          Tracer::Scope s(tr, "net.encode");
          payload = senders[d]->envelope(
              std::span<const net::FailureReport>(batch.data(), batch.size()), t);
        }
        tr.count("net.reports_encoded", static_cast<double>(batch.size()));
        network.send(names[d], "pdme", std::move(payload), t);
      }
    }
    for (std::size_t d = 0; d < senders.size(); ++d) {
      for (auto& payload : senders[d]->due_retransmits(t)) {
        network.send(names[d], "pdme", std::move(payload), t);
      }
      const net::HeartbeatMessage hb{DcId(d + 1), t, senders[d]->last_sequence()};
      network.send(names[d], "pdme", net::wrap(hb), t);
    }
    const SimTime end = t + kWindow;
    {
      Tracer::Scope s(tr, "net.advance");
      network.advance_to(end);
    }
    {
      Tracer::Scope s(tr, "pdme.synchronize");
      pdme.synchronize();
    }
    Tracer::Scope s(tr, "pdme.liveness");
    pdme.update_liveness(end);
  }

  [[nodiscard]] bool idle() const {
    bool quiet = network.in_flight() == 0;
    for (const auto& s : senders) quiet = quiet && s->unacked() == 0;
    return quiet;
  }

  mpros::oosm::ObjectModel model;
  const mpros::oosm::ShipModel ship;
  mpros::pdme::PdmeExecutive pdme;
  net::SimNetwork network;
  std::vector<std::string> names;
  std::vector<std::unique_ptr<net::ReliableSender>> senders;
};

}  // namespace

Totals pdme_ingest_episode(std::uint64_t seed, std::size_t episode,
                           const IngestParams& p, Checks& checks, Trace* trace) {
  mpros::Rng rng(mpros::splitmix64(seed ^ mpros::splitmix64(episode + 1)));
  const std::size_t decks = (p.dcs + 1) / 2;
  // Input generation (not part of setup): the report stream and the
  // network's seed.
  Stream stream;
  {
    mpros::oosm::ObjectModel scratch;
    stream = generate(rng, p, mpros::oosm::build_ship(scratch, "USNS Mercy", decks, 2));
  }
  net::NetworkConfig ncfg;
  ncfg.base_latency = SimTime::from_millis(5.0);
  ncfg.jitter = SimTime::from_seconds(20.0);
  ncfg.drop_probability = 0.05;
  ncfg.duplicate_probability = 0.05;
  ncfg.seed = rng.integer(1, ~0ULL);
  const mpros::pdme::PdmeConfig pcfg;

  Totals out;
  const auto t_setup = Clock::now();
  Pipeline pipe(p.dcs, ncfg, pcfg);
  out.setup_s.push_back(seconds_since(t_setup));

  Tracer& tr = trace != nullptr ? trace->tracer : trace_off();
  std::unique_ptr<Tap> tap;
  std::unique_ptr<TwinPdme> twin;
  if (trace != nullptr) {
    tap = std::make_unique<Tap>(pipe.network, "pdme");
    twin = std::make_unique<TwinPdme>(decks, p.dcs, pcfg);
  }
  const auto step = [&](std::size_t w) {
    const SimTime t(kWindow.micros() * static_cast<std::int64_t>(w + 1));
    pipe.window(stream, w, t, tr);
    return t;
  };

  for (std::size_t w = 0; w < p.windows; ++w) {
    tr.set_step(static_cast<std::uint32_t>(w + 1));
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    const SimTime t = step(w);
    const double wall = seconds_since(t0);
    out.step_cpu_s += cpu_seconds() - c0;
    out.step_ms.push_back(wall * 1e3);
    out.step_wall_s += wall;
    if (twin) twin->consume(tap->take(), t + kWindow, tr, /*barrier=*/false);
  }
  out.rss_mb.push_back(rss_mb());
  out.sim_hours = static_cast<double>(p.windows) * kWindow.hours();
  out.reports_fused = static_cast<double>(pipe.pdme.snapshot().reports_accepted);
  out.episodes = 1;

  // Drain (untimed): keep beating and retransmitting until every stream is
  // acked, so exactly-once delivery can be judged on the whole stream.
  for (std::size_t w = p.windows; w < p.windows + kDrainWindows; ++w) {
    if (pipe.idle()) break;
    const SimTime t = step(w);
    if (twin) twin->consume(tap->take(), t + kWindow, tr, /*barrier=*/false);
  }

  // Exactly once: every generated report is in the PDME's history once.
  std::map<std::uint64_t, std::map<std::pair<std::uint64_t, std::int64_t>, int>> seen;
  for (const auto& plant : pipe.ship.plants) {
    for (const mpros::ObjectId m : {plant.chiller, plant.motor, plant.gearbox,
                                    plant.compressor}) {
      for (const auto& r : pipe.pdme.reports_for(m)) {
        ++seen[m.value()][{r.dc.value(), r.timestamp.micros()}];
      }
    }
  }
  std::size_t extra = 0;
  for (auto& [machine, counts] : seen) {
    for (auto& [k, n] : counts) extra += n > 1 ? static_cast<std::size_t>(n - 1) : 0;
  }
  for (const auto& window : stream.windows) {
    for (const auto& [d, batch] : window) {
      for (const auto& r : batch) {
        const auto it = seen.find(r.sensed_object.value());
        const int n = it == seen.end()
                          ? 0
                          : it->second[{r.dc.value(), r.timestamp.micros()}];
        checks.check(n == 1, Checks::Kind::Integrity, "report_accepted_exactly_once",
                     "DC " + std::to_string(d + 1) + " report at " +
                         std::to_string(r.timestamp.micros()) + " us seen " +
                         std::to_string(n) + " times");
      }
    }
  }
  const auto stats = pipe.pdme.snapshot();
  checks.check(stats.malformed_dropped == 0 && extra == 0,
               Checks::Kind::Integrity, "no_malformed_or_extra_reports",
               std::to_string(stats.malformed_dropped) + " malformed, " +
                   std::to_string(extra) + " extra");

  // The fused outcome must not depend on loss, duplication or order: an
  // in-order, loss-free ingest of the same stream is the reference.
  {
    mpros::oosm::ObjectModel ref_model;
    (void)mpros::oosm::build_ship(ref_model, "USNS Mercy", decks, 2);
    mpros::pdme::PdmeExecutive ref(ref_model, pcfg);
    std::vector<std::uint64_t> seq(p.dcs, 0);
    std::vector<net::ReportEnvelope> envs;
    for (const auto& window : stream.windows) {
      for (const auto& [d, batch] : window) {
        envs.clear();
        ++seq[d];
        for (const auto& r : batch) envs.push_back({DcId(d + 1), seq[d], r});
        (void)ref.submit(envs);
      }
    }
    std::string why;
    checks.check(same_items(pipe.pdme.prioritized_list(), ref.prioritized_list(), why),
                 Checks::Kind::Diagnostic, "list_matches_in_order_reference", why);
  }

  if (trace != nullptr) {
    const auto twin_stats = twin->pdme().snapshot();
    checks.check(twin_stats.reports_accepted == stats.reports_accepted &&
                     twin_stats.duplicates_dropped == stats.duplicates_dropped,
                 Checks::Kind::Integrity, "trace_twin_pdme_matches",
                 "twin PDME accepted " +
                     std::to_string(twin_stats.reports_accepted) + " vs " +
                     std::to_string(stats.reports_accepted));
    LayerValues& v = trace->values;
    v["pdme.accept_ratio"] =
        static_cast<double>(stats.reports_accepted) /
        std::max(1.0, static_cast<double>(stats.reports_accepted +
                                          stats.duplicates_dropped));
    v["oosm.objects"] = static_cast<double>(pipe.model.object_count());
    const auto ns = pipe.network.stats();
    v["net.delivered_ratio"] = static_cast<double>(ns.delivered) /
                               std::max(1.0, static_cast<double>(ns.sent));
    double retransmits = 0.0;
    for (const auto& s : pipe.senders) {
      retransmits += static_cast<double>(s->snapshot().retransmits);
    }
    v["net.retransmits_per_report"] =
        retransmits / std::max(1.0, static_cast<double>(stream.reports));
  }
  return out;
}

}  // namespace perfbench
