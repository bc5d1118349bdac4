// MPROS benchmark program.
//
//   mpros_perfbench --workload ship_vib|fleet_scan|pdme_ingest --seed N
//                   --seconds S --trace 0|1 [--work-dir DIR]
//
// Untraced (--trace 0): runs whole episodes of the workload until S seconds
// have passed and prints the end-to-end metrics. Traced (--trace 1): runs the
// workload untraced and traced for the overhead, plus the layer replays, and
// prints the per-layer metrics. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "mpros/common/log.hpp"
#include "mpros/common/rng.hpp"
#include "workloads.hpp"

#ifndef MPROS_PERFBENCH_BUILD_TYPE
#define MPROS_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/run";
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a.trace = val == "1";
    } else if (key == "--work-dir") {
      a.work_dir = val;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 &&
         (a.workload == "ship_vib" || a.workload == "fleet_scan" ||
          a.workload == "pdme_ingest") &&
         a.seconds > 0.0;
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return 1;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One workload: an episode runner plus the DC
/// template its layer replay uses.
struct Workload {
  std::function<Totals(std::uint64_t, std::size_t, Checks&, Trace*)> episode;
  mpros::dc::DcConfig dc;
  bool has_ships = false;
  bool has_fleet = false;
};

Workload make_workload(const std::string& name, const Host& host) {
  Workload w;
  if (name == "ship_vib") {
    const ShipVibParams p = ship_vib_params(host);
    w.episode = [p](std::uint64_t s, std::size_t e, Checks& c, Trace* t) {
      return ship_vib_episode(s, e, p, c, t);
    };
    w.dc = ship_vib_dc_config();
    w.has_ships = true;
  } else if (name == "fleet_scan") {
    const FleetParams p = fleet_scan_params(host);
    w.episode = [p](std::uint64_t s, std::size_t e, Checks& c, Trace* t) {
      return fleet_scan_episode(s, e, p, c, t);
    };
    w.dc = fleet_scan_dc_config(p);
    w.has_ships = true;
    w.has_fleet = true;
  } else {
    const IngestParams p{};
    w.episode = [p](std::uint64_t s, std::size_t e, Checks& c, Trace* t) {
      return pdme_ingest_episode(s, e, p, c, t);
    };
    w.dc = ship_vib_dc_config();
  }
  return w;
}

/// Whole untraced episodes until `seconds` of wall time have passed, and at
/// least three episodes (set-up is reported as their median) and 200 steps
/// (so a p95 has ten samples beyond it).
Totals run_for(const Workload& w, std::uint64_t seed, double seconds,
               Checks& checks) {
  Totals all;
  const auto t0 = Clock::now();
  for (std::size_t e = 0; all.episodes < 3 || all.step_ms.size() < 200 ||
                          seconds_since(t0) < seconds;
       ++e) {
    all.merge(w.episode(seed, e, checks, nullptr));
    // Hand the episode's freed heap back to the OS, so every episode starts
    // from the same resident baseline whichever allocator arenas its
    // threads drew.
    malloc_trim(0);
  }
  return all;
}

/// Share of the diagnostic checks that failed.
double fail_share(const Checks& checks) {
  const Checks::Count& d = checks.diagnostic();
  return d.attempted > 0 ? static_cast<double>(d.failed) /
                               static_cast<double>(d.attempted)
                         : 0.0;
}

std::vector<Metric> end_to_end(const Totals& t, const Checks& checks) {
  return {
      {"setup_s", median(t.setup_s), "s"},
      {"sim_hours_per_s", median(t.sim_hours_per_s), "sim-h/s"},
      {"step_ms_p50", quantile(t.step_ms, 0.50), "ms"},
      {"cpu_ms_per_step", median(t.cpu_ms_per_step), "ms"},
      {"peak_rss_mb", median(t.rss_mb), "MB"},
      {"diag_pass_share", 1.0 - fail_share(checks), "ratio"},
  };
}

/// Per-layer metrics: each value comes from the workload's own traced
/// episodes where the workload exercises that layer, otherwise from the
/// ledger (the DC replay, a small fleet, the parallel baseline).
std::vector<Metric> per_layer(const Trace& own, const Trace& ledger,
                              const LayerValues& extra) {
  const auto own_layers = own.tracer.layers();
  const auto ledger_layers = ledger.tracer.layers();
  struct Source {
    const Tracer::Layer* layer;
    const Tracer* tracer;
  };
  const auto find = [&](const std::string& span) -> Source {
    if (const auto it = own_layers.find(span); it != own_layers.end()) {
      return {&it->second, &own.tracer};
    }
    if (const auto it = ledger_layers.find(span); it != ledger_layers.end()) {
      return {&it->second, &ledger.tracer};
    }
    return {nullptr, nullptr};
  };
  // Self time per call, or per unit of a named work counter.
  const auto per = [&](const std::string& span, double scale,
                       const std::string& counter = "") {
    const Source s = find(span);
    if (s.layer == nullptr) return 0.0;
    const double n = counter.empty() ? static_cast<double>(s.layer->calls)
                                     : s.tracer->counter(counter);
    return n > 0.0 ? s.layer->self_s * scale / n : 0.0;
  };
  const auto value = [&](const std::string& name) {
    if (const auto it = extra.find(name); it != extra.end()) return it->second;
    if (const auto it = own.values.find(name); it != own.values.end()) {
      return it->second;
    }
    if (const auto it = ledger.values.find(name); it != ledger.values.end()) {
      return it->second;
    }
    return 0.0;
  };
  const auto ratio = [&](const std::string& a, const std::string& b) {
    const Source s = find("net.decode");
    if (s.tracer == nullptr) return 0.0;
    const double d = s.tracer->counter(b);
    return d > 0.0 ? s.tracer->counter(a) / d : 0.0;
  };
  return {
      {"plant.acquire_ms_per_test",
       per("plant.acquire", 1e3, "plant.vibration_tests"), "ms"},
      {"plant.snapshot_us_per_scan", per("plant.snapshot", 1e6), "us"},
      {"plant.world_share", value("plant.world_share"), "ratio"},
      {"dc.advance_ms", per("dc.advance", 1e3), "ms"},
      {"dc.validate_window_us", per("dc.validate_window", 1e6), "us"},
      {"dc.validate_scan_us", per("dc.validate_scan", 1e6), "us"},
      {"dc.db_insert_us_per_scan", per("dc.db_insert", 1e6), "us"},
      {"dc.db_rows", value("dc.db_rows"), "count"},
      {"dc.report_ratio", value("dc.report_ratio"), "ratio"},
      {"dc.false_quarantines", value("dc.false_quarantines"), "count"},
      {"dsp.extract_vibration_us", per("dsp.extract_vibration", 1e6), "us"},
      {"dsp.extract_current_us", per("dsp.extract_current", 1e6), "us"},
      {"rules.dli_evaluate_us", per("rules.dli_evaluate", 1e6), "us"},
      {"nn.wnn_diagnose_us", per("nn.wnn_diagnose", 1e6), "us"},
      {"fuzzy.evaluate_us", per("fuzzy.evaluate", 1e6), "us"},
      {"sbfr.step_us", per("sbfr.step", 1e6), "us"},
      {"net.encode_us_per_report",
       per("net.encode", 1e6, "net.reports_encoded"), "us"},
      {"net.decode_us_per_report",
       per("net.decode", 1e6, "net.reports_decoded"), "us"},
      {"net.bytes_per_report",
       ratio("net.report_bytes", "net.reports_decoded"), "bytes"},
      {"net.delivered_ratio", value("net.delivered_ratio"), "ratio"},
      {"net.retransmits_per_report", value("net.retransmits_per_report"),
       "ratio"},
      {"net.advance_us", per("net.advance", 1e6), "us"},
      {"pdme.submit_us_per_report",
       per("pdme.submit", 1e6, "pdme.reports_submitted"), "us"},
      {"pdme.accept_ratio", value("pdme.accept_ratio"), "ratio"},
      {"pdme.synchronize_us", per("pdme.synchronize", 1e6), "us"},
      {"pdme.liveness_us", per("pdme.liveness", 1e6), "us"},
      {"oosm.objects", value("oosm.objects"), "count"},
      {"db.commit_ms", per("db.commit", 1e3), "ms"},
      {"db.checkpoint_ms", per("db.checkpoint", 1e3), "ms"},
      {"db.records_per_commit", value("db.records_per_commit"), "count"},
      {"db.fsyncs", value("db.fsyncs"), "count/commit"},
      {"db.wal_bytes_per_sim_hour", value("db.wal_bytes_per_sim_hour"),
       "bytes/sim-h"},
      {"fleet.accept_us", per("fleet.accept", 1e6), "us"},
      {"fleet.publish_us", per("fleet.publish", 1e6), "us"},
      {"mpros.advance_ms", per("mpros.advance", 1e3), "ms"},
      {"mpros.barrier_idle_share", value("mpros.barrier_idle_share"), "ratio"},
      {"mpros.scaling_efficiency", value("mpros.scaling_efficiency"), "ratio"},
      {"bench.trace_overhead", value("bench.trace_overhead"), "ratio"},
  };
}

void print_layers(const char* title, const Tracer& tr) {
  std::printf("spans (%s): %zu\n", title, tr.span_count());
  for (const auto& [name, l] : tr.layers()) {
    std::printf("  %-26s calls %8" PRIu64 "  self %10.3f ms  total %10.3f ms\n",
                name.c_str(), l.calls, l.self_s * 1e3, l.total_s * 1e3);
  }
}

}  // namespace

int run(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: mpros_perfbench --workload ship_vib|fleet_scan|"
                 "pdme_ingest --seed N --seconds S --trace 0|1 "
                 "[--work-dir DIR]\n");
    return 2;
  }
  // Warnings the hostile-network workloads provoke by design (dead letters,
  // retransmit debt) would swamp the report.
  mpros::set_log_level(mpros::LogLevel::Error);

  Host host;
  host.nproc = online_cpus();
  host.hardware_concurrency = std::max(1u, std::thread::hardware_concurrency());
  host.work_dir = args.work_dir + "/" + args.workload + "-" +
                  std::to_string(::getpid());
  std::filesystem::create_directories(host.work_dir);

  const Workload w = make_workload(args.workload, host);
  Checks checks;
  std::vector<Metric> metrics;
  std::printf("workload %s  seed %" PRIu64 "  seconds %.1f  trace %d\n",
              args.workload.c_str(), args.seed, args.seconds, args.trace ? 1 : 0);
  std::printf("host nproc %zu  hardware_concurrency %zu  build %s\n", host.nproc,
              host.hardware_concurrency, MPROS_PERFBENCH_BUILD_TYPE);

  if (!args.trace) {
    const Totals t = run_for(w, args.seed, args.seconds, checks);
    metrics = end_to_end(t, checks);
    const std::size_t steps = t.step_ms.size();
    std::printf("episodes %zu  steps %zu  setups %zu\n", t.episodes, steps,
                t.setup_s.size());
    // Tails are printed, not gated: on a shared host they follow the host's
    // scheduling more than the program (see NOTES.md, Steadiness).
    std::printf("step_ms_p95 %.4f ms (%zu steps beyond it)  step_ms_p99 %.4f ms "
                "(%zu beyond it)\n",
                quantile(t.step_ms, 0.95),
                steps - static_cast<std::size_t>(0.95 * static_cast<double>(steps)),
                quantile(t.step_ms, 0.99),
                steps - static_cast<std::size_t>(0.99 * static_cast<double>(steps)));
    std::printf("episode sim_hours_per_s:");
    for (const double r : t.sim_hours_per_s) std::printf(" %.4g", r);
    std::printf("\nreports_per_s %.3f reports/s (%.0f reports fused over %.3f s "
                "of steps)\n",
                t.reports_fused / t.step_wall_s, t.reports_fused, t.step_wall_s);
  } else {
    // 1) untraced and 2) traced runs of the workload itself: each episode
    // runs untraced, then traced on the same inputs, alternating, so the
    // overhead is not confounded with warm-up or drift.
    Totals base;
    Totals traced;
    Trace own;
    own.tracer.set_enabled(true);
    const auto t_pairs = Clock::now();
    for (std::size_t e = 0; e == 0 || seconds_since(t_pairs) < args.seconds * 2.0 / 3.0;
         ++e) {
      base.merge(w.episode(args.seed, e, checks, nullptr));
      malloc_trim(0);
      traced.merge(w.episode(args.seed, e, checks, &own));
      malloc_trim(0);
    }
    const double base_step = base.step_wall_s / static_cast<double>(base.step_ms.size());
    const double traced_step =
        traced.step_wall_s / static_cast<double>(traced.step_ms.size());
    LayerValues extra;
    extra["bench.trace_overhead"] = traced_step / base_step - 1.0;

    // 3) the ledger: DC duty-cycle replay, a small durable fleet when the
    // workload has none, and ship_vib at one worker vs the full pool.
    Trace ledger;
    ledger.tracer.set_enabled(true);
    // The replayed DC carries all four analyzers, WNN included, as the
    // paper's DC does; it spans 30 vibration tests or two survey periods.
    const std::int64_t vib = w.dc.vibration_period.micros();
    const mpros::SimTime span(vib <= mpros::SimTime::from_seconds(600).micros()
                                  ? 30 * vib
                                  : std::min(2 * vib,
                                             mpros::SimTime::from_hours(8.0).micros()));
    dc_replay(args.seed ^ 0xD0C, w.dc, /*use_wnn=*/true, span, checks, ledger);
    if (!w.has_fleet) {
      FleetParams small = fleet_scan_params(host);
      small.hulls = 1;
      small.plants = 2;
      small.steps = 12;
      small.vibration_period = mpros::SimTime::from_hours(1.0);
      Checks ledger_checks;  // a two-hour hull is too short to judge
      (void)fleet_scan_episode(args.seed, 0, small, ledger_checks, &ledger);
    }
    ShipVibParams par = ship_vib_params(host);
    par.steps = 8;
    Checks baseline_checks;  // too short to judge; timing only
    par.workers = 1;
    const Totals one = ship_vib_episode(args.seed, 0, par, baseline_checks, nullptr);
    par.workers = ship_vib_params(host).workers;
    const Totals many = ship_vib_episode(args.seed, 0, par, baseline_checks, nullptr);
    extra["mpros.scaling_efficiency"] =
        (one.step_wall_s / many.step_wall_s) / static_cast<double>(par.workers);
    if (!w.has_ships) {
      extra["mpros.barrier_idle_share"] =
          1.0 - many.step_cpu_s /
                    (static_cast<double>(par.workers) * many.step_wall_s);
    }
    metrics = per_layer(own, ledger, extra);

    // Coverage: the share of the untraced run's CPU time per step that the
    // layer self times of the traced episodes account for.
    const double self_s = own.tracer.direct_self_s();
    const double untraced_cpu_per_step =
        base.step_cpu_s / static_cast<double>(base.step_ms.size());
    std::printf("bench.trace_overhead %.4f  (traced %.3f ms/step vs untraced %.3f ms/step)\n",
                extra["bench.trace_overhead"], traced_step * 1e3, base_step * 1e3);
    std::printf("layer self time covers %.1f%% of the untraced run's CPU time "
                "(%.3f s self over %zu traced steps; untraced %.3f ms CPU/step)\n",
                100.0 * self_s /
                    (untraced_cpu_per_step * static_cast<double>(traced.step_ms.size())),
                self_s, traced.step_ms.size(), untraced_cpu_per_step * 1e3);
    std::printf("parallel baseline: 1 worker %.3f s, %zu workers %.3f s for %zu steps\n",
                one.step_wall_s, par.workers, many.step_wall_s, par.steps);
    print_layers("workload", own.tracer);
    print_layers("ledger", ledger.tracer);
    const std::string trace_dir = args.work_dir + "/../traces";
    std::filesystem::create_directories(trace_dir);
    const std::string stem = trace_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed);
    if (own.tracer.write_csv(stem + "-workload.csv") &&
        ledger.tracer.write_csv(stem + "-ledger.csv")) {
      std::printf("spans written to %s-{workload,ledger}.csv\n", stem.c_str());
    }
  }
  std::filesystem::remove_all(host.work_dir);

  for (const Metric& m : metrics) {
    std::printf("metric %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  checks.print(stdout);
  const Checks::Count& integrity = checks.integrity();
  const Checks::Count& diagnostic = checks.diagnostic();
  std::printf("integrity: %" PRIu64 " failed of %" PRIu64 " checks\n",
              integrity.failed, integrity.attempted);
  std::printf("fail_share %.6f ratio (%" PRIu64 " failed of %" PRIu64
              " diagnostic checks)\n",
              fail_share(checks), diagnostic.failed,
              diagnostic.attempted);

  std::string json = "{\"correct\": ";
  json += integrity.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(integrity.attempted);
  json += ", \"failed\": " + std::to_string(integrity.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                  metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
