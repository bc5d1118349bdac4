#pragma once
// The benchmark's three workloads and the traced run's layer replays.
// See perfbench/NOTES.md for why each workload exists and which layer each
// per-layer metric isolates.

#include <cstdint>
#include <map>
#include <string>

#include "bench.hpp"
#include "mpros/common/clock.hpp"
#include "mpros/dc/data_concentrator.hpp"

namespace perfbench {

/// Every episode function takes the run's seed and the episode's index in the
/// run; the inputs are a function of the two alone.
///
/// Per-layer values computed from a run's counters (metric name -> value).
using LayerValues = std::map<std::string, double>;

/// What a traced component reports: span timings plus derived values.
struct Trace {
  Tracer tracer{false};
  LayerValues values;
};

struct Host {
  std::size_t nproc = 1;                 ///< CPUs this process may run on
  std::size_t hardware_concurrency = 1;  ///< std::thread's view
  std::string work_dir;                  ///< scratch space under .bench_build
};

// ship_vib: one ShipSystem, vibration test on every DC every step.
struct ShipVibParams {
  std::size_t plants = 8;
  std::size_t workers = 4;
  std::size_t steps = 20;  ///< 60-s steps per episode
};
ShipVibParams ship_vib_params(const Host& host);
Totals ship_vib_episode(std::uint64_t seed, std::size_t episode,
                        const ShipVibParams& p,
                        Checks& checks, Trace* trace);

// fleet_scan: durable hulls with a lossy shore link to a FleetServer.
struct FleetParams {
  std::size_t hulls = 3;
  std::size_t plants = 8;  ///< per hull
  /// Fleet barrier cadence, one uplink summary period: ten process scans
  /// per DC per step, so that scheduling jitter on a shared host is a small
  /// part of a step.
  mpros::SimTime step = mpros::SimTime::from_seconds(600.0);
  std::size_t steps = 36;
  mpros::SimTime vibration_period = mpros::SimTime::from_hours(4.0);
  std::string dir;  ///< durability root; one subdirectory per hull
};
FleetParams fleet_scan_params(const Host& host);
Totals fleet_scan_episode(std::uint64_t seed, std::size_t episode,
                        const FleetParams& p,
                          Checks& checks, Trace* trace);

// pdme_ingest: a seeded report stream from ~200 DCs into one PDME.
struct IngestParams {
  std::size_t dcs = 200;
  std::size_t windows = 60;  ///< 60-s sync windows per episode
};
Totals pdme_ingest_episode(std::uint64_t seed, std::size_t episode,
                        const IngestParams& p,
                           Checks& checks, Trace* trace);

/// Traced run only: replay one DC's duty cycle through the public functions
/// of plant, dc/sensor_validator, rules/features, nn, fuzzy, sbfr, net and
/// pdme on a twin plant, beside a real DataConcentrator on another twin.
void dc_replay(std::uint64_t seed, const mpros::dc::DcConfig& dc_cfg,
               bool use_wnn, mpros::SimTime span, Checks& checks,
               Trace& trace);

/// The ship_vib DC template (also the pdme_ingest replay's DC).
mpros::dc::DcConfig ship_vib_dc_config();
/// The fleet_scan DC template.
mpros::dc::DcConfig fleet_scan_dc_config(const FleetParams& p);

}  // namespace perfbench
