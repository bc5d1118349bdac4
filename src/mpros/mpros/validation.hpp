#pragma once
// Seeded-fault validation harness (paper §9).
//
// "One question we are often asked is 'How are you going to prove that your
// system does what you say it does?' ... The authors would welcome any
// input on how to validate a failure prediction system." §9's own answers —
// seeded faults, destructive run-to-failure tests, archived histories — are
// exactly what the simulator can mass-produce. This harness runs scripted
// run-to-failure scenarios (fault ramps to severity 1.0 at a known instant)
// and scores the PDME's predictions against that ground truth:
//
//  - detection: did the fused conclusion name the seeded mode, and how much
//    lead time did the crew get before functional failure?
//  - prognostic calibration: when the system said "P50 time-to-failure",
//    how far from the actual remaining life was it?
//  - conservatism: did the predicted P90 horizon land before the actual
//    failure (a late P90 means the crew was told "you have time" when they
//    did not)?
//  - false alarms: healthy control plants run alongside; any conclusion
//    against them counts against the system.

#include <optional>
#include <string>
#include <vector>

#include "mpros/mpros/ship_system.hpp"

namespace mpros {

struct ValidationScenario {
  domain::FailureMode mode{};
  SimTime onset = SimTime::from_days(2.0);
  /// Time from onset to severity 1.0 (functional failure). Default is a
  /// realistic wear life; §9 itself warns that accelerated seeded tests
  /// "might not exhibit the same precursors as real-world failures", and
  /// the gradient prognostics are calibrated in months/weeks/days.
  SimTime wear_time = SimTime::from_days(45.0);
  plant::GrowthProfile profile = plant::GrowthProfile::Linear;
  std::uint64_t seed = 1;
};

struct ScenarioScore {
  ValidationScenario scenario;
  SimTime failure_time;                ///< ground truth (onset + wear)
  bool detected = false;               ///< correct mode, fused, pre-failure
  std::optional<SimTime> detection_time;
  std::optional<SimTime> lead_time;    ///< failure_time - detection_time
  /// |predicted P50 remaining life - actual| / actual at the late-life
  /// checkpoint (85% through the wear life), where the gradient ladder's
  /// weeks/days calibration applies.
  std::optional<double> late_p50_relative_error;
  /// Same checkpoint, but using the §10.1 trend projection instead of the
  /// gradient defaults — the temporal-reasoning ablation.
  std::optional<double> late_trend_relative_error;
  /// Predicted P90 at the late checkpoint lands at/before actual failure.
  bool p90_conservative = false;
  std::size_t false_alarms = 0;        ///< conclusions against the control
};

struct ValidationSummary {
  std::vector<ScenarioScore> scores;
  double detection_rate = 0.0;
  double mean_lead_fraction = 0.0;    ///< lead_time / wear_time, detected only
  double mean_late_p50_error = 0.0;
  double mean_late_trend_error = 0.0;
  double p90_conservative_rate = 0.0;
  std::size_t total_false_alarms = 0;
};

struct ValidationConfig {
  /// Scenario driver step; detection timestamps are quantized to this.
  SimTime step = SimTime::from_hours(3.0);
  dc::DcConfig dc = long_haul_dc_config();  ///< analyzers under validation

  /// Test cadence suited to multi-week scenarios (vibration every 6 h,
  /// process scan every 30 min).
  static dc::DcConfig long_haul_dc_config();
};

/// Run one scenario: a single faulted plant plus one healthy control plant,
/// simulated from t=0 until the seeded failure time.
[[nodiscard]] ScenarioScore run_scenario(const ValidationScenario& scenario,
                                         const ValidationConfig& cfg = {});

/// Run a batch and aggregate.
[[nodiscard]] ValidationSummary run_validation(
    std::span<const ValidationScenario> scenarios,
    const ValidationConfig& cfg = {});

/// The default §9-style study: every FMEA mode, one run-to-failure each.
[[nodiscard]] std::vector<ValidationScenario> standard_study(
    SimTime wear_time = SimTime::from_days(45.0), std::uint64_t seed = 0x9);

/// Human-readable table of a summary.
[[nodiscard]] std::string render(const ValidationSummary& summary);

}  // namespace mpros
