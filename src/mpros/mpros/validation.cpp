#include "mpros/mpros/validation.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "mpros/common/assert.hpp"

namespace mpros {

using domain::FailureMode;

namespace {

/// Fraction of the wear life at which calibration is checkpointed.
constexpr double kLateCheckpoint = 0.85;

}  // namespace

dc::DcConfig ValidationConfig::long_haul_dc_config() {
  dc::DcConfig dc;
  dc.vibration_period = SimTime::from_hours(6.0);
  dc.process_period = SimTime::from_seconds(1800.0);
  return dc;
}

ScenarioScore run_scenario(const ValidationScenario& scenario,
                           const ValidationConfig& cfg) {
  MPROS_EXPECTS(scenario.wear_time.micros() > 0);

  ShipSystemConfig ship_cfg;
  ship_cfg.plant_count = 2;  // plant 0 faulted, plant 1 healthy control
  ship_cfg.dc_template = cfg.dc;
  ship_cfg.seed = splitmix64(scenario.seed ^ 0x9A11);

  ShipSystem ship(ship_cfg);
  ship.chiller(0).faults().schedule({scenario.mode, scenario.onset,
                                     scenario.wear_time, 1.0,
                                     scenario.profile});

  ScenarioScore score;
  score.scenario = scenario;
  score.failure_time = scenario.onset + scenario.wear_time;

  // The machines a conclusion may legitimately name for the seeded mode
  // (any object of the faulted plant).
  const oosm::ChillerPlant& faulted = ship.plant_objects(0);
  const ObjectId plant0_objects[] = {faulted.chiller, faulted.motor,
                                     faulted.gearbox, faulted.compressor};
  const oosm::ChillerPlant& control = ship.plant_objects(1);
  const ObjectId control_objects[] = {control.chiller, control.motor,
                                      control.gearbox, control.compressor};

  const SimTime checkpoint =
      scenario.onset + SimTime(static_cast<std::int64_t>(
                           kLateCheckpoint *
                           static_cast<double>(scenario.wear_time.micros())));
  bool checkpoint_taken = false;

  while (ship.now() < score.failure_time) {
    ship.advance_to(std::min(score.failure_time, ship.now() + cfg.step));

    if (!score.detected) {
      for (const ObjectId machine : plant0_objects) {
        for (const pdme::MaintenanceItem& item :
             ship.pdme().prioritized_list(machine)) {
          if (item.mode != scenario.mode) continue;
          score.detected = true;
          score.detection_time = ship.now();
          score.lead_time = score.failure_time - ship.now();
          break;
        }
        if (score.detected) break;
      }
    }

    if (!checkpoint_taken && ship.now() >= checkpoint) {
      checkpoint_taken = true;
      const SimTime actual_remaining = score.failure_time - ship.now();
      if (actual_remaining.micros() <= 0) continue;
      for (const ObjectId machine : plant0_objects) {
        for (const pdme::MaintenanceItem& item :
             ship.pdme().prioritized_list(machine)) {
          if (item.mode != scenario.mode) continue;
          if (item.median_ttf.has_value()) {
            score.late_p50_relative_error =
                std::fabs(item.median_ttf->days() - actual_remaining.days()) /
                actual_remaining.days();
          }
          if (item.trend_ttf.has_value()) {
            score.late_trend_relative_error =
                std::fabs(item.trend_ttf->days() - actual_remaining.days()) /
                actual_remaining.days();
          }
          if (item.p90_ttf.has_value()) {
            score.p90_conservative =
                ship.now() + *item.p90_ttf <= score.failure_time;
          }
          break;
        }
        if (score.late_p50_relative_error.has_value()) break;
      }
    }
  }

  for (const ObjectId machine : control_objects) {
    score.false_alarms += ship.pdme().prioritized_list(machine).size();
  }
  return score;
}

ValidationSummary run_validation(std::span<const ValidationScenario> scenarios,
                                 const ValidationConfig& cfg) {
  ValidationSummary summary;
  std::size_t detected = 0, with_p50 = 0, with_trend = 0, with_p90 = 0,
              p90_ok = 0;
  double lead_fraction_sum = 0.0, p50_error_sum = 0.0, trend_error_sum = 0.0;

  for (const ValidationScenario& scenario : scenarios) {
    ScenarioScore score = run_scenario(scenario, cfg);
    if (score.detected) {
      ++detected;
      lead_fraction_sum +=
          static_cast<double>(score.lead_time->micros()) /
          static_cast<double>(scenario.wear_time.micros());
      if (score.late_p50_relative_error.has_value()) {
        ++with_p50;
        p50_error_sum += *score.late_p50_relative_error;
        ++with_p90;
        if (score.p90_conservative) ++p90_ok;
      }
      if (score.late_trend_relative_error.has_value()) {
        ++with_trend;
        trend_error_sum += *score.late_trend_relative_error;
      }
    }
    summary.total_false_alarms += score.false_alarms;
    summary.scores.push_back(std::move(score));
  }

  const double n = static_cast<double>(scenarios.size());
  summary.detection_rate = n > 0 ? static_cast<double>(detected) / n : 0.0;
  summary.mean_lead_fraction =
      detected > 0 ? lead_fraction_sum / static_cast<double>(detected) : 0.0;
  summary.mean_late_p50_error =
      with_p50 > 0 ? p50_error_sum / static_cast<double>(with_p50) : 0.0;
  summary.mean_late_trend_error =
      with_trend > 0 ? trend_error_sum / static_cast<double>(with_trend)
                     : 0.0;
  summary.p90_conservative_rate =
      with_p90 > 0 ? static_cast<double>(p90_ok) /
                         static_cast<double>(with_p90)
                   : 0.0;
  return summary;
}

std::vector<ValidationScenario> standard_study(SimTime wear_time,
                                               std::uint64_t seed) {
  std::vector<ValidationScenario> scenarios;
  std::uint64_t i = 0;
  for (const FailureMode mode : domain::all_failure_modes()) {
    ValidationScenario s;
    s.mode = mode;
    s.onset = SimTime::from_days(2.0);
    s.wear_time = wear_time;
    s.profile = plant::GrowthProfile::Linear;
    s.seed = splitmix64(seed + i++);
    scenarios.push_back(s);
  }
  return scenarios;
}

std::string render(const ValidationSummary& summary) {
  std::string out;
  char buf[200];
  out += "=== Seeded-fault validation study (paper §9) ===\n";
  std::snprintf(buf, sizeof buf, "%-26s %9s %10s %10s %11s %6s %4s\n",
                "mode", "detected", "lead", "P50 err", "trend err", "P90ok",
                "FA");
  out += buf;
  for (const ScenarioScore& s : summary.scores) {
    char p50[16] = "--", trend[16] = "--";
    if (s.late_p50_relative_error) {
      std::snprintf(p50, sizeof p50, "%.0f%%",
                    100.0 * *s.late_p50_relative_error);
    }
    if (s.late_trend_relative_error) {
      std::snprintf(trend, sizeof trend, "%.0f%%",
                    100.0 * *s.late_trend_relative_error);
    }
    std::snprintf(
        buf, sizeof buf, "%-26s %9s %10s %10s %11s %6s %4zu\n",
        domain::to_string(s.scenario.mode), s.detected ? "yes" : "NO",
        s.lead_time ? to_string(*s.lead_time).c_str() : "--", p50, trend,
        s.detected ? (s.p90_conservative ? "yes" : "no") : "--",
        s.false_alarms);
    out += buf;
  }
  std::snprintf(
      buf, sizeof buf,
      "detection %.0f%%, mean lead %.0f%% of wear life, late P50 error "
      "%.0f%% (gradient) vs %.0f%% (trend), P90 conservative %.0f%%, "
      "false alarms %zu\n",
      100.0 * summary.detection_rate, 100.0 * summary.mean_lead_fraction,
      100.0 * summary.mean_late_p50_error,
      100.0 * summary.mean_late_trend_error,
      100.0 * summary.p90_conservative_rate, summary.total_false_alarms);
  out += buf;
  return out;
}

}  // namespace mpros
