#include "mpros/dc/sensor_validator.hpp"

#include <algorithm>
#include <cmath>

#include "mpros/dsp/scratch.hpp"
#include "mpros/telemetry/metrics.hpp"

namespace mpros::dc {

namespace {

/// Scalar channels flatline when this many consecutive scans repeat the
/// same reading exactly (process noise makes honest repeats implausible).
constexpr std::size_t kFlatlineRepeats = 4;
/// Spikes a window must hold before it faults.
constexpr std::size_t kSpikeMinCount = 4;
/// Readings of recent history the scalar spike screen keeps per channel.
constexpr std::size_t kScalarHistory = 16;
/// Consecutive clean checks before a quarantined channel is trusted again.
constexpr std::size_t kReleaseAfter = 3;

struct ValidatorMetrics {
  telemetry::Counter& faults_detected;
  telemetry::Counter& quarantines;
  telemetry::Counter& releases;

  static ValidatorMetrics& instance() {
    static auto& reg = telemetry::Registry::instance();
    static ValidatorMetrics m{
        reg.counter("dc.sensor_faults_detected"),
        reg.counter("dc.channels_quarantined"),
        reg.counter("dc.channels_released"),
    };
    return m;
  }
};

/// Median and robust scatter 1.4826 * MAD (~ sigma for Gaussian noise).
struct RobustStats {
  double median;
  double sigma;
};

/// Robust stats of `values`, worked out in a copy on the calling thread's
/// DSP scratch (the same real lane the window's spectrum reuses next, so
/// validation adds no resident memory and no steady-state allocation). The
/// copy is reordered and overwritten with the absolute deviations; the
/// order statistics are the values a sorted copy would give.
template <typename Range>
RobustStats robust_stats(const Range& values) {
  const std::span<double> v =
      dsp::DspScratch::local().real_lane(0, values.size());
  std::copy(values.begin(), values.end(), v.begin());
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  const double median = *mid;
  for (double& s : v) s = std::fabs(s - median);
  std::nth_element(v.begin(), mid, v.end());
  return {median, 1.4826 * *mid};
}

}  // namespace

SensorValidatorConfig chiller_validator_config() {
  SensorValidatorConfig cfg;
  // Accelerometers saturate long before 80 g on this frame size; motor
  // supply current is bipolar instantaneous amperes.
  for (const char* vib : {"vib.motor", "vib.gearbox", "vib.compressor"}) {
    cfg.ranges[vib] = PhysicalRange{-80.0, 80.0};
  }
  cfg.ranges["current.motor"] = PhysicalRange{-1500.0, 1500.0};
  cfg.ranges["process.load"] = PhysicalRange{-0.1, 1.5};
  cfg.ranges["process.evap_pressure_kpa"] = PhysicalRange{0.0, 2000.0};
  cfg.ranges["process.cond_pressure_kpa"] = PhysicalRange{0.0, 3000.0};
  cfg.ranges["process.chw_supply_c"] = PhysicalRange{-10.0, 60.0};
  cfg.ranges["process.superheat_c"] = PhysicalRange{-20.0, 60.0};
  cfg.ranges["process.oil_pressure_kpa"] = PhysicalRange{0.0, 1500.0};
  cfg.ranges["process.oil_temp_c"] = PhysicalRange{-10.0, 150.0};
  cfg.ranges["process.winding_temp_c"] = PhysicalRange{-10.0, 250.0};
  cfg.ranges["process.bearing_temp_c"] = PhysicalRange{-10.0, 200.0};
  cfg.ranges["process.cond_approach_c"] = PhysicalRange{-10.0, 60.0};
  cfg.ranges["process.motor_current_a"] = PhysicalRange{0.0, 2000.0};
  // The load key echoes the commanded setpoint — no instrument noise, so
  // exact repeats are normal, not a stuck DAC.
  cfg.flatline_exempt.insert("process.load");
  return cfg;
}

SensorValidator::SensorValidator(SensorValidatorConfig cfg)
    : cfg_(std::move(cfg)) {}

std::optional<domain::SensorFaultKind> SensorValidator::screen_window(
    const std::string& channel, std::span<const double> samples) const {
  if (samples.empty()) return std::nullopt;

  double lo = samples.front();
  double hi = samples.front();
  for (const double s : samples) {
    if (!std::isfinite(s)) return domain::SensorFaultKind::Dropout;
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  if (hi - lo < cfg_.flatline_peak_to_peak) {
    return domain::SensorFaultKind::Flatline;
  }

  const auto [median, sigma] = robust_stats(samples);
  if (const auto range_it = cfg_.ranges.find(channel);
      range_it != cfg_.ranges.end()) {
    const PhysicalRange& r = range_it->second;
    if (median < r.lo || median > r.hi) {
      return domain::SensorFaultKind::OutOfRange;
    }
  }

  if (sigma > 0.0) {
    const double limit = cfg_.spike_sigmas * sigma;
    std::size_t spikes = 0;
    for (const double s : samples) {
      if (std::fabs(s - median) > limit) ++spikes;
    }
    if (spikes >= kSpikeMinCount) {
      return domain::SensorFaultKind::Spike;
    }
  }
  return std::nullopt;
}

std::optional<domain::SensorFaultKind> SensorValidator::screen_value(
    const std::string& channel, ChannelState& state, double value) const {
  if (!std::isfinite(value)) return domain::SensorFaultKind::Dropout;

  if (const auto range_it = cfg_.ranges.find(channel);
      range_it != cfg_.ranges.end()) {
    const PhysicalRange& r = range_it->second;
    if (value < r.lo || value > r.hi) {
      return domain::SensorFaultKind::OutOfRange;
    }
  }

  if (state.has_last && value == state.last_value) {
    ++state.repeat_count;
  } else {
    state.repeat_count = 0;
  }
  state.last_value = value;
  state.has_last = true;
  if (state.repeat_count + 1 >= kFlatlineRepeats &&
      !cfg_.flatline_exempt.contains(channel)) {
    return domain::SensorFaultKind::Flatline;
  }

  if (state.history.size() >= kScalarHistory) {
    const auto [median, sigma] = robust_stats(state.history);
    if (sigma > 0.0 &&
        std::fabs(value - median) > cfg_.scalar_spike_sigmas * sigma) {
      return domain::SensorFaultKind::Spike;
    }
  }

  state.history.push_back(value);
  while (state.history.size() > kScalarHistory) {
    state.history.pop_front();
  }
  return std::nullopt;
}

SensorValidator::Verdict SensorValidator::resolve(
    ChannelState& state, std::optional<domain::SensorFaultKind> fault) {
  ValidatorMetrics& metrics = ValidatorMetrics::instance();
  Verdict verdict;
  verdict.fault = fault;
  ++stats_.checks;

  if (fault.has_value()) {
    ++stats_.faults_detected;
    metrics.faults_detected.inc();
    state.clean_streak = 0;
    state.last_fault = *fault;
    if (!state.quarantined) {
      state.quarantined = true;
      verdict.newly_quarantined = true;
      ++stats_.quarantines;
      metrics.quarantines.inc();
    }
  } else if (state.quarantined) {
    if (++state.clean_streak >= kReleaseAfter) {
      state.quarantined = false;
      state.clean_streak = 0;
      verdict.released = true;
      verdict.cleared_kind = state.last_fault;
      ++stats_.releases;
      metrics.releases.inc();
    }
  }
  return verdict;
}

SensorValidator::Verdict SensorValidator::check_window(
    const std::string& channel, std::span<const double> samples) {
  return resolve(channels_[channel], screen_window(channel, samples));
}

SensorValidator::Verdict SensorValidator::check_value(
    const std::string& channel, double value) {
  ChannelState& state = channels_[channel];
  return resolve(state, screen_value(channel, state, value));
}

bool SensorValidator::quarantined(const std::string& channel) const {
  const auto it = channels_.find(channel);
  return it != channels_.end() && it->second.quarantined;
}

std::vector<std::string> SensorValidator::quarantined_channels() const {
  std::vector<std::string> out;
  for (const auto& [name, state] : channels_) {
    if (state.quarantined) out.push_back(name);
  }
  return out;
}

}  // namespace mpros::dc
