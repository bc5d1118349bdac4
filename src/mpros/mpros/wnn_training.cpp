#include "mpros/mpros/wnn_training.hpp"

#include "mpros/common/rng.hpp"
#include "mpros/plant/vibration.hpp"

namespace mpros {

using domain::FailureMode;

namespace {

constexpr std::size_t kWindowSamples = 4096;  ///< samples per training window
constexpr double kBurstPeriodS = 0.05;        ///< transient burst period

/// Modes whose signature is visible in a vibration window (the classifier's
/// non-trivial classes); process-only modes are left to the fuzzy system.
constexpr FailureMode kVibrationModes[] = {
    FailureMode::MotorImbalance,          FailureMode::ShaftMisalignment,
    FailureMode::BearingHousingLooseness, FailureMode::StatorWindingFault,
    FailureMode::MotorBearingWear,        FailureMode::CompressorBearingWear,
    FailureMode::GearMeshWear,            FailureMode::PumpCavitation,
};

plant::MachinePoint best_point(FailureMode m) {
  switch (m) {
    case FailureMode::GearMeshWear:
      return plant::MachinePoint::Gearbox;
    case FailureMode::CompressorBearingWear:
    case FailureMode::BearingHousingLooseness:
    case FailureMode::PumpCavitation:
      return plant::MachinePoint::Compressor;
    default:
      return plant::MachinePoint::Motor;
  }
}

}  // namespace

std::vector<nn::LabelledWindow> make_training_windows(
    const WnnTrainingConfig& cfg) {
  Rng rng(cfg.seed);
  plant::VibrationSynthesizer synth(domain::navy_chiller_signature(),
                                    splitmix64(cfg.seed));
  std::vector<nn::LabelledWindow> windows;

  const auto make_window = [&](FailureMode mode, bool healthy) {
    nn::LabelledWindow w;
    w.sample_rate_hz = cfg.sample_rate_hz;
    w.waveform.resize(kWindowSamples);
    w.context.load_fraction = rng.uniform(0.5, 1.0);
    w.context.shaft_hz = domain::navy_chiller_signature().shaft_hz;
    w.context.bearing_temp_c = rng.uniform(50.0, 60.0);

    plant::Severities severities{};
    if (!healthy) {
      severities[static_cast<std::size_t>(mode)] =
          rng.uniform(cfg.min_severity, cfg.max_severity);
      if (mode == FailureMode::MotorBearingWear ||
          mode == FailureMode::CompressorBearingWear) {
        w.context.bearing_temp_c += rng.uniform(8.0, 25.0);
      }
    }
    plant::TransientProfile transient;
    transient.period_s = kBurstPeriodS;
    if (!healthy && cfg.min_duty < 1.0) {
      transient.duty = rng.uniform(cfg.min_duty, 1.0);
    }
    synth.acceleration(healthy ? plant::MachinePoint::Motor
                               : best_point(mode),
                       severities, w.context.load_fraction,
                       rng.uniform(0.0, 100.0), cfg.sample_rate_hz,
                       w.waveform, transient);
    w.label = healthy ? nn::wnn_label(std::nullopt) : nn::wnn_label(mode);
    return w;
  };

  for (std::size_t i = 0; i < cfg.windows_per_class; ++i) {
    windows.push_back(make_window(FailureMode::MotorImbalance, true));
  }
  for (const FailureMode mode : kVibrationModes) {
    for (std::size_t i = 0; i < cfg.windows_per_class; ++i) {
      windows.push_back(make_window(mode, false));
    }
  }
  return windows;
}

std::shared_ptr<nn::WnnClassifier> train_wnn_classifier(
    const WnnTrainingConfig& cfg) {
  auto classifier =
      std::make_shared<nn::WnnClassifier>(cfg.classifier, cfg.seed ^ 0x99);
  const std::vector<nn::LabelledWindow> windows = make_training_windows(cfg);
  classifier->train(windows);
  return classifier;
}

}  // namespace mpros
