#pragma once
// Synthetic training-set generation for the WNN classifier.
//
// The real program would train on the seeded-fault and destructive-test
// data of §9; we generate labelled vibration windows from the plant
// simulator instead (one healthy class + the vibration-visible failure
// modes at assorted severities).

#include <memory>

#include "mpros/nn/classifier.hpp"

namespace mpros {

struct WnnTrainingConfig {
  std::size_t windows_per_class = 12;
  double sample_rate_hz = 40960.0;
  double min_severity = 0.45;
  double max_severity = 0.95;
  /// Expose the classifier to transitory faults: per-window burst duty is
  /// drawn uniformly from [min_duty, 1]. 1.0 keeps training steady-state.
  double min_duty = 1.0;
  std::uint64_t seed = 0x7EAC4;
  nn::WnnConfig classifier;
};

/// Generate windows and train a classifier; returns it with train stats
/// applied. The classifier is shared by every DC in a fleet.
std::shared_ptr<nn::WnnClassifier> train_wnn_classifier(
    const WnnTrainingConfig& cfg = WnnTrainingConfig());

/// The training windows themselves (exposed for tests/benches).
[[nodiscard]] std::vector<nn::LabelledWindow> make_training_windows(
    const WnnTrainingConfig& cfg);

}  // namespace mpros
