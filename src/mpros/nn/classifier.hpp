#pragma once
// The Wavelet-Neural-Network fault classifier (paper §6.2 substitute).
//
// "Features extracted from input data are organized into a feature vector,
// which is fed into the WNN" — the paper lists peak amplitude, standard
// deviation, cepstrum, DCT coefficients, wavelet maps, temperature and
// speed. This classifier computes exactly that vector from a vibration
// waveform plus process context, feeds it through a wavelon hidden layer,
// and softmax-classifies across {Normal} ∪ the 12 failure modes.
//
// Unlike the steady-state DLI rule engine, the WNN's wavelet features are
// localized, so it keeps information about transients within the window —
// the paper's stated reason for including it.

#include <optional>
#include <span>
#include <vector>

#include "mpros/common/rng.hpp"
#include "mpros/domain/failure_modes.hpp"
#include "mpros/nn/network.hpp"
#include "mpros/rules/engine.hpp"

namespace mpros::nn {

/// Process context accompanying a vibration window.
struct WnnContext {
  double shaft_hz = 29.6;
  double bearing_temp_c = 55.0;
  double load_fraction = 0.8;
};

/// Class index space: 0 = Normal, 1 + FailureMode otherwise.
inline constexpr std::size_t kWnnClassCount = 1 + domain::kFailureModeCount;

[[nodiscard]] std::size_t wnn_label(std::optional<domain::FailureMode> mode);
[[nodiscard]] std::optional<domain::FailureMode> wnn_mode(std::size_t label);

struct LabelledWindow {
  std::vector<double> waveform;
  double sample_rate_hz = 40960.0;
  WnnContext context;
  std::size_t label = 0;
};

/// Classifier hyper-parameters.
struct WnnConfig {
  TrainConfig train;
};

class WnnClassifier {
 public:
  explicit WnnClassifier(WnnConfig cfg = WnnConfig(),
                         std::uint64_t seed = 0x57AE1E7);

  /// The §6.2 feature vector for one window.
  [[nodiscard]] std::vector<double> features(std::span<const double> waveform,
                                             double sample_rate_hz,
                                             const WnnContext& ctx) const;

  /// Train on labelled windows (features are computed internally).
  TrainStats train(std::span<const LabelledWindow> windows);

  /// Class probabilities (index space per wnn_label()). Inference is
  /// const: the network's activations live in the caller's `scratch`, so
  /// one trained classifier can serve every DC thread at once.
  [[nodiscard]] std::vector<double> probabilities(
      std::span<const double> waveform, double sample_rate_hz,
      const WnnContext& ctx, InferenceScratch& scratch) const;
  /// probabilities() with a scratch of its own.
  [[nodiscard]] std::vector<double> probabilities(
      std::span<const double> waveform, double sample_rate_hz,
      const WnnContext& ctx) const;

  /// Fired diagnoses: every non-Normal class whose probability exceeds
  /// `threshold`, packaged as rules::Diagnosis (belief = probability).
  [[nodiscard]] std::vector<rules::Diagnosis> diagnose(
      std::span<const double> waveform, double sample_rate_hz,
      const WnnContext& ctx, const rules::BelievabilityTable& beliefs,
      double threshold, InferenceScratch& scratch) const;
  /// diagnose() with a scratch of its own.
  [[nodiscard]] std::vector<rules::Diagnosis> diagnose(
      std::span<const double> waveform, double sample_rate_hz,
      const WnnContext& ctx, const rules::BelievabilityTable& beliefs,
      double threshold = 0.30) const;

  [[nodiscard]] std::size_t feature_count() const;
  [[nodiscard]] bool trained() const { return trained_; }

  /// Weight flashing: export a trained classifier's parameters and load
  /// them into another classifier built with the same WnnConfig.
  [[nodiscard]] std::vector<double> export_weights() const {
    return net_.export_weights();
  }
  void import_weights(std::span<const double> weights) {
    net_.import_weights(weights);
    trained_ = true;
  }

 private:
  WnnConfig cfg_;
  Rng rng_;
  Network net_;
  bool trained_ = false;
};

}  // namespace mpros::nn
