#pragma once
// Feed-forward network with softmax classification head and SGD training.

#include <memory>
#include <span>
#include <vector>

#include "mpros/common/rng.hpp"
#include "mpros/nn/layers.hpp"

namespace mpros::nn {

struct TrainConfig {
  double learning_rate = 0.05;
  std::size_t batch_size = 16;
  std::size_t epochs = 200;
  double target_loss = 0.05;  ///< stop early when train loss drops below
};

struct TrainStats {
  std::size_t epochs_run = 0;
  double final_loss = 0.0;
  double final_accuracy = 0.0;
};

/// A labelled training example.
struct Example {
  std::vector<double> features;
  std::size_t label = 0;
};

/// Caller-owned activations for Network::predict: one per thread of use
/// (each DC owns one), so a trained network shared across threads is only
/// ever read. Buffers grow on first use and are reused afterwards.
struct InferenceScratch {
  std::vector<double> input;                ///< standardized features
  std::vector<std::vector<double>> layers;  ///< per-layer activations
};

class Network {
 public:
  Network() = default;

  Network& add_dense(std::size_t in, std::size_t out, Activation act,
                     Rng& rng);
  Network& add_wavelet(std::size_t in, std::size_t wavelons, Rng& rng);

  [[nodiscard]] std::size_t input_size() const;
  [[nodiscard]] std::size_t output_size() const;

  /// Class probabilities via softmax over the last layer's outputs. The
  /// activations live in `scratch`; the network is not written.
  [[nodiscard]] std::vector<double> predict(std::span<const double> x,
                                            InferenceScratch& scratch) const;
  /// predict() with a scratch of its own.
  [[nodiscard]] std::vector<double> predict(std::span<const double> x) const;

  /// argmax of predict().
  [[nodiscard]] std::size_t classify(std::span<const double> x) const;

  /// Minibatch SGD on softmax cross-entropy. Examples are shuffled with
  /// `rng` each epoch. Feature standardization is fit on the training set
  /// and applied inside predict() thereafter.
  TrainStats train(std::span<const Example> examples, const TrainConfig& cfg,
                   Rng& rng);

  /// Fraction of examples classified correctly.
  [[nodiscard]] double accuracy(std::span<const Example> examples) const;

  /// Serialize all trainable parameters plus the fitted feature
  /// standardizer. The architecture itself is NOT serialized: import into a
  /// network built with the identical layer stack (the DC-flashing model —
  /// firmware fixes the architecture, downloads fix the weights).
  [[nodiscard]] std::vector<double> export_weights() const;
  void import_weights(std::span<const double> weights);
  [[nodiscard]] std::size_t weight_count() const;

 private:
  std::vector<double> forward_raw(std::span<const double> x);
  void fit_standardizer(std::span<const Example> examples);
  /// Standardized copy of `x` in `out` (a plain copy before training).
  void standardize(std::span<const double> x, std::vector<double>& out) const;

  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<double> feat_mean_, feat_scale_;  // empty until train()
};

/// Numerically stable softmax.
[[nodiscard]] std::vector<double> softmax(std::span<const double> logits);

}  // namespace mpros::nn
