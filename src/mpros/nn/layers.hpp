#pragma once
// Neural layers: dense (tanh/linear) and wavelon.
//
// The Wavelet Neural Network (paper §6.2) "belongs to a new class of neural
// networks with such unique capabilities as multi-resolution and
// localization". Its hidden units ("wavelons", after Zhang & Benveniste
// 1992) compute psi((a.x - t)/lambda) with a Mexican-hat mother wavelet and
// learn translation t and dilation lambda along with the projection a.

#include <cstddef>
#include <span>
#include <vector>

#include "mpros/common/rng.hpp"

namespace mpros::nn {

/// Interface of a trainable layer. Training goes through forward() and
/// backward(), which cache the last example in the layer; backward() must
/// follow a forward() on the same example. Inference goes through the const
/// infer(), which writes only the caller's output span, so one trained layer
/// can serve many threads at once.
class Layer {
 public:
  virtual ~Layer() = default;

  [[nodiscard]] virtual std::size_t input_size() const = 0;
  [[nodiscard]] virtual std::size_t output_size() const = 0;

  /// Training forward pass; returns activations (valid until the next
  /// forward()).
  virtual std::span<const double> forward(std::span<const double> x) = 0;

  /// Inference: the same activations as forward(), written to `out`
  /// (output_size() values); the layer itself is not touched.
  virtual void infer(std::span<const double> x,
                     std::span<double> out) const = 0;

  /// Backward pass: consume dL/d(output), accumulate parameter gradients,
  /// return dL/d(input).
  virtual std::span<const double> backward(std::span<const double> grad_out) = 0;

  /// Apply accumulated gradients (scaled by 1/batch) with momentum 0.9;
  /// clears the accumulators.
  virtual void apply_gradients(double learning_rate, std::size_t batch) = 0;

  /// Number of trainable parameters.
  [[nodiscard]] virtual std::size_t parameter_count() const = 0;
  /// Append all parameters to `out` in a stable order.
  virtual void export_parameters(std::vector<double>& out) const = 0;
  /// Read parameter_count() values starting at params[pos]; advances pos.
  virtual void import_parameters(std::span<const double> params,
                                 std::size_t& pos) = 0;
};

enum class Activation { Linear, Tanh };

class DenseLayer final : public Layer {
 public:
  DenseLayer(std::size_t in, std::size_t out, Activation act, Rng& rng);

  [[nodiscard]] std::size_t input_size() const override { return in_; }
  [[nodiscard]] std::size_t output_size() const override { return out_; }

  std::span<const double> forward(std::span<const double> x) override;
  void infer(std::span<const double> x, std::span<double> out) const override;
  std::span<const double> backward(std::span<const double> grad_out) override;
  void apply_gradients(double learning_rate, std::size_t batch) override;
  [[nodiscard]] std::size_t parameter_count() const override;
  void export_parameters(std::vector<double>& out) const override;
  void import_parameters(std::span<const double> params,
                         std::size_t& pos) override;

 private:
  std::size_t in_, out_;
  Activation act_;
  std::vector<double> w_;       // out x in, row-major
  std::vector<double> b_;       // out
  std::vector<double> grad_w_, grad_b_, vel_w_, vel_b_;
  std::vector<double> last_x_, out_buf_, grad_in_;
};

class WaveletLayer final : public Layer {
 public:
  WaveletLayer(std::size_t in, std::size_t wavelons, Rng& rng);

  [[nodiscard]] std::size_t input_size() const override { return in_; }
  [[nodiscard]] std::size_t output_size() const override { return units_; }

  std::span<const double> forward(std::span<const double> x) override;
  void infer(std::span<const double> x, std::span<double> out) const override;
  std::span<const double> backward(std::span<const double> grad_out) override;
  void apply_gradients(double learning_rate, std::size_t batch) override;
  [[nodiscard]] std::size_t parameter_count() const override;
  void export_parameters(std::vector<double>& out) const override;
  void import_parameters(std::span<const double> params,
                         std::size_t& pos) override;

  /// Mexican-hat mother wavelet and its derivative.
  static double psi(double z);
  static double dpsi(double z);

 private:
  std::size_t in_, units_;
  std::vector<double> a_;       // units x in projection weights
  std::vector<double> t_;       // translations
  std::vector<double> lambda_;  // dilations (kept >= kMinDilation)
  std::vector<double> grad_a_, grad_t_, grad_l_, vel_a_, vel_t_, vel_l_;
  std::vector<double> last_x_, z_, out_buf_, grad_in_;

  /// Wavelet argument (a_u . x - t_u) / lambda_u of unit u.
  [[nodiscard]] double argument(std::size_t u, std::span<const double> x) const;

  static constexpr double kMinDilation = 0.05;
};

}  // namespace mpros::nn
