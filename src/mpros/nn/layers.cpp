#include "mpros/nn/layers.hpp"

#include <algorithm>
#include <cmath>

#include "mpros/common/assert.hpp"

namespace mpros::nn {

namespace {

/// SGD momentum: the share of the previous update carried into the next.
constexpr double kMomentum = 0.9;

}  // namespace

DenseLayer::DenseLayer(std::size_t in, std::size_t out, Activation act,
                       Rng& rng)
    : in_(in), out_(out), act_(act) {
  MPROS_EXPECTS(in > 0 && out > 0);
  const double scale = std::sqrt(2.0 / static_cast<double>(in + out));
  w_.resize(out * in);
  for (double& v : w_) v = rng.normal(0.0, scale);
  b_.assign(out, 0.0);
  grad_w_.assign(out * in, 0.0);
  grad_b_.assign(out, 0.0);
  vel_w_.assign(out * in, 0.0);
  vel_b_.assign(out, 0.0);
  last_x_.resize(in);
  out_buf_.resize(out);
  grad_in_.resize(in);
}

std::span<const double> DenseLayer::forward(std::span<const double> x) {
  MPROS_EXPECTS(x.size() == in_);
  std::copy(x.begin(), x.end(), last_x_.begin());
  infer(x, out_buf_);
  return out_buf_;
}

void DenseLayer::infer(std::span<const double> x, std::span<double> out) const {
  MPROS_EXPECTS(x.size() == in_ && out.size() == out_);
  for (std::size_t o = 0; o < out_; ++o) {
    double sum = b_[o];
    const double* row = &w_[o * in_];
    for (std::size_t i = 0; i < in_; ++i) sum += row[i] * x[i];
    out[o] = act_ == Activation::Tanh ? std::tanh(sum) : sum;
  }
}

std::span<const double> DenseLayer::backward(std::span<const double> grad_out) {
  MPROS_EXPECTS(grad_out.size() == out_);
  std::fill(grad_in_.begin(), grad_in_.end(), 0.0);
  for (std::size_t o = 0; o < out_; ++o) {
    double g = grad_out[o];
    if (act_ == Activation::Tanh) {
      const double y = out_buf_[o];
      g *= (1.0 - y * y);
    }
    grad_b_[o] += g;
    double* grow = &grad_w_[o * in_];
    const double* wrow = &w_[o * in_];
    for (std::size_t i = 0; i < in_; ++i) {
      grow[i] += g * last_x_[i];
      grad_in_[i] += g * wrow[i];
    }
  }
  return grad_in_;
}

void DenseLayer::apply_gradients(double learning_rate, std::size_t batch) {
  MPROS_EXPECTS(batch > 0);
  const double scale = learning_rate / static_cast<double>(batch);
  for (std::size_t i = 0; i < w_.size(); ++i) {
    vel_w_[i] = kMomentum * vel_w_[i] - scale * grad_w_[i];
    w_[i] += vel_w_[i];
    grad_w_[i] = 0.0;
  }
  for (std::size_t i = 0; i < b_.size(); ++i) {
    vel_b_[i] = kMomentum * vel_b_[i] - scale * grad_b_[i];
    b_[i] += vel_b_[i];
    grad_b_[i] = 0.0;
  }
}

std::size_t DenseLayer::parameter_count() const {
  return w_.size() + b_.size();
}

void DenseLayer::export_parameters(std::vector<double>& out) const {
  out.insert(out.end(), w_.begin(), w_.end());
  out.insert(out.end(), b_.begin(), b_.end());
}

void DenseLayer::import_parameters(std::span<const double> params,
                                   std::size_t& pos) {
  MPROS_EXPECTS(pos + parameter_count() <= params.size());
  std::copy_n(params.begin() + static_cast<std::ptrdiff_t>(pos), w_.size(),
              w_.begin());
  pos += w_.size();
  std::copy_n(params.begin() + static_cast<std::ptrdiff_t>(pos), b_.size(),
              b_.begin());
  pos += b_.size();
}

WaveletLayer::WaveletLayer(std::size_t in, std::size_t wavelons, Rng& rng)
    : in_(in), units_(wavelons) {
  MPROS_EXPECTS(in > 0 && wavelons > 0);
  const double scale = std::sqrt(1.0 / static_cast<double>(in));
  a_.resize(units_ * in_);
  for (double& v : a_) v = rng.normal(0.0, scale);
  t_.resize(units_);
  lambda_.resize(units_);
  for (std::size_t u = 0; u < units_; ++u) {
    // Spread translations across the expected projection range and start
    // with unit dilations so the wavelets tile the input space.
    t_[u] = rng.uniform(-1.0, 1.0);
    lambda_[u] = rng.uniform(0.5, 1.5);
  }
  grad_a_.assign(units_ * in_, 0.0);
  grad_t_.assign(units_, 0.0);
  grad_l_.assign(units_, 0.0);
  vel_a_.assign(units_ * in_, 0.0);
  vel_t_.assign(units_, 0.0);
  vel_l_.assign(units_, 0.0);
  last_x_.resize(in_);
  z_.resize(units_);
  out_buf_.resize(units_);
  grad_in_.resize(in_);
}

double WaveletLayer::psi(double z) {
  return (1.0 - z * z) * std::exp(-0.5 * z * z);
}

double WaveletLayer::dpsi(double z) {
  return (z * z * z - 3.0 * z) * std::exp(-0.5 * z * z);
}

double WaveletLayer::argument(std::size_t u, std::span<const double> x) const {
  double proj = 0.0;
  const double* row = &a_[u * in_];
  for (std::size_t i = 0; i < in_; ++i) proj += row[i] * x[i];
  return (proj - t_[u]) / lambda_[u];
}

std::span<const double> WaveletLayer::forward(std::span<const double> x) {
  MPROS_EXPECTS(x.size() == in_);
  std::copy(x.begin(), x.end(), last_x_.begin());
  for (std::size_t u = 0; u < units_; ++u) {
    z_[u] = argument(u, x);
    out_buf_[u] = psi(z_[u]);
  }
  return out_buf_;
}

void WaveletLayer::infer(std::span<const double> x,
                         std::span<double> out) const {
  MPROS_EXPECTS(x.size() == in_ && out.size() == units_);
  for (std::size_t u = 0; u < units_; ++u) out[u] = psi(argument(u, x));
}

std::span<const double> WaveletLayer::backward(
    std::span<const double> grad_out) {
  MPROS_EXPECTS(grad_out.size() == units_);
  std::fill(grad_in_.begin(), grad_in_.end(), 0.0);
  for (std::size_t u = 0; u < units_; ++u) {
    const double g = grad_out[u];
    if (g == 0.0) continue;
    const double dz = dpsi(z_[u]);
    const double common = g * dz / lambda_[u];

    grad_t_[u] += -common;
    grad_l_[u] += -common * z_[u];
    double* grow = &grad_a_[u * in_];
    const double* arow = &a_[u * in_];
    for (std::size_t i = 0; i < in_; ++i) {
      grow[i] += common * last_x_[i];
      grad_in_[i] += common * arow[i];
    }
  }
  return grad_in_;
}

void WaveletLayer::apply_gradients(double learning_rate,
                                   std::size_t batch) {
  MPROS_EXPECTS(batch > 0);
  const double scale = learning_rate / static_cast<double>(batch);
  for (std::size_t i = 0; i < a_.size(); ++i) {
    vel_a_[i] = kMomentum * vel_a_[i] - scale * grad_a_[i];
    a_[i] += vel_a_[i];
    grad_a_[i] = 0.0;
  }
  for (std::size_t u = 0; u < units_; ++u) {
    vel_t_[u] = kMomentum * vel_t_[u] - scale * grad_t_[u];
    t_[u] += vel_t_[u];
    grad_t_[u] = 0.0;

    vel_l_[u] = kMomentum * vel_l_[u] - scale * grad_l_[u];
    lambda_[u] = std::max(kMinDilation, lambda_[u] + vel_l_[u]);
    grad_l_[u] = 0.0;
  }
}

std::size_t WaveletLayer::parameter_count() const {
  return a_.size() + t_.size() + lambda_.size();
}

void WaveletLayer::export_parameters(std::vector<double>& out) const {
  out.insert(out.end(), a_.begin(), a_.end());
  out.insert(out.end(), t_.begin(), t_.end());
  out.insert(out.end(), lambda_.begin(), lambda_.end());
}

void WaveletLayer::import_parameters(std::span<const double> params,
                                     std::size_t& pos) {
  MPROS_EXPECTS(pos + parameter_count() <= params.size());
  const auto take = [&](std::vector<double>& dst) {
    std::copy_n(params.begin() + static_cast<std::ptrdiff_t>(pos), dst.size(),
                dst.begin());
    pos += dst.size();
  };
  take(a_);
  take(t_);
  take(lambda_);
  for (const double l : lambda_) MPROS_EXPECTS(l >= kMinDilation);
}

}  // namespace mpros::nn
