#include "mpros/nn/network.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "mpros/common/assert.hpp"

namespace mpros::nn {

std::vector<double> softmax(std::span<const double> logits) {
  MPROS_EXPECTS(!logits.empty());
  const double max_logit = *std::max_element(logits.begin(), logits.end());
  std::vector<double> p(logits.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    p[i] = std::exp(logits[i] - max_logit);
    sum += p[i];
  }
  for (double& v : p) v /= sum;
  return p;
}

Network& Network::add_dense(std::size_t in, std::size_t out, Activation act,
                            Rng& rng) {
  if (!layers_.empty()) MPROS_EXPECTS(layers_.back()->output_size() == in);
  layers_.push_back(std::make_unique<DenseLayer>(in, out, act, rng));
  return *this;
}

Network& Network::add_wavelet(std::size_t in, std::size_t wavelons, Rng& rng) {
  if (!layers_.empty()) MPROS_EXPECTS(layers_.back()->output_size() == in);
  layers_.push_back(std::make_unique<WaveletLayer>(in, wavelons, rng));
  return *this;
}

std::size_t Network::input_size() const {
  MPROS_EXPECTS(!layers_.empty());
  return layers_.front()->input_size();
}

std::size_t Network::output_size() const {
  MPROS_EXPECTS(!layers_.empty());
  return layers_.back()->output_size();
}

std::vector<double> Network::forward_raw(std::span<const double> x) {
  MPROS_EXPECTS(!layers_.empty());
  std::span<const double> cur = x;
  for (auto& layer : layers_) cur = layer->forward(cur);
  return std::vector<double>(cur.begin(), cur.end());
}

std::vector<double> Network::predict(std::span<const double> x,
                                     InferenceScratch& scratch) const {
  MPROS_EXPECTS(!layers_.empty());
  standardize(x, scratch.input);
  scratch.layers.resize(layers_.size());
  std::span<const double> cur = scratch.input;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    std::vector<double>& act = scratch.layers[i];
    act.resize(layers_[i]->output_size());
    layers_[i]->infer(cur, act);
    cur = act;
  }
  return softmax(cur);
}

std::vector<double> Network::predict(std::span<const double> x) const {
  InferenceScratch scratch;
  return predict(x, scratch);
}

std::size_t Network::classify(std::span<const double> x) const {
  const std::vector<double> p = predict(x);
  return static_cast<std::size_t>(
      std::max_element(p.begin(), p.end()) - p.begin());
}

void Network::fit_standardizer(std::span<const Example> examples) {
  const std::size_t dim = examples.front().features.size();
  feat_mean_.assign(dim, 0.0);
  feat_scale_.assign(dim, 1.0);
  for (const Example& e : examples) {
    MPROS_EXPECTS(e.features.size() == dim);
    for (std::size_t i = 0; i < dim; ++i) feat_mean_[i] += e.features[i];
  }
  for (double& m : feat_mean_) m /= static_cast<double>(examples.size());

  std::vector<double> var(dim, 0.0);
  for (const Example& e : examples) {
    for (std::size_t i = 0; i < dim; ++i) {
      const double d = e.features[i] - feat_mean_[i];
      var[i] += d * d;
    }
  }
  for (std::size_t i = 0; i < dim; ++i) {
    const double sd = std::sqrt(var[i] / static_cast<double>(examples.size()));
    feat_scale_[i] = sd > 1e-9 ? 1.0 / sd : 1.0;
  }
}

void Network::standardize(std::span<const double> x,
                          std::vector<double>& out) const {
  out.assign(x.begin(), x.end());
  if (feat_mean_.empty()) return;
  MPROS_EXPECTS(x.size() == feat_mean_.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = (x[i] - feat_mean_[i]) * feat_scale_[i];
  }
}

TrainStats Network::train(std::span<const Example> examples,
                          const TrainConfig& cfg, Rng& rng) {
  MPROS_EXPECTS(!examples.empty());
  MPROS_EXPECTS(!layers_.empty());
  fit_standardizer(examples);

  std::vector<std::size_t> order(examples.size());
  std::iota(order.begin(), order.end(), 0);

  TrainStats stats;
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    std::shuffle(order.begin(), order.end(), rng.engine());
    double loss_sum = 0.0;
    std::size_t in_batch = 0;

    std::vector<double> x;
    for (std::size_t n = 0; n < order.size(); ++n) {
      const Example& e = examples[order[n]];
      standardize(e.features, x);
      const std::vector<double> logits = forward_raw(x);
      const std::vector<double> p = softmax(logits);
      MPROS_EXPECTS(e.label < p.size());
      loss_sum += -std::log(std::max(1e-12, p[e.label]));

      // d(cross-entropy)/d(logit) = p - onehot.
      std::vector<double> grad(p);
      grad[e.label] -= 1.0;
      std::span<const double> g = grad;
      for (std::size_t li = layers_.size(); li-- > 0;) {
        g = layers_[li]->backward(g);
      }

      if (++in_batch == cfg.batch_size || n + 1 == order.size()) {
        for (auto& layer : layers_) {
          layer->apply_gradients(cfg.learning_rate, in_batch);
        }
        in_batch = 0;
      }
    }

    stats.epochs_run = epoch + 1;
    stats.final_loss = loss_sum / static_cast<double>(examples.size());
    if (stats.final_loss < cfg.target_loss) break;
  }
  stats.final_accuracy = accuracy(examples);
  return stats;
}

std::size_t Network::weight_count() const {
  std::size_t count = 0;
  for (const auto& layer : layers_) count += layer->parameter_count();
  // Standardizer mean+scale, prefixed by the feature dimension.
  return count + 1 + 2 * feat_mean_.size();
}

std::vector<double> Network::export_weights() const {
  std::vector<double> out;
  out.reserve(weight_count());
  out.push_back(static_cast<double>(feat_mean_.size()));
  out.insert(out.end(), feat_mean_.begin(), feat_mean_.end());
  out.insert(out.end(), feat_scale_.begin(), feat_scale_.end());
  for (const auto& layer : layers_) layer->export_parameters(out);
  return out;
}

void Network::import_weights(std::span<const double> weights) {
  MPROS_EXPECTS(!weights.empty());
  const auto dim = static_cast<std::size_t>(weights[0]);
  std::size_t pos = 1;
  MPROS_EXPECTS(weights.size() >= 1 + 2 * dim);
  feat_mean_.assign(weights.begin() + static_cast<std::ptrdiff_t>(pos),
                    weights.begin() + static_cast<std::ptrdiff_t>(pos + dim));
  pos += dim;
  feat_scale_.assign(
      weights.begin() + static_cast<std::ptrdiff_t>(pos),
      weights.begin() + static_cast<std::ptrdiff_t>(pos + dim));
  pos += dim;
  for (const auto& layer : layers_) layer->import_parameters(weights, pos);
  MPROS_EXPECTS(pos == weights.size());
}

double Network::accuracy(std::span<const Example> examples) const {
  if (examples.empty()) return 0.0;
  std::size_t correct = 0;
  for (const Example& e : examples) {
    if (classify(e.features) == e.label) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(examples.size());
}

}  // namespace mpros::nn
