#include "mpros/plant/ema.hpp"

#include <algorithm>

#include "mpros/common/assert.hpp"

namespace mpros::plant {

namespace {

constexpr double kBaselineCurrent = 2.0;
constexpr double kMotionCurrent = 5.0;  ///< extra current while slewing
constexpr double kSpikeCurrent = 6.0;   ///< stiction spike height
constexpr double kNoiseSigma = 0.05;
constexpr std::size_t kSpikeWidth = 2;  ///< samples at elevated current
constexpr std::size_t kSettleGap = 10;  ///< min samples between events

}  // namespace

EmaSimulator::EmaSimulator(EmaConfig cfg) : rng_(cfg.seed) {}

std::vector<EmaSample> EmaSimulator::generate(std::size_t n,
                                              double stiction_level,
                                              double move_rate) {
  MPROS_EXPECTS(stiction_level >= 0.0 && stiction_level <= 1.0);
  std::vector<EmaSample> out(n);
  injected_spikes_ = 0;

  double cpos = 0.0;
  std::size_t cooldown = 0;       // samples until the next event may start
  std::size_t motion_left = 0;    // samples remaining in a commanded move
  std::size_t spike_left = 0;     // samples remaining in a stiction spike

  // Expected spikes per sample at full stiction; tuned so a few thousand
  // samples at level 1.0 yield well over the ">4 spikes" trip count.
  const double spike_rate = 0.004 * stiction_level;

  for (std::size_t i = 0; i < n; ++i) {
    double current = kBaselineCurrent;

    if (cooldown > 0) --cooldown;

    if (motion_left > 0) {
      current += kMotionCurrent;
      cpos += 0.5;  // the commanded ramp continues
      --motion_left;
      if (motion_left == 0) cooldown = kSettleGap;
    } else if (spike_left > 0) {
      current += kSpikeCurrent;
      --spike_left;
      if (spike_left == 0) cooldown = kSettleGap;
    } else if (cooldown == 0) {
      if (rng_.bernoulli(move_rate)) {
        motion_left = 8;  // commanded slew: current AND cpos change together
      } else if (rng_.bernoulli(spike_rate)) {
        spike_left = kSpikeWidth;  // stiction: current only
        ++injected_spikes_;
      }
    }

    out[i].current = current + rng_.normal(0.0, kNoiseSigma);
    out[i].cpos = cpos;
  }
  return out;
}

}  // namespace mpros::plant
