#pragma once
// Electro-mechanical actuator simulator for the Fig 3 scenario.
//
// "EMAs are essentially large solenoids meant to replace hydraulic
// actuators for the steering of rocket engines. Prediction of this fault
// was done by recognizing stiction in the mechanism." (§6.3) The simulator
// produces the two channels the paper's state machines watch: drive-motor
// current and commanded position (CPOS). Developing stiction injects
// current spikes *not* associated with commanded position changes; healthy
// motion transients accompany CPOS changes.

#include <cstdint>
#include <vector>

#include "mpros/common/rng.hpp"

namespace mpros::plant {

struct EmaSample {
  double current = 0.0;  ///< drive-motor current (A)
  double cpos = 0.0;     ///< commanded position (arbitrary units)
};

struct EmaConfig {
  std::uint64_t seed = 0xE3A;
};

class EmaSimulator {
 public:
  explicit EmaSimulator(EmaConfig cfg = EmaConfig());

  /// Generate `n` samples. `stiction_level` in [0,1] scales the expected
  /// spike rate (0 = healthy); commanded moves occur at `move_rate`
  /// probability per sample and draw motion current legitimately.
  [[nodiscard]] std::vector<EmaSample> generate(std::size_t n,
                                                double stiction_level,
                                                double move_rate = 0.002);

  /// Count of stiction spikes injected by the last generate() call (ground
  /// truth for the E3 scenario assertions).
  [[nodiscard]] std::size_t injected_spikes() const {
    return injected_spikes_;
  }

 private:
  Rng rng_;
  std::size_t injected_spikes_ = 0;
};

}  // namespace mpros::plant
