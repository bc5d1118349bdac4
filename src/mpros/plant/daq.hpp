#pragma once
// The Data Concentrator acquisition hardware (paper Fig 5 / §8).
//
// Modelled chain: two 16x4 MUX cards feed a 4-channel spectrum-analyzer
// card ("Crystal Instruments PCMCIA", >40 kHz per channel), so the 32
// channels are digitized four at a time, bank by bank. Independently of the
// digitizer, every channel carries an analog RMS detector with a
// programmable threshold that "allows for real-time and constant alarming
// for all sensors" — even channels not currently selected.

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "mpros/common/clock.hpp"
#include "mpros/dsp/filter.hpp"

namespace mpros::plant {

/// Fills `out` with samples of `channel` starting at absolute time `t0_s`.
using SignalSource = std::function<void(
    std::size_t channel, double t0_s, double sample_rate_hz,
    std::span<double> out)>;

/// The Fig 5 layout: two MUX cards of four banks, four channels per bank.
inline constexpr std::size_t kMuxCards = 2;
inline constexpr std::size_t kBanksPerCard = 4;
inline constexpr std::size_t kChannelsPerBank = 4;
inline constexpr double kMaxSampleRateHz = 51200.0;  ///< "exceeds 40,000 Hz"
/// Settling time per bank switch.
inline constexpr SimTime kMuxSettle = SimTime::from_millis(2.0);
/// RMS detectors: analog, modelled at this internal sampling rate with an
/// exponential window of `kRmsTimeConstant`.
inline constexpr double kAlarmSampleRateHz = 4096.0;
inline constexpr SimTime kRmsTimeConstant = SimTime::from_millis(50.0);

struct RmsAlarm {
  std::size_t channel = 0;
  SimTime at;       ///< first instant the RMS crossed the threshold
  double rms = 0.0; ///< RMS value at detection
};

struct BankAcquisition {
  std::vector<std::vector<double>> waveforms;  ///< channels_per_bank entries
  std::vector<std::size_t> channels;           ///< absolute channel indices
  SimTime started;
  SimTime finished;
};

class DaqChain {
 public:
  explicit DaqChain(SignalSource source);

  [[nodiscard]] static constexpr std::size_t channel_count() {
    return kMuxCards * kBanksPerCard * kChannelsPerBank;
  }

  /// Program one channel's RMS alarm threshold (nullopt disables).
  void set_alarm_threshold(std::size_t channel, std::optional<double> rms);

  /// Digitize one bank (card, bank) of 4 channels for `samples` samples at
  /// `sample_rate_hz` (clamped to the card's maximum), starting at `now`.
  /// Returns the waveforms and the time the acquisition finished (switch
  /// settle + record length).
  [[nodiscard]] BankAcquisition acquire_bank(std::size_t card,
                                             std::size_t bank,
                                             std::size_t samples,
                                             double sample_rate_hz,
                                             SimTime now);

  /// Digitize every bank sequentially starting at `now`. Returns one
  /// waveform per channel and the total wall (simulated) duration.
  struct FullScan {
    std::vector<std::vector<double>> waveforms;  ///< by absolute channel
    SimTime duration;
    std::size_t total_samples = 0;
  };
  [[nodiscard]] FullScan scan_all(std::size_t samples_per_channel,
                                  double sample_rate_hz, SimTime now);

  /// Run the always-on RMS detectors over [now, now + duration) and return
  /// threshold crossings (at most one alarm per channel per call; detectors
  /// latch until rearm_alarms()).
  [[nodiscard]] std::vector<RmsAlarm> poll_alarms(SimTime now,
                                                  SimTime duration);
  void rearm_alarms();

 private:
  SignalSource source_;
  std::vector<std::optional<double>> thresholds_;
  std::vector<dsp::RmsTracker> trackers_;
  std::vector<bool> latched_;
  std::vector<double> scratch_;
};

}  // namespace mpros::plant
