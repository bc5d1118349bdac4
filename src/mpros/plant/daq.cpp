#include "mpros/plant/daq.hpp"

#include <algorithm>
#include <cmath>

#include "mpros/common/assert.hpp"
#include "mpros/telemetry/metrics.hpp"

namespace mpros::plant {

namespace {

struct DaqMetrics {
  telemetry::Counter& banks_acquired;
  telemetry::Counter& samples_digitized;
  telemetry::Counter& rms_alarms;
  telemetry::Histogram& scan_duration_us;

  static DaqMetrics& get() {
    static DaqMetrics m{
        telemetry::Registry::instance().counter("daq.banks_acquired"),
        telemetry::Registry::instance().counter("daq.samples_digitized"),
        telemetry::Registry::instance().counter("daq.rms_alarms"),
        telemetry::Registry::instance().histogram("daq.scan_duration_us"),
    };
    return m;
  }
};

}  // namespace

DaqChain::DaqChain(SignalSource source) : source_(std::move(source)) {
  MPROS_EXPECTS(source_ != nullptr);
  const std::size_t n = channel_count();
  thresholds_.assign(n, std::nullopt);
  latched_.assign(n, false);
  const double tc_samples =
      kRmsTimeConstant.seconds() * kAlarmSampleRateHz;
  trackers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    trackers_.emplace_back(tc_samples);
  }
}

void DaqChain::set_alarm_threshold(std::size_t channel,
                                   std::optional<double> rms) {
  MPROS_EXPECTS(channel < channel_count());
  thresholds_[channel] = rms;
}

BankAcquisition DaqChain::acquire_bank(std::size_t card, std::size_t bank,
                                       std::size_t samples,
                                       double sample_rate_hz, SimTime now) {
  MPROS_EXPECTS(card < kMuxCards);
  MPROS_EXPECTS(bank < kBanksPerCard);
  MPROS_EXPECTS(samples > 0);
  const double rate = std::min(sample_rate_hz, kMaxSampleRateHz);

  BankAcquisition out;
  out.started = now;
  const SimTime record_start = now + kMuxSettle;
  const SimTime record_length = SimTime::from_seconds(
      static_cast<double>(samples) / rate);
  out.finished = record_start + record_length;

  const std::size_t base =
      (card * kBanksPerCard + bank) * kChannelsPerBank;
  for (std::size_t c = 0; c < kChannelsPerBank; ++c) {
    std::vector<double> waveform(samples);
    source_(base + c, record_start.seconds(), rate, waveform);
    out.waveforms.push_back(std::move(waveform));
    out.channels.push_back(base + c);
  }
  DaqMetrics::get().banks_acquired.inc();
  DaqMetrics::get().samples_digitized.inc(samples * kChannelsPerBank);
  return out;
}

DaqChain::FullScan DaqChain::scan_all(std::size_t samples_per_channel,
                                      double sample_rate_hz, SimTime now) {
  FullScan scan;
  scan.waveforms.resize(channel_count());
  SimTime t = now;
  for (std::size_t card = 0; card < kMuxCards; ++card) {
    for (std::size_t bank = 0; bank < kBanksPerCard; ++bank) {
      BankAcquisition acq =
          acquire_bank(card, bank, samples_per_channel, sample_rate_hz, t);
      for (std::size_t c = 0; c < acq.channels.size(); ++c) {
        scan.total_samples += acq.waveforms[c].size();
        scan.waveforms[acq.channels[c]] = std::move(acq.waveforms[c]);
      }
      t = acq.finished;
    }
  }
  scan.duration = t - now;
  DaqMetrics::get().scan_duration_us.observe(
      static_cast<double>(scan.duration.micros()));
  return scan;
}

std::vector<RmsAlarm> DaqChain::poll_alarms(SimTime now, SimTime duration) {
  MPROS_EXPECTS(duration.micros() > 0);
  const auto samples = static_cast<std::size_t>(
      duration.seconds() * kAlarmSampleRateHz);
  std::vector<RmsAlarm> alarms;
  if (samples == 0) return alarms;

  scratch_.resize(samples);
  for (std::size_t ch = 0; ch < channel_count(); ++ch) {
    if (!thresholds_[ch] || latched_[ch]) continue;
    source_(ch, now.seconds(), kAlarmSampleRateHz, scratch_);
    for (std::size_t i = 0; i < samples; ++i) {
      const double rms = trackers_[ch].step(scratch_[i]);
      if (rms > *thresholds_[ch]) {
        alarms.push_back(RmsAlarm{
            ch,
            now + SimTime::from_seconds(static_cast<double>(i) /
                                        kAlarmSampleRateHz),
            rms});
        latched_[ch] = true;
        DaqMetrics::get().rms_alarms.inc();
        break;
      }
    }
  }
  return alarms;
}

void DaqChain::rearm_alarms() {
  std::fill(latched_.begin(), latched_.end(), false);
  for (auto& tracker : trackers_) tracker.reset();
}

}  // namespace mpros::plant
