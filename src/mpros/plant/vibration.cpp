#include "mpros/plant/vibration.hpp"

#include <algorithm>
#include <cmath>

#include "mpros/common/assert.hpp"
#include "mpros/common/units.hpp"

namespace mpros::plant {

using domain::FailureMode;

const char* to_string(MachinePoint p) {
  switch (p) {
    case MachinePoint::Motor: return "motor";
    case MachinePoint::Gearbox: return "gearbox";
    case MachinePoint::Compressor: return "compressor";
  }
  return "?";
}

namespace {

/// Transmission factor from a fault's origin point to the sensing point.
double attenuation(MachinePoint origin, MachinePoint sensor) {
  const int d = std::abs(static_cast<int>(origin) - static_cast<int>(sensor));
  switch (d) {
    case 0: return 1.0;
    case 1: return 0.35;
    default: return 0.12;
  }
}

MachinePoint origin_of(FailureMode m) {
  switch (m) {
    case FailureMode::MotorImbalance:
    case FailureMode::RotorBarDefect:
    case FailureMode::StatorWindingFault:
    case FailureMode::MotorBearingWear:
    case FailureMode::ShaftMisalignment:  // coupling on the motor output end
      return MachinePoint::Motor;
    case FailureMode::GearMeshWear:
      return MachinePoint::Gearbox;
    default:
      return MachinePoint::Compressor;
  }
}

/// Square burst gate: on for `duty` of each period, deterministic phase.
double burst_gate(double t, const TransientProfile& p) {
  if (p.duty >= 1.0) return 1.0;
  const double phase = t - std::floor(t / p.period_s) * p.period_s;
  return phase < p.duty * p.period_s ? 1.0 : 0.0;
}

/// Burst gate for samples first .. first + gate.size() of a window.
void fill_gate(double t0_seconds, double dt, std::size_t first,
               const TransientProfile& p, std::span<double> gate) {
  for (std::size_t j = 0; j < gate.size(); ++j) {
    gate[j] = burst_gate(
        t0_seconds + static_cast<double>(first + j) * dt, p);
  }
}

/// Rotations by 0 .. kRenderBlock - 1 sample periods, (cos j*w*dt,
/// sin j*w*dt), each entry exact from libm, so no error accumulates along a
/// block.
struct BlockRotation {
  std::array<double, kRenderBlock> c;
  std::array<double, kRenderBlock> s;

  BlockRotation(double freq_hz, double dt) {
    const double w = kTwoPi * freq_hz * dt;
    for (std::size_t j = 0; j < kRenderBlock; ++j) {
      c[j] = std::cos(static_cast<double>(j) * w);
      s[j] = std::sin(static_cast<double>(j) * w);
    }
  }
};

/// The SplitMix64 increment: draw n keys on key + n * kGolden.
constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

/// Uniform in [0, 1) from the top 53 bits.
double unit_interval(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

void render_tones(std::span<const Tone> tones, double t0_seconds,
                  double sample_rate_hz, const TransientProfile& transient,
                  std::span<double> out) {
  MPROS_EXPECTS(sample_rate_hz > 0.0);
  const double dt = 1.0 / sample_rate_hz;
  std::vector<BlockRotation> rotations;
  rotations.reserve(tones.size());
  for (const Tone& tone : tones) rotations.emplace_back(tone.freq_hz, dt);

  const bool gating = transient.duty < 1.0;
  std::array<double, kRenderBlock> gate;
  gate.fill(1.0);
  for (std::size_t first = 0; first < out.size(); first += kRenderBlock) {
    const std::size_t n = std::min(kRenderBlock, out.size() - first);
    if (gating) {
      fill_gate(t0_seconds, dt, first, transient,
                std::span<double>(gate).first(n));
    }
    // Whole blocks keep the trip count fixed, so the loops below vectorize;
    // a partial last block computes past `n` into the stack and drops it.
    std::array<double, kRenderBlock> sum;
    sum.fill(0.0);
    const double t = t0_seconds + static_cast<double>(first) * dt;
    for (std::size_t k = 0; k < tones.size(); ++k) {
      const Tone& tone = tones[k];
      // Anchor: the exact sin/cos of the per-sample argument at the block's
      // first sample; sample j is the anchor rotated by j sample periods.
      const double arg = kTwoPi * tone.freq_hz * t + tone.phase;
      const double s = std::sin(arg);
      const double c = std::cos(arg);
      const double amp = tone.amplitude;
      const BlockRotation& r = rotations[k];
      if (tone.gated && gating) {
        for (std::size_t j = 0; j < kRenderBlock; ++j) {
          sum[j] += gate[j] * amp * (s * r.c[j] + c * r.s[j]);
        }
      } else {
        for (std::size_t j = 0; j < kRenderBlock; ++j) {
          sum[j] += amp * (s * r.c[j] + c * r.s[j]);
        }
      }
    }
    std::copy_n(sum.begin(), n, out.subspan(first).begin());
  }
}

void add_ring_down(double t0_seconds, double sample_rate_hz, double onset_s,
                   double amplitude, double tau_s, double freq_hz,
                   std::span<double> out) {
  MPROS_EXPECTS(sample_rate_hz > 0.0 && tau_s > 0.0);
  const double dt = 1.0 / sample_rate_hz;
  const auto first =
      static_cast<std::ptrdiff_t>((onset_s - t0_seconds) * sample_rate_hz);
  const auto last =
      first + static_cast<std::ptrdiff_t>(6.0 * tau_s * sample_rate_hz);
  const auto end =
      std::min<std::ptrdiff_t>(last, static_cast<std::ptrdiff_t>(out.size()));
  auto i = std::max<std::ptrdiff_t>(first, 0);
  double t = 0.0;
  for (; i < end; ++i) {
    t = t0_seconds + static_cast<double>(i) * dt - onset_s;
    if (t >= 0.0) break;
  }
  if (i >= end) return;

  // One sample period: decay factor and rotation (cos w*dt, sin w*dt).
  const double decay = std::exp(-dt / tau_s);
  const double w = kTwoPi * freq_hz * dt;
  const double step_c = std::cos(w);
  const double step_s = std::sin(w);
  const double arg = kTwoPi * freq_hz * t;
  double envelope = amplitude * std::exp(-t / tau_s);
  double s = std::sin(arg);
  double c = std::cos(arg);
  for (; i < end; ++i) {
    out[static_cast<std::size_t>(i)] += envelope * s;
    envelope *= decay;
    const double c_next = c * step_c - s * step_s;
    s = s * step_c + c * step_s;
    c = c_next;
  }
}

void NormalStream::fill(std::span<double> out) {
  // Pair p uses keys 2p and 2p + 1 and yields draws 2p (cosine branch) and
  // 2p + 1 (sine branch).
  const auto pair = [this](std::uint64_t p, double& even, double& odd) {
    const std::uint64_t a = splitmix64(key_ + (2 * p) * kGolden);
    const std::uint64_t b = splitmix64(key_ + (2 * p + 1) * kGolden);
    const double u1 = 1.0 - unit_interval(a);  // (0, 1]: log stays finite
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = kTwoPi * unit_interval(b);
    even = r * std::cos(theta);
    odd = r * std::sin(theta);
  };
  std::size_t i = 0;
  double spare = 0.0;
  if (next_ % 2 == 1 && !out.empty()) {
    pair(next_ / 2, spare, out[0]);
    i = 1;
  }
  for (; i + 1 < out.size(); i += 2) {
    pair((next_ + i) / 2, out[i], out[i + 1]);
  }
  if (i < out.size()) pair((next_ + i) / 2, out[i], spare);
  next_ += out.size();
}

VibrationSynthesizer::VibrationSynthesizer(domain::MachineSignature signature,
                                           std::uint64_t seed)
    : signature_(signature),
      rng_(seed),
      noise_(splitmix64(seed ^ 0x6E6F697365ULL)) {}

void VibrationSynthesizer::acceleration(MachinePoint point,
                                        const Severities& severities,
                                        double load_fraction,
                                        double t0_seconds,
                                        double sample_rate_hz,
                                        std::span<double> out,
                                        const TransientProfile& transient) {
  MPROS_EXPECTS(sample_rate_hz > 0.0 && !out.empty());
  MPROS_EXPECTS(transient.duty > 0.0 && transient.duty <= 1.0);
  MPROS_EXPECTS(transient.period_s > 0.0);
  const double shaft = signature_.shaft_hz;
  const double hss = signature_.high_speed_shaft_hz();
  const double gmf = signature_.gear_mesh_hz();
  const double vpf = signature_.vane_pass_hz();
  const double line = signature_.line_hz;
  const auto sev = [&](FailureMode m) {
    return severities[static_cast<std::size_t>(m)];
  };
  const auto att = [&](FailureMode m) { return attenuation(origin_of(m), point); };

  std::vector<Tone> tones;
  bool adding_fault_tones = false;  // flipped after the baseline block
  const auto add_tone = [&](double freq, double amp, double phase_salt) {
    if (amp <= 0.0 || freq >= sample_rate_hz / 2.0) return;
    // Deterministic per-tone phase: stable across acquisitions.
    const double phase =
        kTwoPi * (0.0001 * static_cast<double>(
                               splitmix64(static_cast<std::uint64_t>(
                                   freq * 1000.0 + phase_salt)) %
                               10000));
    tones.push_back(Tone{freq, amp, phase, adding_fault_tones});
  };

  // Healthy baseline, mildly load-dependent.
  const double load = std::clamp(load_fraction, 0.0, 1.2);
  add_tone(shaft, 0.05 * (0.6 + 0.4 * load), 1);
  add_tone(2.0 * shaft, 0.02, 2);
  add_tone(gmf, 0.03 * (0.5 + 0.5 * load), 3);
  add_tone(vpf, 0.02 * load, 4);
  add_tone(hss, 0.015, 5);
  adding_fault_tones = true;  // everything below is a fault signature

  // Imbalance: 1x grows with severity and with the square of speed (fixed
  // speed here, so linear in severity).
  if (const double s = sev(FailureMode::MotorImbalance) *
                       att(FailureMode::MotorImbalance);
      s > 0.0) {
    add_tone(shaft, 0.45 * s, 10);
  }

  // Misalignment: strong 2x, some 3x, slight axial 1x rise.
  if (const double s = sev(FailureMode::ShaftMisalignment) *
                       att(FailureMode::ShaftMisalignment);
      s > 0.0) {
    add_tone(2.0 * shaft, 0.32 * s, 11);
    add_tone(3.0 * shaft, 0.14 * s, 12);
    add_tone(shaft, 0.05 * s, 13);
  }

  // Looseness: half-order family plus a raised harmonic series; only
  // rattles under load (the rule gate exploits this).
  if (const double s = sev(FailureMode::BearingHousingLooseness) *
                       att(FailureMode::BearingHousingLooseness) *
                       std::clamp(load / 0.5, 0.0, 1.0);
      s > 0.0) {
    for (const double k : {0.5, 1.5, 2.5}) add_tone(k * shaft, 0.16 * s, 20);
    for (int k = 1; k <= 6; ++k) {
      add_tone(k * shaft, 0.10 * s / static_cast<double>(k), 21);
    }
  }

  // Gear wear: mesh tone + sidebands at +/- input shaft speed.
  if (const double s =
          sev(FailureMode::GearMeshWear) * att(FailureMode::GearMeshWear);
      s > 0.0) {
    add_tone(gmf, 0.30 * s, 30);
    add_tone(gmf - shaft, 0.14 * s, 31);
    add_tone(gmf + shaft, 0.14 * s, 32);
  }

  // Stator winding fault: 2x line-frequency magnetic vibration.
  if (const double s = sev(FailureMode::StatorWindingFault) *
                       att(FailureMode::StatorWindingFault);
      s > 0.0) {
    add_tone(2.0 * line, 0.25 * s, 40);
  }

  // Rotor bar: slight 1x modulation in vibration (the main signature is in
  // the current spectrum).
  if (const double s =
          sev(FailureMode::RotorBarDefect) * att(FailureMode::RotorBarDefect);
      s > 0.0) {
    add_tone(shaft, 0.12 * s, 45);
  }

  // Cavitation: strong vane pass plus broadband high-frequency noise
  // (handled in the noise pass below).
  const double cavitation = sev(FailureMode::PumpCavitation) *
                            att(FailureMode::PumpCavitation);
  if (cavitation > 0.0) add_tone(vpf, 0.20 * cavitation, 50);

  // Render tones; fault tones ride the transient burst envelope.
  render_tones(tones, t0_seconds, sample_rate_hz, transient, out);

  // Broadband noise: baseline + cavitation contribution (white, so it
  // lands across the band including the 5-12 kHz window the rules watch).
  add_noise(0.02, 0.13 * cavitation, t0_seconds, sample_rate_hz, transient,
            out);

  // Bearing defects: repetitive impacts exciting a structural resonance.
  struct BearingSource {
    FailureMode mode;
    double order;
  };
  const BearingSource bearings[] = {
      {FailureMode::MotorBearingWear, signature_.bearing.bpfo},
      {FailureMode::CompressorBearingWear, signature_.hss_bearing.bsf},
  };
  const double resonance_hz = std::min(4200.0, sample_rate_hz * 0.4);
  const double dt = 1.0 / sample_rate_hz;
  for (const BearingSource& b : bearings) {
    const double s = sev(b.mode) * att(b.mode);
    if (s <= 0.0) continue;
    // Inner-race-style second tone for the motor bearing as wear spreads.
    const double rates[] = {b.order * (b.mode == FailureMode::MotorBearingWear
                                           ? signature_.shaft_hz
                                           : signature_.high_speed_shaft_hz()),
                            b.mode == FailureMode::MotorBearingWear
                                ? signature_.bearing.bpfi * signature_.shaft_hz
                                : signature_.hss_bearing.ftf *
                                      signature_.high_speed_shaft_hz()};
    const double weights[] = {1.0, 0.55};
    for (int r = 0; r < 2; ++r) {
      const double rate_hz = rates[r];
      if (rate_hz <= 0.0) continue;
      const double period_s = 1.0 / rate_hz;
      const double impact_amp = 0.9 * s * weights[r];
      // Ring-down time constant ~ 1.2 ms.
      const double tau = 1.2e-3;
      const double t_end =
          t0_seconds + static_cast<double>(out.size()) * dt;
      double impact_t = std::floor(t0_seconds / period_s) * period_s;
      for (; impact_t < t_end; impact_t += period_s) {
        // +/-2% timing jitter, characteristic of rolling-element slippage.
        const double jitter = rng_.uniform(-0.02, 0.02) * period_s;
        const double center = impact_t + jitter;
        if (burst_gate(center, transient) == 0.0) continue;  // off-phase
        add_ring_down(t0_seconds, sample_rate_hz, center, impact_amp, tau,
                      resonance_hz, out);
      }
    }
  }
}

void VibrationSynthesizer::motor_current(const Severities& severities,
                                         double load_fraction,
                                         double t0_seconds,
                                         double sample_rate_hz,
                                         std::span<double> out) {
  MPROS_EXPECTS(sample_rate_hz > 0.0 && !out.empty());
  const double line = signature_.line_hz;
  const double load = std::clamp(load_fraction, 0.05, 1.2);
  const auto sev = [&](FailureMode m) {
    return severities[static_cast<std::size_t>(m)];
  };

  // Fundamental amplitude tracks load; winding faults draw extra current;
  // condenser fouling raises compressor head and therefore current too.
  const double nominal_rms = 180.0;
  const double rms = nominal_rms *
                     (0.25 + 0.75 * load) *
                     (1.0 + 0.25 * sev(FailureMode::StatorWindingFault) +
                      0.18 * sev(FailureMode::CondenserFouling));
  const double fundamental = rms * std::sqrt(2.0);

  // Rotor bar sidebands at line +/- 2*slip*pole_pairs. Healthy machines sit
  // ~60 dB below the fundamental; a failed cage approaches ~22 dB.
  const double rotor = sev(FailureMode::RotorBarDefect);
  const double sideband_db = 60.0 - 38.0 * rotor;
  const double sideband_amp = fundamental * std::pow(10.0, -sideband_db / 20.0);
  const double pole_pass =
      2.0 * signature_.slip_hz(load) * signature_.pole_pairs;

  // Winding asymmetry adds a small third harmonic.
  const double stator = sev(FailureMode::StatorWindingFault);
  const Tone tones[] = {
      {line, fundamental, 0.0, false},
      {line - pole_pass, sideband_amp, 0.7, false},
      {line + pole_pass, sideband_amp, 1.9, false},
      {3.0 * line, fundamental * 0.04 * stator, 0.3, false},
  };
  render_tones(std::span<const Tone>(tones).first(stator > 0.0 ? 4 : 3),
               t0_seconds, sample_rate_hz, TransientProfile{}, out);

  add_noise(fundamental * 0.002, 0.0, t0_seconds, sample_rate_hz,
            TransientProfile{}, out);
}

void VibrationSynthesizer::add_noise(double sigma, double gated_sigma,
                                     double t0_seconds, double sample_rate_hz,
                                     const TransientProfile& transient,
                                     std::span<double> out) {
  const double dt = 1.0 / sample_rate_hz;
  std::array<double, kRenderBlock> z;
  std::array<double, kRenderBlock> gate;
  gate.fill(1.0);
  for (std::size_t first = 0; first < out.size(); first += kRenderBlock) {
    const std::size_t n = std::min(kRenderBlock, out.size() - first);
    noise_.fill(std::span<double>(z).first(n));
    if (gated_sigma > 0.0 && transient.duty < 1.0) {
      fill_gate(t0_seconds, dt, first, transient,
                std::span<double>(gate).first(n));
    }
    for (std::size_t j = 0; j < n; ++j) {
      out[first + j] += (sigma + gated_sigma * gate[j]) * z[j];
    }
  }
}

}  // namespace mpros::plant
