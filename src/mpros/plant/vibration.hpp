#pragma once
// Vibration and motor-current waveform synthesis.
//
// Substitutes for the paper's shipboard accelerometer data: each failure
// mode contributes its textbook spectral signature, scaled by severity, on
// top of a healthy baseline. The DLI rulebase's warn/alarm levels
// (rules/dli_rules.cpp) are calibrated against these baselines:
//
//   baseline 1x 0.05 g, 2x 0.02 g, gear mesh 0.03 g, vane pass 0.02 g,
//   broadband noise sigma 0.02 g.
//
//   MotorImbalance          1x -> 0.05 + 0.45 s
//   ShaftMisalignment       2x -> 0.02 + 0.32 s, 3x -> 0.14 s
//   BearingHousingLooseness 0.5x/1.5x/2.5x subharmonics + raised 1x..6x
//   Motor/CompressorBearing impulse train at BPFO/BSF exciting a 4.2 kHz
//                           resonance (envelope tones, crest, kurtosis)
//   GearMeshWear            mesh tone + 1x-shaft sidebands
//   PumpCavitation          broadband high-frequency noise + vane pass
//   RotorBarDefect          (current) pole-pass sidebands around 60 Hz
//   StatorWindingFault      (vibration) 2x line tone; (current) elevated rms
//
// Sensor-point attenuation: each fault originates at a machine point; other
// points see it attenuated, like a real machinery train.

#include <array>
#include <span>
#include <vector>

#include "mpros/common/rng.hpp"
#include "mpros/domain/equipment.hpp"
#include "mpros/domain/failure_modes.hpp"

namespace mpros::plant {

/// Accelerometer mounting points on the drive line.
enum class MachinePoint : std::uint8_t { Motor = 0, Gearbox, Compressor };
inline constexpr std::size_t kMachinePointCount = 3;

[[nodiscard]] const char* to_string(MachinePoint p);

using Severities = std::array<double, domain::kFailureModeCount>;

/// Transitory-fault gating: fault signatures appear only in bursts covering
/// `duty` of each `period_s` window (1.0 = steady-state). Models the
/// intermittent phenomena the paper says the WNN exists for ("drawing
/// conclusions from transitory phenomena rather than steady state data",
/// §1.1/§6.2) — e.g. load-dependent rubs, passing defects, chatter.
struct TransientProfile {
  double duty = 1.0;
  double period_s = 0.05;
};

/// The renderer works in blocks of this many samples: tones re-anchor on
/// their exact sin/cos at every block start, and the per-block scratch
/// (tone sums, burst gate, noise draws) is stack arrays of this length.
inline constexpr std::size_t kRenderBlock = 64;

/// One additive tone, amplitude * sin(2*pi*freq_hz*t + phase).
struct Tone {
  double freq_hz;
  double amplitude;
  double phase;
  bool gated;  ///< fault tone, subject to the transient burst envelope
};

/// Write the sum of `tones` (in order) at t = t0 + i / sample_rate_hz into
/// `out`. Each tone is a phasor anchored at every block start on the exact
/// sin/cos of the per-sample argument 2*pi*f*t + phase; sample j of the
/// block is the anchor rotated by j sample periods, read from a per-tone
/// table of exact (cos j*w*dt, sin j*w*dt) built once per call. One sin/cos
/// pair thus serves a block, and no error accumulates along it.
void render_tones(std::span<const Tone> tones, double t0_seconds,
                  double sample_rate_hz, const TransientProfile& transient,
                  std::span<double> out);

/// Add one bearing-impact ring-down,
/// amplitude * exp(-t/tau_s) * sin(2*pi*freq_hz*t) with t = sample time -
/// onset_s, over the 6*tau_s following the onset (samples with t < 0 are
/// skipped). The decaying phasor is anchored at the first sample and then
/// advanced by one multiply-and-rotate per sample.
void add_ring_down(double t0_seconds, double sample_rate_hz, double onset_s,
                   double amplitude, double tau_s, double freq_hz,
                   std::span<double> out);

/// Counter-based standard-normal stream. Draw k is a pure function of
/// (key, k): Box-Muller on two 53-bit splitmix64 uniforms per pair, with
/// u1 in (0, 1] and both outputs of each pair used. There is no rejection,
/// so a window of n samples always consumes exactly n draws.
class NormalStream {
 public:
  explicit NormalStream(std::uint64_t key) : key_(key) {}

  /// Fill `out` with the next out.size() draws.
  void fill(std::span<double> out);

  /// Draws consumed so far.
  [[nodiscard]] std::uint64_t position() const { return next_; }

 private:
  std::uint64_t key_;
  std::uint64_t next_ = 0;
};

class VibrationSynthesizer {
 public:
  VibrationSynthesizer(domain::MachineSignature signature, std::uint64_t seed);

  /// Synthesize `out.size()` acceleration samples (in g) at `sample_rate_hz`
  /// for the accelerometer at `point`, starting at absolute phase time
  /// `t0_seconds` (keeps tones phase-continuous across acquisitions).
  void acceleration(MachinePoint point, const Severities& severities,
                    double load_fraction, double t0_seconds,
                    double sample_rate_hz, std::span<double> out,
                    const TransientProfile& transient = TransientProfile{});

  /// Synthesize motor supply current samples (in A).
  void motor_current(const Severities& severities, double load_fraction,
                     double t0_seconds, double sample_rate_hz,
                     std::span<double> out);

  [[nodiscard]] const domain::MachineSignature& signature() const {
    return signature_;
  }

 private:
  /// Add white noise of standard deviation sigma + gated_sigma * (burst
  /// gate) to `out`, drawn from noise_ in kRenderBlock-sample blocks.
  void add_noise(double sigma, double gated_sigma, double t0_seconds,
                 double sample_rate_hz, const TransientProfile& transient,
                 std::span<double> out);

  domain::MachineSignature signature_;
  Rng rng_;             ///< bearing-impact timing jitter
  NormalStream noise_;  ///< broadband sensor noise
};

}  // namespace mpros::plant
