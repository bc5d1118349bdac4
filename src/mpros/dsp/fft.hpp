#pragma once
// Radix-2 FFT.
//
// The DC's "Crystal Instruments PCMCIA spectrum analyzer" (paper Fig 5) is
// modelled in software on top of this transform. FftPlan precomputes twiddle
// factors and the bit-reversal permutation for a fixed power-of-two size so
// the steady-state acquisition loop does no allocation.

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace mpros::dsp {

using Complex = std::complex<double>;

[[nodiscard]] constexpr bool is_power_of_two(std::size_t n) {
  return n != 0 && (n & (n - 1)) == 0;
}

/// Smallest power of two >= n.
[[nodiscard]] std::size_t next_power_of_two(std::size_t n);

/// Precomputed in-place FFT for one size. Construction builds the
/// bit-reversal permutation (O(n log n)) and fetches the per-stage twiddle
/// blocks, which all plans share and the first plan needing one builds;
/// steady-state callers should obtain plans from PlanCache (plan_cache.hpp)
/// so that cost is paid once per process, not per acquisition.
///
/// The butterflies spell out the complex multiply as real arithmetic in the
/// order std::complex<double> evaluates it, so whenever the transform stays
/// finite the result is bit-identical to the textbook radix-2 loop over
/// std::complex (which differs only in its NaN-recovery branch).
class FftPlan {
 public:
  /// `n` must be a power of two >= 2.
  explicit FftPlan(std::size_t n);

  [[nodiscard]] std::size_t size() const { return n_; }

  /// In-place forward DFT: x[k] = sum_j x[j] exp(-2*pi*i*j*k/n).
  /// `x` is caller-owned scratch of exactly size() entries; no allocation.
  void forward(std::span<Complex> x) const;

  /// In-place inverse DFT (includes the 1/n normalization).
  void inverse(std::span<Complex> x) const;

 private:
  template <bool Invert>
  void transform(std::span<Complex> x) const;

  std::size_t n_;
  std::vector<std::size_t> bit_reverse_;
  // Forward twiddles per stage: stage s (half-length h = 2^s) reads
  // exp(-2*pi*i*k/(2h)), k = 0..h-1, contiguously. The blocks are shared by
  // every plan in the process (see stage_twiddles() in fft.cpp).
  std::vector<const Complex*> stage_twiddle_;
};

/// Real-input FFT plan: packs n reals into an n/2-point complex FFT and
/// post-splits, halving butterfly work for the dominant real-signal case.
/// All transform methods take caller-owned scratch and never allocate.
class RealFftPlan {
 public:
  /// `n` (number of real samples) must be a power of two >= 4.
  explicit RealFftPlan(std::size_t n);

  [[nodiscard]] std::size_t size() const { return n_; }
  /// Output bins of the half spectrum: n/2 + 1 (DC .. Nyquist inclusive).
  [[nodiscard]] std::size_t bins() const { return n_ / 2 + 1; }
  /// Complex scratch entries needed by forward()/inverse(): n/2.
  [[nodiscard]] std::size_t scratch_size() const { return n_ / 2; }

  /// Forward transform of a real signal into its half spectrum
  /// X[0..n/2]; the full spectrum follows from X[n-k] = conj(X[k]).
  /// `x.size()` may be <= n; missing samples are treated as zero padding.
  /// `half` must hold >= bins() entries, `scratch` >= scratch_size().
  void forward(std::span<const double> x, std::span<Complex> half,
               std::span<Complex> scratch) const;

  /// Inverse of a conjugate-symmetric half spectrum (bins() entries) back
  /// to n real samples. `x` must hold >= n entries.
  void inverse(std::span<const Complex> half, std::span<double> x,
               std::span<Complex> scratch) const;

 private:
  std::size_t n_;
  FftPlan half_plan_;              // n/2-point complex plan
  const Complex* split_twiddle_;   // exp(-2*pi*i*k/n), k < n/2 (shared)
  Complex nyquist_twiddle_;        // the same at k = n/2
};

/// One-shot forward FFT of a real signal. Returns the full complex spectrum
/// of length n (power of two; input is zero-padded if shorter).
[[nodiscard]] std::vector<Complex> fft_real(std::span<const double> x,
                                            std::size_t n = 0);

/// One-shot inverse of a full complex spectrum back to a complex signal.
[[nodiscard]] std::vector<Complex> ifft(std::span<const Complex> spectrum);

/// One-shot real-input FFT via the packed half-size path. Returns the half
/// spectrum (n/2 + 1 bins); n defaults to the next power of two >= max(4,
/// x.size()). Uses the process-wide PlanCache and per-thread scratch.
[[nodiscard]] std::vector<Complex> rfft(std::span<const double> x,
                                        std::size_t n = 0);

/// One-shot inverse of an rfft()-style half spectrum ((n/2)+1 bins) back to
/// n real samples.
[[nodiscard]] std::vector<double> irfft(std::span<const Complex> half);

}  // namespace mpros::dsp
