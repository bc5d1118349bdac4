#include "mpros/dsp/fft.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <mutex>

#include "mpros/common/assert.hpp"
#include "mpros/common/units.hpp"
#include "mpros/dsp/plan_cache.hpp"
#include "mpros/dsp/scratch.hpp"
#include "mpros/telemetry/metrics.hpp"

namespace mpros::dsp {
namespace {

telemetry::Counter& ffts_performed() {
  static telemetry::Counter& c =
      telemetry::Registry::instance().counter("dsp.ffts_performed");
  return c;
}

/// exp(-2*pi*i*k/(2h)), k = 0..h-1: the twiddles of the radix-2 stage with
/// half-length h (a power of two). An n-point plan's stage h reads its
/// n/2-entry table at stride n/(2h); the angles -2*pi*(k*n/(2h))/n and
/// -2*pi*k/(2h) differ only by a power-of-two scale of numerator and
/// denominator, which is exact, so the block has the same bits for every n
/// and all plans share it. Each block is built once, under the lock, and
/// never moves or dies, so plans keep raw pointers into it.
const Complex* stage_twiddles(std::size_t half) {
  static std::mutex mu;
  static std::array<std::unique_ptr<Complex[]>, 64> blocks;
  MPROS_EXPECTS(is_power_of_two(half));
  std::lock_guard lock(mu);
  std::unique_ptr<Complex[]>& block = blocks[std::countr_zero(half)];
  if (!block) {
    block = std::make_unique<Complex[]>(half);
    for (std::size_t k = 0; k < half; ++k) {
      const double angle = -kTwoPi * static_cast<double>(k) /
                           static_cast<double>(2 * half);
      block[k] = Complex(std::cos(angle), std::sin(angle));
    }
  }
  return block.get();
}

}  // namespace

std::size_t next_power_of_two(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

FftPlan::FftPlan(std::size_t n) : n_(n) {
  MPROS_EXPECTS(is_power_of_two(n) && n >= 2);

  bit_reverse_.resize(n);
  std::size_t log2n = 0;
  while ((std::size_t{1} << log2n) < n) ++log2n;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (std::size_t b = 0; b < log2n; ++b) {
      if (i & (std::size_t{1} << b)) r |= std::size_t{1} << (log2n - 1 - b);
    }
    bit_reverse_[i] = r;
  }

  for (std::size_t half = 1; half < n; half <<= 1) {
    stage_twiddle_.push_back(stage_twiddles(half));
  }
}

template <bool Invert>
void FftPlan::transform(std::span<Complex> x) const {
  MPROS_EXPECTS(x.size() == n_);
  ffts_performed().inc();

  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t j = bit_reverse_[i];
    if (i < j) std::swap(x[i], x[j]);
  }

  // std::complex<double> is layout-compatible with double[2]
  // ([complex.numbers.general]), so the butterflies work on the raw parts.
  double* const data = reinterpret_cast<double*>(x.data());
  for (std::size_t stage = 0, half = 1; half < n_; ++stage, half <<= 1) {
    const Complex* const tw = stage_twiddle_[stage];
    for (std::size_t start = 0; start < n_; start += 2 * half) {
      double* const lo = data + 2 * start;
      double* const hi = lo + 2 * half;
      for (std::size_t k = 0; k < half; ++k) {
        // The inverse uses conj(w); negation is exact.
        const double wr = tw[k].real();
        const double wi = Invert ? -tw[k].imag() : tw[k].imag();
        // v = x * w, term for term as std::complex<double> multiplies.
        const double xr = hi[2 * k];
        const double xi = hi[2 * k + 1];
        const double vr = xr * wr - xi * wi;
        const double vi = xr * wi + xi * wr;
        const double ur = lo[2 * k];
        const double ui = lo[2 * k + 1];
        lo[2 * k] = ur + vr;
        lo[2 * k + 1] = ui + vi;
        hi[2 * k] = ur - vr;
        hi[2 * k + 1] = ui - vi;
      }
    }
  }

  if constexpr (Invert) {
    const double inv_n = 1.0 / static_cast<double>(n_);
    for (Complex& c : x) c *= inv_n;
  }
}

void FftPlan::forward(std::span<Complex> x) const { transform<false>(x); }

void FftPlan::inverse(std::span<Complex> x) const { transform<true>(x); }

RealFftPlan::RealFftPlan(std::size_t n)
    : n_(n), half_plan_(n / 2), split_twiddle_(stage_twiddles(n / 2)) {
  MPROS_EXPECTS(is_power_of_two(n) && n >= 4);
  const double angle = -kTwoPi * static_cast<double>(n / 2) /
                       static_cast<double>(n);
  nyquist_twiddle_ = Complex(std::cos(angle), std::sin(angle));
}

void RealFftPlan::forward(std::span<const double> x, std::span<Complex> half,
                          std::span<Complex> scratch) const {
  MPROS_EXPECTS(x.size() <= n_);
  MPROS_EXPECTS(half.size() >= bins() && scratch.size() >= scratch_size());
  const std::size_t m = n_ / 2;

  // Pack adjacent real samples into one complex sample each; anything past
  // the end of `x` is zero padding.
  for (std::size_t j = 0; j < m; ++j) {
    const double re = 2 * j < x.size() ? x[2 * j] : 0.0;
    const double im = 2 * j + 1 < x.size() ? x[2 * j + 1] : 0.0;
    scratch[j] = Complex(re, im);
  }
  half_plan_.forward(scratch.first(m));

  // Split Z (the m-point FFT of the packed signal) into the FFTs of the even
  // and odd subsequences, then recombine: X[k] = E[k] + W^k O[k]. Z is
  // m-periodic, so the two end bins both pair Z[0] with itself.
  const auto split = [&](std::size_t k, Complex zk, Complex zmk, Complex w) {
    const Complex even = 0.5 * (zk + zmk);
    const Complex odd = Complex(0.0, -0.5) * (zk - zmk);
    half[k] = even + w * odd;
  };
  split(0, scratch[0], std::conj(scratch[0]), split_twiddle_[0]);
  for (std::size_t k = 1; k < m; ++k) {
    split(k, scratch[k], std::conj(scratch[m - k]), split_twiddle_[k]);
  }
  split(m, scratch[0], std::conj(scratch[0]), nyquist_twiddle_);
}

void RealFftPlan::inverse(std::span<const Complex> half, std::span<double> x,
                          std::span<Complex> scratch) const {
  MPROS_EXPECTS(half.size() >= bins() && x.size() >= n_);
  MPROS_EXPECTS(scratch.size() >= scratch_size());
  const std::size_t m = n_ / 2;

  // Undo the split: recover the m-point FFT of the packed complex signal.
  for (std::size_t k = 0; k < m; ++k) {
    const Complex xk = half[k];
    const Complex xmk = std::conj(half[m - k]);
    const Complex even = 0.5 * (xk + xmk);
    const Complex odd = 0.5 * (xk - xmk) * std::conj(split_twiddle_[k]);
    scratch[k] = even + Complex(0.0, 1.0) * odd;
  }
  half_plan_.inverse(scratch.first(m));

  for (std::size_t j = 0; j < m; ++j) {
    x[2 * j] = scratch[j].real();
    x[2 * j + 1] = scratch[j].imag();
  }
}

std::vector<Complex> fft_real(std::span<const double> x, std::size_t n) {
  if (n == 0) n = next_power_of_two(std::max<std::size_t>(x.size(), 2));
  MPROS_EXPECTS(is_power_of_two(n) && n >= x.size());

  std::vector<Complex> buf(n, Complex{});
  std::transform(x.begin(), x.end(), buf.begin(),
                 [](double v) { return Complex(v, 0.0); });
  PlanCache::instance().complex_plan(n).forward(buf);
  return buf;
}

std::vector<Complex> ifft(std::span<const Complex> spectrum) {
  MPROS_EXPECTS(is_power_of_two(spectrum.size()));
  std::vector<Complex> buf(spectrum.begin(), spectrum.end());
  PlanCache::instance().complex_plan(buf.size()).inverse(buf);
  return buf;
}

std::vector<Complex> rfft(std::span<const double> x, std::size_t n) {
  if (n == 0) n = next_power_of_two(std::max<std::size_t>(x.size(), 4));
  MPROS_EXPECTS(is_power_of_two(n) && n >= 4 && n >= x.size());

  const RealFftPlan& plan = PlanCache::instance().real_plan(n);
  std::vector<Complex> half(plan.bins());
  plan.forward(x, half, DspScratch::local().complex_lane(0, plan.scratch_size()));
  return half;
}

std::vector<double> irfft(std::span<const Complex> half) {
  MPROS_EXPECTS(half.size() >= 3);
  const std::size_t n = (half.size() - 1) * 2;
  MPROS_EXPECTS(is_power_of_two(n));

  const RealFftPlan& plan = PlanCache::instance().real_plan(n);
  std::vector<double> x(n);
  plan.inverse(half, x, DspScratch::local().complex_lane(0, plan.scratch_size()));
  return x;
}

}  // namespace mpros::dsp
