#pragma once
// Process-wide FFT plan, window and DCT basis caches.
//
// The vibration test path runs the same handful of transform sizes on every
// acquisition, but plan construction (bit-reversal table + twiddles,
// O(n log n)) and window synthesis (n transcendental evaluations) used to be
// paid per call. These caches build each plan/window once per process and
// hand out stable references for its lifetime: nothing is ever evicted, so
// a returned reference stays valid forever and the steady-state lookup is a
// shared-lock map probe. Hits and misses are counted through the telemetry
// registry ("dsp.plan_cache_hit" / "dsp.plan_cache_miss" and the window
// and DCT equivalents); because entries are never evicted, the miss count
// equals the number of plans built.

#include <cstddef>
#include <map>
#include <memory>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "mpros/dsp/fft.hpp"
#include "mpros/dsp/window.hpp"

namespace mpros::dsp {

/// Window coefficients with their normalization gains precomputed, so
/// spectrum code pays neither the cos() synthesis nor the gain reductions
/// per call.
struct CachedWindow {
  std::vector<double> coeffs;
  double coherent_gain = 0.0;  // sum of coefficients
  double power_gain = 0.0;     // sum of squared coefficients
};

/// Thread-safe cache of FftPlan / RealFftPlan keyed by transform size.
class PlanCache {
 public:
  static PlanCache& instance();

  /// n-point complex plan (n = power of two >= 2). Built on first request.
  const FftPlan& complex_plan(std::size_t n);

  /// n-real-sample packed plan (n = power of two >= 4).
  const RealFftPlan& real_plan(std::size_t n);

  /// Number of distinct plans currently cached (tests/diagnostics).
  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::shared_mutex mu_;
  std::map<std::size_t, std::unique_ptr<FftPlan>> complex_;
  std::map<std::size_t, std::unique_ptr<RealFftPlan>> real_;
};

/// Thread-safe cache of window tapers keyed by (kind, length).
class WindowCache {
 public:
  static WindowCache& instance();

  /// Window of `n` coefficients. Built on first request; the reference is
  /// stable for the life of the process.
  const CachedWindow& get(WindowKind kind, std::size_t n);

  [[nodiscard]] std::size_t size() const;

 private:
  using Key = std::pair<WindowKind, std::size_t>;
  mutable std::shared_mutex mu_;
  std::map<Key, std::unique_ptr<CachedWindow>> windows_;
};

/// Thread-safe cache of truncated DCT-II cosine bases keyed by (n, k): the
/// WNN's spectral-shape features take the same k coefficients of the same
/// n-bin spectrum on every window. Each entry holds k * n doubles.
class DctBasisCache {
 public:
  static DctBasisCache& instance();

  /// make_dct2_basis(n, k), built on first request; the reference is stable
  /// for the life of the process.
  const std::vector<double>& get(std::size_t n, std::size_t k);

 private:
  using Key = std::pair<std::size_t, std::size_t>;
  std::shared_mutex mu_;
  std::map<Key, std::unique_ptr<std::vector<double>>> bases_;
};

}  // namespace mpros::dsp
