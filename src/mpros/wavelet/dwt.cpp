#include "mpros/wavelet/dwt.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "mpros/common/assert.hpp"

namespace mpros::wavelet {
namespace {

// Orthonormal Daubechies scaling (low-pass) filters.
constexpr std::array<double, 2> kHaar = {0.7071067811865476,
                                         0.7071067811865476};
constexpr std::array<double, 4> kDb2 = {
    0.48296291314469025, 0.83651630373746899, 0.22414386804185735,
    -0.12940952255092145};
constexpr std::array<double, 8> kDb4 = {
    0.23037781330885523, 0.71484657055254153, 0.63088076792959036,
    -0.02798376941698385, -0.18703481171888114, 0.03084138183598697,
    0.03288301166698295, -0.01059740178499728};

/// Quadrature mirror: g[k] = (-1)^k h[L-1-k].
std::vector<double> wavelet_from_scaling(std::span<const double> h) {
  const std::size_t len = h.size();
  std::vector<double> g(len);
  for (std::size_t k = 0; k < len; ++k) {
    const double sign = (k % 2 == 0) ? 1.0 : -1.0;
    g[k] = sign * h[len - 1 - k];
  }
  return g;
}

}  // namespace

std::span<const double> scaling_coefficients(Family f) {
  switch (f) {
    case Family::Haar: return kHaar;
    case Family::Db2: return kDb2;
    case Family::Db4: return kDb4;
  }
  return kHaar;
}

std::span<const double> wavelet_coefficients(Family f) {
  static const std::vector<double> haar = wavelet_from_scaling(kHaar);
  static const std::vector<double> db2 = wavelet_from_scaling(kDb2);
  static const std::vector<double> db4 = wavelet_from_scaling(kDb4);
  switch (f) {
    case Family::Haar: return haar;
    case Family::Db2: return db2;
    case Family::Db4: return db4;
  }
  return haar;
}

const char* to_string(Family f) {
  switch (f) {
    case Family::Haar: return "haar";
    case Family::Db2: return "db2";
    case Family::Db4: return "db4";
  }
  return "?";
}

DwtLevel dwt_step(std::span<const double> x, Family f) {
  MPROS_EXPECTS(x.size() >= 2 && x.size() % 2 == 0);
  const std::span<const double> h = scaling_coefficients(f);
  const std::span<const double> g = wavelet_coefficients(f);
  const std::size_t n = x.size();
  const std::size_t half = n / 2;
  const std::size_t len = h.size();

  DwtLevel out;
  out.approx.resize(half);
  out.detail.resize(half);
  for (std::size_t i = 0; i < half; ++i) {
    double a = 0.0, d = 0.0;
    for (std::size_t k = 0; k < len; ++k) {
      const std::size_t j = (2 * i + k) % n;  // periodic extension
      a += h[k] * x[j];
      d += g[k] * x[j];
    }
    out.approx[i] = a;
    out.detail[i] = d;
  }
  return out;
}

std::vector<double> idwt_step(std::span<const double> approx,
                              std::span<const double> detail, Family f) {
  MPROS_EXPECTS(approx.size() == detail.size() && !approx.empty());
  const std::span<const double> h = scaling_coefficients(f);
  const std::span<const double> g = wavelet_coefficients(f);
  const std::size_t half = approx.size();
  const std::size_t n = 2 * half;
  const std::size_t len = h.size();

  std::vector<double> x(n, 0.0);
  // Transpose of the analysis operator (orthogonal => inverse).
  for (std::size_t i = 0; i < half; ++i) {
    for (std::size_t k = 0; k < len; ++k) {
      const std::size_t j = (2 * i + k) % n;
      x[j] += h[k] * approx[i] + g[k] * detail[i];
    }
  }
  return x;
}

std::size_t max_levels(std::size_t n) {
  std::size_t levels = 0;
  while (n >= 2 && n % 2 == 0) {
    n /= 2;
    ++levels;
  }
  return levels;
}

Decomposition decompose(std::span<const double> x, Family f,
                        std::size_t levels) {
  Decomposition d;
  decompose(x, f, levels, d);
  return d;
}

void decompose(std::span<const double> x, Family f, std::size_t levels,
               Decomposition& d) {
  MPROS_EXPECTS(levels >= 1 && levels <= max_levels(x.size()));
  const std::span<const double> h = scaling_coefficients(f);
  const std::span<const double> g = wavelet_coefficients(f);
  const std::size_t len = h.size();

  d.family = f;
  d.details.resize(levels);
  // The pyramid runs in place: d.approx holds the current approximation,
  // each pass filters its first `n` samples down to `n/2` (reads at index
  // (2i + k) mod n stay >= the write index i, so in-place is safe only with
  // a separate output row — use the level's detail buffer as the staging
  // area for the half-rate approximation, then copy back).
  d.approx.assign(x.begin(), x.end());
  static thread_local std::vector<double> next_approx;
  std::size_t n = x.size();
  for (std::size_t level = 0; level < levels; ++level) {
    const std::size_t half = n / 2;
    std::vector<double>& detail = d.details[level];
    detail.resize(half);
    if (next_approx.size() < half) next_approx.resize(half);
    // Outputs whose taps all land inside [0, n) (2i + len <= n) read a
    // plain window; only the last few wrap around the periodic extension.
    // Both sum the taps in the same order as dwt_step.
    const double* const src = d.approx.data();
    const auto filter = [&](std::size_t i, const auto& tap) {
      double a = 0.0, dv = 0.0;
      for (std::size_t k = 0; k < len; ++k) {
        const double v = tap(k);
        a += h[k] * v;
        dv += g[k] * v;
      }
      next_approx[i] = a;
      detail[i] = dv;
    };
    const std::size_t interior = n >= len ? (n - len) / 2 + 1 : 0;
    for (std::size_t i = 0; i < interior; ++i) {
      const double* const window = src + 2 * i;
      filter(i, [window](std::size_t k) { return window[k]; });
    }
    for (std::size_t i = interior; i < half; ++i) {
      filter(i, [src, i, n](std::size_t k) { return src[(2 * i + k) % n]; });
    }
    std::copy(next_approx.begin(), next_approx.begin() +
              static_cast<std::ptrdiff_t>(half), d.approx.begin());
    n = half;
  }
  d.approx.resize(n);
}

std::vector<double> reconstruct(const Decomposition& d) {
  MPROS_EXPECTS(!d.details.empty());
  std::vector<double> current = d.approx;
  for (std::size_t level = d.details.size(); level-- > 0;) {
    current = idwt_step(current, d.details[level], d.family);
  }
  return current;
}

}  // namespace mpros::wavelet
