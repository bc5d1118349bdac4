#include "mpros/dsp/dct.hpp"

#include <cmath>

#include "mpros/common/assert.hpp"
#include "mpros/common/units.hpp"
#include "mpros/dsp/plan_cache.hpp"

namespace mpros::dsp {

std::vector<double> dct2(std::span<const double> x) {
  return dct2_truncated(x, x.size());
}

std::vector<double> dct2_truncated(std::span<const double> x, std::size_t k) {
  std::vector<double> c(k);
  dct2_truncated(x, c);
  return c;
}

void dct2_truncated(std::span<const double> x, std::span<double> out) {
  MPROS_EXPECTS(!x.empty());
  MPROS_EXPECTS(out.size() <= x.size());
  const std::size_t n = x.size();
  const double norm0 = std::sqrt(1.0 / static_cast<double>(n));
  const double norm = std::sqrt(2.0 / static_cast<double>(n));

  const std::vector<double>& basis =
      DctBasisCache::instance().get(n, out.size());
  for (std::size_t m = 0; m < out.size(); ++m) {
    const double* const row = basis.data() + m * n;
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) sum += x[i] * row[i];
    out[m] = sum * (m == 0 ? norm0 : norm);
  }
}

std::vector<double> make_dct2_basis(std::size_t n, std::size_t k) {
  std::vector<double> basis(k * n);
  for (std::size_t m = 0; m < k; ++m) {
    for (std::size_t i = 0; i < n; ++i) {
      basis[m * n + i] =
          std::cos(kPi * (static_cast<double>(i) + 0.5) *
                   static_cast<double>(m) / static_cast<double>(n));
    }
  }
  return basis;
}

std::vector<double> idct2(std::span<const double> c) {
  MPROS_EXPECTS(!c.empty());
  const std::size_t n = c.size();
  const double norm0 = std::sqrt(1.0 / static_cast<double>(n));
  const double norm = std::sqrt(2.0 / static_cast<double>(n));

  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = c[0] * norm0;
    for (std::size_t m = 1; m < n; ++m) {
      sum += c[m] * norm *
             std::cos(kPi * (static_cast<double>(i) + 0.5) *
                      static_cast<double>(m) / static_cast<double>(n));
    }
    x[i] = sum;
  }
  return x;
}

}  // namespace mpros::dsp
