#pragma once
// DCT-II, another WNN feature listed in §6.2.

#include <cstddef>
#include <span>
#include <vector>

namespace mpros::dsp {

/// Orthonormal DCT-II of x. O(n^2) direct form: feature vectors here are
/// small (<= a few hundred points), so clarity wins over an FFT mapping.
[[nodiscard]] std::vector<double> dct2(std::span<const double> x);

/// Inverse of dct2 (orthonormal DCT-III).
[[nodiscard]] std::vector<double> idct2(std::span<const double> c);

/// First `k` DCT coefficients of x (k <= x.size()).
[[nodiscard]] std::vector<double> dct2_truncated(std::span<const double> x,
                                                 std::size_t k);

/// Allocation-free variant: writes the first out.size() coefficients of x
/// into `out` (out.size() <= x.size(), no overlap with x). The cosine basis
/// comes from the process-wide DctBasisCache (plan_cache.hpp), so a steady
/// (x.size(), out.size()) pair evaluates no cos() and allocates nothing.
void dct2_truncated(std::span<const double> x, std::span<double> out);

/// The k x n DCT-II cosine basis, row-major: entry [m * n + i] is
/// cos(pi * (i + 0.5) * m / n).
[[nodiscard]] std::vector<double> make_dct2_basis(std::size_t n,
                                                  std::size_t k);

}  // namespace mpros::dsp
