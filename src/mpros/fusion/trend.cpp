#include "mpros/fusion/trend.hpp"

#include <algorithm>
#include <cmath>

#include "mpros/common/assert.hpp"

namespace mpros::fusion {

namespace {

constexpr std::size_t kMinPoints = 3;     ///< history needed before projecting
constexpr double kFailureSeverity = 1.0;  ///< severity treated as failure
/// Severity slope below this (per day) is treated as "not degrading"
/// (1e-3/day ≈ 3 years to traverse the severity scale — beyond any
/// actionable horizon).
constexpr double kMinSlopePerDay = 1e-3;
/// Minimum fit quality before a projection is trusted; noisy plateaus
/// (e.g. a fuzzy engine's saturated severity) must not project.
constexpr double kMinRSquared = 0.4;

}  // namespace

TrendProjector::TrendProjector(TrendConfig cfg) : cfg_(cfg) {
  MPROS_EXPECTS(cfg.max_points >= kMinPoints);
}

void TrendProjector::linearize() {
  if (head_ == 0) return;
  std::rotate(history_.begin(),
              history_.begin() + static_cast<std::ptrdiff_t>(head_),
              history_.end());
  head_ = 0;
}

void TrendProjector::observe(SimTime t, double severity) {
  MPROS_EXPECTS(severity >= 0.0 && severity <= 1.0);
  if (history_.size() == cfg_.max_points && cfg_.max_points > 0) {
    const std::size_t newest = (head_ + history_.size() - 1) % history_.size();
    if (!(t < history_[newest].t)) {
      // Full window, in-order arrival (the ingest steady state): overwrite
      // the oldest slot in place. Equivalent to the general path below —
      // insert at the end, then drop the front — without the O(window)
      // shift per report.
      history_[head_] = Sample{t, severity};
      head_ = (head_ + 1) % history_.size();
      return;
    }
    linearize();
  }
  const auto pos = std::upper_bound(
      history_.begin(), history_.end(), t,
      [](SimTime value, const Sample& s) { return value < s.t; });
  history_.insert(pos, Sample{t, severity});
  if (history_.size() > cfg_.max_points) {
    history_.erase(history_.begin());
  }
}

std::optional<TrendFit> TrendProjector::fit() const {
  if (history_.size() < kMinPoints) return std::nullopt;

  // Index circularly from head_ so the sums accumulate in time order —
  // bit-identical to the flat-vector iteration this replaced.
  const std::size_t count = history_.size();
  const double n = static_cast<double>(count);
  double sum_t = 0.0, sum_s = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const Sample& p = history_[(head_ + i) % count];
    sum_t += p.t.days();
    sum_s += p.severity;
  }
  const double mean_t = sum_t / n;
  const double mean_s = sum_s / n;

  double sxx = 0.0, sxy = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const Sample& p = history_[(head_ + i) % count];
    const double dt = p.t.days() - mean_t;
    const double ds = p.severity - mean_s;
    sxx += dt * dt;
    sxy += dt * ds;
    syy += ds * ds;
  }
  if (sxx <= 0.0) return std::nullopt;  // all samples at one instant

  TrendFit f;
  f.slope_per_day = sxy / sxx;
  f.intercept = mean_s - f.slope_per_day * mean_t;
  f.r_squared = syy > 0.0 ? (sxy * sxy) / (sxx * syy) : 1.0;
  return f;
}

std::optional<SimTime> TrendProjector::time_to_failure(SimTime now) const {
  const auto f = fit();
  if (!f || f->slope_per_day < kMinSlopePerDay ||
      f->r_squared < kMinRSquared) {
    return std::nullopt;
  }

  const double days_to_failure =
      (kFailureSeverity - (f->intercept + f->slope_per_day * now.days())) /
      f->slope_per_day;
  if (days_to_failure <= 0.0) return SimTime(0);
  return SimTime::from_days(days_to_failure);
}

PrognosticVector TrendProjector::project(SimTime now) const {
  const auto ttf = time_to_failure(now);
  if (!ttf) return PrognosticVector{};

  // Probability shape around the projected crossing: failure is as likely
  // as not at the crossing, and nearly certain 50% further out. The head
  // of the curve stays shallow so early projections are not alarmist.
  const double ttf_days = std::max(0.01, ttf->days());
  std::vector<PrognosticPoint> points;
  points.push_back({SimTime::from_days(0.5 * ttf_days), 0.10});
  points.push_back({SimTime::from_days(ttf_days), 0.50});
  points.push_back({SimTime::from_days(1.5 * ttf_days), 0.95});
  return PrognosticVector(std::move(points));
}

}  // namespace mpros::fusion
