#include "mpros/dc/supervisor.hpp"

#include "mpros/common/log.hpp"
#include "mpros/telemetry/metrics.hpp"

namespace mpros::dc {

bool DcSupervisor::observe(DcId dc, std::uint64_t progress, SimTime now) {
  Watch& w = watches_[dc.value()];
  if (!w.seen || progress != w.progress) {
    w.seen = true;
    w.progress = progress;
    w.last_change = now;
    return false;
  }
  if (now - w.last_change < kWedgeTimeout) return false;

  static telemetry::Counter& wedges =
      telemetry::Registry::instance().counter("dc.wedges_detected");
  wedges.inc();
  ++stats_.wedges_detected;
  MPROS_LOG_WARN("dc",
                 "dc-%llu wedged: no progress for %.0f s (tick stuck at %llu)",
                 static_cast<unsigned long long>(dc.value()),
                 (now - w.last_change).seconds(),
                 static_cast<unsigned long long>(progress));
  // Re-arm so a caller that declines the restart is not re-alarmed every
  // observation; the verdict fires again after another full timeout.
  w.last_change = now;
  return true;
}

void DcSupervisor::notify_restarted(DcId dc, std::uint64_t progress,
                                    SimTime now) {
  static telemetry::Counter& restarts =
      telemetry::Registry::instance().counter("mpros.supervisor_restarts");
  restarts.inc();
  ++stats_.restarts;
  watches_[dc.value()] = Watch{progress, now, true};
}

}  // namespace mpros::dc
