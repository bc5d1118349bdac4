#pragma once
// MIMOSA-style open-standard export (paper §3.3).
//
// "This work is being integrated with industry standards such as Machinery
// Management Open Systems Alliance (MIMOSA)." MIMOSA's CRIS model keys
// everything on (site, agent, asset, measurement location) identities with
// typed health-assessment and proposed-event records; this module renders
// the PDME's fused state into that record shape so a MIMOSA-conformant
// consumer (ICAS, a CMMS) can ingest MPROS conclusions without bespoke
// glue. Rendering is a pipe-delimited flat file — the era's interchange
// medium — with one record type per line.

#include <string>

#include "mpros/pdme/pdme.hpp"

namespace mpros::pdme {

struct MimosaConfig {
  /// MIMOSA site identity for this ship.
  std::string site_id = "USNS-MERCY";
  /// Agent (the reporting system) identity.
  std::string agent_id = "MPROS-PDME";
};

/// Record types emitted:
///   AS  asset registry row        AS|site|asset_id|asset_name|asset_type
///   HA  health assessment         HA|site|asset_id|condition|grade|belief|severity|reports
///   PE  proposed event (work)     PE|site|asset_id|condition|recommendation|p50_days|p90_days
/// Grades: NORMAL, WARNING, ALERT, CRITICAL.
[[nodiscard]] std::string export_mimosa(const PdmeExecutive& pdme,
                                        const oosm::ObjectModel& model,
                                        const MimosaConfig& cfg = {});

/// Grade for one maintenance item: fused belief x severity of at least
/// 0.10 is WARNING, 0.35 ALERT, 0.60 CRITICAL.
[[nodiscard]] const char* mimosa_grade(const MaintenanceItem& item);

}  // namespace mpros::pdme
