#pragma once
// The Prognostic/Diagnostic Monitoring Engine (paper §3.1).
//
// "The PDME is the logical center of the MPROS system. Diagnostic and
// prognostic conclusions are collected from DC-resident algorithms ...
// Fusion of conflicting and reinforcing source conclusions is performed to
// form a prioritized list for the use of maintenance personnel."
//
// Report flow implements §5.1's four-step format literally:
//  1. arriving reports are posted into the OOSM (as Report objects that
//     RefersTo the sensed machine),
//  2. the OOSM's event model notifies Knowledge Fusion,
//  3. KF reads the new report and fuses diagnostics (Dempster-Shafer per
//     logical group) and prognostics (conservative envelope),
//  4. fused conclusions are posted back to the OOSM and drive the browser.
//
// Everything runs inline on the caller's thread: accept()/submit() post and
// fuse synchronously, so every query reflects every report already handed
// in. The PDME's load is a few reports per DC-hour.

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "mpros/fusion/diagnostic_fusion.hpp"
#include "mpros/fusion/prognostic_fusion.hpp"
#include "mpros/fusion/trend.hpp"
#include "mpros/net/messages.hpp"
#include "mpros/net/network.hpp"
#include "mpros/net/reliable.hpp"
#include "mpros/net/report.hpp"
#include "mpros/oosm/object_model.hpp"

namespace mpros::pdme {

/// One line of the prioritized maintenance list.
struct MaintenanceItem {
  ObjectId machine;
  domain::FailureMode mode{};
  double fused_belief = 0.0;     ///< Bel({mode}) from Dempster-Shafer
  double plausibility = 0.0;
  double max_severity = 0.0;     ///< worst severity reported for the mode
  double priority = 0.0;         ///< belief x severity, the sort key
  std::size_t report_count = 0;  ///< reports contributing to the group
  std::optional<SimTime> median_ttf;  ///< fused P(fail) reaches 0.5
  std::optional<SimTime> p90_ttf;     ///< fused P(fail) reaches 0.9
  /// §10.1 temporal reasoning: projected time-to-failure from the severity
  /// trend across this mode's report history (absent while the trend is
  /// flat, improving, or under-sampled).
  std::optional<SimTime> trend_ttf;
};

struct PdmeConfig {
  /// Reports older than this against the same (machine, condition) replace
  /// nothing — exact duplicates (retransmissions) are dropped by signature.
  bool deduplicate = true;

  /// Adaptive "closer look" (§6.3): when a severe fused report arrives
  /// while its group still carries real unknown mass, the PDME commands the
  /// originating DC to run an immediate vibration test. Requires
  /// attach_to_network(); at most one command per (machine, mode) per hour
  /// of report time.
  bool auto_retest = false;

  /// DC liveness supervision: the watchdog interval the DCs are expected to
  /// beat (matches DcConfig::heartbeat_period in the assembled system). A
  /// machinery space silent for two intervals is Stale, for three Lost. Any
  /// report, heartbeat or sensor batch from the DC restores Alive.
  SimTime heartbeat_interval = SimTime::from_seconds(60.0);
};

/// The latest word on each instrument channel the validators flagged:
/// severity > 0 = fault standing, 0 = cleared. Keyed by
/// (dc, sensed object, fault kind); newest report wins.
struct SensorFaultRecord {
  DcId dc;
  ObjectId object;
  domain::SensorFaultKind kind{};
  double severity = 0.0;
  SimTime at;
  std::string explanation;
};

/// Watchdog verdict on one DC's report stream.
enum class DcLiveness : std::uint8_t { Alive = 0, Stale, Lost };

[[nodiscard]] const char* to_string(DcLiveness liveness);

struct DcHealth {
  DcLiveness liveness = DcLiveness::Alive;
  SimTime last_heard;           ///< newest report/heartbeat/sensor arrival
  std::uint64_t heartbeats = 0;
};

class PdmeExecutive {
 public:
  /// `model` must outlive the executive. The executive subscribes to OOSM
  /// events so that report objects posted by anyone (not just accept())
  /// reach knowledge fusion (§4.5).
  explicit PdmeExecutive(oosm::ObjectModel& model, PdmeConfig cfg = {});
  ~PdmeExecutive();

  PdmeExecutive(const PdmeExecutive&) = delete;
  PdmeExecutive& operator=(const PdmeExecutive&) = delete;

  /// THE ingest entry point: every report path — the wire adapter's decoded
  /// ReportBatch, in-process posts (accept(), replay, tests) — funnels
  /// through here. Each contiguous run sharing a nonzero (dc, sequence) is
  /// one sequenced datagram: a duplicate run is dropped whole (the
  /// retransmitted batch was already fused), a fresh run is ingested and
  /// commits exactly one sequence number on the DC's report stream.
  /// Elements with sequence == 0 are in-process posts with no stream
  /// state. Acks are the wire adapter's job — submit() itself never
  /// touches the network. Returns the last report object posted (nullopt
  /// when every report in the span was a duplicate).
  std::optional<ObjectId> submit(std::span<const net::ReportEnvelope> reports);

  /// Step 1 of §5.1: post a report into the OOSM (and let the event chain
  /// run fusion). A one-element unsequenced span through submit(). Returns
  /// the created report object's id; nullopt if the report was a duplicate
  /// retransmission or malformed (counted, never posted).
  std::optional<ObjectId> accept(const net::FailureReport& report);

  /// Post a sensor-data batch: values land as properties on the machine's
  /// OOSM object (the §1 open-interface flow; PDME-resident algorithms
  /// subscribe to the resulting OOSM events).
  void accept(const net::SensorDataMessage& data);

  /// Post a DC liveness beacon delivered at `at`: refreshes the watchdog,
  /// counts the beat, and checks the advertised tail sequence for loss the
  /// envelope stream alone cannot reveal. Replay uses this to rebuild the
  /// live run's DC-health ledger from recorded frames.
  void accept(const net::HeartbeatMessage& hb, SimTime at);

  /// The per-step aggregation barrier. A no-op: ingest posts and fuses
  /// inline, so state is consistent after every call. Kept for step loops
  /// that run an explicit barrier.
  void synchronize() {}

  /// Record that any datagram from `dc` arrived at `at` (restores a
  /// Stale/Lost DC to Alive). The network adapter calls this for every
  /// well-formed arrival; replay calls it per recorded frame.
  void note_dc_alive(DcId dc, SimTime at);

  /// Wire adapter: register this executive as the "pdme" endpoint on the
  /// simulated ship network. Malformed payloads are counted, not fatal.
  void attach_to_network(net::SimNetwork& network,
                         const std::string& endpoint_name = "pdme");

  /// Declare a DC the watchdog must supervise from `since` on; without
  /// this, a DC partitioned before its first datagram would never be
  /// missed. The assembler registers every DC at construction.
  void expect_dc(DcId dc, SimTime since);

  /// Run the liveness watchdog at `now`: DCs silent past the configured
  /// missed-interval thresholds transition to Stale/Lost (logged).
  void update_liveness(SimTime now);

  [[nodiscard]] DcLiveness dc_liveness(DcId dc) const;
  [[nodiscard]] const std::map<std::uint64_t, DcHealth>& dc_health() const {
    return dc_health_;
  }

  /// Per-DC reliable-stream state (gap bookkeeping, cumulative acks).
  [[nodiscard]] const net::ReliableReceiver& receiver() const {
    return receiver_;
  }

  /// Control plane: stamp the next per-DC revision on `settings` and queue
  /// the command on that DC's reliable command stream (acked, retransmitted
  /// with backoff by sweep_commands()) so a partitioned or restarting DC
  /// still converges on the newest configuration. Returns the stamped
  /// revision. Works before attach_to_network(): the command waits in the
  /// retransmit window until a sweep finds the wire.
  std::uint64_t send_command(
      DcId dc, std::vector<std::pair<std::string, double>> settings,
      std::string reason, SimTime at);

  /// Drive the per-DC command retransmit windows at `now` (the assembler
  /// calls this once per step; the PDME has no scheduler of its own).
  void sweep_commands(SimTime now);

  /// Command-stream sender for `dc` (nullptr before the first
  /// send_command to it). Tests assert window drain / backoff through it.
  [[nodiscard]] const net::ReliableSender* command_stream(DcId dc) const;

  [[nodiscard]] std::vector<SensorFaultRecord> sensor_faults(
      bool active_only = true) const;

  /// The prioritized list (§3.1), most urgent first.
  [[nodiscard]] std::vector<MaintenanceItem> prioritized_list() const;
  [[nodiscard]] std::vector<MaintenanceItem> prioritized_list(
      ObjectId machine) const;

  /// Fused prognostic curve for one (machine, mode), if any prognostic
  /// reports arrived.
  [[nodiscard]] std::optional<fusion::PrognosticVector> prognosis(
      ObjectId machine, domain::FailureMode mode) const;

  /// §10.1: the data-driven prognostic curve projected from the severity
  /// trend of this mode's reports (horizons relative to the latest report).
  [[nodiscard]] fusion::PrognosticVector trend_prognosis(
      ObjectId machine, domain::FailureMode mode) const;

  /// Dempster-Shafer state for a machine's logical group.
  [[nodiscard]] fusion::GroupState group_state(
      ObjectId machine, domain::LogicalGroup group) const;

  /// Reports accumulated for one machine, arrival order.
  [[nodiscard]] std::vector<net::FailureReport> reports_for(
      ObjectId machine) const;

  /// Every field is a monotonic counter (gauges — queue depths, inflight
  /// windows — live in the telemetry registry, not here). Report-level and
  /// datagram-level counters are distinct: envelopes_accepted /
  /// duplicate_envelopes count sequenced datagrams (a whole batch is one),
  /// reports_accepted / duplicates_dropped count the reports inside them.
  struct Stats {
    std::uint64_t reports_accepted = 0;
    std::uint64_t duplicates_dropped = 0;
    /// Datagrams that do not decode, plus reports fusion cannot fold: an
    /// unknown condition, a non-finite value, or a hand-posted Report object
    /// missing a property or holding one of the wrong type.
    std::uint64_t malformed_dropped = 0;
    std::uint64_t fusion_updates = 0;
    std::uint64_t sensor_batches = 0;
    std::uint64_t retests_commanded = 0;
    std::uint64_t envelopes_accepted = 0;
    /// Sequenced datagrams dropped whole as retransmissions (each may have
    /// carried many reports — those land in duplicates_dropped).
    std::uint64_t duplicate_envelopes = 0;
    std::uint64_t acks_sent = 0;
    std::uint64_t gaps_detected = 0;
    std::uint64_t heartbeats_received = 0;
    std::uint64_t sensor_fault_reports = 0;
    std::uint64_t liveness_transitions = 0;  ///< Alive<->Stale<->Lost edges
    /// Always 0: ingest has no queue to fill. Kept for readers that check
    /// it alongside malformed_dropped.
    std::uint64_t queue_full = 0;
    std::uint64_t commands_sent = 0;  ///< control-plane commands queued
    std::uint64_t command_acks = 0;   ///< DC acks routed to command streams

    friend bool operator==(const Stats&, const Stats&) = default;
  };
  [[nodiscard]] Stats snapshot() const { return stats_; }

  [[nodiscard]] oosm::ObjectModel& model() { return model_; }
  [[nodiscard]] const oosm::ObjectModel& model() const { return model_; }

  /// Forget everything known about a machine (post-maintenance reset).
  void reset_machine(ObjectId machine);

  /// Disaster recovery (§4.9 "long-term unattended operation"): rebuild
  /// fusion state from the Report objects already persisted in the OOSM.
  /// Call on a freshly constructed executive over a reloaded model; reports
  /// are re-fused in creation order — the order the live executive posted
  /// them, which Persistence::load preserves — so the Dempster-Shafer
  /// floating-point folds replay bit-identically (a timestamp sort would
  /// reorder same-stamp reports and perturb the folds at the last ulp).
  /// Returns how many were recovered.
  std::size_t rebuild_from_model();

  /// Restore one DC's watchdog record from persisted state (crash
  /// recovery only — the browser renders last-heard/heartbeats, so a
  /// recovered ship must report the values the crashed one had).
  void restore_dc_health(DcId dc, const DcHealth& health);

  /// Seed the §5.8 command-revision counter for one DC (crash recovery
  /// only): the DC rejects any revision at or below its applied one, so a
  /// recovered PDME must resume stamping past the last revision the
  /// crashed run durably applied. Keeps the larger of the two.
  void restore_command_revision(DcId dc, std::uint64_t revision);

 private:
  struct ModeKey {
    std::uint64_t machine;
    domain::FailureMode mode;
    auto operator<=>(const ModeKey&) const = default;
  };
  struct ModeTrack {
    fusion::PrognosticVector fused_prognosis;
    fusion::TrendProjector trend;
    SimTime latest_report;
    double max_severity = 0.0;
    std::size_t reports = 0;
  };
  using SensorFaultKey =
      std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>;

  void on_oosm_event(const oosm::OosmEvent& event);
  /// nullopt when the object lacks a required property or holds one of the
  /// wrong type (a hand-posted object is third-party input).
  [[nodiscard]] std::optional<net::FailureReport> reconstruct_report(
      ObjectId object) const;
  /// Fuse one report (§5.1 steps 3-4 state updates), then send the retest
  /// command it earned (if any).
  void fuse(const net::FailureReport& report);
  void note_sensor_fault(const net::FailureReport& report);
  /// Adaptive retest (§6.3): the severity/corroboration check, then the
  /// per-(machine, mode) backoff ledger, then the command.
  void maybe_retest(const net::FailureReport& report, domain::FailureMode mode);
  void count_malformed();
  ObjectId post_report_object(const net::FailureReport& report);

  oosm::ObjectModel& model_;
  PdmeConfig cfg_;
  net::SimNetwork* network_ = nullptr;  // set by attach_to_network
  std::string endpoint_name_;
  std::map<ModeKey, SimTime> last_retest_;
  oosm::ObjectModel::SubscriptionId subscription_;
  bool posting_ = false;  // re-entrancy guard while we create objects

  fusion::DiagnosticFusion diagnostics_;
  /// Reused per-report buffers: prognostic-pair conversion plus the fuse
  /// scratch keep the steady-state fuse path off the heap.
  std::vector<fusion::PrognosticPoint> prog_points_;
  fusion::FuseScratch fuse_scratch_;
  std::map<ModeKey, ModeTrack> tracks_;
  /// Per-machine report history. Deques: report structs never move once
  /// stored, so high-rate ingest avoids the reallocate-and-move storms a
  /// growing vector of string-bearing structs would pay.
  std::map<std::uint64_t, std::deque<net::FailureReport>> reports_;
  std::set<std::string> seen_signatures_;
  std::map<SensorFaultKey, SensorFaultRecord> sensor_faults_;
  /// Wire-decode arena: report datagrams decode into this vector, reusing
  /// its slots (and their strings/vectors) across datagrams so steady-state
  /// ingest performs no per-report allocation in the decoder.
  std::vector<net::ReportEnvelope> decode_arena_;
  net::ReliableReceiver receiver_;
  /// Control plane: one reliable command stream + revision counter per DC
  /// (unique_ptr because ReliableSender pins a mutex).
  std::map<std::uint64_t, std::unique_ptr<net::ReliableSender>>
      command_senders_;
  std::map<std::uint64_t, std::uint64_t> command_revisions_;
  std::map<std::uint64_t, DcHealth> dc_health_;  // by DcId value
  Stats stats_;
};

}  // namespace mpros::pdme
