#include "mpros/pdme/pdme.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string_view>

#include "mpros/common/assert.hpp"
#include "mpros/common/log.hpp"
#include "mpros/telemetry/metrics.hpp"
#include "mpros/telemetry/trace.hpp"

namespace mpros::pdme {

using domain::FailureMode;

namespace {

/// Closer-look trigger: report severity at or above this...
constexpr double kRetestSeverity = 0.70;
/// ...while the group's unknown mass is still at least this.
constexpr double kRetestUnknown = 0.20;
/// At most one closer-look command per (machine, mode) per this much
/// report time.
constexpr SimTime kRetestBackoff = SimTime::from_hours(1.0);
/// Missed heartbeat intervals before a DC reads Stale, then Lost.
constexpr std::size_t kStaleAfterMissed = 2;
constexpr std::size_t kLostAfterMissed = 3;

/// Registry handles resolved once; observations are relaxed atomics after.
/// Counters are process-wide, shared by every executive (the Registry dedups
/// by name).
struct PdmeMetrics {
  telemetry::Counter& reports_accepted;
  telemetry::Counter& duplicates_dropped;
  telemetry::Counter& malformed_dropped;
  telemetry::Counter& fusion_updates;
  telemetry::Counter& sensor_fault_reports;
  telemetry::Counter& gaps_detected;
  telemetry::Counter& heartbeats_received;
  telemetry::Histogram& fuse_wall_us;
  telemetry::Histogram& report_pipeline_latency_us;

  static PdmeMetrics& instance() {
    static auto& reg = telemetry::Registry::instance();
    static PdmeMetrics m{reg.counter("pdme.reports_accepted"),
                         reg.counter("pdme.duplicates_dropped"),
                         reg.counter("pdme.malformed_dropped"),
                         reg.counter("pdme.fusion_updates"),
                         reg.counter("pdme.sensor_fault_reports"),
                         reg.counter("pdme.gaps_detected"),
                         reg.counter("pdme.heartbeats_received"),
                         reg.histogram("pdme.fuse_wall_us"),
                         reg.histogram("pdme.report_pipeline_latency_us")};
    return m;
  }
};

/// Exact-duplicate (retransmission) signature of a report.
std::string report_signature(const net::FailureReport& r) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%llu/%llu/%llu/%llu/%lld/%.6f",
                static_cast<unsigned long long>(r.dc.value()),
                static_cast<unsigned long long>(r.knowledge_source.value()),
                static_cast<unsigned long long>(r.sensed_object.value()),
                static_cast<unsigned long long>(r.machine_condition.value()),
                static_cast<long long>(r.timestamp.micros()), r.belief);
  return buf;
}

/// A report fusion can fold: a machinery or sensor-fault condition id, and
/// finite severity, belief and prognostic pairs (a NaN belief would abort
/// Dempster-Shafer; an infinite severity would make the priority infinite).
bool well_formed(const net::FailureReport& r) {
  if (!r.machine_condition.valid() ||
      (r.machine_condition.value() > domain::kFailureModeCount &&
       !domain::is_sensor_fault_condition(r.machine_condition))) {
    return false;
  }
  if (!std::isfinite(r.severity) || !std::isfinite(r.belief)) return false;
  return std::all_of(r.prognostics.begin(), r.prognostics.end(),
                     [](const net::PrognosticPair& p) {
                       return std::isfinite(p.probability) &&
                              std::isfinite(p.time_seconds);
                     });
}

/// Fixed-width hex of the raw IEEE-754 bits: exact round-trip with no
/// digit-generation arithmetic at all. Report posting is the ingest hot
/// path and this string is an opaque codec blob, read back only by
/// decode_prognostics below.
char* write_bits_hex(char* p, double v) {
  static constexpr char kHex[] = "0123456789abcdef";
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  for (int shift = 60; shift >= 0; shift -= 4) {
    *p++ = kHex[(bits >> shift) & 0xF];
  }
  return p;
}

std::string encode_prognostics(const std::vector<net::PrognosticPair>& v) {
  // One token per pair: "x<prob bits>:<time bits>;", 36 chars exactly.
  std::string out;
  out.reserve(v.size() * 36);
  char buf[40];
  for (const net::PrognosticPair& p : v) {
    char* w = buf;
    *w++ = 'x';
    w = write_bits_hex(w, p.probability);
    *w++ = ':';
    w = write_bits_hex(w, p.time_seconds);
    *w++ = ';';
    out.append(buf, w);
  }
  return out;
}

std::vector<net::PrognosticPair> decode_prognostics(const std::string& s) {
  std::vector<net::PrognosticPair> out;
  std::string_view rest(s);
  while (!rest.empty()) {
    const std::size_t semi = rest.find(';');
    const std::string_view tok = rest.substr(0, semi);
    rest = semi == std::string_view::npos ? std::string_view{}
                                          : rest.substr(semi + 1);
    if (tok.empty()) continue;
    // Fail soft: a token not in the bit-hex form is skipped.
    if (tok.size() != 34 || tok.front() != 'x' || tok[17] != ':') continue;
    std::uint64_t pb = 0;
    std::uint64_t tb = 0;
    const char* const base = tok.data();
    auto res = std::from_chars(base + 1, base + 17, pb, 16);
    if (res.ec != std::errc{} || res.ptr != base + 17) continue;
    res = std::from_chars(base + 18, base + 34, tb, 16);
    if (res.ec != std::errc{} || res.ptr != base + 34) continue;
    out.push_back({std::bit_cast<double>(pb), std::bit_cast<double>(tb)});
  }
  return out;
}

}  // namespace

const char* to_string(DcLiveness liveness) {
  switch (liveness) {
    case DcLiveness::Alive: return "Alive";
    case DcLiveness::Stale: return "Stale";
    case DcLiveness::Lost: return "Lost";
  }
  return "?";
}

PdmeExecutive::PdmeExecutive(oosm::ObjectModel& model, PdmeConfig cfg)
    : model_(model), cfg_(cfg) {
  subscription_ = model_.subscribe(
      [this](const oosm::OosmEvent& event) { on_oosm_event(event); });
}

PdmeExecutive::~PdmeExecutive() { model_.unsubscribe(subscription_); }

std::optional<ObjectId> PdmeExecutive::accept(
    const net::FailureReport& report) {
  net::ReportEnvelope env;
  env.dc = report.dc;
  env.sequence = 0;  // unsequenced: no reliable-stream bookkeeping
  env.report = report;
  return submit({&env, 1});
}

std::optional<ObjectId> PdmeExecutive::submit(
    std::span<const net::ReportEnvelope> reports) {
  std::optional<ObjectId> last_object;
  PdmeMetrics& metrics = PdmeMetrics::instance();
  std::size_t i = 0;
  while (i < reports.size()) {
    const net::ReportEnvelope& head = reports[i];
    std::size_t j = i + 1;
    if (head.sequence != 0) {
      // One sequenced datagram = the run sharing its (dc, sequence).
      while (j < reports.size() &&
             reports[j].dc.value() == head.dc.value() &&
             reports[j].sequence == head.sequence) {
        ++j;
      }
    } else {
      // Unsequenced reports have no stream state to commit; ingest the
      // whole contiguous stretch as one span.
      while (j < reports.size() && reports[j].sequence == 0) ++j;
    }
    const std::span<const net::ReportEnvelope> run =
        reports.subspan(i, j - i);
    if (head.sequence != 0 &&
        receiver_.is_duplicate(head.dc, head.sequence)) {
      // A retransmitted sequenced datagram: every report it carried was
      // already fused the first time, so the whole run drops.
      stats_.duplicates_dropped += run.size();
      metrics.duplicates_dropped.inc(run.size());
      ++stats_.duplicate_envelopes;
    } else {
      for (const net::ReportEnvelope& env : run) {
        const net::FailureReport& r = env.report;
        // Screen before the signature and the post: a malformed report
        // must not become a (journaled) Report object or spend a signature.
        if (!well_formed(r)) {
          count_malformed();
          continue;
        }
        if (cfg_.deduplicate &&
            !seen_signatures_.insert(report_signature(r)).second) {
          ++stats_.duplicates_dropped;
          metrics.duplicates_dropped.inc();
          continue;
        }
        last_object = post_report_object(r);
        fuse(r);
      }
      if (head.sequence != 0) {
        // Commit stream state only after the run was fused: an acked
        // sequence whose reports never reached fusion would be
        // unrecoverable (the DC retires it on our ack).
        const net::ReliableReceiver::Outcome outcome =
            receiver_.on_envelope(head.dc, head.sequence);
        stats_.gaps_detected += outcome.new_gaps;
        if (outcome.new_gaps > 0) {
          metrics.gaps_detected.inc(outcome.new_gaps);
        }
        ++stats_.envelopes_accepted;
      }
    }
    i = j;
  }
  return last_object;
}

ObjectId PdmeExecutive::post_report_object(const net::FailureReport& r) {
  // We fuse the in-hand report directly, right after this call — the OOSM
  // event path exists for third-party posters, so hold the re-entrancy
  // guard across the whole post, completion marker included.
  posting_ = true;
  oosm::PropertyMap props;
  // 11 initial properties plus room for the "posted" marker set_property()
  // inserts below — sized so the marker never triggers a reallocation.
  props.reserve(12);
  // append() requires ascending key order — this list is ASCII-sorted.
  props.append("belief", r.belief);
  props.append("condition",
               static_cast<std::int64_t>(r.machine_condition.value()));
  props.append("dc", static_cast<std::int64_t>(r.dc.value()));
  props.append("explanation", r.explanation);
  props.append("ks", static_cast<std::int64_t>(r.knowledge_source.value()));
  props.append("prognostics", encode_prognostics(r.prognostics));
  props.append("recommendations", r.recommendations);
  props.append("sensed", static_cast<std::int64_t>(r.sensed_object.value()));
  props.append("severity", r.severity);
  props.append("timestamp_us", r.timestamp.micros());
  if (r.trace != 0) {
    props.append("trace", static_cast<std::int64_t>(r.trace));
  }
  char name[64];
  char* w = name;
  std::memcpy(w, "Report ", 7);
  w += 7;
  w = std::to_chars(w, name + 32, r.machine_condition.value()).ptr;
  std::memcpy(w, " on ", 4);
  w += 4;
  w = std::to_chars(w, name + 60, r.sensed_object.value()).ptr;
  const ObjectId obj = model_.create_object_bulk(
      std::string(name, w), domain::EquipmentKind::Report, std::move(props));
  if (model_.exists(r.sensed_object)) {
    model_.relate(obj, oosm::Relation::RefersTo, r.sensed_object);
  }
  // The completion marker: fusion triggers off this property event, so
  // third parties posting report objects by hand use the same contract.
  model_.set_property(obj, "posted", std::int64_t{1});
  posting_ = false;
  return obj;
}

std::optional<net::FailureReport> PdmeExecutive::reconstruct_report(
    ObjectId object) const {
  // Reconstruct the report from OOSM properties (§4.5: fusion reacts to the
  // model, not to a private channel).
  bool ok = true;
  const auto get_int = [&](const char* key) -> std::int64_t {
    const auto v = model_.property(object, key);
    if (!v.has_value() || v->type() != db::ValueType::Integer) {
      ok = false;
      return 0;
    }
    return v->as_integer();
  };
  const auto get_real = [&](const char* key) -> double {
    const auto v = model_.property(object, key);
    if (!v.has_value() || (v->type() != db::ValueType::Real &&
                           v->type() != db::ValueType::Integer)) {
      ok = false;
      return 0.0;
    }
    return v->numeric();
  };
  const auto get_text = [&](const char* key) -> std::string {
    const auto v = model_.property(object, key);
    return v.has_value() && v->type() == db::ValueType::Text ? v->as_text()
                                                             : std::string();
  };

  net::FailureReport r;
  r.dc = DcId(static_cast<std::uint64_t>(get_int("dc")));
  r.knowledge_source =
      KnowledgeSourceId(static_cast<std::uint64_t>(get_int("ks")));
  r.sensed_object = ObjectId(static_cast<std::uint64_t>(get_int("sensed")));
  r.machine_condition =
      ConditionId(static_cast<std::uint64_t>(get_int("condition")));
  r.severity = get_real("severity");
  r.belief = get_real("belief");
  r.explanation = get_text("explanation");
  r.recommendations = get_text("recommendations");
  r.timestamp = SimTime(get_int("timestamp_us"));
  r.prognostics = decode_prognostics(get_text("prognostics"));
  // Reports posted by third parties predate tracing; default to untraced.
  if (model_.property(object, "trace").has_value()) {
    r.trace = static_cast<std::uint64_t>(get_int("trace"));
  }
  if (!ok) return std::nullopt;
  return r;
}

void PdmeExecutive::on_oosm_event(const oosm::OosmEvent& event) {
  if (posting_) return;  // our own posts fuse directly, not via the event
  if (event.kind != oosm::OosmEvent::Kind::PropertyChanged ||
      event.property != "posted") {
    return;
  }
  if (!model_.exists(event.object) ||
      model_.kind(event.object) != domain::EquipmentKind::Report) {
    return;
  }
  // Already in the model: fuse without dedup and without a second post.
  const auto report = reconstruct_report(event.object);
  if (report.has_value()) {
    fuse(*report);
  } else {
    count_malformed();
  }
}

void PdmeExecutive::count_malformed() {
  ++stats_.malformed_dropped;
  PdmeMetrics::instance().malformed_dropped.inc();
}

void PdmeExecutive::fuse(const net::FailureReport& r) {
  PdmeMetrics& metrics = PdmeMetrics::instance();
  if (!well_formed(r)) {
    count_malformed();
    return;
  }
  // Sensor-fault conclusions get their own track: fusing "the sensor lies"
  // into Dempster-Shafer would steal mass from real machinery modes.
  if (domain::is_sensor_fault_condition(r.machine_condition)) {
    note_sensor_fault(r);
    return;
  }
  // Stage timing rides the trace: traced reports (every DC test stamps one)
  // get the span and feed the wall-clock histogram; untraced bulk ingest
  // pays neither the clock reads nor the observe.
  std::optional<telemetry::StageTimer> span;
  if (r.trace != 0) {
    span.emplace("pdme.fuse", r.trace, r.timestamp.micros(),
                 &metrics.fuse_wall_us);
  }
  const FailureMode mode = domain::failure_mode(r.machine_condition);

  ++stats_.reports_accepted;
  metrics.reports_accepted.inc();
  reports_[r.sensed_object.value()].push_back(r);

  // Diagnostic fusion: the report's Belief field becomes simple support.
  // apply() is update() minus the per-call GroupState summary allocation;
  // readers pull the summary lazily via group_state()/prioritized_list().
  diagnostics_.apply(r.sensed_object, mode, std::clamp(r.belief, 0.0, 1.0));

  // Prognostic fusion: conservative envelope per (machine, mode) (§5.4),
  // fused in place through reusable scratch.
  ModeTrack& track = tracks_[ModeKey{r.sensed_object.value(), mode}];
  if (!r.prognostics.empty()) {
    prog_points_.clear();
    for (const net::PrognosticPair& p : r.prognostics) {
      prog_points_.push_back(
          {SimTime::from_seconds(p.time_seconds), p.probability});
    }
    track.fused_prognosis.fuse_in_place(
        {prog_points_.data(), prog_points_.size()}, fuse_scratch_);
  }
  track.max_severity = std::max(track.max_severity, r.severity);
  track.trend.observe(r.timestamp, std::clamp(r.severity, 0.0, 1.0));
  track.latest_report = std::max(track.latest_report, r.timestamp);
  ++track.reports;
  ++stats_.fusion_updates;
  metrics.fusion_updates.inc();

  MPROS_LOG_DEBUG("pdme", "fused %s for obj=%llu belief=%.2f",
                  domain::to_string(mode),
                  static_cast<unsigned long long>(r.sensed_object.value()),
                  r.belief);
  maybe_retest(r, mode);
}

void PdmeExecutive::note_sensor_fault(const net::FailureReport& r) {
  PdmeMetrics& metrics = PdmeMetrics::instance();
  ++stats_.reports_accepted;
  metrics.reports_accepted.inc();
  ++stats_.sensor_fault_reports;
  metrics.sensor_fault_reports.inc();
  reports_[r.sensed_object.value()].push_back(r);

  const domain::SensorFaultKind kind =
      domain::sensor_fault_kind(r.machine_condition);
  SensorFaultRecord& rec = sensor_faults_[{
      r.dc.value(), r.sensed_object.value(), static_cast<std::uint64_t>(kind)}];
  if (rec.at.micros() > r.timestamp.micros()) return;  // stale arrival
  rec.dc = r.dc;
  rec.object = r.sensed_object;
  rec.kind = kind;
  rec.severity = r.severity;
  rec.at = r.timestamp;
  rec.explanation = r.explanation;
  if (r.severity > 0.0) {
    MPROS_LOG_WARN("pdme", "sensor fault from dc-%llu: %s",
                   static_cast<unsigned long long>(r.dc.value()),
                   r.explanation.c_str());
  }
}

void PdmeExecutive::maybe_retest(const net::FailureReport& r,
                                 FailureMode mode) {
  if (network_ == nullptr || !cfg_.auto_retest ||
      r.severity < kRetestSeverity) {
    return;
  }
  const fusion::GroupState group =
      diagnostics_.state(r.sensed_object, domain::logical_group(mode));
  // Already corroborated: several reports and little unknown mass left. A
  // first-ever severe report always earns a closer look, however confident
  // its source was.
  if (group.report_count > 1 && group.unknown < kRetestUnknown) return;

  const ModeKey key{r.sensed_object.value(), mode};
  const auto last = last_retest_.find(key);
  if (last != last_retest_.end() &&
      r.timestamp - last->second < kRetestBackoff) {
    return;
  }
  last_retest_[key] = r.timestamp;

  net::TestCommandMessage cmd;
  cmd.target = r.dc;
  cmd.command = net::TestCommandMessage::Command::VibrationTest;
  cmd.reason = "PDME closer-look: " + domain::condition_text(mode);
  network_->send(endpoint_name_, "dc-" + std::to_string(r.dc.value()),
                 net::wrap(cmd), r.timestamp);
  ++stats_.retests_commanded;
}

std::size_t PdmeExecutive::rebuild_from_model() {
  // objects_of_kind returns creation order — the exact order the live
  // executive fused these reports. Keep it: re-fusing in any other order
  // (the old timestamp sort was unstable across same-stamp reports) folds
  // the Dempster-Shafer floats differently and recovery would no longer be
  // byte-identical to the uncrashed run.
  std::size_t recovered = 0;
  for (const ObjectId obj :
       model_.objects_of_kind(domain::EquipmentKind::Report)) {
    const auto posted = model_.property(obj, "posted");
    if (!posted.has_value()) continue;  // half-written report: skip
    const auto r = reconstruct_report(obj);
    if (!r.has_value()) {
      count_malformed();
      continue;
    }
    // Recovery fuses every persisted report, even signature twins (they are
    // distinct objects in the model) — so record the signature instead of
    // gating on it.
    if (cfg_.deduplicate) seen_signatures_.insert(report_signature(*r));
    fuse(*r);
    ++recovered;
  }
  return recovered;
}

std::vector<SensorFaultRecord> PdmeExecutive::sensor_faults(
    bool active_only) const {
  std::vector<SensorFaultRecord> out;
  for (const auto& [key, rec] : sensor_faults_) {
    if (!active_only || rec.severity > 0.0) out.push_back(rec);
  }
  return out;
}

void PdmeExecutive::restore_dc_health(DcId dc, const DcHealth& health) {
  dc_health_[dc.value()] = health;
}

void PdmeExecutive::restore_command_revision(DcId dc,
                                             std::uint64_t revision) {
  std::uint64_t& current = command_revisions_[dc.value()];
  current = std::max(current, revision);
}

void PdmeExecutive::expect_dc(DcId dc, SimTime since) {
  DcHealth& h = dc_health_[dc.value()];
  h.last_heard = std::max(h.last_heard, since);
}

void PdmeExecutive::note_dc_alive(DcId dc, SimTime at) {
  DcHealth& h = dc_health_[dc.value()];
  h.last_heard = std::max(h.last_heard, at);
  if (h.liveness != DcLiveness::Alive) {
    MPROS_LOG_INFO("pdme", "dc-%llu recovered (%s -> Alive)",
                   static_cast<unsigned long long>(dc.value()),
                   to_string(h.liveness));
    h.liveness = DcLiveness::Alive;
    ++stats_.liveness_transitions;
  }
}

void PdmeExecutive::accept(const net::HeartbeatMessage& hb, SimTime at) {
  PdmeMetrics& metrics = PdmeMetrics::instance();
  note_dc_alive(hb.dc, at);
  ++stats_.heartbeats_received;
  metrics.heartbeats_received.inc();
  ++dc_health_[hb.dc.value()].heartbeats;
  // The advertised newest sequence reveals tail loss: gaps with no later
  // envelope arrival to expose them.
  const std::uint64_t tail_gaps =
      receiver_.on_advertised(hb.dc, hb.last_sequence);
  stats_.gaps_detected += tail_gaps;
  if (tail_gaps > 0) metrics.gaps_detected.inc(tail_gaps);
}

void PdmeExecutive::update_liveness(SimTime now) {
  MPROS_EXPECTS(cfg_.heartbeat_interval.micros() > 0);
  for (auto& [dc, h] : dc_health_) {
    const SimTime silent = now - h.last_heard;
    const auto missed = static_cast<std::size_t>(
        silent.micros() / cfg_.heartbeat_interval.micros());
    DcLiveness verdict = DcLiveness::Alive;
    if (missed >= kLostAfterMissed) {
      verdict = DcLiveness::Lost;
    } else if (missed >= kStaleAfterMissed) {
      verdict = DcLiveness::Stale;
    }
    if (verdict != h.liveness) {
      // Watchdog only degrades; note_dc_alive handles recovery.
      if (verdict > h.liveness) {
        MPROS_LOG_WARN(
            "pdme", "dc-%llu %s -> %s: no data for %.0f s (%zu intervals)",
            static_cast<unsigned long long>(dc), to_string(h.liveness),
            to_string(verdict), silent.seconds(), missed);
        h.liveness = verdict;
        ++stats_.liveness_transitions;
      }
    }
  }
}

DcLiveness PdmeExecutive::dc_liveness(DcId dc) const {
  const auto it = dc_health_.find(dc.value());
  return it == dc_health_.end() ? DcLiveness::Alive : it->second.liveness;
}

std::vector<MaintenanceItem> PdmeExecutive::prioritized_list() const {
  // Per-machine lists over the tracked machines (ascending — tracks_ is
  // key-ordered), then one global sort. std::sort is not stable: this exact
  // sequence of sorts fixes the order of equal-priority items.
  std::vector<MaintenanceItem> items;
  std::optional<std::uint64_t> previous;
  for (const auto& [key, track] : tracks_) {
    if (previous == key.machine) continue;
    previous = key.machine;
    const auto per_machine = prioritized_list(ObjectId(key.machine));
    items.insert(items.end(), per_machine.begin(), per_machine.end());
  }
  std::sort(items.begin(), items.end(),
            [](const MaintenanceItem& a, const MaintenanceItem& b) {
              return a.priority > b.priority;
            });
  return items;
}

std::vector<MaintenanceItem> PdmeExecutive::prioritized_list(
    ObjectId machine) const {
  std::vector<MaintenanceItem> items;
  for (const fusion::GroupState& gs : diagnostics_.states(machine)) {
    for (const fusion::ModeBelief& mb : gs.modes) {
      if (mb.belief <= 1e-9) continue;
      MaintenanceItem item;
      item.machine = machine;
      item.mode = mb.mode;
      item.fused_belief = mb.belief;
      item.plausibility = mb.plausibility;
      item.report_count = gs.report_count;

      const auto track = tracks_.find(ModeKey{machine.value(), mb.mode});
      if (track != tracks_.end()) {
        item.max_severity = track->second.max_severity;
        if (!track->second.fused_prognosis.empty()) {
          item.median_ttf =
              track->second.fused_prognosis.time_to_probability(0.5);
          item.p90_ttf = track->second.fused_prognosis.time_to_probability(0.9);
        }
        item.trend_ttf =
            track->second.trend.time_to_failure(track->second.latest_report);
      }
      item.priority = item.fused_belief * std::max(0.1, item.max_severity);
      items.push_back(item);
    }
  }
  std::sort(items.begin(), items.end(),
            [](const MaintenanceItem& a, const MaintenanceItem& b) {
              return a.priority > b.priority;
            });
  return items;
}

std::optional<fusion::PrognosticVector> PdmeExecutive::prognosis(
    ObjectId machine, FailureMode mode) const {
  const auto it = tracks_.find(ModeKey{machine.value(), mode});
  if (it == tracks_.end() || it->second.fused_prognosis.empty()) {
    return std::nullopt;
  }
  return it->second.fused_prognosis;
}

fusion::PrognosticVector PdmeExecutive::trend_prognosis(
    ObjectId machine, FailureMode mode) const {
  const auto it = tracks_.find(ModeKey{machine.value(), mode});
  if (it == tracks_.end()) return fusion::PrognosticVector{};
  return it->second.trend.project(it->second.latest_report);
}

fusion::GroupState PdmeExecutive::group_state(
    ObjectId machine, domain::LogicalGroup group) const {
  return diagnostics_.state(machine, group);
}

std::vector<net::FailureReport> PdmeExecutive::reports_for(
    ObjectId machine) const {
  const auto it = reports_.find(machine.value());
  if (it == reports_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

void PdmeExecutive::attach_to_network(net::SimNetwork& network,
                                      const std::string& endpoint_name) {
  network_ = &network;
  endpoint_name_ = endpoint_name;
  network.register_endpoint(
      endpoint_name, [this](const net::Message& message) {
        PdmeMetrics& metrics = PdmeMetrics::instance();
        // The wire is hostile (fault injection, §5.1 "fragmentary" inputs):
        // everything decodes through the fail-soft path, and a datagram
        // that does not parse is counted and dropped, never fatal.
        const auto type = net::try_peek_type(message.payload);
        if (!type.has_value()) {
          count_malformed();
          return;
        }
        switch (*type) {
          // The one report datagram: a sequenced batch, decoded into the
          // arena and funnelled into submit().
          case net::MessageType::ReportBatchEnvelopeMsg: {
            const auto view =
                net::try_unwrap_reports_into(message.payload, decode_arena_);
            if (!view.has_value()) {
              count_malformed();
              return;
            }
            note_dc_alive(view->dc, message.delivered_at);
            const std::span<const net::ReportEnvelope> reports(
                decode_arena_.data(), view->count);
            if (!receiver_.is_duplicate(view->dc, view->sequence)) {
              for (const net::ReportEnvelope& env : reports) {
                telemetry::StageTimer transit("net.transit",
                                              env.report.trace,
                                              message.sent_at.micros());
                transit.set_sim_end(message.delivered_at.micros());
                metrics.report_pipeline_latency_us.observe(
                    static_cast<double>(
                        (message.delivered_at - env.report.timestamp)
                            .micros()));
              }
            }
            submit(reports);
            // Ack fresh and duplicate datagrams alike — a retransmission
            // may mean our previous ack was the datagram that got lost.
            network_->send(endpoint_name_,
                           "dc-" + std::to_string(view->dc.value()),
                           net::wrap(receiver_.make_ack(view->dc)),
                           message.delivered_at);
            ++stats_.acks_sent;
            break;
          }
          case net::MessageType::Heartbeat: {
            const auto hb = net::try_unwrap_heartbeat(message.payload);
            if (!hb.has_value()) {
              count_malformed();
              return;
            }
            accept(*hb, message.delivered_at);
            break;
          }
          case net::MessageType::SensorData: {
            const auto data = net::try_unwrap_sensor_data(message.payload);
            if (!data.has_value()) {
              count_malformed();
              return;
            }
            note_dc_alive(data->dc, message.delivered_at);
            accept(*data);
            break;
          }
          case net::MessageType::Ack: {
            // A DC acking its command stream (report-stream acks flow
            // PDME->DC and never arrive here).
            const auto ack = net::try_unwrap_ack(message.payload);
            if (!ack.has_value()) {
              count_malformed();
              return;
            }
            note_dc_alive(ack->dc, message.delivered_at);
            const auto it = command_senders_.find(ack->dc.value());
            if (it != command_senders_.end()) {
              it->second->on_ack(*ack);
              ++stats_.command_acks;
            }
            break;
          }
          default:
            break;  // commands and fleet summaries address DCs or the shore
        }
      });
}

std::uint64_t PdmeExecutive::send_command(
    DcId dc, std::vector<std::pair<std::string, double>> settings,
    std::string reason, SimTime at) {
  net::CommandMessage cmd;
  cmd.target = dc;
  cmd.revision = ++command_revisions_[dc.value()];
  cmd.issued_at = at;
  cmd.settings = std::move(settings);
  cmd.reason = std::move(reason);

  auto& sender = command_senders_[dc.value()];
  if (!sender) {
    sender = std::make_unique<net::ReliableSender>(dc);
  }
  std::vector<std::uint8_t> payload = sender->envelope(cmd, at);
  if (network_ != nullptr) {
    network_->send(endpoint_name_, "dc-" + std::to_string(dc.value()),
                   std::move(payload), at);
  }
  ++stats_.commands_sent;
  return cmd.revision;
}

void PdmeExecutive::sweep_commands(SimTime now) {
  if (network_ == nullptr) return;
  for (auto& [dc, sender] : command_senders_) {
    for (auto& payload : sender->due_retransmits(now)) {
      network_->send(endpoint_name_, "dc-" + std::to_string(dc),
                     std::move(payload), now);
    }
  }
}

const net::ReliableSender* PdmeExecutive::command_stream(DcId dc) const {
  const auto it = command_senders_.find(dc.value());
  return it == command_senders_.end() ? nullptr : it->second.get();
}

void PdmeExecutive::accept(const net::SensorDataMessage& data) {
  ++stats_.sensor_batches;
  if (!model_.exists(data.machine)) return;
  posting_ = true;  // raw telemetry is not a report; skip fusion triggers
  for (const auto& [key, value] : data.values) {
    model_.set_property(data.machine, key, value);
  }
  model_.set_property(data.machine, "last_sensor_update_us",
                      data.timestamp.micros());
  posting_ = false;
}

void PdmeExecutive::reset_machine(ObjectId machine) {
  diagnostics_.reset(machine);
  reports_.erase(machine.value());
  for (auto it = tracks_.begin(); it != tracks_.end();) {
    if (it->first.machine == machine.value()) {
      it = tracks_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace mpros::pdme
