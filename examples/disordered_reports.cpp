// Demonstrates the §5.1 requirement directly: knowledge fusion must
// "accommodate inputs which are incomplete, time-disordered, fragmentary,
// and which have gaps, inconsistencies, and contradictions."
//
// The same six-report set is delivered (a) in order on a perfect network
// and (b) shuffled/duplicated/delayed on a hostile one; the fused beliefs
// are printed side by side. Exits nonzero if the two prioritized lists
// differ.
//
//   ./build/examples/disordered_reports

#include <cmath>
#include <cstdio>

#include "mpros/mpros/mpros.hpp"

namespace {

using namespace mpros;
using domain::FailureMode;

std::vector<net::FailureReport> make_reports(ObjectId motor) {
  std::vector<net::FailureReport> reports;
  const struct {
    FailureMode mode;
    double severity, belief;
    std::uint64_t ks;
  } specs[] = {
      {FailureMode::MotorImbalance, 0.6, 0.7, 1},
      {FailureMode::MotorImbalance, 0.5, 0.6, 3},
      {FailureMode::ShaftMisalignment, 0.4, 0.5, 2},
      {FailureMode::MotorBearingWear, 0.5, 0.7, 4},
      {FailureMode::MotorBearingWear, 0.6, 0.8, 1},
      {FailureMode::MotorImbalance, 0.7, 0.6, 2},
  };
  double t = 100.0;
  for (const auto& s : specs) {
    net::FailureReport r;
    r.dc = DcId(1);
    r.knowledge_source = KnowledgeSourceId(s.ks);
    r.sensed_object = motor;
    r.machine_condition = domain::condition_id(s.mode);
    r.severity = s.severity;
    r.belief = s.belief;
    r.timestamp = SimTime::from_seconds(t);
    t += 60.0;
    reports.push_back(r);
  }
  return reports;
}

void print_state(const char* label, pdme::PdmeExecutive& pdme,
                 ObjectId motor) {
  std::printf("%s\n", label);
  for (const auto& item : pdme.prioritized_list(motor)) {
    std::printf("  %-28s bel=%.4f pl=%.4f\n",
                domain::condition_text(item.mode).c_str(), item.fused_belief,
                item.plausibility);
  }
}

/// Same modes in the same order with the same fused belief and
/// plausibility, to rounding (combination order may differ).
bool same_list(const std::vector<pdme::MaintenanceItem>& a,
               const std::vector<pdme::MaintenanceItem>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].mode != b[i].mode ||
        std::abs(a[i].fused_belief - b[i].fused_belief) > 1e-9 ||
        std::abs(a[i].plausibility - b[i].plausibility) > 1e-9) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  oosm::ObjectModel model_a, model_b;
  const auto ship_a = oosm::build_ship(model_a, "A", 1, 1);
  const auto ship_b = oosm::build_ship(model_b, "B", 1, 1);
  pdme::PdmeExecutive pdme_a(model_a);
  pdme::PdmeExecutive pdme_b(model_b);

  // (a) Perfect, in-order delivery.
  for (const auto& r : make_reports(ship_a.plants[0].motor)) pdme_a.accept(r);

  // (b) Hostile transport: heavy jitter reorders, duplicates retransmit.
  net::NetworkConfig hostile;
  hostile.jitter = SimTime::from_seconds(120.0);
  hostile.duplicate_probability = 0.4;
  hostile.seed = 1234;
  net::SimNetwork network(hostile);
  pdme_b.attach_to_network(network);
  // Each report rides its own sequenced one-report batch from dc-1, which
  // absorbs the PDME's acks.
  net::ReliableSender sender(DcId(1));
  network.register_endpoint("dc-1", [&](const net::Message& m) {
    if (const auto ack = net::try_unwrap_ack(m.payload)) sender.on_ack(*ack);
  });
  for (const auto& r : make_reports(ship_b.plants[0].motor)) {
    network.send("dc-1", "pdme", sender.envelope({&r, 1}, r.timestamp),
                 r.timestamp);
  }
  network.flush();

  print_state("In-order delivery:", pdme_a, ship_a.plants[0].motor);
  print_state("Disordered + duplicated delivery:", pdme_b,
              ship_b.plants[0].motor);

  const auto na = pdme_a.snapshot();
  const auto nb = pdme_b.snapshot();
  std::printf("\nreports fused: in-order=%llu, disordered=%llu "
              "(duplicates dropped: %llu)\n",
              static_cast<unsigned long long>(na.reports_accepted),
              static_cast<unsigned long long>(nb.reports_accepted),
              static_cast<unsigned long long>(nb.duplicates_dropped));
  if (!same_list(pdme_a.prioritized_list(ship_a.plants[0].motor),
                 pdme_b.prioritized_list(ship_b.plants[0].motor))) {
    std::printf("MISMATCH: disordered delivery changed the prioritized "
                "list.\n");
    return 1;
  }
  std::printf("Fused beliefs match because Dempster-Shafer combination is "
              "commutative and the PDME de-duplicates retransmissions.\n");
  return 0;
}
