#pragma once
// Twin consumers for the traced run. The PDME and the FleetServer decode and
// ingest inside SimNetwork delivery handlers, where the benchmark cannot put
// a span without tracing inside src/. So the traced run taps the delivered
// datagrams (SimNetwork::set_delivery_tap) and, after each step, feeds the
// same datagrams in the same order through the same public decode/ingest
// functions of a twin built over an identical object model, timing each
// call. The twin must end with the counters of the real consumer; the
// traced run checks that.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench.hpp"
#include "mpros/fleet/fleet_server.hpp"
#include "mpros/net/messages.hpp"
#include "mpros/net/network.hpp"
#include "mpros/oosm/ship_builder.hpp"
#include "mpros/pdme/pdme.hpp"

namespace perfbench {

/// Collects what a network delivers to one endpoint.
class Tap {
 public:
  Tap(mpros::net::SimNetwork& network, std::string endpoint)
      : endpoint_(std::move(endpoint)) {
    network.set_delivery_tap([this](const mpros::net::Message& msg) {
      if (msg.to == endpoint_) delivered_.push_back(msg);
    });
  }
  Tap(const Tap&) = delete;
  Tap& operator=(const Tap&) = delete;
  std::vector<mpros::net::Message> take() {
    std::vector<mpros::net::Message> out;
    out.swap(delivered_);
    return out;
  }

 private:
  std::string endpoint_;
  std::vector<mpros::net::Message> delivered_;
};

class TwinPdme {
 public:
  /// `decks` as ShipSystem derives them; every DC 1..dcs is expected.
  TwinPdme(std::size_t decks, std::size_t dcs, mpros::pdme::PdmeConfig cfg)
      : ship_(mpros::oosm::build_ship(model_, "USNS Mercy", decks, 2)),
        pdme_(model_, cfg) {
    for (std::size_t d = 1; d <= dcs; ++d) {
      pdme_.expect_dc(mpros::DcId(d), mpros::SimTime(0));
    }
  }

  /// Ingest one step's datagrams, then run the step barrier (synchronize,
  /// liveness) unless the workload times the real barrier itself.
  void consume(const std::vector<mpros::net::Message>& msgs,
               mpros::SimTime now, Tracer& tr, bool barrier) {
    tr.set_replica(true);
    consume_datagrams(msgs, tr);
    if (barrier) {
      {
        Tracer::Scope s(tr, "pdme.synchronize");
        pdme_.synchronize();
      }
      Tracer::Scope s(tr, "pdme.liveness");
      pdme_.update_liveness(now);
    }
    tr.set_replica(false);
  }

  [[nodiscard]] mpros::pdme::PdmeExecutive& pdme() { return pdme_; }

 private:
  void consume_datagrams(const std::vector<mpros::net::Message>& msgs,
                         Tracer& tr) {
    namespace net = mpros::net;
    for (const net::Message& msg : msgs) {
      const auto type = net::try_peek_type(msg.payload);
      if (!type.has_value()) continue;
      switch (*type) {
        case net::MessageType::FailureReportMsg:
        case net::MessageType::ReportEnvelopeMsg:
        case net::MessageType::ReportBatchMsg:
        case net::MessageType::ReportBatchEnvelopeMsg: {
          std::optional<net::ReportBatchView> view;
          {
            Tracer::Scope s(tr, "net.decode");
            view = net::try_unwrap_reports_into(msg.payload, arena_);
          }
          if (!view.has_value()) continue;
          tr.count("net.reports_decoded", static_cast<double>(view->count));
          tr.count("net.report_bytes", static_cast<double>(msg.payload.size()));
          pdme_.note_dc_alive(view->dc, msg.delivered_at);
          tr.count("pdme.reports_submitted", static_cast<double>(view->count));
          Tracer::Scope s(tr, "pdme.submit");
          (void)pdme_.submit(std::span<const net::ReportEnvelope>(
              arena_.data(), view->count));
          break;
        }
        case net::MessageType::Heartbeat: {
          const auto hb = net::try_unwrap_heartbeat(msg.payload);
          if (!hb.has_value()) continue;
          Tracer::Scope s(tr, "pdme.heartbeat");
          pdme_.accept(*hb, msg.delivered_at);
          break;
        }
        case net::MessageType::SensorData: {
          const auto data = net::try_unwrap_sensor_data(msg.payload);
          if (!data.has_value()) continue;
          pdme_.note_dc_alive(data->dc, msg.delivered_at);
          Tracer::Scope s(tr, "pdme.sensor_data");
          pdme_.accept(*data);
          break;
        }
        default:
          break;
      }
    }
  }

  mpros::oosm::ObjectModel model_;
  mpros::oosm::ShipModel ship_;
  mpros::pdme::PdmeExecutive pdme_;
  std::vector<mpros::net::ReportEnvelope> arena_;
};

class TwinFleet {
 public:
  explicit TwinFleet(mpros::fleet::FleetServerConfig cfg) : server_(cfg) {}

  void expect_ship(mpros::ShipId ship, const std::string& name) {
    server_.expect_ship(ship, name, mpros::SimTime(0));
  }

  void consume(const std::vector<mpros::net::Message>& msgs, Tracer& tr) {
    namespace net = mpros::net;
    tr.set_replica(true);
    for (const net::Message& msg : msgs) {
      const auto type = net::try_peek_type(msg.payload);
      if (!type.has_value()) continue;
      if (*type == net::MessageType::FleetSummaryEnvelopeMsg) {
        Tracer::Scope s(tr, "fleet.accept");
        const auto env = net::try_unwrap_fleet_envelope(msg.payload);
        if (env.has_value()) (void)server_.accept(*env, msg.delivered_at);
      } else if (*type == net::MessageType::Heartbeat) {
        const auto hb = net::try_unwrap_heartbeat(msg.payload);
        if (hb.has_value()) server_.accept(*hb, msg.delivered_at);
      }
    }
    tr.set_replica(false);
  }

  [[nodiscard]] mpros::fleet::FleetServer& server() { return server_; }

 private:
  mpros::fleet::FleetServer server_;
};

}  // namespace perfbench
