#include "mpros/sbfr/library.hpp"

namespace mpros::sbfr {

namespace {

constexpr std::uint8_t kEmaCurrentChannel = 0;  ///< drive-motor current input
constexpr std::uint8_t kEmaCposChannel = 1;     ///< commanded-position input
constexpr std::uint8_t kSpikeMachine = 0;       ///< the spike machine's index
constexpr std::uint8_t kStictionMachine = 1;    ///< the stiction machine's index
constexpr double kRiseThreshold = 0.5;  ///< per-cycle delta flagged "increase"
constexpr double kFallThreshold = 0.5;  ///< per-cycle delta flagged "decrease"
constexpr double kDtLimit = 4;          ///< the figure's ∆T bound
constexpr double kSettleCycles = 2;     ///< quiet cycles confirming the spike
constexpr double kCposEpsilon = 1e-6;   ///< |∆CPOS| below this = "unchanged"
constexpr int kSpikeCountLimit = 4;     ///< "Local:1 > 4" → stiction

}  // namespace

MachineDef make_spike_machine() {
  MachineDef def("current-spike", /*num_locals=*/0,
                 static_cast<std::uint8_t>(SpikeState::Wait));
  const std::uint8_t wait = def.add_state("Wait");
  const std::uint8_t p1 = def.add_state("PossibleSpike1");
  const std::uint8_t p2 = def.add_state("PossibleSpike2");
  const std::uint8_t spike = def.add_state("Spike");

  const Expr rise = Expr::delta(kEmaCurrentChannel) > kRiseThreshold;
  const Expr fall =
      Expr::delta(kEmaCurrentChannel) < Expr::constant(-kFallThreshold);

  // 1. Wait -> P1: "C: Current Increase".
  def.add_transition(wait, p1, rise);

  // 2. P1 -> P2: "C: Current Decrease & ∆T <= 4" — the rise was followed
  //    promptly by a fall; a spike is now plausible.
  def.add_transition(p1, p2, fall && Expr::dt() <= kDtLimit);

  // 3. P1 -> Wait: "C: ∆T > 4" — the rise was not followed by a prompt fall;
  //    it was a step or slow drift, not a spike.
  def.add_transition(p1, wait, Expr::dt() > kDtLimit);

  // 4. P2 -> P1: "C: Current Increase & ∆T <= 4" — it bounced straight back
  //    up; restart measurement with this new rise.
  def.add_transition(p2, p1, rise && Expr::dt() <= kDtLimit);

  // 5. P2 -> Wait: "C: Current Decrease & ∆T > 4" (reconstruction: the
  //    signal keeps falling — a downward step, not a return to baseline).
  def.add_transition(p2, wait, fall);

  // 6. P2 -> Spike: the signal settled after rise+fall. Set the status bit
  //    ("A: Status:0 <- Status:0 v 1") so other machines can observe it.
  def.add_transition(
      p2, spike, Expr::dt() >= kSettleCycles,
      Action().set_status(kSpikeMachine,
                          Expr::status(kSpikeMachine).bit_or(
                              Expr::constant(1))));

  // 7. Spike -> Wait: "C: Status:0 = 0" — the consumer (Machine 1 or host)
  //    acknowledged the spike by clearing the status register.
  def.add_transition(spike, wait, Expr::status(kSpikeMachine) == 0.0);

  return def;
}

MachineDef make_stiction_machine() {
  // Local 0 holds the spike count (the paper calls it "Local:1"; our local
  // indices are zero-based).
  MachineDef def("ema-stiction", /*num_locals=*/1,
                 static_cast<std::uint8_t>(StictionState::Wait));
  const std::uint8_t wait = def.add_state("Wait");
  const std::uint8_t stiction = def.add_state("Stiction");

  const Expr spike_seen = Expr::status(kSpikeMachine) != 0.0;
  const Expr cpos_delta = Expr::delta(kEmaCposChannel);
  const Expr cpos_unchanged =
      cpos_delta * cpos_delta <
      Expr::constant(kCposEpsilon * kCposEpsilon);

  // 1. Wait -> Stiction: "C: Local:1 > 4 / A: Status:1 <- Status:1 v 1".
  //    Also announce to host software via an event.
  def.add_transition(
      wait, stiction,
      Expr::local(0) > static_cast<double>(kSpikeCountLimit),
      Action()
          .set_status(kStictionMachine,
                      Expr::status(kStictionMachine)
                          .bit_or(Expr::constant(1)))
          .emit(kStictionEventCode, Expr::local(0)));

  // 2. Wait self-loop: "C: Status:0 != 0 & CPOS unchanged /
  //    A: Status:0 <- 0; Local:1 <- Local:1 + 1" — count the spike and
  //    re-arm the spike machine.
  def.add_transition(wait, wait, spike_seen && cpos_unchanged,
                     Action()
                         .set_status(kSpikeMachine, Expr::constant(0))
                         .set_local(0, Expr::local(0) + 1.0));

  // 3. Wait self-loop: a spike *with* a commanded position change is
  //    expected behaviour — consume it without counting.
  def.add_transition(wait, wait, spike_seen,
                     Action().set_status(kSpikeMachine,
                                         Expr::constant(0)));

  // 4. Stiction -> Wait: "C: Status:1 = 0 / A: Local:1 <- 0" — the host
  //    acknowledged; restart counting.
  def.add_transition(stiction, wait,
                     Expr::status(kStictionMachine) == 0.0,
                     Action().set_local(0, Expr::constant(0)));

  return def;
}

MachineDef make_threshold_machine(std::uint8_t channel, double threshold,
                                  double hold_cycles, std::uint8_t self_index,
                                  std::uint8_t event_code) {
  MachineDef def("threshold-alarm", /*num_locals=*/0, 0);
  const std::uint8_t idle = def.add_state("Idle");
  const std::uint8_t pending = def.add_state("Pending");
  const std::uint8_t alarm = def.add_state("Alarm");

  const Expr over = Expr::input(channel) > threshold;

  def.add_transition(idle, pending, over);
  // Fell back below before the hold expired: false alarm.
  def.add_transition(pending, idle, !over);
  def.add_transition(
      pending, alarm, Expr::dt() >= hold_cycles,
      Action()
          .set_status(self_index,
                      Expr::status(self_index).bit_or(Expr::constant(1)))
          .emit(event_code, Expr::input(channel)));
  def.add_transition(alarm, idle,
                     Expr::status(self_index) == 0.0 && !over);
  return def;
}

MachineDef make_trend_machine(std::uint8_t channel, double slope_threshold,
                              double run_length, std::uint8_t self_index,
                              std::uint8_t event_code) {
  // Local 0 counts consecutive rising cycles.
  MachineDef def("trend-detector", /*num_locals=*/1, 0);
  const std::uint8_t watch = def.add_state("Watch");
  const std::uint8_t trending = def.add_state("Trending");

  const Expr rising = Expr::delta(channel) > slope_threshold;

  def.add_transition(
      watch, trending, Expr::local(0) >= run_length,
      Action()
          .set_status(self_index,
                      Expr::status(self_index).bit_or(Expr::constant(1)))
          .emit(event_code, Expr::input(channel)));
  def.add_transition(watch, watch, rising,
                     Action().set_local(0, Expr::local(0) + 1.0));
  def.add_transition(watch, watch, !rising,
                     Action().set_local(0, Expr::constant(0)));
  def.add_transition(trending, watch, Expr::status(self_index) == 0.0,
                     Action().set_local(0, Expr::constant(0)));
  return def;
}

}  // namespace mpros::sbfr
