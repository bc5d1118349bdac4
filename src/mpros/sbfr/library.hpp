#pragma once
// Reference SBFR machines.
//
// make_spike_machine / make_stiction_machine reconstruct the paper's Fig 3
// pair for electro-mechanical-actuator seize-up prediction:
//  - Machine 0 ("Current SPIKE Machine"): four states, seven transitions,
//    recognizes clean spikes in the drive-motor current and is "relatively
//    noise free" thanks to its two intermediate Possible-Spike states.
//  - Machine 1 ("EMA Stiction Machine"): counts spikes not associated with a
//    commanded position change (CPOS); more than four flags stiction.
//
// The figure's transition captions are partially garbled in the source text;
// where they are ambiguous we reconstruct semantics that satisfy every
// statement in the prose (the reconstruction is documented per transition
// below and exercised by the E3 scenario tests).

#include <cstdint>

#include "mpros/sbfr/machine.hpp"

namespace mpros::sbfr {

/// Spike machine states, in index order.
enum class SpikeState : std::uint8_t { Wait = 0, Possible1, Possible2, Spike };
/// Stiction machine states, in index order.
enum class StictionState : std::uint8_t { Wait = 0, Stiction };

/// Event code emitted by the stiction machine when it latches.
inline constexpr std::uint8_t kStictionEventCode = 0x51;

/// The Fig 3 pair reads the drive-motor current on input 0 and the
/// commanded position on input 1, and must be added to its SbfrSystem as
/// machines 0 (spike) and 1 (stiction).
[[nodiscard]] MachineDef make_spike_machine();
[[nodiscard]] MachineDef make_stiction_machine();

/// Threshold alarm: Idle -> Alarm when input(channel) > threshold for
/// `hold_cycles` consecutive cycles; sets own status bit and emits
/// `event_code` with the offending value. Returns to Idle when the signal
/// drops below `threshold` and the host clears the status.
[[nodiscard]] MachineDef make_threshold_machine(std::uint8_t channel,
                                                double threshold,
                                                double hold_cycles,
                                                std::uint8_t self_index,
                                                std::uint8_t event_code);

/// Trend detector: counts consecutive cycles with delta(channel) >
/// `slope_threshold`; `run_length` such cycles latch a Trending state, set
/// the status bit, and emit `event_code` with the current value.
[[nodiscard]] MachineDef make_trend_machine(std::uint8_t channel,
                                            double slope_threshold,
                                            double run_length,
                                            std::uint8_t self_index,
                                            std::uint8_t event_code);

}  // namespace mpros::sbfr
