// Backoff procedures for the no-CD model.
//
// Energy-efficient k-repeated backoff (paper Algorithm 4, Appendix C):
//   * Snd-EBackoff(k, Δ): the sender transmits in exactly one round of each
//     ⌈log Δ⌉-round iteration — the slot is geometric(1/2) capped at the
//     window — and sleeps otherwise. Awake exactly k rounds (Lemma 8).
//   * Rec-EBackoff(k, Δ, Δ_est): the receiver listens through the first
//     ⌈log Δ_est⌉ rounds of each iteration until it hears a message, then
//     sleeps for the remainder of the whole backoff. Awake O(k log Δ_est)
//     rounds (Lemma 8); if ≤ Δ_est neighbors run Snd-EBackoff concurrently it
//     detects them with probability ≥ 1 - (7/8)^k (Lemma 9).
//
// Traditional Decay (Bar-Yehuda–Goldreich–Itai), used by the energy-naive
// baselines: every participant is awake for all k·⌈log Δ⌉ rounds; senders
// transmit a geometric prefix of each iteration.
//
// All four procedures take exactly k·⌈log Δ⌉ rounds of wall-clock time
// regardless of outcomes, so concurrent callers stay synchronized.
#pragma once

#include <optional>

#include "core/params.hpp"
#include "radio/process.hpp"

namespace emis {

/// Sender side of the energy-efficient k-repeated backoff, transmitting
/// `payload` (the paper's algorithms are unary and send 1; the RADIO-CONGEST
/// apps announce identifiers). One step per awake round: each iteration's
/// post-transmit sleep and the next one's pre-transmit sleep are coalesced
/// and fused with the transmit (NodeApi::TransmitThenSleepFor).
proc::Task<void> SndEBackoffPayload(NodeApi api, std::uint32_t k, std::uint32_t delta,
                                    std::uint64_t payload);

/// The unary sender: SndEBackoffPayload with payload 1. Returns the callee's
/// task directly, so it adds no coroutine frame.
inline proc::Task<void> SndEBackoff(NodeApi api, std::uint32_t k, std::uint32_t delta) {
  return SndEBackoffPayload(api, k, delta, 1);
}

/// Receiver side; returns true iff a message was heard. `delta_est` bounds
/// how long the receiver listens per iteration (defaults to Δ at call sites
/// that have no better estimate).
proc::Task<bool> RecEBackoff(NodeApi api, std::uint32_t k, std::uint32_t delta,
                             std::uint32_t delta_est);

/// Sender side of traditional Decay: awake the entire backoff.
proc::Task<void> SndDecay(NodeApi api, std::uint32_t k, std::uint32_t delta);

/// Receiver side of traditional Decay: listens every round, no early sleep.
proc::Task<bool> RecDecay(NodeApi api, std::uint32_t k, std::uint32_t delta);

/// RADIO-CONGEST receiver for the application layer (apps/): like
/// RecEBackoff but captures the first cleanly received payload — e.g. a
/// cluster head's identifier. Returns the payload, or nullopt if nothing
/// was received in k iterations. (In the CD model a collision wakes nobody here: only a clean
/// single-transmitter message carries data.)
proc::Task<std::optional<std::uint64_t>> RecEBackoffCapture(NodeApi api,
                                                            std::uint32_t k,
                                                            std::uint32_t delta,
                                                            std::uint32_t delta_est);

/// Style-dispatched wrappers so protocol code can be parameterized by
/// BackoffStyle without duplicating control flow.
proc::Task<void> SndBackoff(NodeApi api, BackoffStyle style, std::uint32_t k,
                            std::uint32_t delta);
proc::Task<bool> RecBackoff(NodeApi api, BackoffStyle style, std::uint32_t k,
                            std::uint32_t delta, std::uint32_t delta_est);

}  // namespace emis
