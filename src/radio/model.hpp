// The radio channel model: collision semantics and per-round node actions.
//
// Model recap (paper §1.1). Time is synchronous. In a round, a node is
// either asleep (free) or awake, and an awake node either transmits or
// listens — never both. A listener v receives a message from neighbor u iff
// u is the *only* transmitting neighbor of v. Otherwise:
//   * CD:      ≥2 transmitting neighbors → v hears a collision,
//              0 transmitting neighbors  → v hears silence.
//   * no-CD:   both cases are indistinguishable silence.
//   * beeping: ≥1 transmitting neighbor → v hears a (contentless) beep.
#pragma once

#include <cstdint>
#include <string_view>

#include "radio/types.hpp"

namespace emis {

enum class ChannelModel : std::uint8_t {
  kCd,       ///< radio with collision detection
  kNoCd,     ///< radio without collision detection
  kBeeping,  ///< beeping model (receiver-side OR of beeps)
};

constexpr std::string_view ToString(ChannelModel m) noexcept {
  switch (m) {
    case ChannelModel::kCd: return "CD";
    case ChannelModel::kNoCd: return "no-CD";
    case ChannelModel::kBeeping: return "beeping";
  }
  return "?";
}

/// Which side of a round scans its CSR rows (see radio/channel.hpp).
/// Semantically invisible: both produce identical Receptions; the choice
/// only moves *where* the per-round work lands:
///   * push — each transmitter scans its neighbor row, cost O(Σ deg(tx));
///   * pull — each listener scans its neighbor row, cost O(Σ deg(listen)).
/// The scheduler picks per round (radio/scheduler.hpp PhysicalDirection).
enum class ChannelDirection : std::uint8_t { kPush, kPull };

/// What a listening node perceives in one round.
enum class ReceptionKind : std::uint8_t {
  kSilence,    ///< nothing heard (in no-CD this may hide a collision)
  kMessage,    ///< exactly one neighbor transmitted; payload available
  kCollision,  ///< CD only: more than one neighbor transmitted
  kBeep,       ///< beeping only: at least one neighbor beeped
};

struct Reception {
  ReceptionKind kind = ReceptionKind::kSilence;
  /// RADIO-CONGEST payload (≤ 64 bits ≥ O(log n)); valid iff kind == kMessage.
  std::uint64_t payload = 0;

  /// True if the channel was audibly busy. This is the predicate the paper's
  /// unary algorithms use: "heard 1 or collision" (CD) / "heard a beep".
  /// In no-CD it is true only for a successfully received message.
  bool Busy() const noexcept { return kind != ReceptionKind::kSilence; }

  friend bool operator==(const Reception&, const Reception&) = default;
};

constexpr std::string_view ToString(ReceptionKind k) noexcept {
  switch (k) {
    case ReceptionKind::kSilence: return "silence";
    case ReceptionKind::kMessage: return "message";
    case ReceptionKind::kCollision: return "collision";
    case ReceptionKind::kBeep: return "beep";
  }
  return "?";
}

/// Which backend drives protocol execution (see radio/scheduler.hpp).
/// Semantically invisible: both engines produce identical traces, energy
/// charges, metrics, and reports (pinned by tests/test_flat_engine.cpp).
/// The choice only moves *how* a node's program counter is represented:
///   * coroutine — one C++20 coroutine per node, frames pooled in the slab
///     arena; the reference implementation every protocol is written in;
///   * flat — packed per-node state-machine lanes stepped in place
///     (core/flat_mis.*), no frames and no symmetric transfer on the
///     resume hot path.
enum class ExecutionEngine : std::uint8_t {
  kCoroutine,  ///< reference backend: resume one coroutine per awake node
  kFlat,       ///< batched backend: advance packed state-machine lanes
};

constexpr std::string_view ToString(ExecutionEngine e) noexcept {
  switch (e) {
    case ExecutionEngine::kCoroutine: return "coroutine";
    case ExecutionEngine::kFlat: return "flat";
  }
  return "?";
}

/// Parses "coroutine" / "flat"; anything else is kInvalid.
inline constexpr auto kInvalidExecutionEngine =
    static_cast<ExecutionEngine>(0xFF);
constexpr ExecutionEngine ExecutionEngineFromString(std::string_view s) noexcept {
  if (s == "coroutine") return ExecutionEngine::kCoroutine;
  if (s == "flat") return ExecutionEngine::kFlat;
  return kInvalidExecutionEngine;
}

/// What a node chose to do with its current round(s).
enum class ActionKind : std::uint8_t {
  kTransmit,  ///< transmit a payload this round (awake)
  kListen,    ///< listen this round (awake)
  kSleep,     ///< sleep until a wake round (free)
};

constexpr std::string_view ToString(ActionKind k) noexcept {
  switch (k) {
    case ActionKind::kTransmit: return "transmit";
    case ActionKind::kListen: return "listen";
    case ActionKind::kSleep: return "sleep";
  }
  return "?";
}

}  // namespace emis
