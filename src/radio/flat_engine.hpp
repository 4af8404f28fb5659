// The flat execution backend: protocols as explicit state machines.
//
// The coroutine engine (radio/process.hpp) represents each node's program
// counter as a suspended coroutine stack; resuming it costs an indirect
// jump into an arena frame plus symmetric transfers through every nested
// sub-task. The flat engine replaces that with one FlatProtocol object that
// owns a packed per-node lane (a small struct of counters and flags in a
// contiguous SoA-style vector) and a Step() that advances the node's state
// machine in place. The scheduler is otherwise unchanged: the same wake
// wheel, the same two-phase channel resolution, the same energy meter,
// trace sink, timeline, and Retire() compaction.
//
// Equivalence contract (pinned by tests/test_flat_engine.cpp): a flat
// machine must file the *same actions in the same rounds*, consume its
// node's RNG stream with the *same draws in the same order*, and emit the
// same Phase/SubPhase annotations at the same rounds as the coroutine
// protocol it mirrors. Two rules make this exact:
//
//   1. Step() runs until it files a real action (transmit, listen, or a
//      strictly-future sleep) or the program ends. Zero-length sleeps are
//      resolved inside Step, mirroring SleepAwait::await_ready() — they
//      never reach the scheduler in either engine.
//   2. Every RNG draw and annotation happens at the same point of the
//      node's program order. Awaiting a child Task starts the child
//      immediately (symmetric transfer), so a nested coroutine call
//      behaves exactly like inlining its body — flat sub-machines are
//      therefore stepped inline at the call site.
#pragma once

#include <cstdint>
#include <string_view>

#include "core/contracts.hpp"
#include "obs/phase_timeline.hpp"
#include "radio/model.hpp"
#include "radio/process.hpp"
#include "radio/rng.hpp"
#include "radio/types.hpp"

namespace emis {

/// The action/observation surface a flat state machine sees: the NodeApi
/// equivalent over the same hot/cold context halves the scheduler resolves
/// against. Cheap value type (holds the 16-byte NodeContext view); wraps
/// one node for the duration of one Step(). Scheduling reads and action
/// filing touch only the hot half; Rand/Heard/EnergySpent and annotations
/// reach into the cold half — which is exactly the split the scheduler's
/// prefetcher assumes (transmit/sleep steps never fault a cold line in).
class FlatCtx {
 public:
  explicit FlatCtx(NodeContext ctx) noexcept : ctx_(ctx) {}

  NodeId Id() const noexcept { return ctx_.cold->id; }
  Round Now() const noexcept { return ctx_.hot->now; }
  Rng& Rand() const noexcept { return ctx_.cold->rng; }

  /// Result of the node's last listen action.
  const Reception& Heard() const noexcept { return ctx_.cold->last_reception; }

  /// Awake rounds this node has paid so far (reads the scheduler's meter).
  std::uint64_t EnergySpent() const noexcept {
    return ctx_.cold->energy != nullptr ? ctx_.cold->energy->Awake() : 0;
  }

  /// Phase / sub-phase annotations; same semantics as NodeApi (staged in
  /// the node's shard buffer, committed when the step is filed).
  void Phase(std::string_view base,
             std::uint64_t index = obs::PhaseTimeline::kNoIndex) const {
    ctx_.NotePhase(0, base, index);
  }
  void SubPhase(std::string_view base,
                std::uint64_t index = obs::PhaseTimeline::kNoIndex) const {
    ctx_.NotePhase(1, base, index);
  }

  /// Files one awake transmit round. The caller must yield out of Step()
  /// immediately after (the protothread macros in core/flat_mis.cpp do).
  void Transmit(std::uint64_t payload = 1) const noexcept {
    ctx_.hot->FileTransmit(payload);
  }

  /// Files one awake transmit round followed by a `rounds`-round sleep
  /// that the scheduler files itself: the next Step() comes at round
  /// Now() + 1 + rounds. The NodeApi::TransmitThenSleepFor mirror; the
  /// caller must yield immediately after, as for Transmit.
  void TransmitThenSleepFor(std::uint64_t payload, Round rounds) const {
    EMIS_EXPECTS(rounds <= HotNodeContext::kSleepAfterMax,
                 "fused post-transmit sleep exceeds kSleepAfterMax");
    ctx_.hot->FileTransmitThenSleep(payload, rounds);
  }

  /// Files one awake listen round.
  void Listen() const noexcept { ctx_.hot->FileListen(); }

  /// Files a sleep until absolute round `round` and returns true, or
  /// returns false when the sleep is zero-length (already due) — the
  /// machine must then continue executing without yielding, exactly like
  /// SleepAwait::await_ready() short-circuiting a coroutine co_await.
  bool SleepUntil(Round round) const noexcept {
    if (round <= ctx_.hot->now) return false;
    ctx_.hot->FileSleep(round);
    return true;
  }

  /// Files a sleep for `rounds` rounds; false (no yield) when rounds == 0.
  bool SleepFor(Round rounds) const noexcept {
    return SleepUntil(ctx_.hot->now + rounds);
  }

  /// Terminal-decision marker; same semantics as NodeApi::Retire().
  void Retire() const noexcept { ctx_.hot->RequestRetire(); }

 private:
  NodeContext ctx_;
};

/// A batched protocol: one object drives every node's state machine. The
/// scheduler calls Step(v) wherever the coroutine engine would resume node
/// v's coroutine, passing the node's context view by value; Step must file
/// exactly one action through FlatCtx (transmit / listen / strictly-future
/// sleep) or mark the program finished via ctx.MarkDone() (with
/// FlatCtx::Retire() where the coroutine protocol would have called
/// api.Retire()).
class FlatProtocol {
 public:
  /// Byte layout of the per-node lane array: node v's machine state lives at
  /// `base + stride * v`. The scheduler prefetches upcoming lanes with this
  /// (resume order is wake order, not node order, so the hardware stride
  /// detector cannot) — purely a performance hint; {nullptr, 0} disables it.
  struct LaneLayout {
    const void* base = nullptr;
    std::size_t stride = 0;
  };

  virtual ~FlatProtocol() = default;

  FlatProtocol() = default;
  FlatProtocol(const FlatProtocol&) = delete;
  FlatProtocol& operator=(const FlatProtocol&) = delete;

  virtual void Step(NodeId v, NodeContext ctx) = 0;

  virtual LaneLayout Lanes() const noexcept { return {}; }
};

}  // namespace emis
