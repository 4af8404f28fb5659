// Phase-attributed accounting: where inside a run the rounds and energy went.
//
// Protocols annotate phase boundaries through NodeApi::Phase / SubPhase (see
// radio/process.hpp); the timeline snapshots the scheduler's energy totals at
// each boundary and records per-phase deltas of rounds, transmit/listen
// energy and (optionally) residual-edge counts. That makes the paper's
// per-phase arguments — Lemma 5 / Lemma 20 residual decay, Lemma 8's
// sender/receiver asymmetry — directly inspectable from a run report instead
// of inferable from end-of-run aggregates.
//
// Two levels exist:
//   * level 0 ("phase"): the protocol's outermost structure, e.g.
//     "luby-phase 3" or "delta-epoch 1". Residual edges are probed here.
//   * level 1 ("sub-phase"): windows inside a phase, e.g. "decay" backoffs.
//     Sub-phases close automatically when the enclosing phase does.
//
// Many nodes annotate the same boundary (every participant reaches the same
// scheduled round); consecutive annotations with the same label merge, so
// the first annotator opens the span and the rest are single string compares.
//
// The residual at a level-0 boundary is defined at the boundary round: the
// probe must see every decision made by the steps into that round, not only
// those of the nodes filed before the first annotator. So a boundary opens
// and closes its spans at once but leaves its residual pending; the caller
// (the Scheduler) calls ResolveResidual once every step into the round has
// been filed, and Close resolves whatever is still pending.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "radio/energy.hpp"
#include "radio/types.hpp"

namespace emis::obs {

class EnergyLedger;

struct PhaseSpan {
  std::string label;
  std::uint32_t level = 0;      ///< 0 = phase, 1 = sub-phase
  Round begin_round = 0;
  Round end_round = 0;          ///< exclusive
  std::uint64_t transmit_rounds = 0;  ///< Σ transmit energy spent in the span
  std::uint64_t listen_rounds = 0;    ///< Σ listen energy spent in the span
  std::uint64_t AwakeRounds() const noexcept {
    return transmit_rounds + listen_rounds;
  }
  Round Rounds() const noexcept { return end_round - begin_round; }
  bool has_residual = false;
  std::uint64_t residual_edges_begin = 0;
  std::uint64_t residual_edges_end = 0;
};

class PhaseTimeline {
 public:
  /// Index value for un-indexed labels ("decay" rather than "luby-phase 3").
  static constexpr std::uint64_t kNoIndex = ~0ULL;

  /// Bound by the Scheduler so boundary snapshots read live energy totals.
  /// The meter must outlive the timeline's use; null is tolerated (all
  /// energy deltas read as zero).
  void BindEnergy(const EnergyMeter* meter) noexcept { meter_ = meter; }

  /// Optional residual-graph probe, e.g. "edges between still-undecided
  /// nodes"; invoked once per level-0 boundary, by ResolveResidual or Close.
  /// Installed by RunMis; clear (pass nullptr) before the probed state dies.
  void SetResidualProbe(std::function<std::uint64_t()> probe) {
    residual_probe_ = std::move(probe);
  }

  /// Optional energy-attribution ledger: every span open/close updates the
  /// ledger's current (phase, sub) context, so the scheduler's per-round
  /// charges land under the span active at charge time. Bound by the
  /// Scheduler when both collectors are configured; clear (nullptr) when
  /// the ledger dies first.
  void BindLedger(EnergyLedger* ledger) noexcept { ledger_ = ledger; }

  /// Optional span-close hook (streaming telemetry's `phase` events).
  /// Invoked once per closed span, in close order, once the span is final:
  /// at once when no residual is pending, else when ResolveResidual fills
  /// it. Clear (pass nullptr) before the sink dies.
  void SetSpanHook(std::function<void(const PhaseSpan&)> hook) {
    span_hook_ = std::move(hook);
  }

  /// Opens the level-0 span `base` (+ " <index>" if indexed) at `round`,
  /// closing any open spans. Re-annotating the currently open label is a
  /// no-op, which is how per-node annotations of one global boundary merge.
  /// With a probe installed the boundary's residual is left pending; a
  /// pending boundary must be resolved before a later round annotates.
  void Annotate(std::string_view base, std::uint64_t index, Round round);

  /// Level-1 variant; the enclosing level-0 span stays open.
  void AnnotateSub(std::string_view base, std::uint64_t index, Round round);

  /// Whether a boundary's residual awaits ResolveResidual, and its round.
  bool ResidualPending() const noexcept { return pending_; }
  Round PendingRound() const noexcept { return pending_round_; }

  /// Runs the probe once for the pending boundary: fills the
  /// residual_edges_end of the spans it closed and the residual_edges_begin
  /// of the spans it opened, then fires the span hook for the spans held
  /// since. No-op when nothing is pending.
  void ResolveResidual();

  /// Closes all open spans at `round` (typically the run's final round) and
  /// resolves any pending residual. Idempotent; annotations afterwards
  /// start fresh spans.
  void Close(Round round);

  /// Closed spans in completion order. Call Close first to include the
  /// trailing open spans.
  const std::vector<PhaseSpan>& Spans() const noexcept { return spans_; }

  bool HasOpenPhase() const noexcept { return open_[0].active; }

  void Clear();

 private:
  struct OpenSpan {
    bool active = false;
    std::string base;
    std::uint64_t index = kNoIndex;
    Round begin_round = 0;
    std::uint64_t transmit_at_open = 0;
    std::uint64_t listen_at_open = 0;
    std::uint64_t residual_at_open = 0;
    bool has_residual = false;
    bool begin_pending = false;  ///< residual_at_open awaits resolution
  };
  /// A closed span whose residual_edges_end (and, if opened at the same
  /// boundary, residual_edges_begin) awaits resolution.
  struct PendingSpan {
    std::size_t span = 0;
    bool begin = false;
  };

  bool Matches(const OpenSpan& open, std::string_view base,
               std::uint64_t index) const noexcept {
    return open.active && open.index == index && open.base == base;
  }
  /// Marks `round` as the pending boundary; one boundary at a time.
  void MarkPending(Round round);
  void Open(std::uint32_t level, std::string_view base, std::uint64_t index,
            Round round);
  void CloseLevel(std::uint32_t level, Round round);
  /// Hands the spans closed since the last call to the span hook, unless a
  /// residual is pending (those wait for ResolveResidual).
  void FireHooks();

  const EnergyMeter* meter_ = nullptr;
  std::function<std::uint64_t()> residual_probe_;
  EnergyLedger* ledger_ = nullptr;
  std::function<void(const PhaseSpan&)> span_hook_;
  OpenSpan open_[2];
  std::vector<PhaseSpan> spans_;
  std::size_t hooked_ = 0;  ///< spans_ already handed to the span hook
  bool pending_ = false;
  Round pending_round_ = 0;
  std::vector<PendingSpan> pending_spans_;
};

}  // namespace emis::obs
