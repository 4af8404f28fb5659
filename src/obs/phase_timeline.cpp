#include "obs/phase_timeline.hpp"

#include "core/contracts.hpp"
#include "obs/energy_ledger.hpp"

namespace emis::obs {
namespace {

std::string MakeLabel(std::string_view base, std::uint64_t index) {
  std::string label(base);
  if (index != PhaseTimeline::kNoIndex) {
    label += ' ';
    label += std::to_string(index);
  }
  return label;
}

}  // namespace

void PhaseTimeline::Annotate(std::string_view base, std::uint64_t index,
                             Round round) {
  if (Matches(open_[0], base, index)) return;
  EMIS_EXPECTS(!pending_ || round == pending_round_,
               "a phase boundary's residual must be resolved before a later "
               "round annotates");
  CloseLevel(1, round);
  CloseLevel(0, round);
  Open(0, base, index, round);
}

void PhaseTimeline::AnnotateSub(std::string_view base, std::uint64_t index,
                                Round round) {
  if (Matches(open_[1], base, index)) return;
  EMIS_EXPECTS(!pending_ || round == pending_round_,
               "a phase boundary's residual must be resolved before a later "
               "round annotates");
  CloseLevel(1, round);
  Open(1, base, index, round);
}

void PhaseTimeline::Close(Round round) {
  CloseLevel(1, round);
  CloseLevel(0, round);
  ResolveResidual();
}

void PhaseTimeline::MarkPending(Round round) {
  pending_ = true;
  pending_round_ = round;
}

void PhaseTimeline::ResolveResidual() {
  if (!pending_) return;
  // One probe per boundary serves every span it closed and opened (probing
  // twice would double the O(m) scan for the same round).
  const std::uint64_t residual = residual_probe_ ? residual_probe_() : 0;
  for (const PendingSpan& p : pending_spans_) {
    spans_[p.span].residual_edges_end = residual;
    if (p.begin) spans_[p.span].residual_edges_begin = residual;
  }
  pending_spans_.clear();
  if (open_[0].begin_pending) {
    open_[0].residual_at_open = residual;
    open_[0].begin_pending = false;
  }
  pending_ = false;
  FireHooks();
}

void PhaseTimeline::FireHooks() {
  if (pending_) return;
  if (!span_hook_) {
    hooked_ = spans_.size();
    return;
  }
  while (hooked_ < spans_.size()) span_hook_(spans_[hooked_++]);
}

void PhaseTimeline::Open(std::uint32_t level, std::string_view base,
                         std::uint64_t index, Round round) {
  OpenSpan& open = open_[level];
  open.active = true;
  open.base.assign(base);
  open.index = index;
  open.begin_round = round;
  open.transmit_at_open = meter_ != nullptr ? meter_->TotalTransmit() : 0;
  open.listen_at_open = meter_ != nullptr ? meter_->TotalListen() : 0;
  // Residuals are probed at level-0 boundaries only.
  open.has_residual = level == 0 && static_cast<bool>(residual_probe_);
  open.begin_pending = open.has_residual;
  open.residual_at_open = 0;
  if (open.has_residual) MarkPending(round);
  if (ledger_ != nullptr) {
    // Charges from this round on belong to the new span. SetPhase clears
    // the sub context (a fresh level-0 span has no open sub-phase yet).
    const std::string label = MakeLabel(base, index);
    if (level == 0) {
      ledger_->SetPhase(label);
    } else {
      ledger_->SetSub(label);
    }
  }
}

void PhaseTimeline::CloseLevel(std::uint32_t level, Round round) {
  OpenSpan& open = open_[level];
  if (!open.active) return;
  PhaseSpan span;
  span.label = MakeLabel(open.base, open.index);
  span.level = level;
  span.begin_round = open.begin_round;
  // An annotation in the same round the span opened (e.g. a protocol that
  // decided instantly) yields an empty span; keep end >= begin regardless.
  span.end_round = round >= open.begin_round ? round : open.begin_round;
  const std::uint64_t tx = meter_ != nullptr ? meter_->TotalTransmit() : 0;
  const std::uint64_t lx = meter_ != nullptr ? meter_->TotalListen() : 0;
  span.transmit_rounds = tx - open.transmit_at_open;
  span.listen_rounds = lx - open.listen_at_open;
  span.has_residual = open.has_residual && static_cast<bool>(residual_probe_);
  span.residual_edges_begin = open.residual_at_open;
  if (span.has_residual) {
    // The end residual is this boundary's: filled by ResolveResidual.
    pending_spans_.push_back({spans_.size(), open.begin_pending});
    MarkPending(round);
  }
  spans_.push_back(std::move(span));
  open.active = false;
  open.begin_pending = false;
  if (ledger_ != nullptr) {
    // Until another span opens at this level, charges fall back to the
    // enclosing context (or to the unattributed key when a phase closes).
    if (level == 0) {
      ledger_->SetPhase({});
    } else {
      ledger_->SetSub({});
    }
  }
  FireHooks();
}

void PhaseTimeline::Clear() {
  spans_.clear();
  open_[0] = OpenSpan{};
  open_[1] = OpenSpan{};
  hooked_ = 0;
  pending_ = false;
  pending_spans_.clear();
}

}  // namespace emis::obs
