// Public facade: one call to run any MIS algorithm on a graph and get back
// the decisions, validity report, round count and energy profile.
//
//   Graph g = gen::RandomGeometric(1024, 0.05, rng);
//   MisRunResult r = RunMis(g, {.algorithm = MisAlgorithm::kCd, .seed = 1});
//   if (r.Valid()) { use r.status, r.energy.MaxAwake(), ... }
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/params.hpp"
#include "core/status.hpp"
#include "radio/energy.hpp"
#include "radio/graph.hpp"
#include "radio/scheduler.hpp"
#include "radio/trace.hpp"
#include "verify/mis_checker.hpp"

namespace emis {

enum class MisAlgorithm : std::uint8_t {
  /// Algorithm 1 on the CD channel — Theorem 2: O(log n) energy.
  kCd,
  /// Algorithm 1 on the beeping channel (paper §3.1: identical code).
  kCdBeeping,
  /// §1.3's "somewhat straightforward" Luby in the CD radio model: losers
  /// keep listening through the competition — Θ(log² n) energy baseline.
  kCdNaive,
  /// Algorithm 2 on the no-CD channel — Theorem 10: O(log² n log log n)
  /// energy.
  kNoCd,
  /// Backoff-simulated Algorithm 1 with energy-efficient backoffs on the
  /// full graph: the energy profile of the round-efficient algorithm of
  /// Davies [18] — Θ(log² n log Δ) energy (DESIGN.md §5).
  kNoCdDaviesProfile,
  /// The same simulation with traditional always-awake Decay backoffs:
  /// §1.3's naive no-CD Luby — Θ(log³ n log Δ) ⊆ O(log⁴ n) energy.
  kNoCdNaive,
  /// Algorithm 2 wrapped in the §1.1 unknown-Δ scheme: guesses Δ = 2^(2^i)
  /// with per-epoch verification and retry. Ignores delta_estimate — the
  /// whole point is that no degree bound is known.
  kNoCdUnknownDelta,
  /// The §4.2-style round-efficient MIS (Ghaffari simulation,
  /// ghaffari_mis.hpp) run standalone on the full graph — the true
  /// Davies'23 stand-in: O(log² n log Δ) rounds AND energy.
  kNoCdRoundEfficient,
};

constexpr std::string_view ToString(MisAlgorithm a) noexcept {
  switch (a) {
    case MisAlgorithm::kCd: return "cd";
    case MisAlgorithm::kCdBeeping: return "cd-beeping";
    case MisAlgorithm::kCdNaive: return "cd-naive-luby";
    case MisAlgorithm::kNoCd: return "nocd";
    case MisAlgorithm::kNoCdDaviesProfile: return "nocd-davies-profile";
    case MisAlgorithm::kNoCdNaive: return "nocd-naive-luby";
    case MisAlgorithm::kNoCdUnknownDelta: return "nocd-unknown-delta";
    case MisAlgorithm::kNoCdRoundEfficient: return "nocd-round-efficient";
  }
  return "?";
}

/// Which constant preset to derive parameters from (see params.hpp).
enum class ParamPreset : std::uint8_t { kPractical, kTheory };

/// Parses an engine name ("coroutine" / "flat"); throws PreconditionError
/// naming `source` (a flag or an environment variable) otherwise. Shared by
/// `--engine` and EMIS_ENGINE.
ExecutionEngine ParseExecutionEngine(std::string_view text, std::string_view source);

/// Process-wide default execution backend: ExecutionEngine::kCoroutine when
/// the EMIS_ENGINE environment variable is unset or empty, else its
/// ParseExecutionEngine value — a set but invalid value throws
/// PreconditionError rather than silently running on the default. Read once
/// and cached; lets a CI matrix run the whole test suite under either engine
/// without touching call sites.
ExecutionEngine DefaultExecutionEngine();

struct MisRunConfig {
  MisAlgorithm algorithm = MisAlgorithm::kCd;
  ParamPreset preset = ParamPreset::kPractical;
  std::uint64_t seed = 0;

  /// Execution backend (cost knob only — both engines produce identical
  /// traces, energy profiles, and MIS decisions; see DESIGN.md §12).
  ExecutionEngine engine = DefaultExecutionEngine();
  /// Requested intra-run shard count for the flat engine (cost knob only —
  /// observables are bit-identical at any shard count; see
  /// SchedulerConfig::shards and DESIGN.md §13). MisRunResult::shards
  /// reports the count that ran.
  unsigned shards = DefaultShards();

  /// Known upper bound on n given to the nodes (paper §1.1). 0 = use the
  /// actual node count. Overestimates only scale the polylog factors.
  std::uint64_t n_estimate = 0;
  /// Known upper bound on Δ. 0 = use the graph's true max degree. Only the
  /// no-CD algorithms consume Δ.
  std::uint32_t delta_estimate = 0;

  /// Explicit parameter overrides; when set, preset/n/Δ derivation is
  /// skipped for the corresponding algorithm family.
  std::optional<CdParams> cd_params;
  std::optional<NoCdParams> nocd_params;
  std::optional<SimCdParams> sim_params;

  Round max_rounds = 4'000'000'000ULL;
  TraceSink* trace = nullptr;
  /// Per-link per-round fading probability (library extension; the paper
  /// assumes a reliable channel). Combine with CdParams::repetitions to
  /// harden Algorithm 1 against it.
  double link_loss = 0.0;

  /// Optional observability (src/obs/): a metrics registry fed by the
  /// scheduler's hot-path timers/counters, and a phase timeline fed by the
  /// protocols' NodeApi::Phase annotations. RunMis additionally installs a
  /// residual-edge probe on the timeline (edges between still-undecided
  /// nodes), making Lemma 5 / Lemma 20 decay visible per phase. Both are
  /// caller-owned and may be serialized afterwards with obs/report.hpp.
  obs::MetricsRegistry* metrics = nullptr;
  obs::PhaseTimeline* timeline = nullptr;
  /// Optional energy-attribution ledger (sized to the graph): per-(node,
  /// phase, level) awake-round charges, conserved against the EnergyMeter.
  /// Pair with `timeline` — without it all charges stay unattributed.
  obs::EnergyLedger* ledger = nullptr;
  /// Optional streaming telemetry sink: round heartbeats and (with
  /// `timeline`) phase-boundary events, drained by the caller. RunMis emits
  /// no run_begin/run_end envelopes — drivers own the stream's framing.
  obs::StreamSink* telemetry = nullptr;
};

struct MisRunResult {
  std::vector<MisStatus> status;
  RunStats stats;
  EnergyMeter energy;
  MisReport report;
  /// Coroutine-frame arena footprint of the run's scheduler.
  FrameArena::Stats arena;
  /// The shard count the run executed with (Scheduler::Shards()): the
  /// requested count clamped to the node count, 1 for the coroutine engine.
  unsigned shards = 1;

  bool Valid() const noexcept { return report.IsValidMis(); }
  std::uint64_t MisSize() const noexcept;
};

/// Runs one algorithm once. Deterministic in (graph, config).
MisRunResult RunMis(const Graph& graph, const MisRunConfig& config);

/// The channel model an algorithm runs on.
ChannelModel ModelFor(MisAlgorithm algorithm) noexcept;

/// The derived parameters RunMis would use (exposed for tests and benches
/// that want to report e.g. the phase schedule).
CdParams DeriveCdParams(const Graph& graph, const MisRunConfig& config);
NoCdParams DeriveNoCdParams(const Graph& graph, const MisRunConfig& config);
SimCdParams DeriveSimParams(const Graph& graph, const MisRunConfig& config);

}  // namespace emis
