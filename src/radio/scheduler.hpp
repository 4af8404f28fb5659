// The synchronous round engine.
//
// Each node runs a coroutine protocol (see process.hpp). A round proceeds in
// two phases: every awake node's action is known before any reception is
// resolved, matching the synchronous radio model exactly. The engine is
// event-driven: rounds in which *every* node sleeps are skipped in O(1), so
// simulation cost is proportional to the total awake node-rounds — i.e. to
// the energy the paper studies — plus O(1) amortized calendar-wheel work
// per sleep (a 4096-slot ring over the near future with a compacting
// overflow list; drained buckets are sorted so the pop order matches the
// binary heap it replaced). Channel work per round additionally tracks the
// *residual* graph, not the seed graph: protocols Retire() when decided,
// and the ResidualGraph overlay, always attached to the channel, compacts
// their rows away, so a round scans and accounts live degrees (DESIGN.md
// §9). Receptions equal a plain Channel's over the seed rows (retired
// nodes never act again), which is what the tests diff against.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "obs/energy_ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_timeline.hpp"
#include "obs/stream_sink.hpp"
#include "radio/channel.hpp"
#include "radio/energy.hpp"
#include "radio/flat_engine.hpp"
#include "radio/frame_arena.hpp"
#include "radio/graph.hpp"
#include "radio/model.hpp"
#include "radio/process.hpp"
#include "radio/trace.hpp"

namespace emis {

/// Parses a shard count: a decimal integer in [1, 256], nothing else.
/// Throws PreconditionError naming `source` (a flag or an environment
/// variable) otherwise. Shared by `--shards` and EMIS_SHARDS.
unsigned ParseShards(std::string_view text, std::string_view source);

/// Process-wide default intra-run shard count: 1 when the EMIS_SHARDS
/// environment variable is unset or empty, else its ParseShards value — a
/// set but invalid value throws PreconditionError rather than silently
/// running on the default. Read once and cached; lets a CI matrix run the
/// whole test suite sharded without touching call sites (the EMIS_ENGINE
/// pattern).
unsigned DefaultShards();

struct SchedulerConfig {
  ChannelModel model = ChannelModel::kCd;
  /// Hard stop: no round >= max_rounds is executed. Guards against
  /// non-terminating protocols in tests and benches.
  Round max_rounds = 100'000'000;
  /// Optional event sink; null disables tracing.
  TraceSink* trace = nullptr;
  /// Per-link per-round signal erasure probability (fading). 0 = the
  /// paper's reliable channel. See Channel::SetLoss.
  double link_loss = 0.0;
  /// Optional metrics registry (owned by the caller). When set, the
  /// scheduler feeds hot-path timers ("sched.execute_round", "sched.resume",
  /// "sched.wake_heap", and "graph.retire" — the retire passes, timed
  /// apart from the resume/wake scopes), counters ("sched.rounds_executed",
  /// "sched.rounds_skipped", "sched.wake_events", "sched.steps" — protocol
  /// steps or coroutine resumes, spawn included, fused post-transmit
  /// sleeps excluded — "chan.push_rounds",
  /// "chan.pull_rounds", "chan.edges_scanned", "graph.compactions",
  /// "graph.edges_reclaimed", "graph.retire_rebuilds" — retire batches
  /// applied by rebuilding the survivors' rows, see ResidualGraph), the
  /// residual gauges ("chan.live_edges",
  /// "graph.retire_batches"),
  /// arena gauges ("arena.bytes_reserved", "arena.bytes_used"), and
  /// working-set gauges ("mem.context_hot_bytes", "mem.context_cold_bytes",
  /// "mem.lane_bytes" — the resume loop's per-array footprints, see
  /// DESIGN.md §12.2) — cheap enough to keep on in perf runs (see
  /// bench_simulator's *Instrumented variants).
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional phase timeline (owned by the caller). The scheduler binds it
  /// to its energy meter; protocols annotate via NodeApi::Phase into
  /// per-shard buffers, which FileAction commits in batch order; each
  /// boundary's residual is probed once every step into its round has been
  /// filed; the timeline closes when the run finishes. Attaching it does not
  /// change how steps execute.
  obs::PhaseTimeline* timeline = nullptr;
  /// Optional energy-attribution ledger (owned by the caller; must be sized
  /// to the graph). Every transmit/listen charge is mirrored into it, keyed
  /// by the timeline's current (phase, sub-phase) context — the scheduler
  /// binds the ledger to `timeline` when both are set; without a timeline
  /// all charges land under the unattributed key. Conservation is exact by
  /// construction: Σ over keys of a node's attributed rounds equals its
  /// EnergyMeter entry.
  obs::EnergyLedger* ledger = nullptr;
  /// Which backend drives the protocols. kCoroutine runs the reference
  /// coroutine implementation via Spawn; kFlat runs a packed state-machine
  /// backend via SpawnFlat. Observationally identical (traces, energy,
  /// metrics, reports); purely a cost knob.
  ExecutionEngine engine = ExecutionEngine::kCoroutine;
  /// Optional streaming telemetry sink (owned by the caller). The scheduler
  /// emits a `round` heartbeat per executed round (cadence
  /// StreamSinkConfig::heartbeat_every) with awake/decided/finished/
  /// live-edge gauges, and — when `timeline` is also set — a `phase` event
  /// per closed span carrying the span's attribution delta.
  obs::StreamSink* telemetry = nullptr;
  /// Requested intra-run shard count for the flat engine: the node range is
  /// cut into contiguous, edge-balanced row ranges, and a pass (a round's
  /// channel work, a step pass) with at least kParallelMinNodes nodes runs
  /// one shard per pool worker, with every cross-node mutation serialized in
  /// global actor order between the parallel passes; a smaller pass runs as
  /// one part, exactly like a one-shard run (DESIGN.md §13). Purely a cost
  /// knob: traces, energy, metrics, receptions, and reports are
  /// bit-identical at any shard count. The scheduler clamps it to the node
  /// count, and the coroutine engine (the reference implementation) always
  /// runs one shard; Scheduler::Shards() reports the count in effect.
  unsigned shards = DefaultShards();
};

/// The degree-sum accounting model: the direction a round is *accounted*
/// in, given its transmitters' and listeners' degree sums — the cheaper
/// side, ties to push. It feeds the chan.push_rounds / chan.pull_rounds /
/// chan.edges_scanned counters (and through them the baselines) and is not
/// the scan the channel runs; PhysicalDirection picks that. The sums are
/// live degrees (ResidualGraph::LiveDegree).
constexpr ChannelDirection ResolveDirection(std::uint64_t tx_edges,
                                            std::uint64_t listen_edges) noexcept {
  return listen_edges < tx_edges ? ChannelDirection::kPull
                                 : ChannelDirection::kPush;
}

/// The direction the channel physically resolves a round in, given the
/// round's part count (Scheduler::PassParts) and the same degree sums.
/// Receptions are byte-identical in both directions (Channel's contract), so
/// this rule moves cost only:
///   * more than one part: pull — stamping is part-local and the listener
///     scan reads the merged bitset without touching other nodes' state;
///   * a lossy channel: the accounting model's choice — both directions
///     scan scalar there (per-link erasure draws), so 1:1 is the real ratio;
///   * otherwise: push iff 4 · tx_edges < listen_edges — the pull side's
///     word-parallel scan costs roughly a quarter of push's scattered
///     per-neighbor deliveries per edge (~3.2 vs ~14 ns/edge at bench sizes).
constexpr ChannelDirection PhysicalDirection(unsigned parts, bool lossy,
                                             std::uint64_t tx_edges,
                                             std::uint64_t listen_edges) noexcept {
  if (parts > 1) return ChannelDirection::kPull;
  if (lossy) return ResolveDirection(tx_edges, listen_edges);
  return tx_edges * 4 < listen_edges ? ChannelDirection::kPush
                                     : ChannelDirection::kPull;
}

struct RunStats {
  /// One past the last round in which any node was awake (== the paper's
  /// round complexity of the run when all nodes terminated).
  Round rounds_used = 0;
  /// Total awake node-rounds actually simulated.
  std::uint64_t node_rounds = 0;
  /// Nodes whose protocol coroutine ran to completion.
  NodeId nodes_finished = 0;
  /// True if the run stopped at max_rounds with live protocols remaining.
  bool hit_round_limit = false;
};

class Scheduler {
 public:
  /// The graph must outlive the scheduler. `seed` determines every node's
  /// private random stream.
  Scheduler(const Graph& graph, SchedulerConfig config, std::uint64_t seed);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Creates and starts one protocol instance per node. Must be called
  /// exactly once, before Run/RunUntil. Requires engine == kCoroutine.
  void Spawn(const ProtocolFactory& factory);

  /// Installs the flat state-machine backend and steps every node to its
  /// first action. The flat counterpart of Spawn; must be called exactly
  /// once, before Run/RunUntil. Requires engine == kFlat.
  void SpawnFlat(std::unique_ptr<FlatProtocol> protocol);

  /// Runs until all protocols finish or max_rounds is reached.
  RunStats Run() { return RunUntil(config_.max_rounds); }

  /// Runs rounds < `limit` (and not >= max_rounds); returns a snapshot of the
  /// stats so far. Idempotent once everything finished. Used by experiments
  /// that inspect state at phase boundaries.
  RunStats RunUntil(Round limit);

  /// Permanently removes node v from the radio: its residual-graph entry is
  /// reclaimed (neighbors' live scan rows shrink) and it must never transmit
  /// or listen again — enforced by an invariant on action filing. Idempotent.
  /// For drivers that know a node is done: v is retired at once, as a retire
  /// batch of one. (Protocols that finish or call NodeApi::Retire are
  /// retired in their filing pass's batch instead.)
  void Retire(NodeId v);

  bool AllFinished() const noexcept { return finished_ == graph_->NumNodes(); }
  Round Now() const noexcept { return now_; }
  /// The shard count in effect: config.shards clamped to the node count for
  /// the flat engine, 1 for the coroutine engine.
  unsigned Shards() const noexcept { return shards_; }
  const EnergyMeter& Energy() const noexcept { return energy_; }
  const Graph& Topology() const noexcept { return *graph_; }

  /// The residual overlay the channel scans.
  const ResidualGraph& Residual() const noexcept { return residual_; }

  /// Allocation footprint of this scheduler's coroutine-frame arena.
  const FrameArena::Stats& ArenaStats() const noexcept { return arena_.GetStats(); }

  /// Calendar-wheel slot count (power of two). Public so tests can pin the
  /// horizon edge: a sleep of exactly kWheelSize rounds must route through
  /// the overflow list, not alias the current slot.
  static constexpr std::size_t kWheelSize = 4096;

 private:
  /// Advances node v's program to its next suspension at `round` — resuming
  /// its coroutine or stepping its flat lane, per config.engine. Touches
  /// only v's own context, lane and RNG stream, so calls for distinct nodes
  /// may run concurrently (flat engine). A node stepped out of sleep must be
  /// due exactly at `round`. A node whose transmit was fused with a sleep
  /// (HotNodeContext::sleep_after) is not stepped: it must be advancing to
  /// the round after its transmit, and gets that sleep filed instead.
  /// Declared inline (defined and used only in scheduler.cpp) so g++
  /// inlines it into both step loops of StepAndFile: left to its heuristics
  /// it kept an out-of-line call in the one-part loop, the coroutine
  /// engine's resume path.
  inline void AdvanceNode(NodeId v, Round round);

  /// The one step-then-file pass (spawn, wake drain, round resume): advances
  /// every node of `batch` to `round`, then files each in batch order; the
  /// caller flushes the pass's retire batch right after (FlushRetires),
  /// outside the pass's timer. With PassParts(batch) > 1 the steps run per
  /// part on the pool and filing follows the join; with one part each step
  /// is filed at once.
  void StepAndFile(std::span<const NodeId> batch, Round round);
  /// Spawn's and SpawnFlat's common tail: StepAndFile of every node, in
  /// node order, to its first action (round 0).
  void StartAll();

  /// Files node v's computed action: commits its step's phase annotations,
  /// then files it into actors_ if it acts in round ctx.now, into the wake
  /// wheel if it sleeps; detects completion and marks retirement. Always
  /// serial, in batch order — filing mutates cross-node state (the timeline,
  /// finished_, the wheel, the order of the retire batch), whose mutation
  /// order the trace/report goldens pin.
  void FileAction(NodeId v);
  /// Replays v's staged PhaseNotes into the timeline (Annotate /
  /// AnnotateSub), popping them from v's shard buffer at its cursor. Called
  /// only for nodes whose step staged notes (HotNodeContext flag).
  void CommitPhaseNotes(NodeId v);
  /// Resolves the timeline's pending boundary residual if its round is
  /// before `before`, i.e. no step can still join it.
  void ResolvePhaseBoundary(Round before);

  /// Issues prefetches for upcoming resumes in a batch: position i + 16
  /// pulls the node's hot context line (ctx_hot_ is 16 B/node — four nodes
  /// share a cache line, but resume order is wake order, so the hardware
  /// stride detector cannot cover it) plus, per engine, the flat lane or the
  /// cold context half the resume will touch; position i + 4 chases
  /// resume_point to the coroutine-frame header the resume call loads
  /// first. Hides the dependent LLC misses that otherwise dominate per-wake
  /// cost on large graphs.
  void PrefetchResume(std::span<const NodeId> nodes, std::size_t i) noexcept;

  /// Marks v retired (idempotent) and appends it to the current filing
  /// pass's retire batch. The residual overlay is untouched
  /// until FlushRetires: nothing reads it between a retire and the end of
  /// the pass that filed it.
  void MarkRetired(NodeId v);
  /// Ends a filing pass (spawn, wake or resume): applies the pass's retire
  /// batch in filing order with ResidualGraph::RetireBatch — on the shard
  /// cut and pool when sharded and the batch's pending scan entries reach
  /// ResidualGraph::kParallelMinEntries, over one inline range otherwise.
  void FlushRetires();

  /// The round, for every engine and shard count: PassParts(actors_) →
  /// ChooseDirection → BeginRound → per-part transmit pass → merge of the
  /// part bitsets in fixed part order (none at one part) → per-part listen
  /// pass → CommitShardTotals → deferred trace → heartbeat → StepAndFile of
  /// the actors for the next round. Every observable commits serially in
  /// global actor order, so all of them are bit-identical at any shard count
  /// (DESIGN.md §13).
  void ExecuteRound();

  /// Part s of a round split into `parts`: its transmitters are registered
  /// with the channel (AddTransmitter at one part, StampTransmitter into the
  /// shard's buffer otherwise) and charged to the per-node energy cells.
  void ShardTransmitPass(unsigned s, unsigned parts);
  /// Part s's listeners: receptions resolved and energy charged locally.
  void ShardListenPass(unsigned s, unsigned parts);
  /// Deferred serial trace pass in global actor order: all transmits, then
  /// all listens.
  void EmitRoundTrace();
  /// Edge-balanced contiguous node cut (EdgeBalancedCut); also sizes the
  /// part lists and transmit buffers.
  void BuildShardCut();
  /// The shard owning node v under the current cut.
  unsigned ShardOf(NodeId v) const noexcept;
  bool Sharded() const noexcept { return shards_ > 1; }
  /// Pool dispatch only pays off when a pass has enough per-node work to
  /// amortize the barrier handshake; a smaller pass runs on the scheduler
  /// thread as one part — the one-shard round or step pass, whatever the
  /// shard count. Bit-identical either way — the parts execute disjoint work
  /// whose merge/filing is serialized in global actor order — so this is
  /// purely a cost knob, sized so ~µs of pass work meets ~µs of dispatch
  /// overhead.
  static constexpr std::size_t kParallelMinNodes = 1024;
  /// The one rule for a pass's part count, asked by the round and the step
  /// pass alike: every shard once the pass reaches kParallelMinNodes, else 1.
  unsigned PassParts(std::size_t nodes) const noexcept {
    return nodes >= kParallelMinNodes ? shards_ : 1;
  }
  /// Splits a dispatched pass's `batch` by the shard cut into parts_, each
  /// part a subsequence of the batch (what the phase-note cursors rely on).
  void SplitIntoParts(std::span<const NodeId> batch);
  /// Part s of `batch` split into `parts`: the batch itself at one part.
  std::span<const NodeId> Part(std::span<const NodeId> batch, unsigned parts,
                               unsigned s) const noexcept {
    return parts > 1 ? std::span<const NodeId>(parts_[s]) : batch;
  }

  /// Sums the live degrees of the round's transmitters and listeners, feeds
  /// the chan.* counters from the ResolveDirection accounting model, and
  /// returns the PhysicalDirection the channel resolves in at `parts`. Also
  /// validates actor rounds.
  ChannelDirection ChooseDirection(unsigned parts);

  const Graph* graph_;
  SchedulerConfig config_;
  // Declared before channel_ so the channel's overlay pointer is never
  // dangling during destruction.
  ResidualGraph residual_;
  Channel channel_;
  EnergyMeter energy_;

  // Declared before tasks_: destroying a task recycles its coroutine frames
  // into the arena, so the arena must be destroyed after (i.e. declared
  // before) the tasks that feed it.
  FrameArena arena_;

  // Per-node context state, split hot/cold into parallel arrays (DESIGN.md
  // §12.2): the resume loop and the channel's action scans stream only
  // ctx_hot_ (16 B/node — round, action argument, packed flags); RNG state,
  // receptions, the coroutine handle, and the energy/timeline pointers live
  // in ctx_cold_ and are touched only when a node actually draws, listens,
  // or resumes a coroutine. Protocols see both halves through the two-
  // pointer NodeContext view built by View().
  std::vector<HotNodeContext> ctx_hot_;
  std::vector<ColdNodeContext> ctx_cold_;
  std::vector<proc::Task<void>> tasks_;

  /// The two-pointer hot/cold view of node v handed to NodeApi / FlatCtx.
  NodeContext View(NodeId v) noexcept { return {&ctx_hot_[v], &ctx_cold_[v]}; }

  // Engaged by SpawnFlat: the batched state-machine backend. When set, the
  // resume hot path steps lanes in place and tasks_/arena_ stay empty.
  std::unique_ptr<FlatProtocol> flat_;
  // Cached at SpawnFlat so the prefetch path pays no virtual call.
  FlatProtocol::LaneLayout flat_lanes_;

  // Nodes acting (transmit/listen) in round now_.
  std::vector<NodeId> actors_;
  // The executed round's actors, swapped out of actors_ while StepAndFile
  // files their next actions into the emptied list.
  std::vector<NodeId> stepped_;

  // Intra-run sharding (flat engine only; engaged by the constructor when
  // config.shards > 1). shard_begin_ holds the contiguous node cut
  // (shards_ + 1 boundaries); parts_ holds the current dispatched pass's
  // batch split by that cut (SplitIntoParts), stale otherwise.
  unsigned shards_ = 1;
  std::vector<NodeId> shard_begin_;
  std::vector<std::vector<NodeId>> parts_;
  std::vector<Channel::TxShardBuffer> tx_buffers_;
  // Per-shard phase-annotation buffers and their filing cursors (sized only
  // when a timeline is attached; empty between filing passes).
  std::vector<PhaseNoteBuffer> phase_notes_;
  std::vector<std::size_t> phase_note_next_;
  // Per-part charge tallies from the round passes (entry 0 at one part),
  // summed serially into the EnergyMeter totals once per round.
  std::vector<std::uint64_t> shard_tx_count_;
  std::vector<std::uint64_t> shard_fused_count_;  ///< fused transmits per part
  std::vector<std::uint64_t> shard_listen_count_;
  std::uint64_t merge_words_ = 0;  ///< words OR-merged across all rounds
  std::uint64_t barrier_waits_base_ = 0;  ///< par::BarrierWaits at ctor

  // Calendar-wheel wake queue. Sleeping nodes land in the bucket of their
  // wake round when it is within the wheel horizon (now < round < now + W;
  // strict, since a distance-W round aliases the current slot), else in the
  // unsorted overflow (far phase syncs). The virtual clock visits
  // every wake round (jumps target the minimum pending round), so a bucket is
  // drained exactly at its round; draining sorts the bucket, reproducing the
  // (round, node)-ascending pop order of a binary heap — which resume order,
  // and therefore trace goldens, depend on — at O(1) amortized per event
  // instead of O(log sleepers).
  struct WakeEntry {
    Round round;
    NodeId node;
  };
  void PushWake(Round round, NodeId node);
  /// Smallest pending wake round (wheel and overflow), or kNoWake.
  Round NextWakeRound() const noexcept;
  /// Moves overflow entries that entered the horizon into their buckets.
  void MigrateOverflow();
  static constexpr Round kNoWake = ~Round{0};
  std::vector<std::vector<NodeId>> wake_wheel_{kWheelSize};
  std::vector<NodeId> wake_scratch_;       // drained bucket, sorted
  std::uint64_t wheel_count_ = 0;
  std::vector<WakeEntry> wake_overflow_;
  Round overflow_min_ = kNoWake;

  Round now_ = 0;
  Round last_awake_round_ = 0;
  bool any_awake_round_ = false;
  std::uint64_t node_rounds_ = 0;
  // Nodes passed to AdvanceNode, and the fused transmitters among them,
  // which AdvanceNode reschedules without a step: sched.steps is the
  // difference.
  std::uint64_t advances_ = 0;
  std::uint64_t fused_transmits_ = 0;
  NodeId finished_ = 0;
  NodeId retired_ = 0;  ///< decided nodes (telemetry's "decided" gauge)
  // The current filing pass's retirees in filing order, and the sum of
  // their scan-row lengths (the retire pass's work, which picks inline vs
  // pool). Empty between passes.
  std::vector<NodeId> retire_batch_;
  std::uint64_t retire_batch_entries_ = 0;
  std::uint64_t retire_batches_ = 0;  ///< non-empty batches flushed
  bool spawned_ = false;

  /// Emits the per-round telemetry heartbeat (config.telemetry set).
  void EmitHeartbeat();

  // Metric handles resolved once in the constructor; null when metrics are
  // off, so the hot path pays a branch, not a map lookup.
  obs::Timer* execute_timer_ = nullptr;
  obs::Timer* resume_timer_ = nullptr;
  obs::Timer* wake_timer_ = nullptr;
  obs::Timer* retire_timer_ = nullptr;
  obs::Counter* rounds_executed_ = nullptr;
  obs::Counter* rounds_skipped_ = nullptr;
  obs::Counter* wake_events_ = nullptr;
  obs::Counter* steps_metric_ = nullptr;
  obs::Counter* push_rounds_ = nullptr;
  obs::Counter* pull_rounds_ = nullptr;
  obs::Counter* edges_scanned_ = nullptr;
  obs::Counter* compactions_metric_ = nullptr;
  obs::Counter* retire_rebuilds_metric_ = nullptr;
  obs::Counter* edges_reclaimed_metric_ = nullptr;
  obs::Gauge* live_edges_metric_ = nullptr;
  obs::Gauge* retire_batches_metric_ = nullptr;
  obs::Gauge* arena_reserved_ = nullptr;
  obs::Gauge* arena_used_ = nullptr;
  obs::Gauge* merge_words_metric_ = nullptr;
  obs::Gauge* barrier_waits_metric_ = nullptr;
  obs::Gauge* mem_hot_metric_ = nullptr;
  obs::Gauge* mem_cold_metric_ = nullptr;
  obs::Gauge* mem_lane_metric_ = nullptr;
  // RunUntil may be called repeatedly; counters flush deltas against these.
  std::uint64_t steps_flushed_ = 0;
  std::uint64_t compactions_flushed_ = 0;
  std::uint64_t rebuilds_flushed_ = 0;
  std::uint64_t edges_reclaimed_flushed_ = 0;
};

}  // namespace emis
