#include "radio/scheduler.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <numeric>
#include <string>

#include "core/contracts.hpp"
#include "obs/scoped_timer.hpp"
#include "radio/hugepages.hpp"
#include "verify/parallel.hpp"

namespace emis {

unsigned ParseShards(std::string_view text, std::string_view source) {
  unsigned value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  EMIS_REQUIRE(ec == std::errc() && ptr == end && value >= 1 && value <= 256,
               std::string(source) + " must be in [1, 256] (got '" +
                   std::string(text) + "')");
  return value;
}

unsigned DefaultShards() {
  static const unsigned shards = [] {
    // Read once under the static's init guard; the process never setenv()s,
    // so the getenv cannot race a writer. A throw leaves the static
    // uninitialized, so every later call rethrows.
    const char* env = std::getenv("EMIS_SHARDS");  // NOLINT(concurrency-mt-unsafe)
    if (env == nullptr || *env == '\0') return 1u;
    return ParseShards(env, "EMIS_SHARDS");
  }();
  return shards;
}

Scheduler::Scheduler(const Graph& graph, SchedulerConfig config, std::uint64_t seed)
    : graph_(&graph),
      config_(config),
      residual_(graph),
      channel_(graph, config.model),
      energy_(graph.NumNodes()) {
  if (config.link_loss > 0.0) {
    channel_.SetLoss(config.link_loss, seed ^ 0x10ad10ad10ad10adULL);
  }
  // Sharding engages for the flat engine only: never more shards than
  // nodes, so every shard owns at least one row at bench sizes and
  // degenerate tiny graphs collapse to fewer shards instead of empty
  // dispatches.
  if (config_.engine == ExecutionEngine::kFlat && config_.shards > 1 &&
      graph.NumNodes() > 0) {
    shards_ = std::min<unsigned>(config_.shards, graph.NumNodes());
    BuildShardCut();
  }
  shard_tx_count_.assign(shards_, 0);
  shard_fused_count_.assign(shards_, 0);
  shard_listen_count_.assign(shards_, 0);
  // A mapped CSR's content is checked before the channel or the residual
  // graph indexes by it — once per mapping, so later runs on it skip the
  // pass. This is the check ResidualGraph's retire walk relies on (its
  // constructor reads only the offsets, which mapping checked).
  graph.RequireValidAdjacency(shards_);
  channel_.AttachResidual(&residual_);
  if (config_.ledger != nullptr) {
    EMIS_EXPECTS(config_.ledger->NumNodes() == graph.NumNodes(),
                 "energy ledger sized for a different graph");
  }
  if (config_.timeline != nullptr) {
    config_.timeline->BindEnergy(&energy_);
    // The timeline drives the ledger's (phase, sub) context and the
    // telemetry's phase-boundary events. RunMis (or whichever driver owns
    // the timeline) clears these bindings after the run.
    if (config_.ledger != nullptr) {
      config_.timeline->BindLedger(config_.ledger);
    }
    if (config_.telemetry != nullptr) {
      obs::StreamSink* sink = config_.telemetry;
      config_.timeline->SetSpanHook([sink](const obs::PhaseSpan& span) {
        obs::JsonValue event = obs::JsonValue::MakeObject();
        event.Set("event", obs::JsonValue("phase"));
        event.Set("label", obs::JsonValue(span.label));
        event.Set("level", obs::JsonValue(static_cast<std::uint64_t>(span.level)));
        event.Set("begin_round", obs::JsonValue(span.begin_round));
        event.Set("end_round", obs::JsonValue(span.end_round));
        event.Set("rounds", obs::JsonValue(span.Rounds()));
        // The span's transmit/listen delta = this phase's attribution
        // increment, streamed so a live consumer can grow the attribution
        // table without waiting for the final report.
        event.Set("transmit_rounds", obs::JsonValue(span.transmit_rounds));
        event.Set("listen_rounds", obs::JsonValue(span.listen_rounds));
        if (span.has_residual) {
          event.Set("residual_edges_begin", obs::JsonValue(span.residual_edges_begin));
          event.Set("residual_edges_end", obs::JsonValue(span.residual_edges_end));
        }
        sink->Emit(event);
      });
    }
  }
  if (config_.metrics != nullptr) {
    execute_timer_ = &config_.metrics->GetTimer("sched.execute_round");
    resume_timer_ = &config_.metrics->GetTimer("sched.resume");
    wake_timer_ = &config_.metrics->GetTimer("sched.wake_heap");
    rounds_executed_ = &config_.metrics->GetCounter("sched.rounds_executed");
    rounds_skipped_ = &config_.metrics->GetCounter("sched.rounds_skipped");
    wake_events_ = &config_.metrics->GetCounter("sched.wake_events");
    steps_metric_ = &config_.metrics->GetCounter("sched.steps");
    push_rounds_ = &config_.metrics->GetCounter("chan.push_rounds");
    pull_rounds_ = &config_.metrics->GetCounter("chan.pull_rounds");
    edges_scanned_ = &config_.metrics->GetCounter("chan.edges_scanned");
    compactions_metric_ = &config_.metrics->GetCounter("graph.compactions");
    edges_reclaimed_metric_ = &config_.metrics->GetCounter("graph.edges_reclaimed");
    retire_timer_ = &config_.metrics->GetTimer("graph.retire");
    retire_rebuilds_metric_ = &config_.metrics->GetCounter("graph.retire_rebuilds");
    retire_batches_metric_ = &config_.metrics->GetGauge("graph.retire_batches");
    live_edges_metric_ = &config_.metrics->GetGauge("chan.live_edges");
    arena_reserved_ = &config_.metrics->GetGauge("arena.bytes_reserved");
    arena_used_ = &config_.metrics->GetGauge("arena.bytes_used");
    merge_words_metric_ = &config_.metrics->GetGauge("chan.merge_words");
    barrier_waits_metric_ = &config_.metrics->GetGauge("parallel.barrier_waits");
    mem_hot_metric_ = &config_.metrics->GetGauge("mem.context_hot_bytes");
    mem_cold_metric_ = &config_.metrics->GetGauge("mem.context_cold_bytes");
    mem_lane_metric_ = &config_.metrics->GetGauge("mem.lane_bytes");
  }
  barrier_waits_base_ = par::BarrierWaits();
  const Rng root(seed);
  // The hot array is default-initialized (round 0, sleeping, no flags);
  // only the cold half needs per-node identity wired up.
  ReserveHuge(ctx_hot_, graph.NumNodes());
  ReserveHuge(ctx_cold_, graph.NumNodes());
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    ctx_cold_[v].id = v;
    ctx_cold_[v].rng = root.Split(v);
    ctx_cold_[v].energy = &energy_.Of(v);
  }
  if (config_.timeline != nullptr) {
    // One annotation buffer per shard, each node pointing at its own
    // shard's: parallel steps stage annotations without sharing a writer.
    phase_notes_.resize(shards_);
    phase_note_next_.assign(shards_, 0);
    for (NodeId v = 0; v < graph.NumNodes(); ++v) {
      ctx_cold_[v].phase_notes = &phase_notes_[Sharded() ? ShardOf(v) : 0];
    }
    if (Sharded()) {
      // Room for a phase and a sub-phase per node — what a boundary step
      // stages — so pool workers do not allocate (pages are touched only
      // as notes arrive). Unsharded passes hold one node's notes at a time.
      for (unsigned s = 0; s < shards_; ++s) {
        phase_notes_[s].reserve(2 * std::size_t{shard_begin_[s + 1] - shard_begin_[s]});
      }
    }
  }
}

void Scheduler::Spawn(const ProtocolFactory& factory) {
  EMIS_EXPECTS(!spawned_, "Spawn must be called exactly once");
  EMIS_EXPECTS(config_.engine == ExecutionEngine::kCoroutine,
               "Spawn drives the coroutine engine; use SpawnFlat");
  spawned_ = true;
  // Root frames (and any coroutines the factory itself creates) come from
  // this scheduler's pooled arena; see radio/frame_arena.hpp.
  const FrameArenaScope frames(&arena_);
  tasks_.reserve(graph_->NumNodes());
  for (NodeId v = 0; v < graph_->NumNodes(); ++v) {
    tasks_.push_back(factory(NodeApi(View(v))));
    EMIS_EXPECTS(tasks_.back().Valid(), "protocol factory returned an empty task");
    ctx_cold_[v].resume_point = tasks_.back().RawHandle();
  }
  StartAll();
}

void Scheduler::SpawnFlat(std::unique_ptr<FlatProtocol> protocol) {
  EMIS_EXPECTS(!spawned_, "Spawn must be called exactly once");
  EMIS_EXPECTS(config_.engine == ExecutionEngine::kFlat,
               "SpawnFlat drives the flat engine; use Spawn");
  // Always on: every later step dereferences the protocol.
  EMIS_REQUIRE(protocol != nullptr, "flat protocol must not be null");
  spawned_ = true;
  flat_ = std::move(protocol);
  flat_lanes_ = flat_->Lanes();
  StartAll();
}

void Scheduler::StartAll() {
  // Run every program to its first action (round 0), in node order.
  std::vector<NodeId> all(graph_->NumNodes());
  std::iota(all.begin(), all.end(), NodeId{0});
  StepAndFile(all, 0);
  FlushRetires();
}

void Scheduler::BuildShardCut() {
  // Contiguous row ranges with balanced directed-edge volume, which is what
  // the channel passes and the retire pass actually iterate.
  shard_begin_ = EdgeBalancedCut(graph_->RowOffsets(), shards_);
  tx_buffers_.resize(shards_);
  for (unsigned s = 0; s < shards_; ++s) {
    channel_.InitShardBuffer(tx_buffers_[s], shard_begin_[s], shard_begin_[s + 1]);
  }
  parts_.assign(shards_, {});
}

unsigned Scheduler::ShardOf(NodeId v) const noexcept {
  const auto it =
      std::upper_bound(shard_begin_.begin() + 1, shard_begin_.end(), v);
  return static_cast<unsigned>(std::distance(shard_begin_.begin() + 1, it));
}

void Scheduler::Retire(NodeId v) {
  MarkRetired(v);
  FlushRetires();
}

void Scheduler::MarkRetired(NodeId v) {
  EMIS_EXPECTS(v < graph_->NumNodes(), "node out of range");
  HotNodeContext& hot = ctx_hot_[v];
  if (hot.Retired()) return;  // idempotent: finishing also implies retirement
  hot.MarkRetired();  // sets retired, clears any pending retire request
  ++retired_;
  retire_batch_.push_back(v);
  retire_batch_entries_ += residual_.ScanRow(v).size();
}

void Scheduler::FlushRetires() {
  if (retire_batch_.empty()) return;
  const obs::ScopedTimer timing(retire_timer_);
  // Same inline-below rule as the round passes, keyed on the work the pass
  // will walk: the batch's pending scan entries.
  if (Sharded() && retire_batch_entries_ >= ResidualGraph::kParallelMinEntries) {
    residual_.RetireBatch(retire_batch_, shard_begin_, shards_);
  } else {
    const NodeId whole[] = {0, graph_->NumNodes()};
    residual_.RetireBatch(retire_batch_, whole, 1);
  }
  ++retire_batches_;
  retire_batch_.clear();
  retire_batch_entries_ = 0;
}

void Scheduler::AdvanceNode(NodeId v, Round round) {
  HotNodeContext& hot = ctx_hot_[v];
  EMIS_INVARIANT(hot.Pending() != ActionKind::kSleep || hot.WakeRound() == round,
                 "missed a wake event");
  if (hot.Pending() == ActionKind::kTransmit && hot.sleep_after != 0) {
    // A fused transmit-then-sleep: the step after the transmit would only
    // file this sleep, so file it here and step nothing. The wake it files
    // is due exactly when the node's next step is, which the check above
    // verifies when it comes.
    EMIS_INVARIANT(round == Round{hot.now} + 1,
                   "fused transmit advanced past its transmit round");
    hot.now = static_cast<std::uint32_t>(round);
    hot.FileSleep(round + hot.sleep_after);
    return;
  }
  hot.now = static_cast<std::uint32_t>(round);
  if (flat_ != nullptr) {
    flat_->Step(v, View(v));
    return;
  }
  // Sub-protocol frames spawned while the coroutine runs allocate from
  // (and completed ones recycle into) this scheduler's arena.
  const FrameArenaScope frames(&arena_);
  ctx_cold_[v].resume_point.resume();
  if (tasks_[v].Done()) {
    tasks_[v].RethrowIfFailed();
    hot.MarkDone();
  }
}

void Scheduler::SplitIntoParts(std::span<const NodeId> batch) {
  for (std::vector<NodeId>& part : parts_) part.clear();
  for (const NodeId v : batch) parts_[ShardOf(v)].push_back(v);
}

void Scheduler::StepAndFile(std::span<const NodeId> batch, Round round) {
  advances_ += batch.size();
  const unsigned parts = PassParts(batch.size());
  if (parts > 1) {
    SplitIntoParts(batch);
    par::ParallelFor(parts, parts, [&](std::uint64_t s, unsigned) {
      const std::span<const NodeId> part = parts_[s];
      for (std::size_t i = 0; i < part.size(); ++i) {
        PrefetchResume(part, i);
        AdvanceNode(part[i], round);
      }
    });
    for (const NodeId v : batch) FileAction(v);
  } else {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      PrefetchResume(batch, i);
      AdvanceNode(batch[i], round);
      FileAction(batch[i]);
    }
  }
}

void Scheduler::FileAction(NodeId v) {
  HotNodeContext& hot = ctx_hot_[v];
  if (hot.HasPhaseNotes()) CommitPhaseNotes(v);
  if (hot.Done()) {
    ++finished_;
    // A finished program never acts again: drop the node from every
    // neighbor's live scan row (at the end of this filing pass).
    MarkRetired(v);
    return;
  }
  if (hot.RetireRequested()) MarkRetired(v);
  switch (hot.Pending()) {
    case ActionKind::kTransmit:
    case ActionKind::kListen:
      EMIS_INVARIANT(!hot.Retired(), "retired node submitted a radio action");
      actors_.push_back(v);
      break;
    case ActionKind::kSleep:
      EMIS_INVARIANT(hot.WakeRound() > hot.now, "sleep must advance time");
      PushWake(hot.WakeRound(), v);
      break;
    default:
      EMIS_UNREACHABLE("unhandled pending action kind");
  }
}

void Scheduler::CommitPhaseNotes(NodeId v) {
  // A shard's buffer holds its part's annotations in step order, and the
  // part is a subsequence of the batch, so v's notes sit at the cursor.
  HotNodeContext& hot = ctx_hot_[v];
  hot.ClearPhaseNotes();
  const unsigned s = Sharded() ? ShardOf(v) : 0;
  PhaseNoteBuffer& notes = phase_notes_[s];
  std::size_t& next = phase_note_next_[s];
  for (; next < notes.size() && notes[next].node == v; ++next) {
    const PhaseNote& note = notes[next];
    if (note.level == 0) {
      config_.timeline->Annotate(note.base, note.index, hot.now);
    } else {
      config_.timeline->AnnotateSub(note.base, note.index, hot.now);
    }
  }
  if (next == notes.size()) {
    notes.clear();
    next = 0;
  }
}

void Scheduler::ResolvePhaseBoundary(Round before) {
  if (config_.timeline != nullptr && config_.timeline->ResidualPending() &&
      config_.timeline->PendingRound() < before) {
    config_.timeline->ResolveResidual();
  }
}

void Scheduler::PrefetchResume(std::span<const NodeId> nodes,
                               std::size_t i) noexcept {
  if (i + 16 < nodes.size()) {
    const NodeId ahead = nodes[i + 16];
    // A HotNodeContext is 16 B — one cache line covers it and three of
    // its neighbors, so a single prefetch pulls everything the filing
    // path reads. Resume order is wake order, not node order, so the
    // hardware stride detector cannot cover any of these streams.
    __builtin_prefetch(&ctx_hot_[ahead], /*rw=*/1, /*locality=*/1);
    if (flat_lanes_.base != nullptr) {
      // The flat engine's second dependent load is the node's lane. The
      // cold half is deliberately NOT prefetched here: only RNG-drawing
      // resumes reach it, and pulling it for every node measurably costs
      // more in bandwidth than the avoided misses return (~6% at
      // n = 2^20, degree 256).
      __builtin_prefetch(static_cast<const char*>(flat_lanes_.base) +
                             flat_lanes_.stride * ahead,
                         1, 1);
    } else {
      // Coroutine resumes always reach the cold half (resume_point, rng).
      __builtin_prefetch(&ctx_cold_[ahead], 1, 1);
    }
  }
  if (i + 4 < nodes.size() && flat_ == nullptr) {
    // The cold line was prefetched twelve resumes ago, so this dereference
    // is cheap by now; the frame header is what resume() loads first.
    __builtin_prefetch(ctx_cold_[nodes[i + 4]].resume_point.address(), 1, 1);
  }
}

void Scheduler::PushWake(Round round, NodeId node) {
  // Wheel entries satisfy now < round < now + W: the bucket for `round` was
  // last drained at or before the current round, so it next drains exactly
  // at `round` (the clock visits every pending wake round). The bound must
  // be strict — a distance-W entry maps to the *current* round's slot, and
  // if it lands there while now's bucket drains (all woken nodes back to
  // sleep), NextWakeRound would re-find the slot at d = 0 and re-drain it
  // this round, waking the node W rounds early. Distance >= W goes to the
  // overflow list, whose minimum NextWakeRound also consults.
  if (round - now_ < kWheelSize) {
    wake_wheel_[round & (kWheelSize - 1)].push_back(node);
    ++wheel_count_;
  } else {
    wake_overflow_.push_back({round, node});
    overflow_min_ = std::min(overflow_min_, round);
  }
}

Round Scheduler::NextWakeRound() const noexcept {
  if (wheel_count_ > 0) {
    // Walk forward from `now`; total walk length across a run is bounded by
    // the rounds the clock advances, so this is O(1) amortized per jump.
    // Slot aliasing is benign: at distance d the slot can only hold round
    // now + d (a round now + d + W entry would have been pushed after round
    // now + d, which has not happened yet).
    for (Round d = 0; d < kWheelSize; ++d) {
      const Round round = now_ + d;
      if (!wake_wheel_[round & (kWheelSize - 1)].empty()) {
        return std::min(round, overflow_min_);
      }
    }
  }
  return overflow_min_;
}

void Scheduler::MigrateOverflow() {
  std::size_t kept = 0;
  Round kept_min = kNoWake;
  for (const WakeEntry& entry : wake_overflow_) {
    // Same strict horizon as PushWake: a distance-W entry would alias the
    // current slot, so it stays in overflow until the clock gets closer.
    if (entry.round - now_ < kWheelSize) {
      wake_wheel_[entry.round & (kWheelSize - 1)].push_back(entry.node);
      ++wheel_count_;
    } else {
      kept_min = std::min(kept_min, entry.round);
      wake_overflow_[kept++] = entry;
    }
  }
  wake_overflow_.resize(kept);
  overflow_min_ = kept_min;
}

ChannelDirection Scheduler::ChooseDirection(unsigned parts) {
  // Live degrees: as the residual shrinks, both rules keep tracking the
  // work a direction will actually do.
  std::uint64_t tx_edges = 0;
  std::uint64_t listen_edges = 0;
  for (NodeId v : actors_) {
    const HotNodeContext& hot = ctx_hot_[v];
    EMIS_INVARIANT(hot.now == now_, "actor scheduled for wrong round");
    const std::uint64_t cost = residual_.LiveDegree(v);
    if (hot.Pending() == ActionKind::kTransmit) {
      tx_edges += cost;
    } else {
      listen_edges += cost;
    }
  }
  if (edges_scanned_ != nullptr) {
    const bool push =
        ResolveDirection(tx_edges, listen_edges) == ChannelDirection::kPush;
    (push ? push_rounds_ : pull_rounds_)->Inc();
    edges_scanned_->Inc(push ? tx_edges : listen_edges);
  }
  return PhysicalDirection(parts, config_.link_loss > 0.0, tx_edges, listen_edges);
}

void Scheduler::ExecuteRound() {
  // Every step into this round has been filed: its phase boundary is final.
  ResolvePhaseBoundary(now_ + 1);
  {
    const obs::ScopedTimer timing(execute_timer_);
    const unsigned parts = PassParts(actors_.size());
    channel_.BeginRound(ChooseDirection(parts));
    // Pre-intern the ledger's (phase, sub) key so concurrent charges touch
    // only per-node cells (disjoint across parts), never the key table.
    if (config_.ledger != nullptr) config_.ledger->PrimeCurrentKey();
    if (parts > 1) SplitIntoParts(actors_);
    par::ParallelFor(parts, parts, [this, parts](std::uint64_t s, unsigned) {
      ShardTransmitPass(static_cast<unsigned>(s), parts);
    });
    // Word-wise OR-merge in fixed part order into the epoch-stamped global
    // bitset; serial, so boundary words shared by two parts merge cleanly.
    // One part registered straight into the channel and has nothing to
    // merge.
    std::uint64_t tx_total = 0;
    for (unsigned s = 0; s < parts; ++s) {
      if (parts > 1) merge_words_ += channel_.MergeTxShard(tx_buffers_[s]);
      tx_total += shard_tx_count_[s];
      fused_transmits_ += shard_fused_count_[s];
    }
    par::ParallelFor(parts, parts, [this, parts](std::uint64_t s, unsigned) {
      ShardListenPass(static_cast<unsigned>(s), parts);
    });
    std::uint64_t listen_total = 0;
    for (unsigned s = 0; s < parts; ++s) listen_total += shard_listen_count_[s];
    // Totals are plain sums — order-independent — so committing them once
    // per round keeps the meter exactly conserved at round boundaries.
    energy_.CommitShardTotals(tx_total, listen_total);
    if (config_.trace != nullptr) EmitRoundTrace();
  }
  node_rounds_ += actors_.size();
  last_awake_round_ = now_;
  any_awake_round_ = true;
  if (rounds_executed_ != nullptr) rounds_executed_->Inc();
  if (config_.telemetry != nullptr &&
      now_ % std::max<Round>(config_.telemetry->HeartbeatEvery(), 1) == 0) {
    EmitHeartbeat();
  }

  // Resume the actors so they submit their next action (for now_ + 1),
  // filing into the emptied actor list.
  {
    const obs::ScopedTimer timing(resume_timer_);
    stepped_.swap(actors_);
    actors_.clear();
    StepAndFile(stepped_, now_ + 1);
  }
  FlushRetires();
}

void Scheduler::ShardTransmitPass(unsigned s, unsigned parts) {
  const std::span<const NodeId> list = Part(actors_, parts, s);
  std::uint64_t transmits = 0;
  std::uint64_t fused = 0;
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (i + 8 < list.size()) {
      __builtin_prefetch(&ctx_hot_[list[i + 8]], 0, 1);
    }
    const NodeId v = list[i];
    const HotNodeContext& hot = ctx_hot_[v];
    if (hot.Pending() != ActionKind::kTransmit) continue;
    if (parts > 1) {
      channel_.StampTransmitter(tx_buffers_[s], v, hot.Payload());
    } else {
      channel_.AddTransmitter(v, hot.Payload());
    }
    energy_.ChargeTransmitLocal(v);
    if (config_.ledger != nullptr) config_.ledger->ChargeTransmit(v);
    ++transmits;
    fused += hot.sleep_after != 0 ? 1 : 0;
  }
  shard_tx_count_[s] = transmits;
  shard_fused_count_[s] = fused;
}

void Scheduler::ShardListenPass(unsigned s, unsigned parts) {
  const std::span<const NodeId> list = Part(actors_, parts, s);
  std::uint64_t listens = 0;
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (i + 8 < list.size()) {
      const NodeId ahead = list[i + 8];
      __builtin_prefetch(&ctx_hot_[ahead], 0, 1);
      __builtin_prefetch(&ctx_cold_[ahead].last_reception, 1, 1);
    }
    const NodeId v = list[i];
    if (ctx_hot_[v].Pending() != ActionKind::kListen) continue;
    ctx_cold_[v].last_reception = channel_.ResolveListener(v);
    energy_.ChargeListenLocal(v);
    if (config_.ledger != nullptr) config_.ledger->ChargeListen(v);
    ++listens;
  }
  shard_listen_count_[s] = listens;
}

void Scheduler::EmitRoundTrace() {
  // Deferred serial trace pass in global actor order: all transmit events,
  // then all listens — the two-phase order of the synchronous round, at
  // every shard count, so trace goldens are shard-count-invariant.
  for (const NodeId v : actors_) {
    const HotNodeContext& hot = ctx_hot_[v];
    if (hot.Pending() == ActionKind::kTransmit) {
      config_.trace->OnEvent({now_, v, ActionKind::kTransmit, hot.Payload(), {}});
    }
  }
  for (const NodeId v : actors_) {
    if (ctx_hot_[v].Pending() == ActionKind::kListen) {
      config_.trace->OnEvent(
          {now_, v, ActionKind::kListen, 0, ctx_cold_[v].last_reception});
    }
  }
}

void Scheduler::EmitHeartbeat() {
  // Emitted after the round's channel/energy work, before the actors are
  // resumed for the next round, so the gauges describe the round that just
  // executed. Heartbeats ride the bounded queue: a consumer that cannot
  // keep up loses heartbeats (counted), never the control envelopes.
  obs::JsonValue event = obs::JsonValue::MakeObject();
  event.Set("event", obs::JsonValue("round"));
  event.Set("round", obs::JsonValue(now_));
  event.Set("awake", obs::JsonValue(static_cast<std::uint64_t>(actors_.size())));
  event.Set("decided", obs::JsonValue(static_cast<std::uint64_t>(retired_)));
  event.Set("finished", obs::JsonValue(static_cast<std::uint64_t>(finished_)));
  event.Set("live_edges", obs::JsonValue(residual_.LiveEdges()));
  config_.telemetry->Emit(event);
}

RunStats Scheduler::RunUntil(Round limit) {
  EMIS_EXPECTS(spawned_, "call Spawn before running");
  limit = std::min(limit, config_.max_rounds);

  while (!AllFinished()) {
    // If nobody acts this round, jump to the next wake event.
    if (actors_.empty()) {
      const Round next_wake = NextWakeRound();
      if (next_wake == kNoWake) {
        // Every remaining protocol sleeps forever; nothing further happens.
        // (Cannot occur with SleepFor/SleepUntil, which are finite, but a
        // protocol that never finishes after its last action lands here.)
        break;
      }
      // Clamp the jump at `limit`: the virtual clock must not overshoot the
      // run bound, and rounds_skipped_ must count only rounds actually
      // skipped within this run (the remainder is counted if a later
      // RunUntil resumes past it).
      const Round jump_to = std::min(limit, std::max(now_, next_wake));
      if (rounds_skipped_ != nullptr) rounds_skipped_->Inc(jump_to - now_);
      now_ = jump_to;
    }
    if (now_ >= limit) break;
    // The hot contexts store the clock narrowed (HotNodeContext::kNowMax);
    // the skip-jump above is the only way now_ can move fast, so one check
    // per executed round keeps every per-node store exact.
    EMIS_INVARIANT(now_ < HotNodeContext::kNowMax,
                   "round clock outgrew the narrowed hot-context field");

    // Wake sleepers due now; they may join this round's actors. Swap the
    // bucket out first: woken nodes push fresh wheel entries as they file
    // sleeps (never into this slot — the strict horizon sends distance-W
    // wakes to overflow), and sorting in scratch keeps the bucket's
    // capacity for its next lap.
    if (overflow_min_ <= now_) MigrateOverflow();
    // Steps into an earlier round are over: resolve its phase boundary
    // before these wakes step into this one.
    ResolvePhaseBoundary(now_);
    std::vector<NodeId>& bucket = wake_wheel_[now_ & (kWheelSize - 1)];
    if (!bucket.empty()) {
      {
        const obs::ScopedTimer timing(wake_timer_);
        wake_scratch_.clear();
        wake_scratch_.swap(bucket);
        // Heap-order compatibility: same-round wakes resume in node order.
        std::sort(wake_scratch_.begin(), wake_scratch_.end());
        wheel_count_ -= wake_scratch_.size();
        if (wake_events_ != nullptr) wake_events_->Inc(wake_scratch_.size());
        StepAndFile(wake_scratch_, now_);
      }
      FlushRetires();
    }
    if (actors_.empty()) continue;  // woken nodes all went back to sleep

    ExecuteRound();
    ++now_;
  }

  if (arena_reserved_ != nullptr) {
    const FrameArena::Stats& arena = arena_.GetStats();
    arena_reserved_->Set(static_cast<double>(arena.reserved_bytes));
    arena_used_->Set(static_cast<double>(arena.used_bytes));
  }
  if (merge_words_metric_ != nullptr) {
    merge_words_metric_->Set(static_cast<double>(merge_words_));
    barrier_waits_metric_->Set(
        static_cast<double>(par::BarrierWaits() - barrier_waits_base_));
  }
  if (mem_hot_metric_ != nullptr) {
    // Working-set gauges (DESIGN.md §12.2): bytes the resume loop streams
    // per array. The lane gauge reads the stride the protocol published —
    // zero for the coroutine engine, whose per-node machine state lives in
    // arena frames (reported by the arena gauges instead).
    const double n = static_cast<double>(graph_->NumNodes());
    mem_hot_metric_->Set(n * static_cast<double>(sizeof(HotNodeContext)));
    mem_cold_metric_->Set(n * static_cast<double>(sizeof(ColdNodeContext)));
    mem_lane_metric_->Set(n * static_cast<double>(flat_lanes_.stride));
  }
  if (steps_metric_ != nullptr) {
    const std::uint64_t steps = advances_ - fused_transmits_;
    steps_metric_->Inc(steps - steps_flushed_);
    steps_flushed_ = steps;
  }
  if (live_edges_metric_ != nullptr) {
    live_edges_metric_->Set(static_cast<double>(residual_.LiveEdges()));
    compactions_metric_->Inc(residual_.Compactions() - compactions_flushed_);
    compactions_flushed_ = residual_.Compactions();
    retire_rebuilds_metric_->Inc(residual_.Rebuilds() - rebuilds_flushed_);
    rebuilds_flushed_ = residual_.Rebuilds();
    edges_reclaimed_metric_->Inc(residual_.EdgesReclaimed() -
                                 edges_reclaimed_flushed_);
    edges_reclaimed_flushed_ = residual_.EdgesReclaimed();
    retire_batches_metric_->Set(static_cast<double>(retire_batches_));
  }

  RunStats stats;
  stats.rounds_used = any_awake_round_ ? last_awake_round_ + 1 : 0;
  stats.node_rounds = node_rounds_;
  stats.nodes_finished = finished_;
  stats.hit_round_limit = !AllFinished() && now_ >= config_.max_rounds;
  EMIS_ENSURES(stats.nodes_finished <= graph_->NumNodes(),
               "more protocols finished than nodes exist");
  EMIS_ENSURES(stats.rounds_used <= config_.max_rounds,
               "round complexity exceeds the configured hard stop");
  // A boundary before the clock is final. One at now_ stays pending while
  // wakes may still step into now_ on the next RunUntil.
  ResolvePhaseBoundary(now_);
  // The run is over (not merely paused at `limit`): close the trailing phase
  // span so per-phase deltas cover the whole run.
  if (config_.timeline != nullptr && (AllFinished() || stats.hit_round_limit)) {
    config_.timeline->Close(stats.rounds_used);
  }
  return stats;
}

}  // namespace emis
