// Per-round collision resolution, two-sided and direction-optimizing.
//
// Usage per round: BeginRound(direction); AddTransmitter(u, payload) for
// every transmitting node; ResolveListener(v) for every listening node.
// A node must be registered as transmitter at most once per round (checked).
//
// Two resolution directions with identical semantics but different cost:
//   * kPush — AddTransmitter scans the transmitter's CSR neighbor row and
//     delivers into epoch-stamped per-listener buffers; ResolveListener is
//     O(1). Round cost O(Σ deg(transmitter)).
//   * kPull — AddTransmitter is O(1) (epoch-stamps a transmitter bitset +
//     payload slot); ResolveListener scans the *listener's* CSR neighbor row
//     against the bitset. Round cost O(Σ deg(listener)).
// The scheduler picks per round from the two degree sums (borrowing the
// direction-optimizing idea from BFS engines; PhysicalDirection in
// radio/scheduler.hpp), so round cost tracks the cheaper side's work.
// BeginRound is O(1) either way.
//
// Fading (SetLoss) is counter-based: link (tx → rx) in round r is erased iff
// CounterHashUnit(seed, r, tx, rx) < loss — a pure function of the tuple, no
// stream state. Both directions therefore see byte-identical erasures, and
// lossy sweeps stay bit-identical across job counts and directions.
//
// Residual compaction (AttachResidual): when a ResidualGraph overlay is
// attached, both directions scan its live row prefixes instead of full CSR
// rows, so per-round cost tracks live edges. Correctness relies on the
// retirement contract (a retired node never transmits or listens again):
//   * push — a live listener adjacent to transmitter u has a live edge to u,
//     so it appears in u's prefix; deliveries to dead prefix entries write
//     buffers nobody will read.
//   * pull — a retired prefix entry can never satisfy tx_mark_[u] == epoch_,
//     because it never transmits again.
//
// Payload tie-break (pinned contract, see test_residual_compaction.cpp):
// when a listener hears ≥ 2 surviving transmitters, the pull scan keeps the
// LAST transmitting neighbor in row order while the push path keeps the
// FIRST delivered. The divergence is unobservable: Perceive() only surfaces
// a payload when the surviving count is exactly 1 (CD/no-CD collisions
// report payload 0 or silence; beeps are contentless). Residual compaction
// preserves even the internal order — it is a stable partition, so
// surviving entries keep their relative CSR position.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/contracts.hpp"
#include "radio/channel_kernels.hpp"
#include "radio/graph.hpp"
#include "radio/model.hpp"
#include "radio/rng.hpp"

namespace emis {

class Channel {
 public:
  /// The graph must outlive the channel.
  Channel(const Graph& graph, ChannelModel model)
      : graph_(&graph),
        model_(model),
        epoch_mark_(graph.NumNodes(), 0),
        hear_count_(graph.NumNodes(), 0),
        hear_payload_(graph.NumNodes(), 0),
        tx_mark_(graph.NumNodes(), 0),
        tx_payload_(graph.NumNodes(), 0),
        tx_words_((static_cast<std::size_t>(graph.NumNodes()) + 63) / 64) {}

  ChannelModel Model() const noexcept { return model_; }

  /// Attaches a residual overlay (owned by the scheduler, must outlive the
  /// channel or be detached with nullptr): scans iterate its live row
  /// prefixes instead of full CSR rows. Receptions are identical with or
  /// without an overlay: the Scheduler always attaches one, and a channel
  /// without one (the seed rows) is the reference tests compare against.
  void AttachResidual(const ResidualGraph* residual) noexcept {
    residual_ = residual;
  }

  /// Enables per-link fading: every (transmitter, listener) signal is
  /// independently erased with probability `loss` each round. An erased
  /// signal neither delivers nor interferes (it does not contribute to
  /// collisions). loss = 0 restores the paper's reliable channel.
  ///
  /// Erasure is drawn from the counter-based per-link hash stream
  /// LinkErased(round, tx, rx, seed) — a pure function of the link and the
  /// round counter, not of draw order — so the fade pattern is identical
  /// under push and pull resolution and across parallel-sweep job counts.
  void SetLoss(double loss, std::uint64_t seed) {
    EMIS_EXPECTS(loss >= 0.0 && loss < 1.0, "loss probability in [0, 1)");
    loss_ = loss;
    loss_seed_ = seed;
  }
  double Loss() const noexcept { return loss_; }

  /// Whether the directed signal tx → rx fades out in `round`. Pure in its
  /// arguments; exposed so tests can pin the stream against golden values.
  static bool LinkErased(std::uint64_t round, NodeId tx, NodeId rx,
                         std::uint64_t seed, double loss) noexcept {
    return CounterHashUnit(seed, round, tx, rx) < loss;
  }

  /// Starts the next round, resolving it in the given direction. O(1).
  void BeginRound(ChannelDirection direction = ChannelDirection::kPush) noexcept {
    ++epoch_;
    direction_ = direction;
  }

  ChannelDirection Direction() const noexcept { return direction_; }

  /// Registers node u as transmitting `payload` this round. Registering the
  /// same node twice in one round violates the radio model (one action per
  /// node per round) and throws InvariantError instead of double-delivering.
  void AddTransmitter(NodeId u, std::uint64_t payload) {
    EMIS_INVARIANT(tx_mark_[u] != epoch_,
                   "node registered as transmitter twice in one round");
    tx_mark_[u] = epoch_;
    tx_payload_[u] = payload;
    // Mirror into the packed per-word bitset (lazily cleared by epoch stamp)
    // that the word-parallel pull scan probes.
    TxWord& word = tx_words_[u >> 6];
    if (word.epoch != epoch_) {
      word.epoch = epoch_;
      word.bits = 0;
    }
    word.bits |= 1ULL << (u & 63);
    if (direction_ == ChannelDirection::kPull) return;  // resolved lazily
    const auto nbrs = ScanRow(u);
    if (loss_ > 0.0) {
      for (NodeId w : nbrs) {
        if (!LinkErased(epoch_, u, w, loss_seed_, loss_)) Deliver(w, payload);
      }
      return;
    }
    for (NodeId w : nbrs) Deliver(w, payload);
  }

  // --- Sharded transmitter registration (DESIGN.md §13) -------------------
  //
  // The sharded scheduler splits a round's transmit pass across workers,
  // one contiguous node range per shard. Each worker stamps its
  // transmitters into its own TxShardBuffer (per-node tx_mark_/tx_payload_
  // entries are disjoint across shards, so those are written directly; the
  // packed word bitset goes through the buffer), and the scheduler then
  // OR-merges the buffers into tx_words_ serially, in fixed shard order.
  // Shard cuts need not be 64-aligned: a boundary word shared by two shards
  // is set independently in each buffer and unioned by the serial merge.
  // After the merge the channel state is byte-identical to what the same
  // AddTransmitter sequence would have produced in pull mode.

  /// One shard's transmitter bitset: the words covering its node range,
  /// kept all-zero between rounds, plus the list of word indices touched
  /// this round (so the merge and the reset cost O(touched), not O(range)).
  struct TxShardBuffer {
    std::size_t word_begin = 0;            ///< global index of words[0]
    std::vector<std::uint64_t> words;      ///< local bitset, zero when idle
    std::vector<std::uint32_t> touched;    ///< local indices of nonzero words
  };

  /// Sizes `buffer` for the node range [node_begin, node_end): the
  /// inclusive span of words those nodes' bits fall in (empty ranges get no
  /// words).
  void InitShardBuffer(TxShardBuffer& buffer, NodeId node_begin,
                       NodeId node_end) const {
    EMIS_EXPECTS(node_begin <= node_end && node_end <= graph_->NumNodes(),
                 "shard range out of bounds");
    buffer.word_begin = node_begin >> 6;
    const std::size_t words =
        node_begin == node_end
            ? 0
            : (static_cast<std::size_t>(node_end - 1) >> 6) - buffer.word_begin + 1;
    buffer.words.assign(words, 0);
    buffer.touched.clear();
    buffer.touched.reserve(buffer.words.size());
  }

  /// Shard-local counterpart of AddTransmitter for pull-resolved rounds:
  /// stamps u's per-node transmitter state and sets its bit in the shard
  /// buffer. Safe to call concurrently for nodes of *different* shards; u
  /// must lie in `buffer`'s node range. The same double-registration
  /// invariant as AddTransmitter applies.
  void StampTransmitter(TxShardBuffer& buffer, NodeId u, std::uint64_t payload) {
    EMIS_INVARIANT(direction_ == ChannelDirection::kPull,
                   "sharded stamping requires pull resolution");
    EMIS_INVARIANT(tx_mark_[u] != epoch_,
                   "node registered as transmitter twice in one round");
    tx_mark_[u] = epoch_;
    tx_payload_[u] = payload;
    const std::size_t local = (u >> 6) - buffer.word_begin;
    if (buffer.words[local] == 0) buffer.touched.push_back(
        static_cast<std::uint32_t>(local));
    buffer.words[local] |= 1ULL << (u & 63);
  }

  /// Merges one shard's buffer into the global epoch-stamped word bitset
  /// and resets the buffer for the next round. Called serially, in fixed
  /// shard order, after every shard's stamp pass completed. Returns the
  /// number of words merged (the `chan.merge_words` observable).
  std::size_t MergeTxShard(TxShardBuffer& buffer) {
    for (const std::uint32_t local : buffer.touched) {
      TxWord& word = tx_words_[buffer.word_begin + local];
      if (word.epoch != epoch_) {
        word.epoch = epoch_;
        word.bits = buffer.words[local];
      } else {
        word.bits |= buffer.words[local];
      }
      buffer.words[local] = 0;
    }
    const std::size_t merged = buffer.touched.size();
    buffer.touched.clear();
    return merged;
  }

  /// What listener v perceives this round under the channel model.
  /// The transmitter set for the round must be fully registered first.
  Reception ResolveListener(NodeId v) const {
    // Epoch consistency: per-listener and per-transmitter stamps are only
    // ever written with the current epoch, so a stamp from the future means
    // the epoch counter ran backwards (or state was corrupted) — receptions
    // computed from it would silently mix rounds.
    EMIS_INVARIANT(epoch_mark_[v] <= epoch_ && tx_mark_[v] <= epoch_,
                   "channel epoch consistency violated: stamp from a future round");
    if (direction_ == ChannelDirection::kPull) {
      const auto [count, payload] = ScanTransmittingNeighbors(v);
      return Perceive(count, payload);
    }
    const bool heard = epoch_mark_[v] == epoch_;
    return Perceive(heard ? hear_count_[v] : 0, heard ? hear_payload_[v] : 0);
  }

  /// Number of transmitting neighbors of v whose signal survived fading this
  /// round (model-independent ground truth; used by tests and
  /// instrumentation, not by protocols).
  std::uint32_t TransmittingNeighbors(NodeId v) const {
    if (direction_ == ChannelDirection::kPull) {
      return ScanTransmittingNeighbors(v).count;
    }
    return epoch_mark_[v] == epoch_ ? hear_count_[v] : 0;
  }

  /// Test-only: forces the epoch counter to an arbitrary value, bypassing
  /// BeginRound. Used to demonstrate that the epoch-consistency invariant
  /// trips (see test_contracts.cpp); never called by library code.
  void CorruptEpochForTesting(std::uint64_t epoch) noexcept { epoch_ = epoch; }

 private:
  struct Heard {
    std::uint32_t count = 0;
    std::uint64_t payload = 0;
  };

  /// The entries a scan must visit for v: the residual live prefix when an
  /// overlay is attached, else the full CSR row. Sorted ascending either way.
  std::span<const NodeId> ScanRow(NodeId v) const {
    return residual_ != nullptr ? residual_->ScanRow(v) : graph_->Neighbors(v);
  }

  /// Rows at least this long resolve pull-side via the packed word bitset:
  /// 64 candidate ids per 16-byte probe instead of one 8-byte tx_mark_ load
  /// per neighbor. Below it the plain scan's simpler loop wins. Receptions
  /// are identical on both paths (same neighbors, same visit order), so the
  /// threshold is purely a cost knob.
  static constexpr std::size_t kWordScanMinRow = 32;

  /// Pull-side resolution: scan v's row against the transmitter set. Keeps
  /// the LAST transmitting row entry's payload — unobservable unless the
  /// surviving count is exactly 1 (see the tie-break note atop this file).
  Heard ScanTransmittingNeighbors(NodeId v) const {
    const std::span<const NodeId> row = ScanRow(v);
    if (row.size() >= kWordScanMinRow) return ScanRowByWords(v, row);
    Heard h;
    if (loss_ > 0.0) {
      for (NodeId u : row) {
        if (tx_mark_[u] == epoch_ && !LinkErased(epoch_, u, v, loss_seed_, loss_)) {
          ++h.count;
          h.payload = tx_payload_[u];
        }
      }
      return h;
    }
    for (NodeId u : row) {
      if (tx_mark_[u] == epoch_) {
        ++h.count;
        h.payload = tx_payload_[u];
      }
    }
    return h;
  }

  /// Word-parallel pull scan for high-degree rows. The loss-free path
  /// dispatches to the runtime-selected kernel (AVX2 gathers when the CPU
  /// has them, the portable cached-word loop otherwise — see
  /// radio/channel_kernels.hpp); both report the exact count and the LAST
  /// transmitting row position, so receptions are byte-identical to the
  /// plain scan. Lossy rows need a per-link erasure draw in row visit order
  /// and keep the scalar loop.
  Heard ScanRowByWords(NodeId v, std::span<const NodeId> row) const {
    Heard h;
    if (loss_ == 0.0) {
      const chan_kernels::ScanHits hits =
          scan_fn_(row.data(), row.size(), tx_words_.data(), epoch_);
      h.count = hits.count;
      if (hits.last_hit != chan_kernels::kNoHit) {
        h.payload = tx_payload_[row[hits.last_hit]];
      }
      return h;
    }
    std::size_t cached_index = ~std::size_t{0};
    std::uint64_t cached_bits = 0;
    for (NodeId u : row) {
      const std::size_t index = u >> 6;
      if (index != cached_index) {
        cached_index = index;
        const TxWord& word = tx_words_[index];
        cached_bits = word.epoch == epoch_ ? word.bits : 0;
      }
      if (((cached_bits >> (u & 63)) & 1u) == 0) continue;
      if (LinkErased(epoch_, u, v, loss_seed_, loss_)) continue;
      ++h.count;
      h.payload = tx_payload_[u];
    }
    return h;
  }

  /// Maps a surviving-transmitter count to a Reception under the model.
  /// Shared by both directions, so they cannot drift apart.
  Reception Perceive(std::uint32_t count, std::uint64_t payload) const {
    switch (model_) {
      case ChannelModel::kCd:
        if (count == 0) return {ReceptionKind::kSilence, 0};
        if (count == 1) return {ReceptionKind::kMessage, payload};
        return {ReceptionKind::kCollision, 0};
      case ChannelModel::kNoCd:
        // A collision is indistinguishable from silence.
        if (count == 1) return {ReceptionKind::kMessage, payload};
        return {ReceptionKind::kSilence, 0};
      case ChannelModel::kBeeping:
        // Any number of beeping neighbors is a single contentless beep.
        if (count >= 1) return {ReceptionKind::kBeep, 0};
        return {ReceptionKind::kSilence, 0};
    }
    EMIS_UNREACHABLE("unhandled channel model");
  }

  /// Push-side delivery; the FIRST delivered payload sticks (see the
  /// tie-break note atop this file — only count == 1 payloads are ever
  /// observable, so push/pull cannot drift apart).
  void Deliver(NodeId w, std::uint64_t payload) noexcept {
    if (epoch_mark_[w] != epoch_) {
      epoch_mark_[w] = epoch_;
      hear_count_[w] = 1;
      hear_payload_[w] = payload;
    } else {
      ++hear_count_[w];
    }
  }

  const Graph* graph_;
  const ResidualGraph* residual_ = nullptr;
  ChannelModel model_;
  ChannelDirection direction_ = ChannelDirection::kPush;
  double loss_ = 0.0;
  std::uint64_t loss_seed_ = 0;
  std::uint64_t epoch_ = 0;
  // Push-side buffers: per-listener delivery state, epoch-stamped so
  // BeginRound stays O(1).
  std::vector<std::uint64_t> epoch_mark_;
  std::vector<std::uint32_t> hear_count_;
  std::vector<std::uint64_t> hear_payload_;
  // Pull-side buffers: the epoch-stamped transmitter set + payloads.
  // Maintained in push rounds too (O(1) per transmitter) so the
  // double-registration check and direction changes are always valid.
  std::vector<std::uint64_t> tx_mark_;
  std::vector<std::uint64_t> tx_payload_;
  // Packed transmitter bitset for the word-parallel pull scan: one 16-byte
  // (epoch, bits) pair per 64 nodes, lazily invalidated by epoch stamp so
  // BeginRound stays O(1). The word layout is shared with the scan kernels.
  using TxWord = chan_kernels::TxWord;
  std::vector<TxWord> tx_words_;
  // Loss-free pull-scan kernel for this machine, resolved once at startup.
  chan_kernels::ScanRowFn scan_fn_ = chan_kernels::ResolveScanRowFn();
};

}  // namespace emis
