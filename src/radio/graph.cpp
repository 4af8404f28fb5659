#include "radio/graph.hpp"

#include <algorithm>
#include <functional>
#include <mutex>

#include "core/contracts.hpp"
#include "radio/hugepages.hpp"
#include "radio/rng.hpp"
#include "verify/parallel.hpp"

namespace emis {
namespace {

// Node bitsets, 64 nodes per word (ResidualGraph's active and batch sets).
bool TestBit(const std::uint64_t* bits, NodeId v) noexcept {
  return ((bits[v >> 6] >> (v & 63)) & 1u) != 0;
}
void SetBit(std::uint64_t* bits, NodeId v) noexcept { bits[v >> 6] |= 1ULL << (v & 63); }
void ClearBit(std::uint64_t* bits, NodeId v) noexcept {
  bits[v >> 6] &= ~(1ULL << (v & 63));
}

/// Calls f(v) for every set bit v of `bits` in [lo, hi), ascending.
template <typename F>
void ForEachSetBit(const std::uint64_t* bits, NodeId lo, NodeId hi, F&& f) {
  if (lo >= hi) return;
  const NodeId last_word = (hi - 1) >> 6;
  for (NodeId w = lo >> 6; w <= last_word; ++w) {
    std::uint64_t word = bits[w];
    if (w == lo >> 6) word &= ~std::uint64_t{0} << (lo & 63);
    if (w == last_word && (hi & 63) != 0) word &= (std::uint64_t{1} << (hi & 63)) - 1;
    while (word != 0) {
      f(static_cast<NodeId>((w << 6) + static_cast<NodeId>(__builtin_ctzll(word))));
      word &= word - 1;
    }
  }
}

/// Appends the entries of row[0, len) whose bit is set in `alive` to `out`,
/// in order, and returns how many. Branch-free: every entry is written and
/// the cursor advances by its bit, so a row with a random live pattern
/// costs no mispredictions.
template <typename Vector>
std::uint32_t AppendLive(const NodeId* row, std::uint32_t len, const std::uint64_t* alive,
                         Vector& out) {
  const std::size_t at = out.size();
  out.resize(at + len);
  NodeId* dst = out.data() + at;
  std::uint32_t live = 0;
  for (std::uint32_t j = 0; j < len; ++j) {
    const NodeId u = row[j];
    dst[live] = u;
    live += TestBit(alive, u) ? 1u : 0u;
  }
  out.resize(at + live);
  return live;
}

constexpr const char* kNotSymmetric =
    "graph adjacency is not symmetric (an entry's reverse is missing)";

/// What CheckRows found wrong with a CSR's adjacency content.
struct RowFaults {
  bool out_of_range = false;  ///< an entry names no node (id ≥ n)
  bool self_loop = false;     ///< an entry names its own row's node
  bool unsorted = false;      ///< a row is not strictly ascending
  /// Σ ±MixU64(min << 32 | max) over the entries, + above the diagonal and
  /// − below it: an entry and its reverse cancel, so a symmetric CSR sums
  /// to 0 over all rows (an asymmetric one does barring a hash collision).
  std::uint64_t pair_sum = 0;

  void Require() const {
    EMIS_REQUIRE(!out_of_range, "graph adjacency names a node id >= the node count");
    EMIS_REQUIRE(!self_loop, "graph adjacency holds a self-loop");
    EMIS_REQUIRE(!unsorted,
                 "graph adjacency row is not strictly ascending (unsorted or repeated)");
  }
};

/// Reads every entry of rows [lo, hi) once, recording the faults a mapped
/// CSR's loader defers (MapBinaryCsr).
RowFaults CheckRows(std::span<const std::uint64_t> offsets,
                    std::span<const NodeId> source, NodeId lo, NodeId hi) {
  // Branch-free reductions (largest id, OR of self-entry and descent
  // flags, the signed pair hash), so the per-row loops need no branches.
  NodeId max_id = 0;
  std::uint32_t self_loop = 0;
  std::uint32_t descent = 0;
  std::uint64_t pair_sum = 0;
  for (NodeId v = lo; v < hi; ++v) {
    const std::uint64_t begin = offsets[v];
    const std::uint64_t end = offsets[v + 1];
    for (std::uint64_t i = begin; i < end; ++i) {
      const NodeId u = source[i];
      max_id = std::max(max_id, u);
      self_loop |= u == v ? 1u : 0u;
      const std::uint64_t pair =
          std::uint64_t{std::min(u, v)} << 32 | std::uint64_t{std::max(u, v)};
      const std::uint64_t below = u < v ? ~std::uint64_t{0} : 0;  // negates
      pair_sum += (MixU64(pair) ^ below) - below;
    }
    for (std::uint64_t i = begin + 1; i < end; ++i) {
      descent |= source[i] <= source[i - 1] ? 1u : 0u;
    }
  }
  const bool has_entries = offsets[hi] > offsets[lo];
  return {has_entries && max_id >= static_cast<NodeId>(offsets.size() - 1),
          self_loop != 0, descent != 0, pair_sum};
}

}  // namespace

struct Graph::AdjacencyCheck {
  std::mutex mutex;
  bool passed = false;  // guarded by mutex
};

void Graph::RequireValidAdjacency(unsigned jobs) const {
  if (adjacency_check_ == nullptr) return;  // built in process: valid
  const std::lock_guard lock(adjacency_check_->mutex);
  if (adjacency_check_->passed) return;
  const std::span<const std::uint64_t> offsets = RowOffsets();
  const std::span<const NodeId> source = Adjacency();
  const unsigned parts =
      source.size() < ResidualGraph::kParallelMinEntries ? 1 : std::max(jobs, 1u);
  const std::vector<NodeId> cut = EdgeBalancedCut(offsets, parts);
  std::vector<RowFaults> faults(parts);
  par::ParallelFor(parts, parts, [&](std::uint64_t part, unsigned) {
    RowFaults& part_faults = faults[part];
    part_faults = CheckRows(offsets, source, cut[part], cut[part + 1]);
  });
  std::uint64_t pair_sum = 0;
  for (const RowFaults& f : faults) {
    f.Require();
    pair_sum += f.pair_sum;
  }
  EMIS_REQUIRE(pair_sum == 0, kNotSymmetric);
  adjacency_check_->passed = true;
}

Graph Graph::FromEdges(NodeId num_nodes, std::span<const Edge> edges) {
  GraphBuilder builder(num_nodes);
  for (const Edge& e : edges) builder.AddEdge(e.u, e.v);
  return std::move(builder).Build();
}

Graph Graph::FromMappedCsr(std::shared_ptr<const void> owner,
                           const std::uint64_t* offsets, NodeId num_nodes,
                           const NodeId* adjacency, std::uint64_t adj_entries,
                           std::uint32_t max_degree) {
  EMIS_EXPECTS(owner != nullptr, "mapped CSR needs a storage owner");
  EMIS_EXPECTS(offsets != nullptr && (adjacency != nullptr || adj_entries == 0),
               "mapped CSR arrays must not be null");
  Graph g;
  g.mapping_ = std::move(owner);
  g.mapped_offsets_ = offsets;
  g.mapped_adjacency_ = adjacency;
  g.mapped_nodes_ = num_nodes;
  g.mapped_entries_ = adj_entries;
  g.max_degree_ = max_degree;
  g.adjacency_check_ = std::make_shared<AdjacencyCheck>();
  return g;
}

std::vector<NodeId> EdgeBalancedCut(std::span<const std::uint64_t> offsets,
                                    unsigned parts) {
  EMIS_REQUIRE(!offsets.empty() && parts >= 1, "cut needs a CSR and a part");
  const auto n = static_cast<NodeId>(offsets.size() - 1);
  const std::uint64_t total = offsets[n];  // directed CSR entries
  std::vector<NodeId> cut(parts + 1, 0);
  cut[parts] = n;
  for (unsigned s = 1; s < parts; ++s) {
    NodeId boundary;
    if (total == 0) {
      boundary = static_cast<NodeId>(static_cast<std::uint64_t>(n) * s / parts);
    } else {
      // Largest node whose edge prefix is still within s/parts of the total.
      const std::uint64_t target =
          static_cast<std::uint64_t>(static_cast<unsigned __int128>(total) * s / parts);
      const auto it = std::upper_bound(offsets.begin(), offsets.end(), target);
      boundary = static_cast<NodeId>(std::distance(offsets.begin(), it) - 1);
    }
    cut[s] = std::max(boundary, cut[s - 1]);
  }
  return cut;
}

ResidualGraph::ResidualGraph(const Graph& graph)
    : rows_(graph.NumNodes()),
      offsets_(graph.RowOffsets().data()),
      seed_(graph.Adjacency().data()),
      // Never zero-filled: rows are packed into it from the front as they
      // first shrink, so pages past the packed prefix are never touched.
      overlay_(std::make_unique_for_overwrite<NodeId[]>(graph.NumEdges())),
      active_((static_cast<std::size_t>(graph.NumNodes()) + 63) / 64, ~std::uint64_t{0}),
      in_batch_(active_.size(), 0),
      live_edges_(graph.NumEdges()),
      active_count_(graph.NumNodes()) {
  if (graph.NumNodes() % 64 != 0) {
    active_.back() = (std::uint64_t{1} << (graph.NumNodes() % 64)) - 1;
  }
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    rows_[v] = {SeedRow(v), Degree(v), Degree(v)};
  }
}

void ResidualGraph::RetireBatch(std::span<const NodeId> batch,
                                std::span<const NodeId> cut, unsigned jobs) {
  EMIS_REQUIRE(cut.size() >= 2 && cut.front() == 0 && cut.back() == NumNodes() &&
                   std::is_sorted(cut.begin(), cut.end()),
               "retire cut must cover every row in order");
  if (batch.empty()) return;
  // Serial prologue: validate (clearing each member's active bit exposes a
  // repeat) and snapshot each member's scan-row length. A bad member
  // restores the bits already cleared, so a rejected batch retires nothing.
  batch_lens_.resize(batch.size());
  std::uint64_t pending = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const NodeId v = batch[i];
    const bool in_range = v < NumNodes();
    const bool live = in_range && Active(v);
    if (!live) {
      for (std::size_t j = 0; j < i; ++j) SetBit(active_.data(), batch[j]);
      EMIS_REQUIRE(in_range, "node out of range");
      EMIS_REQUIRE(live, "node retired twice");
    }
    ClearBit(active_.data(), v);
    batch_lens_[i] = rows_[v].scan_len;
    pending += batch_lens_[i];
  }
  const std::size_t parts = cut.size() - 1;
  retire_tallies_.assign(parts, RetireTally{});
  if (moves_.size() < parts) moves_.resize(parts);
  // Every scan entry not yet reclaimed sits in a live row, so the survivors
  // hold the live scan total minus the batch's pending entries. Walk when
  // the batch reads no more than that, rebuild the survivors otherwise.
  const std::uint64_t live_scan = offsets_[NumNodes()] - edges_reclaimed_;
  const bool rebuild = pending > live_scan - pending;
  if (rebuild) {
    RebuildBatch(batch, cut, jobs);
  } else {
    WalkBatch(batch, cut, jobs);
  }
  MoveShrunkSeedRows(cut, jobs);
  for (const RetireTally& tally : retire_tallies_) {
    live_edges_ -= tally.edges_died;
    compactions_ += tally.compactions;
    edges_reclaimed_ += tally.reclaimed;
  }
  active_count_ -= static_cast<NodeId>(batch.size());
}

void ResidualGraph::WalkBatch(std::span<const NodeId> batch,
                              std::span<const NodeId> cut, unsigned jobs) {
  for (const NodeId v : batch) {
    SetBit(active_.data(), v);
    SetBit(in_batch_.data(), v);
  }
  // Row-owner parts (see the class comment). Each part replays the batch in
  // order against the rows [cut[p], cut[p + 1]) it owns, tracking which
  // nodes are alive at the current step in a bitset of its own: part 0 in
  // active_ itself (which ends up exactly post-batch), the others in
  // private copies of it. The members' rows (pointer, snapshot length,
  // entries) are shared reads; everything written is owned by one part.
  const std::size_t parts = cut.size() - 1;
  part_active_.resize(parts - 1);
  for (std::vector<std::uint64_t>& copy : part_active_) copy = active_;
  par::ParallelFor(jobs, parts, [&](std::uint64_t part, unsigned) {
    const NodeId lo = cut[part];
    const NodeId hi = cut[part + 1];
    std::uint64_t* alive = part == 0 ? active_.data() : part_active_[part - 1].data();
    RetireTally& tally = retire_tallies_[part];
    PartMoves& moves = moves_[part];
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const NodeId v = batch[i];
      ClearBit(alive, v);
      // The slice of v's sorted row this part owns; the searches only run
      // where a cut boundary can fall inside the row.
      const NodeId* row = rows_[v].row;
      const NodeId* row_end = row + batch_lens_[i];
      const NodeId* first = lo == 0 ? row : std::lower_bound(row, row_end, lo);
      const NodeId* last = hi == NumNodes() ? row_end : std::lower_bound(first, row_end, hi);
      for (const NodeId* it = first; it != last; ++it) {
        // The per-neighbor counter update is a dependent random access;
        // pulling the neighbor's interleaved RowMeta a few entries ahead
        // overlaps the misses.
        if (last - it > 8) __builtin_prefetch(&rows_[it[8]], /*rw=*/1, /*locality=*/1);
        const NodeId w = *it;
        if (!TestBit(alive, w)) continue;  // dead entry, already accounted
        RowMeta& meta = rows_[w];
        --meta.live_degree;
        ++tally.edges_died;
        // Dead fraction crossed ½ (v is in w's row and just died, so the
        // row strictly shrinks). An overlay row is stable-filtered in place
        // now; a seed row only moves its counters, and the first time it
        // is queued to move to the overlay once the batch is done. A
        // member's row keeps its entries (every part may still read them)
        // and moves only its counters.
        if (meta.live_degree * 2ULL > meta.scan_len) continue;
        if (!TestBit(in_batch_.data(), w)) {
          if (meta.row != SeedRow(w)) {
            NodeId* row_w = const_cast<NodeId*>(meta.row);  // overlay rows are ours
            std::uint32_t out = 0;
            for (std::uint32_t j = 0; j < meta.scan_len; ++j) {
              const NodeId u = row_w[j];
              if (TestBit(alive, u)) row_w[out++] = u;
            }
            tally.asymmetric |= out != meta.live_degree;
          } else if (meta.scan_len == Degree(w)) {
            moves.rows.push_back(w);
          }
        }
        tally.reclaimed += meta.scan_len - meta.live_degree;
        meta.scan_len = meta.live_degree;
        ++tally.compactions;
      }
      // The retiree's own row leaves the scan set entirely.
      if (lo <= v && v < hi) {
        tally.reclaimed += rows_[v].scan_len;
        rows_[v].scan_len = 0;
        rows_[v].live_degree = 0;
      }
    }
    // `alive` is the post-batch active set now. Stage the queued seed rows'
    // live entries in row order, so deaths after a row's last ½ crossing
    // in this batch leave with it. The overlay is sized from what is
    // staged, never from the counters; a row whose count disagrees with its
    // live degree (only an asymmetric adjacency can cause that) fails the
    // batch before anything is copied.
    std::sort(moves.rows.begin(), moves.rows.end());
    for (const NodeId w : moves.rows) {
      const std::uint32_t live = AppendLive(SeedRow(w), Degree(w), alive, moves.entries);
      tally.asymmetric |= live != rows_[w].live_degree;
    }
  });
  for (const NodeId v : batch) ClearBit(in_batch_.data(), v);
  const bool asymmetric =
      std::any_of(retire_tallies_.begin(), retire_tallies_.end(),
                  [](const RetireTally& tally) { return tally.asymmetric; });
  if (asymmetric) {
    for (PartMoves& moves : moves_) {
      moves.rows.clear();
      moves.entries.clear();
    }
  }
  EMIS_REQUIRE(!asymmetric, kNotSymmetric);
}

void ResidualGraph::RebuildBatch(std::span<const NodeId> batch,
                                 std::span<const NodeId> cut, unsigned jobs) {
  // The prologue left the members' active bits clear: active_ is already
  // the post-batch set. Drop the members' rows, then let each part filter
  // the surviving rows it owns against it — reads only, of active_.
  RetireTally& serial = retire_tallies_.front();
  for (const NodeId v : batch) {
    serial.reclaimed += rows_[v].scan_len;
    rows_[v].scan_len = 0;
    rows_[v].live_degree = 0;
  }
  par::ParallelFor(jobs, cut.size() - 1, [&](std::uint64_t part, unsigned) {
    RetireTally& tally = retire_tallies_[part];
    PartMoves& moves = moves_[part];
    // The rows that move fit in half the part's seed entries (the ½
    // trigger): reserving that up front spares the staging its regrowth
    // copies, and pages beyond what is staged are never touched.
    moves.entries.reserve((offsets_[cut[part + 1]] - offsets_[cut[part]]) / 2);
    const std::uint64_t* alive = active_.data();
    ForEachSetBit(alive, cut[part], cut[part + 1], [&](NodeId v) {
      RowMeta& meta = rows_[v];
      std::uint32_t live = 0;
      bool shrinks = false;
      if (meta.row != SeedRow(v)) {
        // In the overlay: stable-filter in place.
        NodeId* row = const_cast<NodeId*>(meta.row);  // overlay rows are ours
        for (std::uint32_t j = 0; j < meta.scan_len; ++j) {
          const NodeId u = row[j];
          if (TestBit(alive, u)) row[live++] = u;
        }
        shrinks = live < meta.scan_len;
      } else {
        // On the seed row (scan_len is its degree): stage its live entries,
        // counting them. It moves after the pass if the ½ trigger admits it
        // — the staged entries are then its row — and otherwise stays on
        // the seed row with exact counters, its staging dropped.
        const std::size_t mark = moves.entries.size();
        live = AppendLive(meta.row, meta.scan_len, alive, moves.entries);
        shrinks = live < meta.scan_len && live * 2ULL <= meta.scan_len;
        if (shrinks) {
          moves.rows.push_back(v);
        } else {
          moves.entries.resize(mark);
        }
      }
      meta.live_degree = live;
      tally.live_sum += live;
      if (shrinks) {
        tally.reclaimed += meta.scan_len - live;
        meta.scan_len = live;
        ++tally.compactions;
      }
    });
  });
  // Every surviving row's live degree is exact now: half their sum is the
  // live edge count.
  std::uint64_t live_sum = 0;
  for (const RetireTally& tally : retire_tallies_) live_sum += tally.live_sum;
  serial.edges_died = live_edges_ - live_sum / 2;
  ++rebuilds_;
}

void ResidualGraph::MoveShrunkSeedRows(std::span<const NodeId> cut, unsigned jobs) {
  // Rows staged by either pass leave the seed CSR now, packed into the
  // overlay from its current end in ascending row order — parts own
  // ascending row ranges, so each part's block starts at the staged sizes
  // of the parts before it, and the layout is the same at any cut.
  const std::size_t parts = cut.size() - 1;
  std::uint64_t end = overlay_used_;
  bool any = false;
  for (std::size_t part = 0; part < parts; ++part) {
    retire_tallies_[part].move_base = end;
    end += moves_[part].entries.size();
    any = any || !moves_[part].rows.empty();
  }
  if (!any) return;
  EMIS_REQUIRE(end <= offsets_[NumNodes()] / 2, "residual overlay outgrew half the seed CSR");
  overlay_used_ = end;
  par::ParallelFor(jobs, parts, [&](std::uint64_t part, unsigned) {
    RetireTally& tally = retire_tallies_[part];
    PartMoves& moves = moves_[part];
    NodeId* out = overlay_.get() + tally.move_base;
    std::copy(moves.entries.begin(), moves.entries.end(), out);
    for (const NodeId v : moves.rows) {
      RowMeta& meta = rows_[v];
      tally.reclaimed += meta.scan_len - meta.live_degree;
      meta.scan_len = meta.live_degree;
      meta.row = out;
      out += meta.live_degree;
    }
    moves.rows.clear();
    moves.entries.clear();
  });
}

bool Graph::HasEdge(NodeId u, NodeId v) const {
  EMIS_REQUIRE(u < NumNodes() && v < NumNodes(), "node out of range");
  if (u == v) return false;
  // Search the shorter adjacency list.
  if (Degree(u) > Degree(v)) std::swap(u, v);
  const auto nbrs = Neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<Edge> Graph::EdgeList() const {
  std::vector<Edge> edges;
  edges.reserve(NumEdges());
  for (NodeId u = 0; u < NumNodes(); ++u) {
    for (NodeId v : Neighbors(u)) {
      if (u < v) edges.push_back({u, v});
    }
  }
  return edges;  // Lexicographic by construction: u ascending, lists sorted.
}

InducedSubgraph Graph::Induced(std::span<const NodeId> nodes) const {
  std::vector<NodeId> sorted(nodes.begin(), nodes.end());
  std::sort(sorted.begin(), sorted.end());
  EMIS_REQUIRE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
               "duplicate node in induced-subgraph selection");
  for (NodeId v : sorted) EMIS_REQUIRE(v < NumNodes(), "node out of range");

  // original id -> subgraph id (or invalid).
  std::vector<NodeId> to_sub(NumNodes(), kInvalidNode);
  for (NodeId i = 0; i < sorted.size(); ++i) to_sub[sorted[i]] = i;

  GraphBuilder builder(static_cast<NodeId>(sorted.size()));
  for (NodeId i = 0; i < sorted.size(); ++i) {
    for (NodeId w : Neighbors(sorted[i])) {
      const NodeId j = to_sub[w];
      if (j != kInvalidNode && i < j) builder.AddEdge(i, j);
    }
  }
  return {std::move(builder).Build(), std::move(sorted)};
}

std::uint32_t Graph::ConnectedComponents(std::vector<std::uint32_t>& component) const {
  component.assign(NumNodes(), ~std::uint32_t{0});
  std::uint32_t count = 0;
  std::vector<NodeId> stack;
  for (NodeId root = 0; root < NumNodes(); ++root) {
    if (component[root] != ~std::uint32_t{0}) continue;
    component[root] = count;
    stack.push_back(root);
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      for (NodeId w : Neighbors(v)) {
        if (component[w] == ~std::uint32_t{0}) {
          component[w] = count;
          stack.push_back(w);
        }
      }
    }
    ++count;
  }
  return count;
}

Graph Graph::Square() const {
  // Two-hop enumeration produces the same pair many times (once per common
  // neighbor); append them all and let Build() collapse the repeats with a
  // per-row unique instead of paying a hash probe per candidate.
  GraphBuilder builder(NumNodes());
  builder.Reserve(NumEdges() * 2);
  for (NodeId v = 0; v < NumNodes(); ++v) {
    for (NodeId w : Neighbors(v)) {
      if (v < w) builder.AddEdgeDedup(v, w);
      // Two-hop edges: v - w - x.
      for (NodeId x : Neighbors(w)) {
        if (v < x) builder.AddEdgeDedup(v, x);
      }
    }
  }
  return std::move(builder).Build();
}

std::vector<std::uint32_t> Graph::BfsDistances(NodeId source) const {
  EMIS_REQUIRE(source < NumNodes(), "node out of range");
  std::vector<std::uint32_t> dist(NumNodes(), kUnreachable);
  std::vector<NodeId> frontier = {source};
  dist[source] = 0;
  std::uint32_t level = 0;
  while (!frontier.empty()) {
    ++level;
    std::vector<NodeId> next;
    for (NodeId v : frontier) {
      for (NodeId w : Neighbors(v)) {
        if (dist[w] == kUnreachable) {
          dist[w] = level;
          next.push_back(w);
        }
      }
    }
    frontier.swap(next);
  }
  return dist;
}

bool Graph::IsConnected() const {
  if (NumNodes() <= 1) return true;
  std::vector<std::uint32_t> component;
  return ConnectedComponents(component) == 1;
}

void GraphBuilder::Reserve(std::uint64_t edges) {
  edges_.reserve(edges);
  AdviseHugePages(edges_.data(), edges_.capacity() * sizeof(Edge));
}

GraphBuilder& GraphBuilder::AddEdge(NodeId u, NodeId v) {
  EMIS_REQUIRE(u < num_nodes_ && v < num_nodes_, "node out of range");
  EMIS_REQUIRE(u != v, "self-loops are not allowed");
  if (u > v) std::swap(u, v);
  // Keep the membership set current only once AddEdgeIfAbsent materialized
  // it; the pure-AddEdge bulk path never hashes.
  if (tracking_) seen_.insert((static_cast<std::uint64_t>(u) << 32) | v);
  edges_.push_back({u, v});
  return *this;
}

std::span<Edge> GraphBuilder::AppendEdgeSlots(std::uint64_t count) {
  const std::size_t first = edges_.size();
  edges_.resize(first + count);
  return {edges_.data() + first, static_cast<std::size_t>(count)};
}

void GraphBuilder::MaterializeSeen() {
  tracking_ = true;
  seen_.reserve(edges_.size() * 2);
  for (const Edge& e : edges_) {
    // AppendEdgeSlots slots may hold either orientation.
    const auto [u, v] = std::minmax(e.u, e.v);
    seen_.insert((static_cast<std::uint64_t>(u) << 32) | v);
  }
}

bool GraphBuilder::AddEdgeIfAbsent(NodeId u, NodeId v) {
  EMIS_REQUIRE(u < num_nodes_ && v < num_nodes_, "node out of range");
  if (u == v) return false;
  if (u > v) std::swap(u, v);
  if (!tracking_) MaterializeSeen();
  const std::uint64_t key = (static_cast<std::uint64_t>(u) << 32) | v;
  if (!seen_.insert(key).second) return false;
  edges_.push_back({u, v});
  return true;
}

void GraphBuilder::AddEdgeDedup(NodeId u, NodeId v) {
  EMIS_REQUIRE(u < num_nodes_ && v < num_nodes_, "node out of range");
  EMIS_REQUIRE(u != v, "self-loops are not allowed");
  if (u > v) std::swap(u, v);
  dedup_at_build_ = true;
  edges_.push_back({u, v});
}

Graph GraphBuilder::Build() && {
  // Source-partitioned counting sort, O(n + m) plus unsorted-row sorts (see
  // the class comment); there is no global edge sort.
  const NodeId n = num_nodes_;
  const std::uint64_t m = edges_.size();
  const unsigned jobs = par::DefaultJobs();
  // Row counts per part are 32-bit, so no part's slice reaches 2^31 edges.
  const auto parts = static_cast<unsigned>(
      std::max<std::uint64_t>(m < kParallelMinEdges ? 1 : jobs, (m >> 31) + 1));
  const auto slice_begin = [m, parts](std::uint64_t part) {
    return static_cast<std::uint64_t>(static_cast<unsigned __int128>(m) * part / parts);
  };
  const Edge* edges = edges_.data();

  // Count: each part histograms its own slice into a private row array,
  // checking every slot as AddEdge would. A part stops at its first bad
  // slot; the earliest one over all parts is the one reported, exactly the
  // edge a serial AddEdge stream would have thrown on.
  struct alignas(64) SliceCheck {
    std::uint64_t first_bad = 0;
  };
  std::vector<std::vector<std::uint32_t>> part_cursors(parts);
  std::vector<SliceCheck> checks(parts);
  par::ParallelFor(jobs, parts, [&](std::uint64_t part, unsigned) {
    part_cursors[part].assign(n, 0);
    std::uint32_t* counts = part_cursors[part].data();
    const std::uint64_t end = slice_begin(part + 1);
    std::uint64_t i = slice_begin(part);
    for (; i < end; ++i) {
      const Edge e = edges[i];
      if (e.u >= n || e.v >= n || e.u == e.v) break;
      ++counts[e.u];
      ++counts[e.v];
    }
    SliceCheck& check = checks[part];
    check.first_bad = i < end ? i : m;
  });
  for (const SliceCheck& check : checks) {
    if (check.first_bad == m) continue;
    const Edge bad = edges[check.first_bad];
    EMIS_REQUIRE(bad.u < n && bad.v < n, "node out of range");
    EMIS_REQUIRE(bad.u != bad.v, "self-loops are not allowed");
  }

  // Prefix over (row, part): row v starts at offsets[v], and within it part
  // p writes from position cursors_p[v] on, after parts 0..p-1. The
  // histograms become these row-relative cursors in place.
  Graph g;
  std::vector<std::uint64_t>& offsets = g.offsets_;
  offsets.resize(static_cast<std::size_t>(n) + 1);
  std::uint64_t total = 0;
  for (NodeId v = 0; v < n; ++v) {
    offsets[v] = total;
    std::uint64_t in_row = 0;
    for (std::vector<std::uint32_t>& cursors : part_cursors) {
      const std::uint32_t count = cursors[v];
      cursors[v] = static_cast<std::uint32_t>(in_row);
      in_row += count;
    }
    EMIS_REQUIRE(in_row <= ~std::uint32_t{0}, "too many edges at one node");
    total += in_row;
  }
  offsets[n] = total;

  // Scatter: each part writes both directions of its own slice forwards
  // through its own cursors, so every row keeps insertion order and
  // lexicographic streams arrive with every row already sorted. No zero
  // fill precedes it: the scatter is the adjacency's first touch, on huge
  // pages. The writes go to up to n rows at once, so each target line is
  // prefetched a few edges ahead.
  constexpr std::uint64_t kPrefetchAhead = 32;
  std::vector<NodeId, NoInitAllocator<NodeId>>& csr_adjacency = g.adjacency_;
  ReserveHuge(csr_adjacency, total);
  par::ParallelFor(jobs, parts, [&](std::uint64_t part, unsigned) {
    std::uint32_t* cursor = part_cursors[part].data();
    const std::uint64_t* row = offsets.data();
    const std::uint64_t begin = slice_begin(part);
    const std::uint64_t end = slice_begin(part + 1);
    const std::uint64_t prefetch_end = end - std::min(end - begin, kPrefetchAhead);
    std::uint64_t i = begin;
    for (; i < prefetch_end; ++i) {
      const Edge ahead = edges[i + kPrefetchAhead];
      __builtin_prefetch(&csr_adjacency[row[ahead.u] + cursor[ahead.u]], /*rw=*/1, /*locality=*/0);
      __builtin_prefetch(&csr_adjacency[row[ahead.v] + cursor[ahead.v]], /*rw=*/1, /*locality=*/0);
      csr_adjacency[row[edges[i].u] + cursor[edges[i].u]++] = edges[i].v;
      csr_adjacency[row[edges[i].v] + cursor[edges[i].v]++] = edges[i].u;
    }
    for (; i < end; ++i) {
      csr_adjacency[row[edges[i].u] + cursor[edges[i].u]++] = edges[i].v;
      csr_adjacency[row[edges[i].v] + cursor[edges[i].v]++] = edges[i].u;
    }
  });
  std::vector<std::vector<std::uint32_t>>().swap(part_cursors);
  decltype(edges_)().swap(edges_);

  // Finalise rows over edge-balanced row ranges: sort the rows that need
  // it, then collapse (AddEdgeDedup) or reject duplicates. {u, v} is stored
  // in row u once per insertion in either orientation, so a duplicate is
  // adjacent once the row is sorted — whichever parts its copies came from.
  struct alignas(64) RowTally {
    std::uint32_t max_degree = 0;
  };
  const std::vector<NodeId> cut = EdgeBalancedCut(offsets, parts);
  std::vector<RowTally> tallies(parts);
  std::vector<std::uint32_t> deduped_degree(dedup_at_build_ ? n : 0);
  par::ParallelFor(jobs, parts, [&](std::uint64_t part, unsigned) {
    RowTally& tally = tallies[part];
    for (NodeId v = cut[part]; v < cut[part + 1]; ++v) {
      const auto first = csr_adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[v]);
      auto last = csr_adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]);
      // Strictly increasing means sorted and duplicate-free: one scan for
      // the common case.
      if (std::adjacent_find(first, last, std::greater_equal<>()) != last) {
        if (!std::is_sorted(first, last)) std::sort(first, last);
        if (dedup_at_build_) {
          last = std::unique(first, last);
        } else {
          EMIS_REQUIRE(std::adjacent_find(first, last) == last, "duplicate edge");
        }
      }
      const auto degree = static_cast<std::uint32_t>(last - first);
      if (dedup_at_build_) deduped_degree[v] = degree;
      tally.max_degree = std::max(tally.max_degree, degree);
    }
  });
  for (const RowTally& tally : tallies) {
    g.max_degree_ = std::max(g.max_degree_, tally.max_degree);
  }

  // Dedup shifts rows left in place, serially: offsets[v] is rewritten only
  // after row v's old extent has been read.
  if (dedup_at_build_) {
    std::uint64_t out = 0;
    for (NodeId v = 0; v < n; ++v) {
      const std::uint64_t begin = offsets[v];
      if (out != begin) {
        std::copy(csr_adjacency.begin() + static_cast<std::ptrdiff_t>(begin),
                  csr_adjacency.begin() + static_cast<std::ptrdiff_t>(begin + deduped_degree[v]),
                  csr_adjacency.begin() + static_cast<std::ptrdiff_t>(out));
      }
      offsets[v] = out;
      out += deduped_degree[v];
    }
    offsets[n] = out;
    if (out != csr_adjacency.size()) {
      csr_adjacency.resize(out);
      csr_adjacency.shrink_to_fit();
    }
  }
  return g;
}

}  // namespace emis
