// Immutable undirected communication graph in compressed-sparse-row form.
//
// Nodes are dense 0-based NodeIds. The graph is simple (no self-loops, no
// parallel edges) and symmetric; `GraphBuilder` enforces this at build time.
// Neighbor lists are sorted, enabling O(log d) adjacency queries.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "radio/hugepages.hpp"
#include "radio/size_budget.hpp"
#include "radio/types.hpp"

namespace emis {

/// An undirected edge; normalized so that u < v once inside a Graph.
/// Trivial (no member initializers; `Edge{}` is {0, 0}), so a builder's
/// pending slots can be allocated without a zero-fill.
struct Edge {
  NodeId u;
  NodeId v;
  friend bool operator==(const Edge&, const Edge&) = default;
};

class GraphBuilder;
class Graph;

/// Result of Graph::Induced: the subgraph plus the id mapping back to the
/// parent graph. Subgraph node i corresponds to `to_original[i]`.
struct InducedSubgraph;

class Graph {
 public:
  /// The empty graph on zero nodes.
  Graph() = default;

  /// Builds a graph on `num_nodes` nodes from an edge list. Duplicate edges
  /// (in either orientation) are rejected; self-loops are rejected.
  static Graph FromEdges(NodeId num_nodes, std::span<const Edge> edges);
  static Graph FromEdges(NodeId num_nodes, std::initializer_list<Edge> edges) {
    return FromEdges(num_nodes, std::span<const Edge>(edges.begin(), edges.size()));
  }

  /// Wraps an externally-owned CSR without copying it — the zero-copy path
  /// behind graph_io::MapBinaryCsr. `owner` keeps the backing storage (an
  /// mmap) alive for the graph's lifetime; copies of the graph share it.
  /// The arrays must already satisfy the class invariants (symmetric,
  /// sorted rows, no self-loops or duplicates): the binary loader validates
  /// the header, section bounds and monotone offsets, not the adjacency
  /// content, exactly so that loading never has to fault in the full edge
  /// array. The first run on the graph checks the content once
  /// (RequireValidAdjacency).
  static Graph FromMappedCsr(std::shared_ptr<const void> owner,
                             const std::uint64_t* offsets, NodeId num_nodes,
                             const NodeId* adjacency, std::uint64_t adj_entries,
                             std::uint32_t max_degree);

  /// Throws PreconditionError unless every row of a mapped CSR holds only
  /// ids below NumNodes(), never its own node, in strictly ascending order
  /// (which also rules out duplicates), and the rows are symmetric — tested
  /// by a signed sum of one 64-bit hash per unordered pair, which an entry
  /// and its reverse cancel, so only a crafted hash collision passes an
  /// asymmetric file (and ResidualGraph's moves still refuse one, see
  /// RetireBatch). One O(m) pass over edge-balanced row ranges on `jobs`
  /// workers, run once per mapping: copies of the graph share the verdict,
  /// so only the first run on a mapped graph pays for it (and a failed
  /// check is repeated, and fails again, on the next call). A graph built
  /// in process is valid by construction and returns at once. Every run
  /// calls this before its channel or residual graph indexes by the
  /// entries (the Scheduler constructor, its one call site); map time never
  /// does, so loading stays O(n).
  void RequireValidAdjacency(unsigned jobs = 1) const;

  NodeId NumNodes() const noexcept {
    return mapping_ == nullptr ? static_cast<NodeId>(offsets_.size() - 1)
                               : mapped_nodes_;
  }
  std::uint64_t NumEdges() const noexcept { return NumAdjEntries() / 2; }

  std::uint32_t Degree(NodeId v) const {
    EMIS_REQUIRE(v < NumNodes(), "node out of range");
    const std::uint64_t* offsets = OffsetArray();
    return static_cast<std::uint32_t>(offsets[v + 1] - offsets[v]);
  }

  /// Sorted neighbor list of v.
  std::span<const NodeId> Neighbors(NodeId v) const {
    EMIS_REQUIRE(v < NumNodes(), "node out of range");
    const std::uint64_t* offsets = OffsetArray();
    return {AdjArray() + offsets[v], offsets[v + 1] - offsets[v]};
  }

  /// Raw CSR views: the (NumNodes() + 1)-entry row-offset array and the
  /// directed adjacency array it indexes (each undirected edge appears
  /// twice). Consumed by the binary serializer (radio/graph_io.hpp) and the
  /// scheduler's edge-balanced shard cut.
  std::span<const std::uint64_t> RowOffsets() const noexcept {
    return {OffsetArray(), static_cast<std::size_t>(NumNodes()) + 1};
  }
  std::span<const NodeId> Adjacency() const noexcept {
    return {AdjArray(), static_cast<std::size_t>(NumAdjEntries())};
  }

  bool HasEdge(NodeId u, NodeId v) const;

  /// Maximum degree Δ over all nodes (0 for the empty/edgeless graph).
  std::uint32_t MaxDegree() const noexcept { return max_degree_; }

  /// All edges, each once, with u < v, sorted lexicographically.
  std::vector<Edge> EdgeList() const;

  /// The subgraph induced by `nodes` (need not be sorted; duplicates
  /// rejected). Node ids are remapped densely; the sorted mapping back to
  /// this graph's ids is returned alongside.
  InducedSubgraph Induced(std::span<const NodeId> nodes) const;

  /// Connected components; `component[v]` is a dense component index and the
  /// count of components is returned.
  std::uint32_t ConnectedComponents(std::vector<std::uint32_t>& component) const;
  bool IsConnected() const;

  /// The square graph G²: same nodes, an edge wherever the distance in G is
  /// 1 or 2. Used for distance-2 colorings (TDMA slot assignment where even
  /// a *listener's* neighbors must not share a slot).
  Graph Square() const;

  /// BFS distances from `source` (kUnreachable for other components).
  static constexpr std::uint32_t kUnreachable = ~std::uint32_t{0};
  std::vector<std::uint32_t> BfsDistances(NodeId source) const;

 private:
  friend class GraphBuilder;

  std::uint64_t NumAdjEntries() const noexcept {
    return mapping_ == nullptr ? adjacency_.size() : mapped_entries_;
  }
  const std::uint64_t* OffsetArray() const noexcept {
    return mapping_ == nullptr ? offsets_.data() : mapped_offsets_;
  }
  const NodeId* AdjArray() const noexcept {
    return mapping_ == nullptr ? adjacency_.data() : mapped_adjacency_;
  }

  // Owned storage (built graphs): offsets_ has NumNodes()+1 entries;
  // adjacency_ holds each edge twice. Its resize() does not zero-fill:
  // GraphBuilder's parallel scatter writes every entry and is the first
  // touch.
  std::vector<std::uint64_t> offsets_{0};
  std::vector<NodeId, NoInitAllocator<NodeId>> adjacency_;
  // Mapped storage (FromMappedCsr): the view pointers alias memory kept
  // alive by mapping_, never by this object — so defaulted copy/move stay
  // correct for both storage kinds (a copy shares the mapping).
  std::shared_ptr<const void> mapping_;
  const std::uint64_t* mapped_offsets_ = nullptr;
  const NodeId* mapped_adjacency_ = nullptr;
  NodeId mapped_nodes_ = 0;
  std::uint64_t mapped_entries_ = 0;
  std::uint32_t max_degree_ = 0;
  // RequireValidAdjacency's verdict for a mapped CSR, shared by every copy
  // (defined in graph.cpp); null exactly for a built graph, so it is also
  // what tells the two storage kinds apart to the check.
  struct AdjacencyCheck;
  std::shared_ptr<AdjacencyCheck> adjacency_check_;
};

struct InducedSubgraph {
  Graph graph;
  std::vector<NodeId> to_original;  // subgraph id -> original id
};

/// Cuts the node range of a CSR with `offsets` (NumNodes() + 1 entries) into
/// `parts` contiguous row ranges holding roughly equal numbers of directed
/// adjacency entries. Returns the parts + 1 monotone boundaries, first 0 and
/// last NumNodes(); skewed graphs may leave later ranges empty, and an
/// edgeless graph is cut node-uniformly. The scheduler's shard cut and the
/// adjacency check's ranges (DESIGN.md §13.1).
std::vector<NodeId> EdgeBalancedCut(std::span<const std::uint64_t> offsets,
                                    unsigned parts);

/// Mutable residual view over an immutable Graph: which nodes are still live
/// (may yet transmit or listen) plus, per node, a shrinking "scan row" that
/// the channel iterates instead of the full CSR row. Channel scans then cost
/// O(live entries) per node instead of O(deg_G), so per-round work tracks
/// the residual graph that Lemma 5 / Lemma 20 argue shrinks geometrically
/// per Luby phase, not the seed graph.
///
/// Lifetime: the residual reads `graph` for as long as it exists — every
/// scan row aliases the seed CSR (for a mapped graph, the file mapping)
/// until it first shrinks — so the graph must outlive it. The seed CSR is
/// never written, and nothing is copied up front. A row that shrinks for
/// the first time moves its live entries into the overlay, one buffer of
/// NumEdges() entries reserved untouched: the batch's first shrinks are
/// packed at the overlay's end in ascending row order once the batch is
/// done, so the layout is the same at any cut, and only the packed prefix
/// is ever touched. The ½ trigger below caps a first shrink at ⌊deg/2⌋
/// entries, so the rows never outgrow the buffer; later shrinks rewrite
/// a row in place.
///
/// The scheduler retires a node once it reaches a terminal MIS decision
/// (joined / killed) or its protocol coroutine finishes. Retirement is
/// batched: the scheduler collects the nodes one filing pass retires and
/// hands them to RetireBatch, which applies the batch in one of two ways,
/// chosen by the batch alone:
///   * **walk** (the batch's pending scan entries are at most the
///     survivors'): retiring v clears v's active bit and reclaims v's own
///     row, decrements the live degree of each of v's live neighbors, and
///     shrinks a neighbor's row to its live entries once its dead fraction
///     crosses ½ — the live degrees and shrinks of retiring the members one
///     by one in batch order. The walk is partitioned by row owner: every
///     part of a contiguous row cut walks the whole batch in order but
///     reads only the slice of each retiree's sorted row that falls in its
///     own range, and updates only the rows it owns, judging a neighbor
///     alive at batch position i if it was live before the batch and
///     retires later than i (each part clears its own copy of the active
///     bits as it steps through the batch). A batch member's own row is
///     read by every part, so while the batch runs it is never rewritten: a
///     shrink it would get moves its counters only (its entries die with it
///     anyway). A seed row past the trigger also moves only its counters
///     during the pass; it moves to the overlay after it, filtered against
///     the final active set, so deaths later in the batch are reclaimed
///     with it.
///   * **rebuild** (the batch's pending scan entries exceed the survivors'):
///     the members' active bits are cleared and their rows dropped, then
///     every part filters the surviving rows it owns against the final
///     active bits, setting each live degree and scan length exactly. A row
///     still on the seed CSR moves to the overlay only if it passes the ½
///     trigger (after the pass, like the walk's); otherwise it stays in
///     place with a live count. Either pass reads no more entries than the
///     other would have.
/// No part writes what another part reads, so the parts run concurrently
/// without locks, and because the branch depends on the batch alone, the
/// state (every RowMeta and counter) is the same at any cut or job count
/// (DESIGN.md §13.2).
///
/// Invariants:
///   * ScanRow(v) contains every live neighbor of a live v; dead entries in
///     it never exceed the live ones (the ½ trigger; a rebuild leaves a row
///     it filtered with none).
///   * Shrinking is a *stable* filter: surviving entries keep their
///     relative (sorted, ascending) CSR order. The pull channel resolves
///     payload ties by last-scanned row entry, so stability keeps that
///     tie-break independent of when rows shrank (see channel.hpp). Sorted
///     rows are also what lets a part find its slice by binary search;
///     Graph::RequireValidAdjacency guarantees them for a mapped CSR.
///   * Amortized shrink work over a whole run is O(E): a row of length L is
///     only rewritten by the walk after ≥ L/2 of its entries died since it
///     last shrank, and a rebuild reads fewer entries than the batch it
///     retires pends.
class ResidualGraph {
 public:
  /// Starts with every node live and every row reading its full seed CSR
  /// row; allocates the overlay untouched. Reads only the row offsets. A
  /// mapped `graph` must pass Graph::RequireValidAdjacency before the first
  /// RetireBatch (the Scheduler checks it in its constructor): the walk
  /// indexes by the entries and slices rows by binary search.
  explicit ResidualGraph(const Graph& graph);
  /// The graph must outlive the residual: a temporary would not.
  ResidualGraph(Graph&&) = delete;

  /// Directed adjacency entries below which a pass over them (the
  /// adjacency check, or a retire batch's pending scan rows) runs inline:
  /// below it, pool dispatch latency outweighs the split work.
  static constexpr std::uint64_t kParallelMinEntries = std::uint64_t{1} << 14;

  NodeId NumNodes() const noexcept {
    return static_cast<NodeId>(rows_.size());
  }

  /// Whether v may still act on the channel.
  bool Active(NodeId v) const noexcept {
    return ((active_[v >> 6] >> (v & 63)) & 1u) != 0;
  }

  /// Number of still-live neighbors of v (0 once v itself retired).
  std::uint32_t LiveDegree(NodeId v) const noexcept {
    return rows_[v].live_degree;
  }

  /// The entries a channel scan must visit for v: its seed CSR row until
  /// the row first shrinks, its overlay slot after; sorted ascending.
  /// Contains all live neighbors plus at most an equal number of dead ones.
  /// Empty once v retired.
  std::span<const NodeId> ScanRow(NodeId v) const noexcept {
    const RowMeta& row = rows_[v];
    return {row.row, row.scan_len};
  }

  /// The overlay's packed prefix (at most NumEdges() entries): every
  /// shrunk row's ScanRow lies inside it, an unshrunk one's in the seed
  /// CSR. For layout checks; entries outside live scan rows are
  /// unspecified.
  std::span<const NodeId> Overlay() const noexcept {
    return {overlay_.get(), static_cast<std::size_t>(overlay_used_)};
  }

  /// Permanently removes the nodes of `batch`, in order, from the residual
  /// graph (walk or rebuild, see the class comment). Every node must still
  /// be active and appear once (PreconditionError "node retired twice"
  /// otherwise, with nothing retired); the caller (Scheduler) guarantees
  /// they never transmit or listen afterwards. A walked row whose live
  /// degree disagrees with its live entries — only an adjacency that is not
  /// symmetric causes that — is a PreconditionError ("not symmetric")
  /// before the overlay is written; the residual is unusable after it.
  /// `cut` holds the row-owner boundaries (first 0, last NumNodes(),
  /// monotone, empty ranges allowed); its ranges run on `jobs` workers.
  void RetireBatch(std::span<const NodeId> batch, std::span<const NodeId> cut,
                   unsigned jobs);

  /// A batch of one over a single row range.
  void Retire(NodeId v) {
    const NodeId whole[] = {0, NumNodes()};
    RetireBatch({&v, 1}, whole, 1);
  }

  /// Edges whose endpoints are both still active.
  std::uint64_t LiveEdges() const noexcept { return live_edges_; }
  NodeId ActiveCount() const noexcept { return active_count_; }

  /// Telemetry: rows shrunk (by the walk's ½ trigger or by a rebuild's
  /// filter), directed CSR entries removed from scan rows so far (each
  /// entry counted once; 2E once every node retired), and batches applied
  /// by rebuild.
  std::uint64_t Compactions() const noexcept { return compactions_; }
  std::uint64_t EdgesReclaimed() const noexcept { return edges_reclaimed_; }
  std::uint64_t Rebuilds() const noexcept { return rebuilds_; }

 private:
  /// Per-node row metadata, interleaved so the three fields every consumer
  /// reads together (ScanRow's row+len, retire's len+degree) land on one
  /// cache line per node instead of three parallel-array lines. Channel
  /// scans and the retire walk both key this by *neighbor* id — a random
  /// access — so the interleave halves their miss traffic (size pinned in
  /// size_budget.hpp / tests/test_layout.cpp).
  struct RowMeta {
    const NodeId* row = nullptr;    // seed CSR row, or the overlay slot
    std::uint32_t scan_len = 0;     // entries a scan visits
    std::uint32_t live_degree = 0;  // live neighbors
  };
  static_assert(sizeof(RowMeta) == kResidualRowBytes,
                "row metadata outgrew its line budget (size_budget.hpp)");

  /// One part's contribution, summed after the join; a cache line each so
  /// concurrent parts never share one.
  struct alignas(64) RetireTally {
    std::uint64_t edges_died = 0;
    std::uint64_t compactions = 0;
    std::uint64_t reclaimed = 0;
    std::uint64_t live_sum = 0;   // rebuild: Σ surviving live degrees
    std::uint64_t move_base = 0;  // where the part's moved rows start
    bool asymmetric = false;      // walk: a row's counter disagreed with it
  };

  const NodeId* SeedRow(NodeId v) const noexcept { return seed_ + offsets_[v]; }
  std::uint32_t Degree(NodeId v) const noexcept {
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }
  /// One part's seed rows that shrank for the first time in this batch,
  /// and their live entries against the post-batch active set, staged in
  /// ascending row order.
  struct PartMoves {
    std::vector<NodeId> rows;
    std::vector<NodeId, NoInitAllocator<NodeId>> entries;
  };

  /// The two RetireBatch branches, after the prologue validated the batch
  /// and cleared its active bits. Each stages, per part, the seed rows
  /// that shrink for the first time and their live entries (moves_): the
  /// rebuild as it counts them, the walk once its part has replayed the
  /// batch.
  void WalkBatch(std::span<const NodeId> batch, std::span<const NodeId> cut,
                 unsigned jobs);
  void RebuildBatch(std::span<const NodeId> batch, std::span<const NodeId> cut,
                    unsigned jobs);
  /// Packs the staged rows' entries into the overlay, in ascending row
  /// order, each part's block sized by what it staged, and points their
  /// RowMeta there.
  void MoveShrunkSeedRows(std::span<const NodeId> cut, unsigned jobs);

  std::vector<RowMeta> rows_;
  const std::uint64_t* offsets_ = nullptr;  // the seed CSR, read-only
  const NodeId* seed_ = nullptr;
  // Shrunk rows, packed in the order they first shrank; overlay_used_
  // entries are taken (never more than half the seed CSR).
  std::unique_ptr<NodeId[]> overlay_;
  std::uint64_t overlay_used_ = 0;
  std::vector<std::uint64_t> active_;    // node bitset, 64 nodes per word
  // Walk scratch. in_batch_: the current batch's members (a bitset like
  // active_, all clear between batches). part_active_: parts 1.. each
  // replay aliveness in a private copy of active_.
  std::vector<std::uint64_t> in_batch_;
  std::vector<std::vector<std::uint64_t>> part_active_;
  // Each member's scan-row length when the batch began, which every part
  // reads while the member's owner moves its counters.
  std::vector<std::uint32_t> batch_lens_;
  std::vector<PartMoves> moves_;  // per part
  std::vector<RetireTally> retire_tallies_;  // RetireBatch scratch, per part
  std::uint64_t live_edges_ = 0;
  NodeId active_count_ = 0;
  std::uint64_t compactions_ = 0;
  std::uint64_t edges_reclaimed_ = 0;
  std::uint64_t rebuilds_ = 0;
};

/// Incremental construction helper used by the generators.
///
/// Build() is O(n + m) plus the cost of sorting rows that arrive unsorted,
/// a counting sort partitioned by source: the pending edges are cut into
/// contiguous slices, one per part. Each part counts the degrees of its own
/// slice into a private row histogram; a prefix over (row, part) turns the
/// histograms into private write cursors; each part then scatters both
/// directions of its slice, so every row holds part 0's entries, then part
/// 1's, ... — insertion order. A pass over edge-balanced row ranges then
/// finalises each row (sorted only if it is not already, duplicates
/// checked, Δ recomputed). Edges streamed in lexicographic order — G(n, p),
/// grids, complete graphs, the unit-disk generator's presorted rows — need
/// no sorting at all. A simple graph with sorted rows has exactly one CSR,
/// so the result never depends on insertion order, orientation, or the
/// number of parts.
///
/// From kParallelMinEdges pending edges on, the parts run on the shared
/// pool (par::ParallelFor at par::DefaultJobs(); inline inside a pool
/// worker); below it there is one part and everything runs on the caller.
///
/// Four edge-insertion styles with different cost profiles:
///   * AddEdge — append-only; the bulk-generator fast path. No hash-set
///     work unless AddEdgeIfAbsent has been called on this builder.
///   * AppendEdgeSlots — reserves a run of pending slots the caller fills in
///     place, e.g. from pool workers (the G(n, p) sampler). The slots get
///     AddEdge's range and self-loop checks at Build time, with the same
///     errors (the earliest bad slot's).
///   * AddEdgeIfAbsent — membership-checked insert (needs the answer *now*,
///     e.g. to count distinct edges). The membership set is materialized
///     lazily on first use, so pure-AddEdge builders never pay for it.
///   * AddEdgeDedup — append now; Build() collapses repeats with a per-row
///     unique and shifts rows left in place (the one serial pass of a
///     dedup build). Cheapest way to insert a stream with many repeats when
///     the caller does not need per-insert feedback (e.g. Square()). The
///     CSR is sized by pending insertions until the repeats are removed.
class GraphBuilder {
 public:
  explicit GraphBuilder(NodeId num_nodes) : num_nodes_(num_nodes) {}

  /// Pending edges from which Build() and the G(n, p) sampler split their
  /// passes across the pool: below it, dispatch latency outweighs the
  /// split work.
  static constexpr std::uint64_t kParallelMinEdges = std::uint64_t{1} << 14;

  /// Pre-allocates the pending-edge list for `edges` insertions (huge-page
  /// advised). Purely an allocation hint; generators with a known or
  /// expected edge count use it to avoid growth reallocations.
  void Reserve(std::uint64_t edges);

  /// Adds the undirected edge {u, v}. Adding an existing edge or a self-loop
  /// throws PreconditionError (at AddEdge time for self-loops, at Build time
  /// for duplicates — unless AddEdgeDedup armed dedup-at-build).
  GraphBuilder& AddEdge(NodeId u, NodeId v);

  /// Appends `count` pending-edge slots, in either orientation, for the
  /// caller to fill before Build(); the span stays valid until the next
  /// insertion. Build() checks each slot as AddEdge would ("node out of
  /// range", "self-loops are not allowed"; the earliest bad slot's error).
  std::span<Edge> AppendEdgeSlots(std::uint64_t count);

  /// Adds {u, v} unless it already exists or u == v; returns whether added.
  /// First use materializes the membership set from the pending edges.
  /// Edges inserted later via AddEdgeDedup or AppendEdgeSlots are invisible
  /// to this check.
  bool AddEdgeIfAbsent(NodeId u, NodeId v);

  /// Appends {u, v} (u != v required) without any membership check and arms
  /// dedup-at-build: Build() then collapses every repeated edge, including
  /// repeats of AddEdge edges, instead of rejecting it. O(1), no hashing.
  void AddEdgeDedup(NodeId u, NodeId v);

  NodeId num_nodes() const noexcept { return num_nodes_; }
  std::uint64_t num_pending_edges() const noexcept { return edges_.size(); }

  Graph Build() &&;

 private:
  void MaterializeSeen();

  NodeId num_nodes_;
  // Pending edges. Slots are not zero-filled on growth: AppendEdgeSlots'
  // callers write every slot, and the sampler's parallel decode is their
  // first touch.
  std::vector<Edge, NoInitAllocator<Edge>> edges_;
  // Membership set for AddEdgeIfAbsent; keyed by (u << 32) | v with u < v.
  // Empty and untouched until the first AddEdgeIfAbsent call (tracking_).
  std::unordered_set<std::uint64_t> seen_;
  bool tracking_ = false;
  bool dedup_at_build_ = false;
};

}  // namespace emis
