#include "radio/graph.hpp"

#include <algorithm>
#include <functional>

#include "core/contracts.hpp"
#include "radio/hugepages.hpp"
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

/// What CheckRows found wrong with a CSR's adjacency content.
struct RowFaults {
  bool out_of_range = false;  ///< an entry names no node (id ≥ n)
  bool self_loop = false;     ///< an entry names its own row's node

  void Require() const {
    EMIS_REQUIRE(!out_of_range, "graph adjacency names a node id >= the node count");
    EMIS_REQUIRE(!self_loop, "graph adjacency holds a self-loop");
  }
};

/// Reads every entry of rows [lo, hi) once, recording the faults a mapped
/// CSR's loader defers (MapBinaryCsr) — and, with kCopy, writing each entry
/// to `dst` at its CSR position in the same pass.
template <bool kCopy>
RowFaults CheckRows(std::span<const std::uint64_t> offsets,
                    std::span<const NodeId> source, NodeId lo, NodeId hi,
                    NodeId* dst) {
  // Branch-free reductions (largest id, OR of self-entry flags), so the
  // per-row loop vectorizes like the plain copy it replaces.
  NodeId max_id = 0;
  std::uint32_t self_loop = 0;
  for (NodeId v = lo; v < hi; ++v) {
    for (std::uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      const NodeId u = source[i];
      if constexpr (kCopy) dst[i] = u;
      max_id = std::max(max_id, u);
      self_loop |= u == v ? 1u : 0u;
    }
  }
  const bool has_entries = offsets[hi] > offsets[lo];
  return {has_entries && max_id >= static_cast<NodeId>(offsets.size() - 1),
          self_loop != 0};
}

}  // namespace

void RequireAdjacencyIds(const Graph& graph) {
  CheckRows<false>(graph.RowOffsets(), graph.Adjacency(), 0, graph.NumNodes(),
                   nullptr)
      .Require();
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

ResidualGraph::ResidualGraph(const Graph& graph, unsigned jobs)
    : rows_(graph.NumNodes()),
      active_((static_cast<std::size_t>(graph.NumNodes()) + 63) / 64, ~std::uint64_t{0}),
      in_batch_(active_.size(), 0),
      live_edges_(graph.NumEdges()),
      active_count_(graph.NumNodes()) {
  if (graph.NumNodes() % 64 != 0) {
    active_.back() = (std::uint64_t{1} << (graph.NumNodes() % 64)) - 1;
  }
  const std::span<const std::uint64_t> offsets = graph.RowOffsets();
  const std::span<const NodeId> source = graph.Adjacency();
  // Every entry is written exactly once below, so the buffer skips the
  // zero-fill; advising before that first touch backs it with huge pages.
  adjacency_ = std::make_unique_for_overwrite<NodeId[]>(source.size());
  AdviseHugePages(adjacency_.get(), source.size() * sizeof(NodeId));
  const unsigned parts = source.size() < kParallelMinEntries ? 1 : std::max(jobs, 1u);
  const std::vector<NodeId> cut = EdgeBalancedCut(offsets, parts);
  // The copy is the run's first read of every entry, so it also checks the
  // ids a mapped CSR's loader leaves unchecked — before any scan trusts them.
  std::vector<RowFaults> faults(parts);
  par::ParallelFor(parts, parts, [&](std::uint64_t part, unsigned) {
    const NodeId lo = cut[part];
    const NodeId hi = cut[part + 1];
    RowFaults& part_faults = faults[part];
    part_faults = CheckRows<true>(offsets, source, lo, hi, adjacency_.get());
    for (NodeId v = lo; v < hi; ++v) {
      const auto degree = static_cast<std::uint32_t>(offsets[v + 1] - offsets[v]);
      rows_[v] = {offsets[v], degree, degree};
    }
  });
  for (const RowFaults& f : faults) f.Require();
}

void ResidualGraph::RetireBatch(std::span<const NodeId> batch,
                                std::span<const NodeId> cut, unsigned jobs) {
  EMIS_REQUIRE(cut.size() >= 2 && cut.front() == 0 && cut.back() == NumNodes() &&
                   std::is_sorted(cut.begin(), cut.end()),
               "retire cut must cover every row in order");
  if (batch.empty()) return;
  // Serial prologue: validate (clearing each member's active bit exposes a
  // repeat), mark membership, and snapshot each member's scan-row length
  // (its begin is never written). A bad member restores the bits already
  // cleared, so a rejected batch retires nothing.
  batch_lens_.resize(batch.size());
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
  }
  for (const NodeId v : batch) {
    SetBit(active_.data(), v);
    SetBit(in_batch_.data(), v);
  }

  // Row-owner parts (see the class comment). Each part replays the batch in
  // order against the rows [cut[p], cut[p + 1]) it owns, tracking which
  // nodes are alive at the current step in a bitset of its own: part 0 in
  // active_ itself (which ends up exactly post-batch), the others in
  // private copies of it. The members' rows (begin, snapshot length,
  // entries) are shared reads; everything written is owned by one part.
  const std::size_t parts = cut.size() - 1;
  part_active_.resize(parts - 1);
  for (std::vector<std::uint64_t>& copy : part_active_) copy = active_;
  retire_tallies_.assign(parts, RetireTally{});
  par::ParallelFor(jobs, parts, [&](std::uint64_t part, unsigned) {
    const NodeId lo = cut[part];
    const NodeId hi = cut[part + 1];
    std::uint64_t* alive = part == 0 ? active_.data() : part_active_[part - 1].data();
    RetireTally& tally = retire_tallies_[part];
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const NodeId v = batch[i];
      ClearBit(alive, v);
      // The slice of v's sorted row this part owns; the searches only run
      // where a cut boundary can fall inside the row.
      const NodeId* row = adjacency_.get() + rows_[v].begin;
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
        // Dead fraction crossed ½ (v is in w's prefix and just died, so the
        // row strictly shrinks): stable-compact survivors to the prefix. A
        // member's row keeps its entries (every part may still read them)
        // and moves only its counters.
        if (meta.live_degree * 2ULL > meta.scan_len) continue;
        if (!TestBit(in_batch_.data(), w)) {
          std::uint32_t out = 0;
          for (std::uint32_t j = 0; j < meta.scan_len; ++j) {
            const NodeId u = adjacency_[meta.begin + j];
            if (TestBit(alive, u)) adjacency_[meta.begin + out++] = u;
          }
          EMIS_ASSERT(out == meta.live_degree, "live-degree counter out of sync with row");
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
  });
  for (const NodeId v : batch) ClearBit(in_batch_.data(), v);
  for (const RetireTally& tally : retire_tallies_) {
    live_edges_ -= tally.edges_died;
    compactions_ += tally.compactions;
    edges_reclaimed_ += tally.reclaimed;
  }
  active_count_ -= static_cast<NodeId>(batch.size());
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
