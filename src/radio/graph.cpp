#include "radio/graph.hpp"

#include <algorithm>
#include <functional>

#include "core/contracts.hpp"
#include "radio/hugepages.hpp"

namespace emis {

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

ResidualGraph::ResidualGraph(const Graph& graph)
    : rows_(graph.NumNodes()),
      active_((static_cast<std::size_t>(graph.NumNodes()) + 63) / 64, 0),
      live_edges_(graph.NumEdges()),
      active_count_(graph.NumNodes()) {
  adjacency_.reserve(2 * graph.NumEdges());
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    const auto nbrs = graph.Neighbors(v);
    rows_[v].begin = adjacency_.size();
    rows_[v].scan_len = static_cast<std::uint32_t>(nbrs.size());
    rows_[v].live_degree = rows_[v].scan_len;
    adjacency_.insert(adjacency_.end(), nbrs.begin(), nbrs.end());
    active_[v >> 6] |= 1ULL << (v & 63);
  }
}

void ResidualGraph::Retire(NodeId v) {
  EMIS_REQUIRE(v < NumNodes(), "node out of range");
  EMIS_REQUIRE(Active(v), "node retired twice");
  active_[v >> 6] &= ~(1ULL << (v & 63));
  --active_count_;
  live_edges_ -= rows_[v].live_degree;
  const std::uint64_t begin = rows_[v].begin;
  const std::uint32_t len = rows_[v].scan_len;
  for (std::uint32_t i = 0; i < len; ++i) {
    // The row walk itself is sequential, but the per-neighbor counter
    // update is a dependent random access (this loop runs ~2|E| times over
    // a full run); pulling the neighbor's interleaved RowMeta a few
    // entries ahead overlaps the misses.
    if (i + 8 < len) {
      __builtin_prefetch(&rows_[adjacency_[begin + i + 8]], /*rw=*/1,
                         /*locality=*/1);
    }
    const NodeId w = adjacency_[begin + i];
    if (!Active(w)) continue;  // dead prefix entry, already accounted
    RowMeta& row = rows_[w];
    --row.live_degree;
    // Dead fraction crossed ½ (v is in w's prefix and just died, so the row
    // strictly shrinks): stable-compact survivors to the prefix.
    if (row.live_degree * 2ULL <= row.scan_len) CompactRow(w);
  }
  // v's own row leaves the scan set entirely.
  edges_reclaimed_ += len;
  rows_[v].scan_len = 0;
  rows_[v].live_degree = 0;
}

void ResidualGraph::CompactRow(NodeId w) {
  RowMeta& row = rows_[w];
  const std::uint64_t begin = row.begin;
  const std::uint32_t len = row.scan_len;
  std::uint32_t out = 0;
  for (std::uint32_t i = 0; i < len; ++i) {
    const NodeId u = adjacency_[begin + i];
    if (Active(u)) adjacency_[begin + out++] = u;
  }
  EMIS_ASSERT(out == row.live_degree, "live-degree counter out of sync with row");
  edges_reclaimed_ += len - out;
  row.scan_len = out;
  ++compactions_;
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

void GraphBuilder::MaterializeSeen() {
  tracking_ = true;
  seen_.reserve(edges_.size() * 2);
  for (const Edge& e : edges_) {
    seen_.insert((static_cast<std::uint64_t>(e.u) << 32) | e.v);
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
  // Counting-sort construction, O(n + m) plus unsorted-row sorts (see the
  // class comment); there is no global edge sort.
  Graph g;
  std::vector<std::uint64_t>& offsets = g.offsets_;
  std::vector<NodeId>& adjacency = g.adjacency_;
  offsets.assign(static_cast<std::size_t>(num_nodes_) + 1, 0);
  for (const Edge& e : edges_) {
    ++offsets[e.u];
    ++offsets[e.v];
  }
  // Inclusive prefix sums: offsets[v] is the end of row v for now, and the
  // scatter below counts it down to the row's start, so no separate cursor
  // array is needed. offsets[n] is already the total entry count.
  std::uint64_t total = 0;
  for (NodeId v = 0; v < num_nodes_; ++v) offsets[v] = total += offsets[v];
  offsets[num_nodes_] = total;

  // Scatter both directions, walking the edges backwards so each row keeps
  // insertion order. Lexicographic streams (G(n, p), grids, complete graphs)
  // therefore arrive with every row already sorted. The writes go to up to n
  // rows at once, so each target line is prefetched a few edges ahead, and
  // the array is backed by huge pages to keep those writes off the TLB.
  constexpr std::size_t kPrefetchAhead = 32;
  ReserveHuge(adjacency, total);
  const Edge* edges = edges_.data();
  for (std::size_t i = edges_.size(); i-- > 0;) {
    if (i >= kPrefetchAhead) {
      const Edge& ahead = edges[i - kPrefetchAhead];
      __builtin_prefetch(&adjacency[offsets[ahead.u] - 1], /*rw=*/1, /*locality=*/0);
      __builtin_prefetch(&adjacency[offsets[ahead.v] - 1], /*rw=*/1, /*locality=*/0);
    }
    adjacency[--offsets[edges[i].u]] = edges[i].v;
    adjacency[--offsets[edges[i].v]] = edges[i].u;
  }
  std::vector<Edge>().swap(edges_);

  // Finalise rows in one pass: sort the rows that need it, then collapse
  // (AddEdgeDedup) or reject duplicates. {u, v} is stored in row u once per
  // insertion in either orientation, so a duplicate is adjacent once the row
  // is sorted. Dedup shifts rows left in place, so offsets[v] is rewritten
  // only after row v's old extent has been read.
  std::uint64_t out = 0;
  for (NodeId v = 0; v < num_nodes_; ++v) {
    const std::uint64_t begin = offsets[v];
    const auto first = adjacency.begin() + static_cast<std::ptrdiff_t>(begin);
    auto last = adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]);
    // Strictly increasing means sorted and duplicate-free: one scan for the
    // common case.
    if (std::adjacent_find(first, last, std::greater_equal<>()) != last) {
      if (!std::is_sorted(first, last)) std::sort(first, last);
      if (dedup_at_build_) {
        last = std::unique(first, last);
      } else {
        EMIS_REQUIRE(std::adjacent_find(first, last) == last, "duplicate edge");
      }
    }
    if (out != begin) {
      std::move(first, last, adjacency.begin() + static_cast<std::ptrdiff_t>(out));
    }
    offsets[v] = out;
    const auto degree = static_cast<std::uint32_t>(last - first);
    out += degree;
    g.max_degree_ = std::max(g.max_degree_, degree);
  }
  offsets[num_nodes_] = out;
  if (out != adjacency.size()) {
    adjacency.resize(out);
    adjacency.shrink_to_fit();
  }
  return g;
}

}  // namespace emis
