#include "radio/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "radio/graph_generators.hpp"
#include "radio/rng.hpp"

namespace emis {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.NumNodes(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_EQ(g.MaxDegree(), 0u);
  EXPECT_TRUE(g.IsConnected());
}

TEST(Graph, EdgelessGraph) {
  Graph g = GraphBuilder(5).Build();
  EXPECT_EQ(g.NumNodes(), 5u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_EQ(g.Degree(3), 0u);
  EXPECT_TRUE(g.Neighbors(3).empty());
  EXPECT_FALSE(g.IsConnected());
}

TEST(Graph, TriangleBasics) {
  Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.NumEdges(), 3u);
  EXPECT_EQ(g.MaxDegree(), 2u);
  for (NodeId v = 0; v < 3; ++v) EXPECT_EQ(g.Degree(v), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.HasEdge(2, 0));
  EXPECT_FALSE(g.HasEdge(0, 0));
}

TEST(Graph, NeighborsAreSorted) {
  Graph g = Graph::FromEdges(6, {{3, 5}, {3, 1}, {3, 4}, {3, 0}});
  const auto nbrs = g.Neighbors(3);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(nbrs.size(), 4u);
}

TEST(Graph, EdgeOrientationNormalized) {
  Graph g = Graph::FromEdges(4, {{2, 0}, {3, 1}});
  const auto edges = g.EdgeList();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], (Edge{0, 2}));
  EXPECT_EQ(edges[1], (Edge{1, 3}));
}

TEST(Graph, RejectsSelfLoop) {
  GraphBuilder b(3);
  EXPECT_THROW(b.AddEdge(1, 1), PreconditionError);
}

TEST(Graph, RejectsOutOfRange) {
  GraphBuilder b(3);
  EXPECT_THROW(b.AddEdge(0, 3), PreconditionError);
  Graph g = Graph::FromEdges(3, {{0, 1}});
  EXPECT_THROW(g.Degree(3), PreconditionError);
  EXPECT_THROW((void)g.Neighbors(7), PreconditionError);
  EXPECT_THROW(g.HasEdge(0, 9), PreconditionError);
}

TEST(Graph, RejectsDuplicateEdge) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);  // same edge, opposite orientation
  EXPECT_THROW(std::move(b).Build(), PreconditionError);
}

TEST(GraphBuilder, AddEdgeIfAbsent) {
  GraphBuilder b(4);
  EXPECT_TRUE(b.AddEdgeIfAbsent(0, 1));
  EXPECT_FALSE(b.AddEdgeIfAbsent(1, 0));
  EXPECT_FALSE(b.AddEdgeIfAbsent(2, 2));  // self-loop: not added, no throw
  EXPECT_TRUE(b.AddEdgeIfAbsent(2, 3));
  Graph g = std::move(b).Build();
  EXPECT_EQ(g.NumEdges(), 2u);
}

TEST(GraphBuilder, MixedStylesStayConsistent) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  EXPECT_FALSE(b.AddEdgeIfAbsent(1, 0));  // must see the AddEdge edge
  Graph g = std::move(b).Build();
  EXPECT_EQ(g.NumEdges(), 1u);
}

TEST(GraphBuilder, AddEdgeAfterIfAbsentKeepsMembershipCurrent) {
  // The membership set materializes lazily on the first AddEdgeIfAbsent;
  // AddEdge calls after that point must keep feeding it.
  GraphBuilder b(4);
  EXPECT_TRUE(b.AddEdgeIfAbsent(0, 1));
  b.AddEdge(2, 3);
  EXPECT_FALSE(b.AddEdgeIfAbsent(3, 2));
  Graph g = std::move(b).Build();
  EXPECT_EQ(g.NumEdges(), 2u);
}

TEST(GraphBuilder, AddEdgeDedupCollapsesDuplicatesAtBuild) {
  GraphBuilder b(4);
  b.AddEdgeDedup(0, 1);
  b.AddEdgeDedup(1, 0);  // duplicate, opposite orientation
  b.AddEdgeDedup(0, 1);  // duplicate again
  b.AddEdgeDedup(2, 3);
  EXPECT_EQ(b.num_pending_edges(), 4u);
  Graph g = std::move(b).Build();
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(2, 3));
}

TEST(GraphBuilder, AddEdgeDedupRejectsSelfLoops) {
  GraphBuilder b(3);
  EXPECT_THROW(b.AddEdgeDedup(1, 1), PreconditionError);
}

TEST(GraphBuilder, ReserveDoesNotChangeTheResult) {
  GraphBuilder b(3);
  b.Reserve(100);
  b.AddEdge(0, 1);
  Graph g = std::move(b).Build();
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.NumEdges(), 1u);
}

// ---------------------------------------------------------------------------
// Builder properties against a std::set reference

using EdgeSet = std::set<std::pair<NodeId, NodeId>>;  // normalized u < v

/// Asserts that `g` is exactly the simple graph on `n` nodes with edge set
/// `edges`: row offsets, sorted rows and Δ all as a direct CSR would have
/// them.
void ExpectCsrEquals(const Graph& g, NodeId n, const EdgeSet& edges) {
  std::vector<std::vector<NodeId>> rows(n);
  for (const auto& [u, v] : edges) {
    rows[u].push_back(v);
    rows[v].push_back(u);
  }
  ASSERT_EQ(g.NumNodes(), n);
  ASSERT_EQ(g.NumEdges(), edges.size());
  std::uint64_t offset = 0;
  std::uint32_t max_degree = 0;
  for (NodeId v = 0; v < n; ++v) {
    std::sort(rows[v].begin(), rows[v].end());
    ASSERT_EQ(g.RowOffsets()[v], offset) << "node " << v;
    const auto nbrs = g.Neighbors(v);
    ASSERT_EQ(std::vector<NodeId>(nbrs.begin(), nbrs.end()), rows[v]) << "node " << v;
    offset += rows[v].size();
    max_degree = std::max(max_degree, static_cast<std::uint32_t>(rows[v].size()));
  }
  EXPECT_EQ(g.RowOffsets()[n], offset);
  EXPECT_EQ(g.MaxDegree(), max_degree);
}

/// Adds {u, v} in a random orientation.
void AddRandomlyOriented(GraphBuilder& b, NodeId u, NodeId v, Rng& rng, bool dedup) {
  if (rng.Bit()) std::swap(u, v);
  if (dedup) {
    b.AddEdgeDedup(u, v);
  } else {
    b.AddEdge(u, v);
  }
}

TEST(GraphBuilder, ShuffledEdgeListsMatchSetReference) {
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    Rng rng(trial);
    const auto n = static_cast<NodeId>(2 + rng.UniformBelow(60));
    // Endpoints drawn below `span` leave nodes span..n-1 isolated.
    const auto span = static_cast<NodeId>(2 + rng.UniformBelow(n - 1));
    EdgeSet edges;
    const std::uint64_t draws = rng.UniformBelow(3ULL * span * span / 4 + 1);
    for (std::uint64_t i = 0; i < draws; ++i) {
      const auto u = static_cast<NodeId>(rng.UniformBelow(span));
      const auto v = static_cast<NodeId>(rng.UniformBelow(span));
      if (u != v) edges.emplace(std::min(u, v), std::max(u, v));
    }
    std::vector<std::pair<NodeId, NodeId>> order(edges.begin(), edges.end());
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.UniformBelow(i)]);
    }
    GraphBuilder b(n);
    for (const auto& [u, v] : order) AddRandomlyOriented(b, u, v, rng, /*dedup=*/false);
    ExpectCsrEquals(std::move(b).Build(), n, edges);
  }
}

TEST(GraphBuilder, DedupWithHeavyRepeatsMatchesSetReference) {
  for (std::uint64_t trial = 0; trial < 100; ++trial) {
    Rng rng(1000 + trial);
    const auto n = static_cast<NodeId>(2 + rng.UniformBelow(24));
    EdgeSet edges;
    GraphBuilder b(n);
    // ~8 insertions per distinct pair on average, both orientations.
    for (std::uint64_t i = 0; i < 4ULL * n * n; ++i) {
      const auto u = static_cast<NodeId>(rng.UniformBelow(n));
      const auto v = static_cast<NodeId>(rng.UniformBelow(n));
      if (u == v) continue;
      edges.emplace(std::min(u, v), std::max(u, v));
      AddRandomlyOriented(b, u, v, rng, /*dedup=*/true);
    }
    ExpectCsrEquals(std::move(b).Build(), n, edges);
  }
}

TEST(GraphBuilder, ReversedDuplicateThrowsDuplicateEdge) {
  // Node 4's row arrives unsorted (7, 2, 5, 2), so the duplicate is only
  // adjacent after the row sort.
  GraphBuilder b(8);
  b.AddEdge(4, 7);
  b.AddEdge(2, 4);
  b.AddEdge(5, 4);
  b.AddEdge(4, 2);
  try {
    std::move(b).Build();
    ADD_FAILURE() << "duplicate edge accepted";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate edge"), std::string::npos)
        << e.what();
  }
}

/// The message of the PreconditionError `fn` throws, or "" if none.
template <typename Fn>
std::string ThrownMessage(Fn&& fn) {
  try {
    fn();
  } catch (const PreconditionError& e) {
    return e.what();
  }
  return "";
}

/// `count` distinct edges on 2000 nodes — enough pending edges for Build()
/// to split them into parts — in a shuffled order, so rows arrive unsorted.
std::vector<Edge> ShuffledEdges(std::uint64_t count) {
  std::vector<Edge> edges;
  for (NodeId u = 0; edges.size() < count; ++u) {
    for (NodeId d = 1; d <= 40 && edges.size() < count; ++d) edges.push_back({u, u + d});
  }
  Rng rng(41);
  for (std::size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[rng.UniformBelow(i)]);
  }
  return edges;
}

TEST(GraphBuilder, DuplicateAcrossPartsThrowsDuplicateEdge) {
  // The first and the last pending edge are the same edge, so at any job
  // count above one the two copies are counted and scattered by different
  // parts; the row pass still finds them adjacent.
  const std::vector<Edge> edges = ShuffledEdges(4 * GraphBuilder::kParallelMinEdges);
  EXPECT_EQ(Graph::FromEdges(2000, edges).NumEdges(), edges.size());
  GraphBuilder b(2000);
  for (const Edge& e : edges) b.AddEdge(e.u, e.v);
  b.AddEdge(edges.front().v, edges.front().u);
  const std::string message = ThrownMessage([&] { std::move(b).Build(); });
  EXPECT_NE(message.find("duplicate edge"), std::string::npos) << message;
}

TEST(GraphBuilder, BadEdgeSlotsThrowAddEdgeErrors) {
  const auto build_with = [](std::uint64_t edges, std::vector<std::pair<std::uint64_t, Edge>> bad) {
    GraphBuilder b(2000);
    const std::span<Edge> slots = b.AppendEdgeSlots(edges);
    for (std::uint64_t i = 0; i < edges; ++i) {
      slots[i] = {static_cast<NodeId>(i % 997), static_cast<NodeId>(i % 997 + 1 + i / 997)};
    }
    for (const auto& [index, edge] : bad) slots[index] = edge;
    return ThrownMessage([&] { std::move(b).Build(); });
  };
  const std::string kRange = "node out of range";
  const std::string kLoop = "self-loops are not allowed";
  for (const std::uint64_t edges : {std::uint64_t{100}, 4 * GraphBuilder::kParallelMinEdges}) {
    SCOPED_TRACE(edges);
    EXPECT_EQ(build_with(edges, {}), "");  // the filler slots are a valid graph
    EXPECT_NE(build_with(edges, {{edges / 2, {3, 2000}}}).find(kRange), std::string::npos);
    EXPECT_NE(build_with(edges, {{edges / 2, {2000, 3}}}).find(kRange), std::string::npos);
    EXPECT_NE(build_with(edges, {{edges / 2, {7, 7}}}).find(kLoop), std::string::npos);
    // The earliest bad slot decides, whichever parts the bad slots fall in.
    EXPECT_NE(build_with(edges, {{1, {7, 7}}, {edges - 1, {0, 5000}}}).find(kLoop),
              std::string::npos);
    EXPECT_NE(build_with(edges, {{1, {0, 5000}}, {edges - 1, {7, 7}}}).find(kRange),
              std::string::npos);
  }
  // Slots in either orientation build the same graph as AddEdge.
  GraphBuilder slots(4), added(4);
  const std::span<Edge> fill = slots.AppendEdgeSlots(2);
  fill[0] = {3, 1};
  fill[1] = {0, 2};
  added.AddEdge(1, 3);
  added.AddEdge(0, 2);
  const Graph a = std::move(slots).Build(), b = std::move(added).Build();
  EXPECT_TRUE(std::ranges::equal(a.Adjacency(), b.Adjacency()));
  EXPECT_TRUE(std::ranges::equal(a.RowOffsets(), b.RowOffsets()));
}

TEST(GraphBuilder, TinyAndIsolatedNodeCounts) {
  ExpectCsrEquals(GraphBuilder(0).Build(), 0, {});
  ExpectCsrEquals(GraphBuilder(1).Build(), 1, {});

  // Trailing isolated nodes keep the last row offset at the entry count, also
  // after dedup has shifted the rows left.
  for (const bool dedup : {false, true}) {
    GraphBuilder b(10);
    b.AddEdge(3, 0);
    b.AddEdge(1, 2);
    b.AddEdge(2, 3);
    if (dedup) {
      b.AddEdgeDedup(0, 3);
      b.AddEdgeDedup(2, 1);
    }
    const Graph g = std::move(b).Build();
    ExpectCsrEquals(g, 10, {{0, 3}, {1, 2}, {2, 3}});
    for (NodeId v = 4; v <= 10; ++v) EXPECT_EQ(g.RowOffsets()[v], 6u);
    EXPECT_EQ(g.Adjacency().size(), 6u);
  }
}

/// The G(n, p) sampler as it was before its forward row cursor: the same
/// geometric skips, with each position decoded by binary search over rows.
std::vector<Edge> BinarySearchErdosRenyi(NodeId n, double p, Rng& rng) {
  std::vector<Edge> edges;
  if (n < 2 || p <= 0.0) return edges;
  if (p >= 1.0) {
    for (NodeId u = 0; u < n; ++u)
      for (NodeId v = u + 1; v < n; ++v) edges.push_back({u, v});
    return edges;
  }
  const double log1mp = std::log1p(-p);
  const std::uint64_t total = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  const auto prefix = [n](std::uint64_t r) { return r * n - r - r * (r - 1) / 2; };
  std::uint64_t pos = 0;
  for (;;) {
    const double u = std::max(rng.UniformUnit(), 1e-300);
    const double skip = std::floor(std::log(u) / log1mp);
    if (skip >= static_cast<double>(total - pos)) return edges;
    pos += static_cast<std::uint64_t>(skip);
    if (pos >= total) return edges;
    NodeId lo = 0, hi = n - 1;
    while (lo < hi) {
      const NodeId mid = lo + (hi - lo + 1) / 2;
      if (prefix(mid) <= pos) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    edges.push_back({lo, static_cast<NodeId>(lo + 1 + (pos - prefix(lo)))});
    ++pos;
    if (pos >= total) return edges;
  }
}

TEST(ErdosRenyi, MatchesBinarySearchDecoder) {
  // Tiny n puts most sampled positions on or next to a row boundary.
  for (const NodeId n : {2u, 3u, 5u, 64u}) {
    for (const double p : {0.3, 1.0}) {
      for (std::uint64_t seed = 0; seed < 200; ++seed) {
        Rng a(seed), b(seed);
        const std::vector<Edge> expected = BinarySearchErdosRenyi(n, p, a);
        EXPECT_EQ(gen::ErdosRenyi(n, p, b).EdgeList(), expected)
            << "n=" << n << " p=" << p << " seed=" << seed;
        EXPECT_EQ(a.NextU64(), b.NextU64()) << "RNG streams diverged";
      }
    }
  }
}

TEST(Graph, InducedSubgraph) {
  // Path 0-1-2-3-4; induce {0, 2, 3}: only edge 2-3 survives.
  Graph g = Graph::FromEdges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const std::vector<NodeId> pick = {3, 0, 2};  // intentionally unsorted
  auto sub = g.Induced(pick);
  EXPECT_EQ(sub.graph.NumNodes(), 3u);
  EXPECT_EQ(sub.graph.NumEdges(), 1u);
  // to_original is sorted: [0, 2, 3]; the edge joins subgraph ids 1 and 2.
  ASSERT_EQ(sub.to_original, (std::vector<NodeId>{0, 2, 3}));
  EXPECT_TRUE(sub.graph.HasEdge(1, 2));
  EXPECT_FALSE(sub.graph.HasEdge(0, 1));
}

TEST(Graph, InducedRejectsDuplicates) {
  Graph g = Graph::FromEdges(3, {{0, 1}});
  const std::vector<NodeId> pick = {1, 1};
  EXPECT_THROW((void)g.Induced(pick), PreconditionError);
}

TEST(Graph, InducedEmptySelection) {
  Graph g = Graph::FromEdges(3, {{0, 1}});
  auto sub = g.Induced(std::vector<NodeId>{});
  EXPECT_EQ(sub.graph.NumNodes(), 0u);
}

TEST(Graph, ConnectedComponents) {
  // Two triangles and an isolated node.
  Graph g = Graph::FromEdges(7, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}});
  std::vector<std::uint32_t> comp;
  EXPECT_EQ(g.ConnectedComponents(comp), 3u);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[3]);
  EXPECT_NE(comp[6], comp[0]);
  EXPECT_NE(comp[6], comp[3]);
  EXPECT_FALSE(g.IsConnected());
}

TEST(Graph, SingleNodeIsConnected) {
  Graph g = GraphBuilder(1).Build();
  EXPECT_TRUE(g.IsConnected());
}

TEST(Graph, MaxDegreeOnStar) {
  GraphBuilder b(6);
  for (NodeId v = 1; v < 6; ++v) b.AddEdge(0, v);
  Graph g = std::move(b).Build();
  EXPECT_EQ(g.MaxDegree(), 5u);
  EXPECT_EQ(g.Degree(0), 5u);
  EXPECT_EQ(g.Degree(1), 1u);
}

TEST(Graph, EdgeListRoundTrips) {
  const std::vector<Edge> edges = {{0, 3}, {1, 2}, {2, 3}};
  Graph g = Graph::FromEdges(4, edges);
  Graph g2 = Graph::FromEdges(4, g.EdgeList());
  EXPECT_EQ(g2.NumEdges(), g.NumEdges());
  for (const Edge& e : edges) EXPECT_TRUE(g2.HasEdge(e.u, e.v));
}

}  // namespace
}  // namespace emis
