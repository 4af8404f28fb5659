#include "radio/graph_generators.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "verify/parallel.hpp"

namespace emis {
namespace {

TEST(Generators, ErdosRenyiEdgeCountMatchesExpectation) {
  Rng rng(1);
  const NodeId n = 400;
  const double p = 0.05;
  Graph g = gen::ErdosRenyi(n, p, rng);
  const double expected = p * n * (n - 1) / 2.0;  // ~3990
  const double sigma = std::sqrt(expected * (1 - p));
  EXPECT_NEAR(static_cast<double>(g.NumEdges()), expected, 6 * sigma);
}

TEST(Generators, ErdosRenyiExtremes) {
  Rng rng(2);
  EXPECT_EQ(gen::ErdosRenyi(50, 0.0, rng).NumEdges(), 0u);
  EXPECT_EQ(gen::ErdosRenyi(50, 1.0, rng).NumEdges(), 50u * 49 / 2);
  EXPECT_EQ(gen::ErdosRenyi(0, 0.5, rng).NumNodes(), 0u);
  EXPECT_EQ(gen::ErdosRenyi(1, 0.5, rng).NumEdges(), 0u);
}

TEST(Generators, ErdosRenyiIsDeterministicGivenRng) {
  Rng a(3), b(3);
  Graph g1 = gen::ErdosRenyi(100, 0.1, a);
  Graph g2 = gen::ErdosRenyi(100, 0.1, b);
  EXPECT_EQ(g1.EdgeList(), g2.EdgeList());
}

TEST(Generators, ErdosRenyiRejectsBadProbability) {
  Rng rng(4);
  EXPECT_THROW(gen::ErdosRenyi(10, -0.1, rng), PreconditionError);
  EXPECT_THROW(gen::ErdosRenyi(10, 1.1, rng), PreconditionError);
}

TEST(Generators, GnMExactCount) {
  Rng rng(5);
  Graph g = gen::GnM(100, 250, rng);
  EXPECT_EQ(g.NumNodes(), 100u);
  EXPECT_EQ(g.NumEdges(), 250u);
}

TEST(Generators, GnMFullAndEmpty) {
  Rng rng(6);
  EXPECT_EQ(gen::GnM(10, 45, rng).NumEdges(), 45u);
  EXPECT_EQ(gen::GnM(10, 0, rng).NumEdges(), 0u);
  EXPECT_THROW(gen::GnM(10, 46, rng), PreconditionError);
}

TEST(Generators, RandomGeometricMatchesBruteForce) {
  // The bucketed implementation must produce exactly the same edge set as a
  // quadratic check over the same sampled points. We verify structure
  // indirectly: every edge respects the radius, and node degrees grow with
  // radius.
  Rng rng(7);
  const double radius = 0.15;
  Graph g = gen::RandomGeometric(300, radius, rng);
  EXPECT_EQ(g.NumNodes(), 300u);
  // Expected edges ~ n^2/2 * pi r^2 (minus boundary effects); sanity window.
  EXPECT_GT(g.NumEdges(), 500u);
  EXPECT_LT(g.NumEdges(), 6000u);
}

TEST(Generators, RandomGeometricZeroRadius) {
  Rng rng(8);
  EXPECT_EQ(gen::RandomGeometric(100, 0.0, rng).NumEdges(), 0u);
}

TEST(Generators, RandomGeometricFullRadius) {
  Rng rng(9);
  // radius sqrt(2) covers the whole unit square: complete graph.
  Graph g = gen::RandomGeometric(40, 1.5, rng);
  EXPECT_EQ(g.NumEdges(), 40u * 39 / 2);
}

TEST(Generators, GridStructure) {
  Graph g = gen::Grid(3, 4);
  EXPECT_EQ(g.NumNodes(), 12u);
  EXPECT_EQ(g.NumEdges(), 3u * 3 + 2 * 4);  // rows*(cols-1) + (rows-1)*cols
  EXPECT_EQ(g.Degree(0), 2u);               // corner
  EXPECT_EQ(g.Degree(1), 3u);               // edge
  EXPECT_EQ(g.Degree(5), 4u);               // interior
  EXPECT_TRUE(g.IsConnected());
}

TEST(Generators, PathAndCycle) {
  Graph p = gen::Path(5);
  EXPECT_EQ(p.NumEdges(), 4u);
  EXPECT_EQ(p.Degree(0), 1u);
  EXPECT_EQ(p.Degree(2), 2u);

  Graph c = gen::Cycle(5);
  EXPECT_EQ(c.NumEdges(), 5u);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(c.Degree(v), 2u);
  EXPECT_THROW(gen::Cycle(2), PreconditionError);
  EXPECT_EQ(gen::Cycle(0).NumNodes(), 0u);
}

TEST(Generators, StarStructure) {
  Graph g = gen::Star(7);
  EXPECT_EQ(g.NumEdges(), 6u);
  EXPECT_EQ(g.Degree(0), 6u);
  for (NodeId v = 1; v < 7; ++v) EXPECT_EQ(g.Degree(v), 1u);
}

TEST(Generators, CompleteAndBipartite) {
  EXPECT_EQ(gen::Complete(6).NumEdges(), 15u);
  Graph kb = gen::CompleteBipartite(3, 4);
  EXPECT_EQ(kb.NumNodes(), 7u);
  EXPECT_EQ(kb.NumEdges(), 12u);
  EXPECT_FALSE(kb.HasEdge(0, 1));  // within left side
  EXPECT_TRUE(kb.HasEdge(0, 3));   // across
}

TEST(Generators, RandomTreeIsTree) {
  Rng rng(10);
  for (NodeId n : {NodeId{1}, NodeId{2}, NodeId{3}, NodeId{10}, NodeId{100}}) {
    Graph g = gen::RandomTree(n, rng);
    EXPECT_EQ(g.NumNodes(), n);
    if (n >= 1) {
      EXPECT_EQ(g.NumEdges(), n - 1);
      EXPECT_TRUE(g.IsConnected()) << "n=" << n;
    }
  }
}

TEST(Generators, NearRegularDegreesBounded) {
  Rng rng(11);
  const std::uint32_t d = 6;
  Graph g = gen::NearRegular(200, d, rng);
  std::uint32_t at_degree = 0;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_LE(g.Degree(v), d);
    at_degree += g.Degree(v) == d;
  }
  // Nearly all nodes should reach the target degree.
  EXPECT_GT(at_degree, 180u);
}

TEST(Generators, BarabasiAlbertStructure) {
  Rng rng(12);
  const NodeId n = 300;
  const std::uint32_t m = 3;
  Graph g = gen::BarabasiAlbert(n, m, rng);
  EXPECT_EQ(g.NumNodes(), n);
  // Seed clique (m+1 choose 2) + m per subsequent node.
  EXPECT_EQ(g.NumEdges(), 6u + (n - m - 1) * m);
  EXPECT_TRUE(g.IsConnected());
  // Preferential attachment should produce a hub well above m.
  EXPECT_GT(g.MaxDegree(), 3 * m);
}

TEST(Generators, MatchingPlusIsolatedPaperShape) {
  // Theorem 1's family: n/4 disjoint edges + n/2 isolated nodes.
  Graph g = gen::MatchingPlusIsolated(16);
  EXPECT_EQ(g.NumNodes(), 16u);
  EXPECT_EQ(g.NumEdges(), 4u);
  EXPECT_EQ(g.MaxDegree(), 1u);
  NodeId isolated = 0;
  for (NodeId v = 0; v < 16; ++v) isolated += g.Degree(v) == 0;
  EXPECT_EQ(isolated, 8u);
}

TEST(Generators, MatchingPlusIsolatedSmall) {
  EXPECT_EQ(gen::MatchingPlusIsolated(3).NumEdges(), 0u);
  EXPECT_EQ(gen::MatchingPlusIsolated(4).NumEdges(), 1u);
}

TEST(Generators, PerfectMatching) {
  Graph g = gen::PerfectMatching(10);
  EXPECT_EQ(g.NumEdges(), 5u);
  for (NodeId v = 0; v < 10; ++v) EXPECT_EQ(g.Degree(v), 1u);
  EXPECT_THROW(gen::PerfectMatching(7), PreconditionError);
}

TEST(Generators, DisjointCliques) {
  Graph g = gen::DisjointCliques(4, 5);
  EXPECT_EQ(g.NumNodes(), 20u);
  EXPECT_EQ(g.NumEdges(), 4u * 10);
  std::vector<std::uint32_t> comp;
  EXPECT_EQ(g.ConnectedComponents(comp), 4u);
}

TEST(Generators, Caterpillar) {
  Graph g = gen::Caterpillar(4, 2);
  EXPECT_EQ(g.NumNodes(), 12u);
  EXPECT_EQ(g.NumEdges(), 3u + 8);
  EXPECT_TRUE(g.IsConnected());
  EXPECT_EQ(g.Degree(0), 3u);  // spine end: 1 spine + 2 legs
  EXPECT_EQ(g.Degree(1), 4u);  // spine middle
}

TEST(Generators, EmptyGenerator) {
  Graph g = gen::Empty(9);
  EXPECT_EQ(g.NumNodes(), 9u);
  EXPECT_EQ(g.NumEdges(), 0u);
}

// ---------------------------------------------------------------------------
// Byte-level pins. Each case hashes the full CSR (row offsets, adjacency,
// then Δ) with 64-bit FNV-1a, so any change to which edges a generator emits,
// to the row order, or to the construction path that lays them out fails
// here. The expected values were recorded from the earlier sort-based
// builder and binary-search G(n, p) decoder, so they also prove the current
// construction path produces the same bytes. The last three cases cross
// GraphBuilder::kParallelMinEdges and span several sampler blocks; their
// values were recorded from the serial per-draw sampler and single-threaded
// scatter, so they pin the block pipeline and the source-partitioned Build
// to the serial bytes.

std::uint64_t CsrHash(const Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  mix(g.RowOffsets().data(), g.RowOffsets().size_bytes());
  mix(g.Adjacency().data(), g.Adjacency().size_bytes());
  const std::uint32_t max_degree = g.MaxDegree();
  mix(&max_degree, sizeof(max_degree));
  return h;
}

/// Every second-or-third node of `g` in a seeded shuffled order, so
/// Induced() sees an unsorted selection.
std::vector<NodeId> ShuffledSelection(const Graph& g, Rng& rng) {
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    if (rng.UniformBelow(3) != 0) nodes.push_back(v);
  }
  for (std::size_t i = nodes.size(); i > 1; --i) {
    std::swap(nodes[i - 1], nodes[rng.UniformBelow(i)]);
  }
  return nodes;
}

/// The sweep's unit-disk shape (average degree 32) at n = 2^16.
Graph LargeUnitDisk(Rng& rng) {
  constexpr NodeId kN = 65536;
  return gen::RandomGeometric(kN, std::sqrt(32.0 / (M_PI * kN)), rng);
}

struct PinnedGraph {
  const char* name;
  std::function<Graph()> make;
  std::uint64_t hash;
};

TEST(Generators, CsrBytesArePinned) {
  const std::vector<PinnedGraph> cases = {
      {"er n=4096 p=0.01", [] { Rng r(101); return gen::ErdosRenyi(4096, 0.01, r); },
       0x238f65fa30a7fe15ULL},
      {"er n=300 p=0.5", [] { Rng r(102); return gen::ErdosRenyi(300, 0.5, r); },
       0x9e2ada3f0ece49caULL},
      {"udg n=3000 r=0.04", [] { Rng r(103); return gen::RandomGeometric(3000, 0.04, r); },
       0x3ae1591e133c1263ULL},
      {"udg n=500 r=0.2", [] { Rng r(104); return gen::RandomGeometric(500, 0.2, r); },
       0x5dba1a9665780ab2ULL},
      {"gnm n=2000 m=12000", [] { Rng r(105); return gen::GnM(2000, 12000, r); },
       0xdee739c91f0766caULL},
      {"ba n=2000 m=4", [] { Rng r(106); return gen::BarabasiAlbert(2000, 4, r); },
       0xb94b97392c47b648ULL},
      {"tree n=3000", [] { Rng r(107); return gen::RandomTree(3000, r); },
       0x74230ed364eec7d0ULL},
      {"regular n=2000 d=7", [] { Rng r(108); return gen::NearRegular(2000, 7, r); },
       0xdb63d8f1f7be55ecULL},
      {"grid 40x50", [] { return gen::Grid(40, 50); },
       0xe3c22155c247c0d9ULL},
      {"complete n=64", [] { return gen::Complete(64); },
       0x1c1848b71a3dc3aULL},
      {"udg square", [] { Rng r(109); return gen::RandomGeometric(1000, 0.05, r).Square(); },
       0xa8e267e3c50f017aULL},
      {"tree square", [] { Rng r(110); return gen::RandomTree(1000, r).Square(); },
       0x404460ad93096a15ULL},
      {"er induced", [] {
         Rng r(111);
         const Graph g = gen::ErdosRenyi(2000, 0.01, r);
         return g.Induced(ShuffledSelection(g, r)).graph;
       },
       0x19706d682690f5f6ULL},
      {"er n=65536 p=0.002", [] { Rng r(112); return gen::ErdosRenyi(65536, 0.002, r); },
       0xe514c5dd0d71284cULL},
      {"udg n=65536 r=sqrt(32/(pi n))", [] { Rng r(113); return LargeUnitDisk(r); },
       0xba86715a7be7dbbfULL},
      {"udg square n=4096 r=0.03",
       [] { Rng r(114); return gen::RandomGeometric(4096, 0.03, r).Square(); },
       0x9c6a3094c93c270fULL},
  };
  for (const PinnedGraph& c : cases) {
    const std::uint64_t actual = CsrHash(c.make());
    EXPECT_EQ(actual, c.hash) << c.name << ": got 0x" << std::hex << actual;
  }
}

TEST(Generators, SameBytesInlineAndDispatched) {
  // Each large case is generated on the main thread, where the sampler and
  // Build dispatch to the pool, and inside a pool worker, where the same
  // code runs inline. Bytes and the Rng state afterwards must agree.
  struct Case {
    const char* name;
    std::function<Graph(Rng&)> make;
  };
  const std::vector<Case> cases = {
      {"er n=65536 p=0.002", [](Rng& r) { return gen::ErdosRenyi(65536, 0.002, r); }},
      {"udg n=65536", [](Rng& r) { return LargeUnitDisk(r); }},
      {"udg square", [](Rng& r) { return gen::RandomGeometric(4096, 0.03, r).Square(); }},
  };
  for (const Case& c : cases) {
    Rng dispatched_rng(7), inline_rng(7);
    const std::uint64_t dispatched = CsrHash(c.make(dispatched_rng));
    std::uint64_t in_worker = 0;
    par::ParallelFor(2, 2, [&](std::uint64_t index, unsigned) {
      if (index == 0) in_worker = CsrHash(c.make(inline_rng));
    });
    EXPECT_EQ(dispatched, in_worker) << c.name;
    EXPECT_EQ(dispatched_rng.NextU64(), inline_rng.NextU64()) << c.name;
  }
}

/// The G(n, p) sampler as a plain per-draw loop — the reference the block
/// pipeline must reproduce draw for draw.
std::vector<Edge> PerDrawErdosRenyi(NodeId n, double p, Rng& rng) {
  std::vector<Edge> edges;
  if (n < 2 || p <= 0.0) return edges;
  if (p >= 1.0) {
    for (NodeId u = 0; u < n; ++u)
      for (NodeId v = u + 1; v < n; ++v) edges.push_back({u, v});
    return edges;
  }
  const double log1mp = std::log1p(-p);
  const std::uint64_t total = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  std::uint64_t pos = 0;
  NodeId row = 0;
  std::uint64_t row_begin = 0;
  std::uint64_t row_end = n - 1;
  for (;;) {
    const double u = std::max(rng.UniformUnit(), 1e-300);
    const double skip = std::log(u) / log1mp;
    if (skip >= static_cast<double>(total - pos)) return edges;
    pos += static_cast<std::uint64_t>(skip);
    if (pos >= total) return edges;
    while (pos >= row_end) {
      ++row;
      row_begin = row_end;
      row_end += n - 1 - row;
    }
    edges.push_back({row, static_cast<NodeId>(row + 1 + (pos - row_begin))});
    ++pos;
    if (pos >= total) return edges;
  }
}

void ExpectMatchesPerDrawLoop(NodeId n, double p, std::uint64_t seed) {
  Rng reference_rng(seed), rng(seed);
  const std::vector<Edge> expected = PerDrawErdosRenyi(n, p, reference_rng);
  EXPECT_EQ(gen::ErdosRenyi(n, p, rng).EdgeList(), expected)
      << "n=" << n << " p=" << p << " seed=" << seed;
  EXPECT_EQ(reference_rng.NextU64(), rng.NextU64())
      << "RNG streams diverged: n=" << n << " p=" << p << " seed=" << seed;
}

TEST(Generators, SamplerMatchesPerDrawLoop) {
  const double almost_one = 1.0 - 0x1p-40;  // every gap rounds down to 0
  // Stops inside the first chunk, and degenerate sizes.
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    for (const NodeId n : {0u, 1u, 2u, 30u}) {
      for (const double p : {0.0, 0.3, almost_one, 1.0}) ExpectMatchesPerDrawLoop(n, p, seed);
    }
  }
  // p so small that every gap is >= 2^52: no chunk passes the exactness
  // test, so the whole run is the exact tail (here: one draw, no edge).
  ExpectMatchesPerDrawLoop(5000, 1e-18, 3);
  ExpectMatchesPerDrawLoop(300, almost_one, 4);
  // Stops several blocks in, on and off the pool.
  for (const auto& [n, p] : std::vector<std::pair<NodeId, double>>{
           {1000, 0.01}, {1000, 0.5}, {5000, 0.01}, {16384, 0.002}}) {
    ExpectMatchesPerDrawLoop(n, p, 5);
  }
  // With p = 1 - 2^-40 every draw emits the next pair, so the run consumes
  // exactly total = n(n-1)/2 draws. n = 2048 ends it exactly at a chunk
  // boundary; n = 2047 on the first draw of a chunk.
  static_assert(2048ULL * 2047 / 2 % gen::kSamplerChunkDraws == 0);
  static_assert(2047ULL * 2046 / 2 % gen::kSamplerChunkDraws == 1);
  for (const NodeId n : {2048u, 2047u}) {
    ExpectMatchesPerDrawLoop(n, almost_one, 6);
    Rng rng(6);
    EXPECT_EQ(gen::ErdosRenyi(n, almost_one, rng).NumEdges(),
              static_cast<std::uint64_t>(n) * (n - 1) / 2);
  }
}

}  // namespace
}  // namespace emis
