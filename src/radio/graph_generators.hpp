// Topology generators for experiments and tests.
//
// Every generator is deterministic given its Rng. Families marked (paper) are
// the ones the paper's analysis singles out; the rest give coverage of
// regimes that stress different parts of the algorithms (dense collision
// behaviour, deep BFS layers, isolated nodes, geometric locality, ...).
#pragma once

#include "radio/graph.hpp"
#include "radio/rng.hpp"

namespace emis::gen {

/// Erdős–Rényi G(n, p): each pair is an edge independently with prob. p.
/// Skip-sampled (one uniform draw per edge, plus the draw that ends it) and
/// pipelined over the shared pool in blocks of kSamplerChunkDraws-draw
/// chunks; the graph and the Rng state afterwards are those of a plain
/// per-draw loop at any job count (graph_generators.cpp, DESIGN.md §2.1).
Graph ErdosRenyi(NodeId n, double p, Rng& rng);

/// Draws per chunk of the G(n, p) sampler's block pipeline: the unit its
/// gap, exactness-test and decode passes work in.
inline constexpr std::uint64_t kSamplerChunkDraws = 1024;

/// G(n, m): exactly m distinct uniform edges. Requires m <= n(n-1)/2.
Graph GnM(NodeId n, std::uint64_t m, Rng& rng);

/// Random geometric / unit-disk graph: n points uniform in the unit square,
/// edge iff Euclidean distance <= radius. The classic ad-hoc sensor layout.
/// Points are counting-sorted into grid cells; each node's upper neighbours
/// are emitted in ascending order, so Build() finds every row sorted.
Graph RandomGeometric(NodeId n, double radius, Rng& rng);

/// Two-dimensional grid of rows x cols nodes (4-neighborhood).
Graph Grid(NodeId rows, NodeId cols);

Graph Path(NodeId n);
Graph Cycle(NodeId n);

/// Star: node 0 is the hub adjacent to all others. Worst case for collision
/// handling at a single receiver.
Graph Star(NodeId n);

Graph Complete(NodeId n);
Graph CompleteBipartite(NodeId left, NodeId right);

/// Uniform random labeled tree (random Prüfer sequence). Requires n >= 1.
Graph RandomTree(NodeId n, Rng& rng);

/// Random d-regular-ish graph via pairing with rejection of conflicts; some
/// nodes may end with degree < d when the pairing stalls (documented, rare).
Graph NearRegular(NodeId n, std::uint32_t d, Rng& rng);

/// Barabási–Albert preferential attachment: each new node attaches m edges.
/// Heavy-tailed degrees — exercises large-Δ, small-average-degree behaviour.
Graph BarabasiAlbert(NodeId n, std::uint32_t m, Rng& rng);

/// (paper, Theorem 1) The lower-bound family: ⌊n/4⌋ disjoint edges plus the
/// remaining n - 2⌊n/4⌋ isolated nodes. Every isolated node must join the
/// MIS; every matched pair must break its tie.
Graph MatchingPlusIsolated(NodeId n);

/// A perfect matching on n nodes (n even): n/2 disjoint edges.
Graph PerfectMatching(NodeId n);

/// `count` disjoint cliques of `size` nodes each. High collision stress with
/// known MIS size (= count).
Graph DisjointCliques(NodeId count, NodeId size);

/// Caterpillar: a path spine of `spine` nodes, each with `legs` pendant
/// leaves. Mixes degree-1 and higher-degree nodes.
Graph Caterpillar(NodeId spine, NodeId legs);

/// n isolated nodes, no edges.
Graph Empty(NodeId n);

}  // namespace emis::gen
