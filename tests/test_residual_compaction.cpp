// Residual-graph compaction: per-round channel cost must track live edges
// while staying invisible to the radio semantics. Properties checked here:
//   * ResidualGraph bookkeeping — live degrees/edges, the half-dead row
//     compaction trigger, stable (sorted) scan-row order, retire-twice
//     rejection;
//   * RetireBatch (walk and rebuild) against a sequential reference (the
//     per-node retire walk): after every batch, on random ER/UDG/star/path
//     graphs, random batches, random row-owner cuts of 1-8 parts (empty
//     parts included) and 1 or 4 jobs, aliveness, live degrees and edges
//     and every live scan row's live entries agree, scan rows stay sorted
//     with dead <= live entries inside the seed CSR or the overlay (<= m
//     entries), and two cuts / job counts leave bit-equal row metadata;
//     the walk/rebuild rule at and above equality; a mapped CSR is never
//     written;
//   * ResolveDirection (the accounting model) in isolation — it takes the
//     strictly cheaper side and breaks ties toward push — and
//     PhysicalDirection (the scan the channel runs): pull when sharded, the
//     accounting choice on a lossy channel, else push iff the transmit side
//     is under a quarter of the listen side;
//   * the scheduler's cost model sums *live* degrees once nodes retire
//     (companion to test_channel_direction's pull-side accounting test);
//   * the overlay never changes a reception: after every random
//     RetireBatch (walk and rebuild, cuts of 1 and 4 parts) on G(n, p) and
//     UDG graphs, a Channel scanning the overlay and a plain Channel
//     scanning the seed rows resolve random rounds among the still-active
//     nodes identically, for CD, no-CD and beeping, push and pull, loss 0
//     and 0.3;
//   * RunMis receptions, decisions and energy are pinned across loss
//     {0, 0.3} (golden trace hashes);
//   * the payload tie-break contract: a reception's payload is observable
//     only when exactly one transmitter survives; >= 2 survivors perceive as
//     collision/silence/beep with payload 0, on seed and compacted rows
//     alike, in both directions;
//   * retirement lifecycle — a retired node that transmits or listens trips
//     an invariant, finishing implies retirement (ActiveCount reaches 0),
//     and retiring is still legal (sleep + finish) afterwards;
//   * parallel sweeps stay bit-identical across job counts;
//   * the graph.compactions / graph.edges_reclaimed / chan.live_edges
//     telemetry lands in the caller's MetricsRegistry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "contract_mode_guard.hpp"
#include "core/contracts.hpp"
#include "core/runner.hpp"
#include "obs/metrics.hpp"
#include "radio/channel.hpp"
#include "radio/graph.hpp"
#include "radio/graph_generators.hpp"
#include "radio/graph_io.hpp"
#include "radio/scheduler.hpp"
#include "radio/trace.hpp"
#include "trace_hash.hpp"
#include "verify/experiment.hpp"

namespace emis {
namespace {

// --- ResidualGraph unit tests ---------------------------------------------

TEST(ResidualGraph, TracksLiveDegreesAndEdges) {
  const Graph g = gen::Star(5);  // hub 0, leaves 1..4
  ResidualGraph r(g);
  EXPECT_EQ(r.ActiveCount(), 5u);
  EXPECT_EQ(r.LiveEdges(), g.NumEdges());  // undirected live-edge count
  EXPECT_EQ(r.LiveDegree(0), 4u);
  EXPECT_EQ(r.LiveDegree(1), 1u);
  EXPECT_TRUE(r.Active(3));

  r.Retire(1);
  EXPECT_FALSE(r.Active(1));
  EXPECT_EQ(r.ActiveCount(), 4u);
  EXPECT_EQ(r.LiveDegree(0), 3u);
  EXPECT_EQ(r.LiveDegree(1), 0u);
  // The hub--leaf edge died with its first endpoint.
  EXPECT_EQ(r.LiveEdges(), 3u);
  EXPECT_TRUE(r.ScanRow(1).empty());
}

TEST(ResidualGraph, CompactsRowOnceHalfDead) {
  const Graph g = gen::Star(5);  // hub row: [1, 2, 3, 4]
  ResidualGraph r(g);

  // One dead entry out of four: the prefix keeps the dead slot (a scan
  // skips it), no compaction yet.
  r.Retire(2);
  EXPECT_EQ(r.Compactions(), 0u);
  ASSERT_EQ(r.ScanRow(0).size(), 4u);

  // Second death crosses the half-dead threshold: the hub row compacts in
  // place to exactly its live neighbors, preserving sorted CSR order.
  r.Retire(4);
  EXPECT_EQ(r.Compactions(), 1u);
  const std::span<const NodeId> row = r.ScanRow(0);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0], 1u);
  EXPECT_EQ(row[1], 3u);
  EXPECT_EQ(r.LiveDegree(0), 2u);
  EXPECT_GE(r.EdgesReclaimed(), 2u);
}

TEST(ResidualGraph, ScanRowPrefixCoversLiveNeighborsInOrder) {
  Rng rng(99);
  const Graph g = gen::ErdosRenyi(48, 0.2, rng);
  ResidualGraph r(g);
  // Retire every third node and keep checking the overlay's core invariant:
  // each scan row is a sorted supersequence of the live neighborhood.
  for (NodeId v = 0; v < g.NumNodes(); v += 3) r.Retire(v);
  std::uint64_t live_edges = 0;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    if (!r.Active(v)) continue;
    std::vector<NodeId> live;
    for (NodeId w : g.Neighbors(v)) {
      if (r.Active(w)) live.push_back(w);
    }
    std::vector<NodeId> scanned;
    for (NodeId w : r.ScanRow(v)) {
      if (r.Active(w)) scanned.push_back(w);
    }
    EXPECT_EQ(scanned, live) << "node " << v;
    EXPECT_EQ(r.LiveDegree(v), live.size()) << "node " << v;
    live_edges += live.size();
  }
  // Each undirected live edge was counted from both endpoints.
  EXPECT_EQ(r.LiveEdges(), live_edges / 2);
}

TEST(ResidualGraph, RetireTwiceThrows) {
  const Graph g = gen::Path(3);
  ResidualGraph r(g);
  r.Retire(1);
  EXPECT_THROW(r.Retire(1), PreconditionError);
  EXPECT_THROW(r.Retire(3), PreconditionError);  // out of range
}

// --- RetireBatch vs the sequential per-node walk --------------------------

/// The per-node retire walk RetireBatch replaced, kept as the reference: one
/// node at a time, decrement each live neighbor, compact a neighbor's row in
/// place once half of it is dead.
class SequentialResidual {
 public:
  explicit SequentialResidual(const Graph& g)
      : begin_(g.NumNodes()), scan_len_(g.NumNodes()), live_degree_(g.NumNodes()),
        active_(g.NumNodes(), true), live_edges_(g.NumEdges()) {
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      const auto nbrs = g.Neighbors(v);
      begin_[v] = adjacency_.size();
      scan_len_[v] = live_degree_[v] = static_cast<std::uint32_t>(nbrs.size());
      adjacency_.insert(adjacency_.end(), nbrs.begin(), nbrs.end());
    }
  }

  void Retire(NodeId v) {
    active_[v] = false;
    live_edges_ -= live_degree_[v];
    for (std::uint32_t i = 0; i < scan_len_[v]; ++i) {
      const NodeId w = adjacency_[begin_[v] + i];
      if (!active_[w]) continue;
      --live_degree_[w];
      if (live_degree_[w] * 2ULL <= scan_len_[w]) CompactRow(w);
    }
    edges_reclaimed_ += scan_len_[v];
    scan_len_[v] = 0;
    live_degree_[v] = 0;
  }

  std::vector<NodeId> ScanRow(NodeId v) const {
    const auto first = adjacency_.begin() + static_cast<std::ptrdiff_t>(begin_[v]);
    return {first, first + scan_len_[v]};
  }
  std::uint32_t ScanLen(NodeId v) const { return scan_len_[v]; }
  std::uint32_t LiveDegree(NodeId v) const { return live_degree_[v]; }
  bool Active(NodeId v) const { return active_[v]; }
  NodeId ActiveCount() const {
    return static_cast<NodeId>(std::count(active_.begin(), active_.end(), true));
  }
  std::uint64_t LiveEdges() const { return live_edges_; }
  std::uint64_t Compactions() const { return compactions_; }
  std::uint64_t EdgesReclaimed() const { return edges_reclaimed_; }

 private:
  void CompactRow(NodeId w) {
    std::uint32_t out = 0;
    for (std::uint32_t i = 0; i < scan_len_[w]; ++i) {
      const NodeId u = adjacency_[begin_[w] + i];
      if (active_[u]) adjacency_[begin_[w] + out++] = u;
    }
    edges_reclaimed_ += scan_len_[w] - out;
    scan_len_[w] = out;
    ++compactions_;
  }

  std::vector<std::uint64_t> begin_;
  std::vector<std::uint32_t> scan_len_;
  std::vector<std::uint32_t> live_degree_;
  std::vector<bool> active_;
  std::vector<NodeId> adjacency_;
  std::uint64_t live_edges_ = 0;
  std::uint64_t compactions_ = 0;
  std::uint64_t edges_reclaimed_ = 0;
};

/// A row's RowMeta with its pointer made relative — the row's own seed CSR
/// row, or an offset into the overlay — so two residuals over one graph
/// compare bit for bit.
struct RowState {
  int where = 0;             // 0: the seed CSR row, 1: the overlay
  std::uint64_t offset = 0;  // into the overlay
  std::uint32_t scan_len = 0;
  std::uint32_t live_degree = 0;
  friend bool operator==(const RowState&, const RowState&) = default;
};

RowState StateOf(const ResidualGraph& r, const Graph& g, NodeId v) {
  const std::span<const NodeId> row = r.ScanRow(v);
  const std::span<const NodeId> overlay = r.Overlay();
  if (row.data() == g.Neighbors(v).data()) {
    return {0, 0, static_cast<std::uint32_t>(row.size()), r.LiveDegree(v)};
  }
  // Not on the seed row: inside the overlay's packed prefix.
  const auto offset = static_cast<std::uint64_t>(row.data() - overlay.data());
  EXPECT_TRUE(row.data() >= overlay.data() && offset + row.size() <= overlay.size())
      << "node " << v << " scan row outside the overlay";
  return {1, offset, static_cast<std::uint32_t>(row.size()), r.LiveDegree(v)};
}

/// Checks `got` against the sequential walk at the level every batch keeps
/// exact — aliveness, live degrees and edges, and each live scan row's live
/// subsequence — plus the row invariants: scan rows strictly ascending,
/// dead entries never more than live ones, a row on the seed CSR at its
/// full degree, a shrunk row of at most ⌊deg/2⌋ entries inside the
/// overlay, which never outgrows NumEdges() entries.
void ExpectSameState(const ResidualGraph& got, const Graph& g,
                     const SequentialResidual& want, const std::string& where) {
  ASSERT_LE(got.Overlay().size(), g.NumEdges()) << where;
  for (NodeId v = 0; v < got.NumNodes(); ++v) {
    ASSERT_EQ(got.Active(v), want.Active(v)) << where << " node " << v;
    ASSERT_EQ(got.LiveDegree(v), want.LiveDegree(v)) << where << " node " << v;
    const std::span<const NodeId> row = got.ScanRow(v);
    if (!got.Active(v)) {
      ASSERT_TRUE(row.empty()) << where << " node " << v;
      continue;
    }
    const RowState state = StateOf(got, g, v);
    if (state.where == 0) {
      ASSERT_EQ(row.size(), g.Degree(v)) << where << " node " << v;
    } else {
      ASSERT_LE(row.size(), g.Degree(v) / 2) << where << " node " << v;
    }
    ASSERT_TRUE(std::adjacent_find(row.begin(), row.end(), std::greater_equal<>()) ==
                row.end())
        << where << " node " << v << " scan row not strictly ascending";
    std::vector<NodeId> live;
    for (const NodeId w : row) {
      if (got.Active(w)) live.push_back(w);
    }
    std::vector<NodeId> want_live;
    for (const NodeId w : want.ScanRow(v)) {
      if (want.Active(w)) want_live.push_back(w);
    }
    ASSERT_EQ(live, want_live) << where << " node " << v;
    ASSERT_LE(row.size() - live.size(), live.size()) << where << " node " << v;
  }
  ASSERT_EQ(got.LiveEdges(), want.LiveEdges()) << where;
  ASSERT_EQ(got.ActiveCount(), want.ActiveCount()) << where;
}

/// Every RowMeta and counter of two residuals over `g`, bit for bit.
void ExpectBitEqual(const ResidualGraph& a, const ResidualGraph& b, const Graph& g,
                    const std::string& where) {
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    ASSERT_EQ(a.Active(v), b.Active(v)) << where << " node " << v;
    ASSERT_TRUE(StateOf(a, g, v) == StateOf(b, g, v)) << where << " node " << v;
  }
  ASSERT_EQ(a.LiveEdges(), b.LiveEdges()) << where;
  ASSERT_EQ(a.Compactions(), b.Compactions()) << where;
  ASSERT_EQ(a.EdgesReclaimed(), b.EdgesReclaimed()) << where;
  ASSERT_EQ(a.Rebuilds(), b.Rebuilds()) << where;
}

/// A random row-owner cut of 1-8 parts: sorted boundaries drawn with
/// repeats, so some parts are empty.
std::vector<NodeId> RandomCut(NodeId n, Rng& rng) {
  const auto parts = static_cast<unsigned>(1 + rng.UniformBelow(8));
  std::vector<NodeId> cut = {0, n};
  for (unsigned p = 1; p < parts; ++p) {
    cut.push_back(static_cast<NodeId>(rng.UniformBelow(std::uint64_t{n} + 1)));
  }
  std::sort(cut.begin(), cut.end());
  return cut;
}

struct BranchCounts {
  std::uint64_t walks = 0;
  std::uint64_t rebuilds = 0;
};

/// The nodes of `g` in a random order (Fisher-Yates on `rng`).
std::vector<NodeId> ShuffledNodes(const Graph& g, Rng& rng) {
  std::vector<NodeId> order(g.NumNodes());
  for (NodeId v = 0; v < g.NumNodes(); ++v) order[v] = v;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.UniformBelow(i)]);
  }
  return order;
}

/// Retires every node of `g` in a random order, cut into random batches
/// (sometimes single nodes, sometimes half or all of the graph), each
/// applied to two residuals under two fresh random cuts at jobs `jobs` and
/// 1, checking both against the sequential walk and each other after every
/// batch.
BranchCounts CheckRandomBatches(const Graph& g, std::uint64_t seed, unsigned jobs,
                                const std::string& name) {
  Rng rng(seed);
  const std::vector<NodeId> order = ShuffledNodes(g, rng);
  ResidualGraph batched(g);
  ResidualGraph twin(g);
  SequentialResidual reference(g);
  BranchCounts counts;
  std::size_t next = 0;
  int batch_index = 0;
  while (next < order.size()) {
    // A batch of every node left, of about half of them (pends more than
    // the survivors hold, so it is rebuilt around them), or of 1-40 nodes.
    const std::size_t left = order.size() - next;
    const std::uint64_t shape = rng.UniformBelow(10);
    const std::size_t size =
        shape < 2   ? left
        : shape < 4 ? 1 + left / 2
                    : 1 + rng.UniformBelow(std::min<std::size_t>(left, 40));
    const std::span<const NodeId> batch(order.data() + next, size);
    const std::vector<NodeId> cut = RandomCut(g.NumNodes(), rng);
    const std::uint64_t rebuilds_before = batched.Rebuilds();
    batched.RetireBatch(batch, cut, jobs);
    twin.RetireBatch(batch, RandomCut(g.NumNodes(), rng), 1);
    (batched.Rebuilds() > rebuilds_before ? counts.rebuilds : counts.walks) += 1;
    for (const NodeId v : batch) reference.Retire(v);
    next += size;
    const std::string where = name + " jobs " + std::to_string(jobs) + " batch " +
                              std::to_string(batch_index++) + " parts " +
                              std::to_string(cut.size() - 1);
    ExpectSameState(batched, g, reference, where);
    ExpectBitEqual(batched, twin, g, where);
    if (::testing::Test::HasFatalFailure()) return counts;
  }
  EXPECT_EQ(batched.ActiveCount(), 0u) << name;
  EXPECT_EQ(batched.LiveEdges(), 0u) << name;
  EXPECT_EQ(batched.EdgesReclaimed(), 2 * g.NumEdges()) << name;
  return counts;
}

TEST(RetireBatch, MatchesSequentialWalkOnRandomGraphsBatchesAndCuts) {
  BranchCounts total;
  for (unsigned jobs : {1u, 4u}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      Rng rng(seed * 7919);
      for (const auto& [graph, name] :
           {std::pair{gen::ErdosRenyi(120, 0.15, rng), "er"},
            std::pair{gen::RandomGeometric(150, 0.2, rng), "udg"},
            std::pair{gen::Star(90), "star"}, std::pair{gen::Path(70), "path"}}) {
        const BranchCounts counts = CheckRandomBatches(graph, seed, jobs, name);
        total.walks += counts.walks;
        total.rebuilds += counts.rebuilds;
      }
    }
  }
  // Both branches ran, many times over.
  EXPECT_GT(total.walks, 100u);
  EXPECT_GT(total.rebuilds, 10u);
}

TEST(RetireBatch, WholeGraphBatchRebuilds) {
  Rng rng(404);
  const Graph g = gen::ErdosRenyi(200, 0.1, rng);
  std::vector<NodeId> all(g.NumNodes());
  for (NodeId v = 0; v < g.NumNodes(); ++v) all[v] = (v * 37) % g.NumNodes();
  ResidualGraph batched(g);
  SequentialResidual reference(g);
  const NodeId cut[] = {0, 50, 50, 120, g.NumNodes()};
  batched.RetireBatch(all, cut, 4);
  for (const NodeId v : all) reference.Retire(v);
  EXPECT_EQ(batched.Rebuilds(), 1u);
  ExpectSameState(batched, g, reference, "whole graph");
  EXPECT_EQ(batched.ActiveCount(), 0u);
  EXPECT_EQ(batched.LiveEdges(), 0u);
  EXPECT_EQ(batched.EdgesReclaimed(), 2 * g.NumEdges());
}

TEST(RetireBatch, RuleWalksAtEqualityAndRebuildsAboveIt) {
  // Star(5): the hub's row is 4 of the 8 scan entries, so retiring it alone
  // pends exactly as many entries as the survivors hold — a walk; with one
  // leaf more it pends 5 against 3 — a rebuild. Path(4) (rows 1, 2, 2, 1):
  // {1, 3} pends 3 against 3, {1, 2} pends 4 against 2.
  struct Case {
    Graph graph;
    std::vector<NodeId> batch;
    std::uint64_t rebuilds;
  };
  const Case cases[] = {{gen::Star(5), {0}, 0},
                        {gen::Star(5), {0, 1}, 1},
                        {gen::Path(4), {1, 3}, 0},
                        {gen::Path(4), {1, 2}, 1}};
  for (const Case& c : cases) {
    const std::string where =
        "n " + std::to_string(c.graph.NumNodes()) + " batch of " +
        std::to_string(c.batch.size());
    ResidualGraph batched(c.graph);
    SequentialResidual reference(c.graph);
    const NodeId whole[] = {0, c.graph.NumNodes()};
    batched.RetireBatch(c.batch, whole, 1);
    for (const NodeId v : c.batch) reference.Retire(v);
    EXPECT_EQ(batched.Rebuilds(), c.rebuilds) << where;
    ExpectSameState(batched, c.graph, reference, where);
  }
}

TEST(RetireBatch, RebuildMovesOnlyRowsPastTheHalfTrigger) {
  // Star(9) minus its hub and two leaves, in one rebuilt batch: every
  // remaining leaf's row {0} is all dead and moves to its (empty) slot.
  const Graph star = gen::Star(9);
  ResidualGraph r(star);
  const NodeId whole[] = {0, 9};
  const std::vector<NodeId> batch = {0, 1, 2};
  r.RetireBatch(batch, whole, 1);
  ASSERT_EQ(r.Rebuilds(), 1u);
  for (NodeId v = 3; v < 9; ++v) {
    EXPECT_EQ(StateOf(r, star, v), (RowState{1, 0, 0, 0})) << "leaf " << v;
  }
  EXPECT_EQ(r.Compactions(), 6u);
  EXPECT_EQ(r.EdgesReclaimed(), 8u + 1 + 1 + 6);

  // A K_5 (nodes 0-4) whose members all also neighbor hub 5, which has 30
  // more leaves (6-35). Retiring the hub with its leaves pends 65 entries
  // against the clique's 25, so the batch is rebuilt — but each clique row
  // keeps 4 live of 5 entries, above ½, so it stays on the seed CSR with
  // its live degree set exactly.
  std::vector<Edge> edges;
  for (NodeId u = 0; u < 5; ++u) {
    for (NodeId v = u + 1; v < 6; ++v) edges.push_back({u, v});
  }
  for (NodeId leaf = 6; leaf < 36; ++leaf) edges.push_back({5, leaf});
  const Graph g = Graph::FromEdges(36, edges);
  ResidualGraph k(g);
  SequentialResidual reference(g);
  std::vector<NodeId> hub_and_leaves;
  for (NodeId v = 5; v < 36; ++v) hub_and_leaves.push_back(v);
  const NodeId parts[] = {0, 3, 36};
  k.RetireBatch(hub_and_leaves, parts, 2);
  for (const NodeId v : hub_and_leaves) reference.Retire(v);
  ASSERT_EQ(k.Rebuilds(), 1u);
  ExpectSameState(k, g, reference, "clique beside a hub");
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_EQ(StateOf(k, g, v), (RowState{0, 0, 5, 4})) << "clique node " << v;
  }
  EXPECT_EQ(k.Compactions(), 0u);
  EXPECT_EQ(k.EdgesReclaimed(), 65u);
  EXPECT_EQ(k.LiveEdges(), 10u);
}

TEST(RetireBatch, HubRetiredWithAllItsLeaves) {
  // The hub's row spans every other node, so every part of every cut holds
  // a slice of it; the leaves' rows are one entry each, the hub's.
  const Graph g = gen::Star(33);
  std::vector<NodeId> leaves_then_hub;
  for (NodeId v = 1; v < 33; ++v) leaves_then_hub.push_back(v);
  leaves_then_hub.push_back(0);
  std::vector<NodeId> hub_then_leaves = {0};
  for (NodeId v = 1; v < 33; ++v) hub_then_leaves.push_back(v);
  std::vector<NodeId> hub_in_middle = leaves_then_hub;
  std::rotate(hub_in_middle.begin() + 16, hub_in_middle.end() - 1, hub_in_middle.end());
  for (const auto& batch : {leaves_then_hub, hub_then_leaves, hub_in_middle}) {
    for (const std::vector<NodeId>& cut :
         {std::vector<NodeId>{0, 33}, std::vector<NodeId>{0, 1, 17, 33},
          std::vector<NodeId>{0, 0, 5, 5, 20, 33, 33}}) {
      ResidualGraph batched(g);
      SequentialResidual reference(g);
      batched.RetireBatch(batch, cut, 4);
      for (const NodeId v : batch) reference.Retire(v);
      ExpectSameState(batched, g, reference, "star hub at " + std::to_string(
          std::find(batch.begin(), batch.end(), 0u) - batch.begin()));
    }
  }
}

TEST(RetireBatch, MembersCompactEachOthersRowsBeforeRetiring) {
  // A K_12 beside a K_20: retiring 7 of the K_12's members pends 77 of 512
  // scan entries, so the batch is walked, and it crosses the half-dead
  // trigger of every later member's row before that member's own turn:
  // those compactions must count exactly as the sequential walk does. The
  // survivors' rows move to the overlay with the batch's last deaths
  // reclaimed, so the scan rows hold exactly the live entries.
  std::vector<Edge> edges;
  for (NodeId u = 0; u < 32; ++u) {
    for (NodeId v = u + 1; v < (u < 12 ? 12u : 32u); ++v) edges.push_back({u, v});
  }
  const Graph g = Graph::FromEdges(32, edges);
  const std::vector<NodeId> batch = {3, 7, 0, 11, 5, 9, 1};
  for (const std::vector<NodeId>& cut :
       {std::vector<NodeId>{0, 32}, std::vector<NodeId>{0, 4, 8, 12, 32},
        std::vector<NodeId>{0, 1, 2, 3, 5, 8, 12, 12, 32}}) {
    ResidualGraph batched(g);
    SequentialResidual reference(g);
    batched.RetireBatch(batch, cut, 4);
    for (const NodeId v : batch) reference.Retire(v);
    ASSERT_EQ(batched.Rebuilds(), 0u);
    ExpectSameState(batched, g, reference, "clique parts " + std::to_string(cut.size() - 1));
    EXPECT_GT(reference.Compactions(), 0u);
    EXPECT_EQ(batched.Compactions(), reference.Compactions());
    for (NodeId v = 0; v < 12; ++v) {
      if (batched.Active(v)) {
        EXPECT_EQ(batched.ScanRow(v).size(), 4u) << "node " << v;  // 4 live
      }
    }
  }
}

TEST(RetireBatch, NodeTwiceInOneBatchThrowsAndRetiresNothing) {
  const Graph g = gen::Star(9);
  ResidualGraph batched(g);
  const std::vector<NodeId> batch = {2, 0, 5, 0, 7};
  const NodeId whole[] = {0, 9};
  try {
    batched.RetireBatch(batch, whole, 1);
    ADD_FAILURE() << "duplicate batch member accepted";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("node retired twice"), std::string::npos)
        << e.what();
  }
  ExpectSameState(batched, g, SequentialResidual(g), "after rejected batch");
  const std::vector<NodeId> out_of_range = {1, 9};
  EXPECT_THROW(batched.RetireBatch(out_of_range, whole, 1), PreconditionError);
  ExpectSameState(batched, g, SequentialResidual(g), "after out-of-range batch");
}

TEST(RetireBatch, MappedGraphIsReadNeverWritten) {
  // Over a mapped CSR, rows read the file until they first shrink, and
  // neither branch writes it: the mapping's bytes after every node retired
  // equal a copy taken before.
  Rng rng(77);
  const Graph owned = gen::ErdosRenyi(300, 0.08, rng);
  const std::string path = ::testing::TempDir() + "/residual_mapped.csr";
  {
    std::ofstream out(path, std::ios::binary);
    WriteBinaryCsr(out, owned);
  }
  const Graph g = MapBinaryCsr(path);
  const std::vector<NodeId> before(g.Adjacency().begin(), g.Adjacency().end());
  ResidualGraph r(g);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    ASSERT_EQ(r.ScanRow(v).data(), g.Neighbors(v).data()) << "node " << v;
  }
  SequentialResidual reference(g);
  Rng order_rng(78);
  NodeId next = 0;
  while (next < g.NumNodes()) {
    const NodeId size = std::min<NodeId>(
        g.NumNodes() - next, 1 + static_cast<NodeId>(order_rng.UniformBelow(60)));
    std::vector<NodeId> batch(size);
    for (NodeId i = 0; i < size; ++i) batch[i] = next + i;
    const std::vector<NodeId> cut = RandomCut(g.NumNodes(), order_rng);
    r.RetireBatch(batch, cut, 4);
    for (const NodeId v : batch) reference.Retire(v);
    ExpectSameState(r, g, reference, "mapped, " + std::to_string(next));
    next += size;
  }
  EXPECT_GT(r.Rebuilds(), 0u);
  EXPECT_GT(r.Compactions(), r.Rebuilds());
  EXPECT_TRUE(std::equal(before.begin(), before.end(), g.Adjacency().begin()));
}

// --- ResolveDirection / PhysicalDirection in isolation --------------------

TEST(ResolveDirection, TakesCheaperSideTiesToPush) {
  EXPECT_EQ(ResolveDirection(10, 3), ChannelDirection::kPull);
  EXPECT_EQ(ResolveDirection(3, 10), ChannelDirection::kPush);
  EXPECT_EQ(ResolveDirection(7, 7), ChannelDirection::kPush);
  EXPECT_EQ(ResolveDirection(0, 0), ChannelDirection::kPush);
}

TEST(PhysicalDirection, ShardedRoundsAlwaysPull) {
  // Stamping is shard-local, so a sharded round resolves pull-side even
  // where one shard would push.
  for (const bool lossy : {false, true}) {
    EXPECT_EQ(PhysicalDirection(2, lossy, 1, 1000), ChannelDirection::kPull);
    EXPECT_EQ(PhysicalDirection(4, lossy, 0, 0), ChannelDirection::kPull);
  }
}

TEST(PhysicalDirection, LossyRoundsFollowTheAccountingModel) {
  EXPECT_EQ(PhysicalDirection(1, true, 3, 10), ChannelDirection::kPush);
  EXPECT_EQ(PhysicalDirection(1, true, 7, 7), ChannelDirection::kPush);
  EXPECT_EQ(PhysicalDirection(1, true, 10, 3), ChannelDirection::kPull);
  // 3 * 4 >= 10: the loss-free rule would pull here.
  EXPECT_EQ(PhysicalDirection(1, false, 3, 10), ChannelDirection::kPull);
}

TEST(PhysicalDirection, LossFreePushesOnlyBelowAQuarter) {
  // 4 * tx < listen, strictly: 24 / 100 pushes, 25 / 100 pulls.
  EXPECT_EQ(PhysicalDirection(1, false, 24, 100), ChannelDirection::kPush);
  EXPECT_EQ(PhysicalDirection(1, false, 25, 100), ChannelDirection::kPull);
  EXPECT_EQ(PhysicalDirection(1, false, 25, 101), ChannelDirection::kPush);
  EXPECT_EQ(PhysicalDirection(1, false, 0, 1), ChannelDirection::kPush);
  EXPECT_EQ(PhysicalDirection(1, false, 0, 0), ChannelDirection::kPull);
}

// --- Scheduler cost model on live degrees ---------------------------------

proc::Task<void> TransmitEachRound(NodeApi api, int rounds) {
  for (int i = 0; i < rounds; ++i) co_await api.Transmit(1);
}

proc::Task<void> ListenEachRound(NodeApi api, int rounds) {
  for (int i = 0; i < rounds; ++i) (void)co_await api.Listen();
}

proc::Task<void> FinishImmediately(NodeApi) { co_return; }

TEST(ResidualCompaction, CostModelSumsLiveDegrees) {
  // Star(64): the hub transmits, leaf 1 listens, leaves 2..63 finish at
  // spawn and are auto-retired. With the static cost model pull would win
  // (1 listener-degree-1 vs hub-degree-63); on live degrees the hub's
  // degree collapses to 1, the sums tie, and the round is accounted push.
  // test_channel_direction.cpp's AutoPullsWhenListenersAreCheap pins the
  // same star with its leaves asleep instead, so pull wins there.
  const Graph g = gen::Star(64);
  obs::MetricsRegistry metrics;
  Scheduler sched(g, {.metrics = &metrics}, 1);
  sched.Spawn([&](NodeApi api) -> proc::Task<void> {
    if (api.Id() == 0) return TransmitEachRound(api, 4);
    if (api.Id() == 1) return ListenEachRound(api, 4);
    return FinishImmediately(api);
  });
  sched.Run();
  EXPECT_EQ(metrics.GetCounter("chan.push_rounds").Value(), 4u);
  EXPECT_EQ(metrics.GetCounter("chan.pull_rounds").Value(), 0u);
}

// --- Reception equivalence: the overlay is invisible to the radio --------

/// Retires `g`'s nodes in random batches through RetireBatch on an even cut
/// of `parts` parts (a batch of every node left, of about half of them, or
/// of 1-20: walk and rebuild alike). After every batch, resolves a few
/// rounds per (model, direction, loss) — random transmitters with random
/// payloads and random listeners among the still-active nodes — on a
/// Channel scanning the overlay and on a plain Channel scanning the seed
/// rows, and requires every listener's reception and transmitting-neighbor
/// count to agree. Both channels of a pair begin the same rounds, so their
/// loss streams match. Adds the batches walked and rebuilt to `counts`.
void CheckReceptionsAgainstSeedRows(const Graph& g, std::uint64_t seed, unsigned parts,
                                    const std::string& name, BranchCounts& counts) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + parts);
  const std::vector<NodeId> order = ShuffledNodes(g, rng);
  std::vector<NodeId> cut;
  for (unsigned p = 0; p <= parts; ++p) {
    cut.push_back(static_cast<NodeId>(std::uint64_t{g.NumNodes()} * p / parts));
  }
  ResidualGraph residual(g);
  struct Pair {
    ChannelModel model;
    double loss;
    std::unique_ptr<Channel> attached;
    std::unique_ptr<Channel> plain;
  };
  std::vector<Pair> pairs;
  for (const ChannelModel model :
       {ChannelModel::kCd, ChannelModel::kNoCd, ChannelModel::kBeeping}) {
    for (const double loss : {0.0, 0.3}) {
      Pair pair{model, loss, std::make_unique<Channel>(g, model),
                std::make_unique<Channel>(g, model)};
      pair.attached->AttachResidual(&residual);
      if (loss > 0.0) {
        pair.attached->SetLoss(loss, seed);
        pair.plain->SetLoss(loss, seed);
      }
      pairs.push_back(std::move(pair));
    }
  }
  std::size_t next = 0;
  int batch_index = 0;
  while (next < order.size()) {
    const std::size_t left = order.size() - next;
    const std::uint64_t shape = rng.UniformBelow(16);
    const std::size_t size =
        shape < 1   ? left
        : shape < 3 ? 1 + left / 2
                    : 1 + rng.UniformBelow(std::min<std::size_t>(left, 20));
    const std::uint64_t rebuilds_before = residual.Rebuilds();
    residual.RetireBatch(std::span<const NodeId>(order.data() + next, size), cut, parts);
    (residual.Rebuilds() > rebuilds_before ? counts.rebuilds : counts.walks) += 1;
    next += size;
    for (Pair& pair : pairs) {
      for (const ChannelDirection dir : {ChannelDirection::kPush, ChannelDirection::kPull}) {
        for (int round = 0; round < 2; ++round) {
          std::vector<NodeId> listeners;
          pair.attached->BeginRound(dir);
          pair.plain->BeginRound(dir);
          for (NodeId v = 0; v < g.NumNodes(); ++v) {
            if (!residual.Active(v)) continue;
            const std::uint64_t action = rng.UniformBelow(8);
            if (action == 0) {
              const std::uint64_t payload = rng.NextU64();
              pair.attached->AddTransmitter(v, payload);
              pair.plain->AddTransmitter(v, payload);
            } else if (action < 5) {
              listeners.push_back(v);
            }
          }
          for (const NodeId v : listeners) {
            // Streamed only on failure.
            const auto where = [&] {
              return name + " parts " + std::to_string(parts) + " batch " +
                     std::to_string(batch_index) + " " + std::string(ToString(pair.model)) +
                     " loss " + std::to_string(pair.loss) +
                     (dir == ChannelDirection::kPush ? " push" : " pull") + " listener " +
                     std::to_string(v);
            };
            ASSERT_EQ(pair.attached->ResolveListener(v), pair.plain->ResolveListener(v))
                << where();
            ASSERT_EQ(pair.attached->TransmittingNeighbors(v),
                      pair.plain->TransmittingNeighbors(v))
                << where();
          }
        }
      }
    }
    ++batch_index;
  }
}

TEST(ResidualCompaction, ReceptionsMatchThePlainChannelAfterEveryBatch) {
  BranchCounts total;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed * 104729);
    // Average degree ~40, so early rows take the word-parallel pull scan
    // and shrunk ones the scalar scan.
    for (const auto& [graph, name] :
         {std::pair{gen::ErdosRenyi(200, 0.2, rng), "er"},
          std::pair{gen::RandomGeometric(200, 0.27, rng), "udg"}}) {
      for (const unsigned parts : {1u, 4u}) {
        CheckReceptionsAgainstSeedRows(graph, seed, parts, name, total);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
  // Both branches ran, many times over.
  EXPECT_GT(total.walks, 80u);
  EXPECT_GT(total.rebuilds, 30u);
}

struct RunFingerprint {
  std::vector<MisStatus> status;
  Round rounds = 0;
  std::uint64_t total_awake = 0;
  std::uint64_t max_awake = 0;
  std::uint64_t trace_hash = 0;

  friend bool operator==(const RunFingerprint&, const RunFingerprint&) = default;
};

RunFingerprint Fingerprint(const Graph& g, MisAlgorithm algorithm, double loss) {
  HashTrace trace;
  MisRunConfig cfg;
  cfg.algorithm = algorithm;
  cfg.seed = 7;
  cfg.trace = &trace;
  cfg.link_loss = loss;
  const MisRunResult r = RunMis(g, cfg);
  EXPECT_TRUE(r.Valid() || loss > 0.0);
  return {r.status, r.stats.rounds_used, r.energy.TotalAwake(),
          r.energy.MaxAwake(), trace.Value()};
}

TEST(ResidualCompaction, GoldenTraceHashes) {
  // Pinned fingerprints: a change to retirement timing, scan order or the
  // loss stream shows up here as a golden mismatch.
  Rng rng(424242);
  const Graph g = gen::RandomGeometric(64, 0.22, rng);
  const RunFingerprint cd = Fingerprint(g, MisAlgorithm::kCd, 0.0);
  const RunFingerprint cd_lossy = Fingerprint(g, MisAlgorithm::kCd, 0.3);
  const RunFingerprint nocd = Fingerprint(g, MisAlgorithm::kNoCd, 0.0);
  EXPECT_EQ(cd.trace_hash, 0xB54A7384D88D1E30ULL);
  EXPECT_EQ(cd_lossy.trace_hash, 0x0FA217956D3014ABULL);
  EXPECT_EQ(nocd.trace_hash, 0xE8D014E39E2297D4ULL);
}

// --- Payload tie-break contract (channel.hpp "Payload tie-break") ----------

TEST(ResidualCompaction, PayloadObservableOnlyForLoneTransmitter) {
  const Graph g = gen::Star(5);  // hub 0, leaves 1..4
  for (ChannelDirection dir : {ChannelDirection::kPush, ChannelDirection::kPull}) {
    for (ChannelModel model :
         {ChannelModel::kCd, ChannelModel::kNoCd, ChannelModel::kBeeping}) {
      Channel ch(g, model);
      // Two survivors: the perceived payload is 0 regardless of which
      // transmitter's payload an implementation kept internally (push keeps
      // the first delivery, pull the last scanned CSR neighbor — both
      // unobservable by contract).
      ch.BeginRound(dir);
      ch.AddTransmitter(1, 0xAAA);
      ch.AddTransmitter(3, 0xBBB);
      Reception two = ch.ResolveListener(0);
      EXPECT_EQ(two.payload, 0u);
      switch (model) {
        case ChannelModel::kCd:
          EXPECT_EQ(two.kind, ReceptionKind::kCollision);
          break;
        case ChannelModel::kNoCd:
          EXPECT_EQ(two.kind, ReceptionKind::kSilence);
          break;
        case ChannelModel::kBeeping:
          EXPECT_EQ(two.kind, ReceptionKind::kBeep);
          break;
      }
      // One survivor: the exact payload comes through (beeping stays unary).
      ch.BeginRound(dir);
      ch.AddTransmitter(3, 0xBBB);
      Reception one = ch.ResolveListener(0);
      if (model == ChannelModel::kBeeping) {
        EXPECT_EQ(one.kind, ReceptionKind::kBeep);
      } else {
        EXPECT_EQ(one.kind, ReceptionKind::kMessage);
        EXPECT_EQ(one.payload, 0xBBBu);
      }
    }
  }
}

TEST(ResidualCompaction, TieBreakContractHoldsOnCompactedRows) {
  const Graph g = gen::Star(5);
  ResidualGraph residual(g);
  residual.Retire(1);
  residual.Retire(2);  // hub row compacts to [3, 4]
  ASSERT_EQ(residual.Compactions(), 1u);
  for (ChannelDirection dir : {ChannelDirection::kPush, ChannelDirection::kPull}) {
    Channel ch(g, ChannelModel::kCd);
    ch.AttachResidual(&residual);
    ch.BeginRound(dir);
    ch.AddTransmitter(3, 0x333);
    ch.AddTransmitter(4, 0x444);
    const Reception two = ch.ResolveListener(0);
    EXPECT_EQ(two.kind, ReceptionKind::kCollision);
    EXPECT_EQ(two.payload, 0u);
    EXPECT_EQ(ch.TransmittingNeighbors(0), 2u);

    ch.BeginRound(dir);
    ch.AddTransmitter(4, 0x444);
    const Reception one = ch.ResolveListener(0);
    EXPECT_EQ(one.kind, ReceptionKind::kMessage);
    EXPECT_EQ(one.payload, 0x444u);
  }
}

// --- Retirement lifecycle --------------------------------------------------

proc::Task<void> RetireThenTransmit(NodeApi api) {
  api.Retire();
  co_await api.Transmit(1);
}

proc::Task<void> RetireThenSleep(NodeApi api) {
  api.Retire();
  co_await api.SleepFor(3);
}

TEST(ResidualCompaction, RetiredNodeActingTripsInvariant) {
  const ModeGuard pin_abort(ContractMode::kAbort);  // the check must throw
  const Graph g = gen::Path(2);
  Scheduler sched(g, {}, 1);
  // The retire request is consumed before the resume slice's action is
  // filed, so the transmit submitted alongside it is rejected.
  EXPECT_THROW(
      sched.Spawn([](NodeApi api) -> proc::Task<void> {
        return RetireThenTransmit(api);
      }),
      InvariantError);
}

TEST(ResidualCompaction, RetiredNodeMaySleepAndFinish) {
  const Graph g = gen::Path(2);
  Scheduler sched(g, {}, 1);
  sched.Spawn([](NodeApi api) -> proc::Task<void> {
    return RetireThenSleep(api);
  });
  sched.Run();
  EXPECT_TRUE(sched.AllFinished());
  EXPECT_EQ(sched.Residual().ActiveCount(), 0u);
}

TEST(ResidualCompaction, FinishingImpliesRetirement) {
  Rng rng(5);
  const Graph g = gen::ErdosRenyi(40, 0.15, rng);
  MisRunConfig cfg;
  cfg.algorithm = MisAlgorithm::kCd;
  cfg.seed = 3;
  const MisRunResult r = RunMis(g, cfg);
  EXPECT_TRUE(r.Valid());
  // RunMis tears its scheduler down, so observe via a direct run instead.
  Scheduler sched(g, {}, 3);
  sched.Spawn([](NodeApi api) -> proc::Task<void> {
    return TransmitEachRound(api, 2);
  });
  sched.Run();
  EXPECT_EQ(sched.Residual().ActiveCount(), 0u);
  EXPECT_EQ(sched.Residual().LiveEdges(), 0u);
}

// --- Parallel sweeps and telemetry -----------------------------------------

void ExpectSamePoints(const std::vector<SweepPoint>& a,
                      const std::vector<SweepPoint>& b) {
  const auto same = [](const Summary& x, const Summary& y) {
    return x.count == y.count && x.mean == y.mean && x.m2 == y.m2 &&
           x.min == y.min && x.max == y.max;
  };
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].n, b[i].n);
    EXPECT_EQ(a[i].failures, b[i].failures);
    EXPECT_TRUE(same(a[i].max_energy, b[i].max_energy)) << "point " << i;
    EXPECT_TRUE(same(a[i].avg_energy, b[i].avg_energy)) << "point " << i;
    EXPECT_TRUE(same(a[i].rounds, b[i].rounds)) << "point " << i;
    EXPECT_TRUE(same(a[i].mis_size, b[i].mis_size)) << "point " << i;
  }
}

TEST(ResidualCompaction, SweepsDeterministicAcrossJobs) {
  SweepConfig cfg;
  cfg.algorithm = MisAlgorithm::kNoCd;
  cfg.factory = families::SparseErdosRenyi(6.0);
  cfg.sizes = {48, 96};
  cfg.seeds_per_size = 4;
  const std::vector<SweepPoint> serial = RunSweep(cfg);
  ExpectSamePoints(serial, RunSweep(cfg, 4, nullptr));
}

TEST(ResidualCompaction, TelemetryReachesRegistry) {
  Rng rng(11);
  const Graph g = gen::ErdosRenyi(96, 0.12, rng);
  obs::MetricsRegistry metrics;
  MisRunConfig cfg;
  cfg.algorithm = MisAlgorithm::kCd;
  cfg.seed = 9;
  cfg.metrics = &metrics;
  const MisRunResult r = RunMis(g, cfg);
  EXPECT_TRUE(r.Valid());
  // Every node decided, so the residual drained to zero live edges, and the
  // dense seed rows crossed the half-dead threshold along the way.
  EXPECT_EQ(metrics.GetGauge("chan.live_edges").Value(), 0.0);
  EXPECT_GT(metrics.GetCounter("graph.compactions").Value(), 0u);
  EXPECT_EQ(metrics.GetCounter("graph.edges_reclaimed").Value(),
            2 * g.NumEdges());
}

}  // namespace
}  // namespace emis
