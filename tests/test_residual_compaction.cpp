// Residual-graph compaction: per-round channel cost must track live edges
// while staying invisible to the radio semantics. Properties checked here:
//   * ResidualGraph bookkeeping — live degrees/edges, the half-dead row
//     compaction trigger, stable (sorted) scan-row order, retire-twice
//     rejection;
//   * RetireBatch against a sequential reference (the per-node retire walk
//     it replaced): after every batch, on random ER/UDG/star/path graphs,
//     random batches, random row-owner cuts of 1-8 parts (empty parts
//     included) and 1 or 4 jobs, every row's counters, every live scan row
//     and the order-dependent compaction counters agree exactly;
//   * ResolveDirection (the accounting model) in isolation — it takes the
//     strictly cheaper side and breaks ties toward push — and
//     PhysicalDirection (the scan the channel runs): pull when sharded, the
//     accounting choice on a lossy channel, else push iff the transmit side
//     is under a quarter of the listen side;
//   * the scheduler's cost model sums *live* degrees once nodes retire
//     (companion to test_channel_direction's static-cost-model test);
//   * RunMis receptions, decisions and energy are bit-identical across
//     compaction on/off x loss {0, 0.3} (golden trace hashes);
//   * the payload tie-break contract: a reception's payload is observable
//     only when exactly one transmitter survives; >= 2 survivors perceive as
//     collision/silence/beep with payload 0, on seed and compacted rows
//     alike, in both directions;
//   * retirement lifecycle — a retired node that transmits or listens trips
//     an invariant, finishing implies retirement (ActiveCount reaches 0),
//     and retiring is still legal (sleep + finish) afterwards;
//   * parallel sweeps stay bit-identical across job counts with compaction
//     on, and compaction on/off sweeps produce identical points;
//   * the graph.compactions / graph.edges_reclaimed / chan.live_edges
//     telemetry lands in the caller's MetricsRegistry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "contract_mode_guard.hpp"
#include "core/contracts.hpp"
#include "core/runner.hpp"
#include "obs/metrics.hpp"
#include "radio/channel.hpp"
#include "radio/graph.hpp"
#include "radio/graph_generators.hpp"
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

/// Every row's counters (retired rows included), every live scan row, and
/// the global counters.
void ExpectSameState(const ResidualGraph& got, const SequentialResidual& want,
                     const std::string& where) {
  for (NodeId v = 0; v < got.NumNodes(); ++v) {
    ASSERT_EQ(got.Active(v), want.Active(v)) << where << " node " << v;
    ASSERT_EQ(got.LiveDegree(v), want.LiveDegree(v)) << where << " node " << v;
    ASSERT_EQ(got.ScanRow(v).size(), want.ScanLen(v)) << where << " node " << v;
    if (got.Active(v)) {
      const std::span<const NodeId> row = got.ScanRow(v);
      ASSERT_EQ(std::vector<NodeId>(row.begin(), row.end()), want.ScanRow(v))
          << where << " node " << v;
    }
  }
  ASSERT_EQ(got.LiveEdges(), want.LiveEdges()) << where;
  ASSERT_EQ(got.ActiveCount(), want.ActiveCount()) << where;
  ASSERT_EQ(got.Compactions(), want.Compactions()) << where;
  ASSERT_EQ(got.EdgesReclaimed(), want.EdgesReclaimed()) << where;
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

/// Retires every node of `g` in a random order, cut into random batches
/// (sometimes single nodes, sometimes most of the graph), each under a fresh
/// random cut, comparing against the sequential walk after every batch.
void CheckRandomBatches(const Graph& g, std::uint64_t seed, unsigned jobs,
                        const std::string& name) {
  Rng rng(seed);
  std::vector<NodeId> order(g.NumNodes());
  for (NodeId v = 0; v < g.NumNodes(); ++v) order[v] = v;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.UniformBelow(i)]);
  }
  ResidualGraph batched(g, jobs);
  SequentialResidual reference(g);
  std::size_t next = 0;
  int batch_index = 0;
  while (next < order.size()) {
    const std::size_t left = order.size() - next;
    const std::size_t size =
        rng.Bernoulli(0.2) ? left : 1 + rng.UniformBelow(std::min<std::size_t>(left, 40));
    const std::span<const NodeId> batch(order.data() + next, size);
    const std::vector<NodeId> cut = RandomCut(g.NumNodes(), rng);
    batched.RetireBatch(batch, cut, jobs);
    for (const NodeId v : batch) reference.Retire(v);
    next += size;
    ExpectSameState(batched, reference,
                    name + " jobs " + std::to_string(jobs) + " batch " +
                        std::to_string(batch_index++) + " parts " +
                        std::to_string(cut.size() - 1));
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(batched.ActiveCount(), 0u) << name;
  EXPECT_EQ(batched.EdgesReclaimed(), 2 * g.NumEdges()) << name;
}

TEST(RetireBatch, MatchesSequentialWalkOnRandomGraphsBatchesAndCuts) {
  for (unsigned jobs : {1u, 4u}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      Rng rng(seed * 7919);
      CheckRandomBatches(gen::ErdosRenyi(120, 0.15, rng), seed, jobs, "er");
      CheckRandomBatches(gen::RandomGeometric(150, 0.2, rng), seed, jobs, "udg");
      CheckRandomBatches(gen::Star(90), seed, jobs, "star");
      CheckRandomBatches(gen::Path(70), seed, jobs, "path");
    }
  }
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
      ExpectSameState(batched, reference, "star hub at " + std::to_string(
          std::find(batch.begin(), batch.end(), 0u) - batch.begin()));
    }
  }
}

TEST(RetireBatch, MembersCompactEachOthersRowsBeforeRetiring) {
  // In K_12, retiring half the clique crosses the half-dead trigger of every
  // later member's row before that member's own turn: those compactions
  // must count (and shrink the later reclaim) exactly as the walk does.
  const Graph g = gen::Complete(12);
  const std::vector<NodeId> batch = {3, 7, 0, 11, 5, 9, 1};
  for (const std::vector<NodeId>& cut :
       {std::vector<NodeId>{0, 12}, std::vector<NodeId>{0, 4, 8, 12},
        std::vector<NodeId>{0, 1, 2, 3, 5, 8, 12, 12}}) {
    ResidualGraph batched(g);
    SequentialResidual reference(g);
    batched.RetireBatch(batch, cut, 4);
    for (const NodeId v : batch) reference.Retire(v);
    ExpectSameState(batched, reference, "clique parts " + std::to_string(cut.size() - 1));
    EXPECT_GT(reference.Compactions(), 0u);
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
  ExpectSameState(batched, SequentialResidual(g), "after rejected batch");
  const std::vector<NodeId> out_of_range = {1, 9};
  EXPECT_THROW(batched.RetireBatch(out_of_range, whole, 1), PreconditionError);
  ExpectSameState(batched, SequentialResidual(g), "after out-of-range batch");
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
  // This is the intended behavior change pinned the other way (compaction
  // off) in test_channel_direction.cpp's AutoPullsWhenListenersAreCheap.
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

// --- Reception equivalence: compaction is invisible to the radio ----------

struct RunFingerprint {
  std::vector<MisStatus> status;
  Round rounds = 0;
  std::uint64_t total_awake = 0;
  std::uint64_t max_awake = 0;
  std::uint64_t trace_hash = 0;

  friend bool operator==(const RunFingerprint&, const RunFingerprint&) = default;
};

RunFingerprint Fingerprint(const Graph& g, MisAlgorithm algorithm,
                           bool compaction, double loss) {
  HashTrace trace;
  MisRunConfig cfg;
  cfg.algorithm = algorithm;
  cfg.seed = 7;
  cfg.trace = &trace;
  cfg.link_loss = loss;
  cfg.compaction = compaction;
  const MisRunResult r = RunMis(g, cfg);
  EXPECT_TRUE(r.Valid() || loss > 0.0);
  return {r.status, r.stats.rounds_used, r.energy.TotalAwake(),
          r.energy.MaxAwake(), trace.Value()};
}

TEST(ResidualCompaction, ReceptionsBitIdenticalAcrossKnobs) {
  Rng rng(2026);
  const Graph g = gen::ErdosRenyi(72, 0.1, rng);
  for (MisAlgorithm algorithm : {MisAlgorithm::kCd, MisAlgorithm::kNoCd}) {
    for (double loss : {0.0, 0.3}) {
      EXPECT_EQ(Fingerprint(g, algorithm, /*compaction=*/false, loss),
                Fingerprint(g, algorithm, /*compaction=*/true, loss))
          << ToString(algorithm) << " loss " << loss;
    }
  }
}

TEST(ResidualCompaction, GoldenTraceHashes) {
  // Pinned fingerprints: a change to retirement timing, scan order or the
  // loss stream shows up here as a golden mismatch even if on/off still
  // agree with each other.
  Rng rng(424242);
  const Graph g = gen::RandomGeometric(64, 0.22, rng);
  const RunFingerprint cd = Fingerprint(g, MisAlgorithm::kCd, true, 0.0);
  const RunFingerprint cd_lossy = Fingerprint(g, MisAlgorithm::kCd, true, 0.3);
  const RunFingerprint nocd = Fingerprint(g, MisAlgorithm::kNoCd, true, 0.0);
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
  ASSERT_NE(sched.Residual(), nullptr);
  EXPECT_EQ(sched.Residual()->ActiveCount(), 0u);
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
  ASSERT_NE(sched.Residual(), nullptr);
  EXPECT_EQ(sched.Residual()->ActiveCount(), 0u);
  EXPECT_EQ(sched.Residual()->LiveEdges(), 0u);
}

TEST(ResidualCompaction, CompactionOffDisablesOverlayButKeepsInvariant) {
  const ModeGuard pin_abort(ContractMode::kAbort);  // the check must throw
  const Graph g = gen::Path(2);
  Scheduler sched(g, {.compaction = false}, 1);
  EXPECT_EQ(sched.Residual(), nullptr);
  EXPECT_THROW(
      sched.Spawn([](NodeApi api) -> proc::Task<void> {
        return RetireThenTransmit(api);
      }),
      InvariantError);
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

TEST(ResidualCompaction, SweepsDeterministicAcrossJobsAndKnob) {
  SweepConfig cfg;
  cfg.algorithm = MisAlgorithm::kNoCd;
  cfg.factory = families::SparseErdosRenyi(6.0);
  cfg.sizes = {48, 96};
  cfg.seeds_per_size = 4;
  cfg.compaction = true;
  const std::vector<SweepPoint> serial = RunSweep(cfg);
  const std::vector<SweepPoint> threaded = RunSweep(cfg, 4, nullptr);
  ExpectSamePoints(serial, threaded);
  SweepConfig off = cfg;
  off.compaction = false;
  ExpectSamePoints(serial, RunSweep(off, 4, nullptr));
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
