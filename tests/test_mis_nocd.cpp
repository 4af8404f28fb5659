// Tests for Algorithm 2 (no-CD MIS, Theorem 10).
#include "core/mis_nocd.hpp"

#include <gtest/gtest.h>

#include "core/runner.hpp"
#include "obs/metrics.hpp"
#include "radio/graph_generators.hpp"
#include "verify/mis_checker.hpp"

namespace emis {
namespace {

MisRunResult RunNoCd(const Graph& g, std::uint64_t seed) {
  return RunMis(g, {.algorithm = MisAlgorithm::kNoCd, .seed = seed});
}

TEST(MisNoCd, SingleNodeJoins) {
  Graph g = gen::Empty(1);
  auto r = RunNoCd(g, 1);
  ASSERT_TRUE(r.Valid()) << r.report.Describe();
  EXPECT_EQ(r.status[0], MisStatus::kInMis);
}

TEST(MisNoCd, IsolatedNodesAllJoin) {
  Graph g = gen::Empty(12);
  auto r = RunNoCd(g, 2);
  ASSERT_TRUE(r.Valid()) << r.report.Describe();
  EXPECT_EQ(r.MisSize(), 12u);
}

TEST(MisNoCd, SingleEdgeBreaksTie) {
  Graph g = gen::Path(2);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    auto r = RunNoCd(g, seed);
    ASSERT_TRUE(r.Valid()) << "seed " << seed << ": " << r.report.Describe();
    EXPECT_EQ(r.MisSize(), 1u);
  }
}

TEST(MisNoCd, ValidOnAssortedFamilies) {
  Rng rng(1);
  const Graph graphs[] = {
      gen::Path(24),
      gen::Cycle(21),
      gen::Star(26),
      gen::Grid(5, 5),
      gen::Complete(12),
      gen::ErdosRenyi(64, 0.08, rng),
      gen::MatchingPlusIsolated(32),
      gen::DisjointCliques(4, 5),
      gen::RandomTree(40, rng),
      gen::CompleteBipartite(8, 12),
  };
  std::uint64_t seed = 50;
  for (const Graph& g : graphs) {
    auto r = RunNoCd(g, seed++);
    EXPECT_TRUE(r.Valid()) << "n=" << g.NumNodes() << " m=" << g.NumEdges()
                           << ": " << r.report.Describe();
  }
}

TEST(MisNoCd, RepeatedSeedsOnRandomGraph) {
  Rng rng(2);
  Graph g = gen::ErdosRenyi(96, 6.0 / 96, rng);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    auto r = RunNoCd(g, seed);
    EXPECT_TRUE(r.Valid()) << "seed " << seed << ": " << r.report.Describe();
  }
}

TEST(MisNoCd, DeterministicGivenSeed) {
  Rng rng(3);
  Graph g = gen::ErdosRenyi(48, 0.1, rng);
  auto a = RunNoCd(g, 5);
  auto b = RunNoCd(g, 5);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.stats.rounds_used, b.stats.rounds_used);
  EXPECT_EQ(a.energy.MaxAwake(), b.energy.MaxAwake());
}

TEST(MisNoCd, RoundsWithinScheduleBound) {
  Rng rng(4);
  Graph g = gen::ErdosRenyi(64, 0.1, rng);
  MisRunConfig cfg{.algorithm = MisAlgorithm::kNoCd, .seed = 7};
  auto r = RunMis(g, cfg);
  ASSERT_TRUE(r.Valid());
  const NoCdParams p = DeriveNoCdParams(g, cfg);
  EXPECT_LE(r.stats.rounds_used,
            static_cast<Round>(p.luby_phases) * NoCdSchedule::Of(p).phase);
}

TEST(MisNoCd, EnergyFarBelowRounds) {
  // The whole point of Theorem 10: awake rounds ≪ total rounds. With the
  // practical constants the round count is in the tens of thousands while
  // max energy stays in the hundreds.
  Rng rng(5);
  Graph g = gen::ErdosRenyi(128, 8.0 / 128, rng);
  auto r = RunNoCd(g, 9);
  ASSERT_TRUE(r.Valid()) << r.report.Describe();
  EXPECT_LT(r.energy.MaxAwake() * 10, r.stats.rounds_used);
}

TEST(MisNoCd, BeatsNaiveBaselineOnEnergy) {
  Rng rng(6);
  Graph g = gen::ErdosRenyi(128, 8.0 / 128, rng);
  std::uint64_t ours = 0, naive = 0;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    auto r1 = RunNoCd(g, seed);
    auto r2 = RunMis(g, {.algorithm = MisAlgorithm::kNoCdNaive, .seed = seed});
    ASSERT_TRUE(r1.Valid() && r2.Valid());
    ours += r1.energy.MaxAwake();
    naive += r2.energy.MaxAwake();
  }
  EXPECT_LT(ours, naive);
}

TEST(MisNoCd, EnergyCapForcesDecisions) {
  Rng rng(7);
  Graph g = gen::ErdosRenyi(48, 0.1, rng);
  MisRunConfig cfg{.algorithm = MisAlgorithm::kNoCd, .seed = 3};
  cfg.nocd_params = DeriveNoCdParams(g, {.algorithm = MisAlgorithm::kNoCd});
  cfg.nocd_params->energy_cap = 40;  // deliberately tight
  auto r = RunMis(g, cfg);
  // The cap is checked at phase boundaries, so single-phase overshoot is
  // possible but bounded; and capped nodes must end decided.
  EXPECT_TRUE(r.report.Decided());
}

TEST(MisNoCd, ZeroPhasesLeavesUndecided) {
  Graph g = gen::Path(3);
  MisRunConfig cfg{.algorithm = MisAlgorithm::kNoCd, .seed = 1};
  cfg.nocd_params = DeriveNoCdParams(g, cfg);
  cfg.nocd_params->luby_phases = 0;
  auto r = RunMis(g, cfg);
  EXPECT_EQ(r.report.undecided.size(), 3u);
}

TEST(MisNoCd, HighDegreeStarResolves) {
  Graph g = gen::Star(100);
  auto r = RunNoCd(g, 11);
  ASSERT_TRUE(r.Valid()) << r.report.Describe();
  const bool hub = r.status[0] == MisStatus::kInMis;
  EXPECT_EQ(r.MisSize(), hub ? 1u : 99u);
}

TEST(MisNoCd, DenseGraphResolves) {
  Rng rng(8);
  Graph g = gen::ErdosRenyi(64, 0.35, rng);
  auto r = RunNoCd(g, 13);
  EXPECT_TRUE(r.Valid()) << r.report.Describe();
}

// The simulator's cost tracks energy (DESIGN.md §2.1): on the sparse no-CD
// shape, where in-MIS announcers run energy-efficient backoffs through every
// remaining Luby phase, the scheduler steps a node about once per awake
// round — with the sender's sleeps coalesced and fused, not ~1.7 times.
TEST(MisNoCd, StepsTrackAwakeRoundsOnSparseGraphs) {
  Rng rng(3);
  const Graph g = gen::ErdosRenyi(4096, 8.0 / 4096, rng);
  std::uint64_t reference_steps = 0;
  for (const ExecutionEngine engine : {ExecutionEngine::kCoroutine, ExecutionEngine::kFlat}) {
    for (const unsigned shards : {1u, 4u}) {
      obs::MetricsRegistry metrics;
      MisRunConfig cfg;
      cfg.algorithm = MisAlgorithm::kNoCd;
      cfg.seed = 1;
      cfg.engine = engine;
      cfg.shards = shards;
      cfg.metrics = &metrics;
      const MisRunResult r = RunMis(g, cfg);
      EXPECT_TRUE(r.Valid());
      const std::uint64_t steps = metrics.GetCounter("sched.steps").Value();
      EXPECT_LE(static_cast<double>(steps),
                1.1 * static_cast<double>(r.stats.node_rounds))
          << "steps " << steps << " for " << r.stats.node_rounds << " awake node-rounds";
      // A step count, not a cost: equal for every engine and shard count.
      if (reference_steps == 0) reference_steps = steps;
      EXPECT_EQ(steps, reference_steps);
    }
  }
}

}  // namespace
}  // namespace emis
