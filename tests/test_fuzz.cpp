// Randomized end-to-end fuzzing: drive the whole stack (spec parser →
// generator → scheduler → algorithm → checker) through a few hundred
// pseudo-random configurations. Catches interaction bugs no targeted test
// anticipates; failures print the exact reproducible configuration.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "radio/graph_io.hpp"
#include "verify/mis_checker.hpp"

namespace emis {
namespace {

std::string RandomSpec(Rng& rng) {
  // Sizes stay small: fuzz breadth beats depth.
  const auto n = 2 + rng.UniformBelow(60);
  switch (rng.UniformBelow(12)) {
    case 0: return "path:n=" + std::to_string(n);
    case 1: return "cycle:n=" + std::to_string(3 + rng.UniformBelow(57));
    case 2: return "star:n=" + std::to_string(n);
    case 3: return "complete:n=" + std::to_string(2 + rng.UniformBelow(18));
    case 4: return "er:n=" + std::to_string(n) + ",p=0." +
                   std::to_string(1 + rng.UniformBelow(4));
    case 5: return "udg:n=" + std::to_string(n) + ",r=0.2";
    case 6: return "tree:n=" + std::to_string(n);
    case 7: return "matching:n=" + std::to_string(n);
    case 8: return "cliques:count=" + std::to_string(1 + rng.UniformBelow(5)) +
                   ",size=" + std::to_string(2 + rng.UniformBelow(5));
    case 9: return "grid:rows=" + std::to_string(1 + rng.UniformBelow(7)) +
                   ",cols=" + std::to_string(1 + rng.UniformBelow(7));
    case 10: return "bipartite:left=" + std::to_string(1 + rng.UniformBelow(8)) +
                    ",right=" + std::to_string(1 + rng.UniformBelow(8));
    default: return "empty:n=" + std::to_string(n);
  }
}

constexpr MisAlgorithm kAll[] = {
    MisAlgorithm::kCd,          MisAlgorithm::kCdBeeping,
    MisAlgorithm::kCdNaive,     MisAlgorithm::kNoCd,
    MisAlgorithm::kNoCdDaviesProfile, MisAlgorithm::kNoCdNaive,
    MisAlgorithm::kNoCdUnknownDelta, MisAlgorithm::kNoCdRoundEfficient,
};

TEST(Fuzz, RandomConfigurationsProduceValidMis) {
  Rng fuzz(20250705);
  int runs = 0, invalid = 0;
  std::vector<std::string> failures;
  for (int iter = 0; iter < 250; ++iter) {
    const std::string spec = RandomSpec(fuzz);
    const std::uint64_t graph_seed = fuzz.NextU64();
    Rng graph_rng(graph_seed);
    const Graph g = GraphFromSpec(spec, graph_rng);

    MisRunConfig cfg;
    cfg.algorithm = kAll[fuzz.UniformBelow(std::size(kAll))];
    cfg.seed = fuzz.NextU64();
    if (fuzz.Bernoulli(0.3)) cfg.delta_estimate = g.NumNodes();
    if (fuzz.Bernoulli(0.2)) cfg.n_estimate = g.NumNodes() * 4 + 1;

    const auto r = RunMis(g, cfg);
    ++runs;
    if (!r.Valid()) {
      ++invalid;
      failures.push_back(spec + " alg=" + std::string(ToString(cfg.algorithm)) +
                         " seed=" + std::to_string(cfg.seed) + ": " +
                         r.report.Describe());
    }
    // Structural invariants hold even if the run (rarely) failed:
    EXPECT_EQ(r.status.size(), g.NumNodes());
    EXPECT_LE(r.MisSize(), g.NumNodes());
    if (g.NumEdges() == 0 && g.NumNodes() > 0) {
      EXPECT_EQ(r.MisSize(), g.NumNodes()) << spec;  // isolated nodes join
    }
  }
  // Practical presets carry 1/poly(n) failure probability; a tiny number of
  // failures across 250 random configs is within contract, a cluster is not.
  EXPECT_LE(invalid, 3) << "failures:\n" << ::testing::PrintToString(failures);
}

TEST(Fuzz, RandomConfigurationsAreDeterministic) {
  Rng fuzz(424242);
  for (int iter = 0; iter < 40; ++iter) {
    const std::string spec = RandomSpec(fuzz);
    const std::uint64_t graph_seed = fuzz.NextU64();
    MisRunConfig cfg;
    cfg.algorithm = kAll[fuzz.UniformBelow(std::size(kAll))];
    cfg.seed = fuzz.NextU64();

    Rng rng_a(graph_seed), rng_b(graph_seed);
    const Graph ga = GraphFromSpec(spec, rng_a);
    const Graph gb = GraphFromSpec(spec, rng_b);
    const auto a = RunMis(ga, cfg);
    const auto b = RunMis(gb, cfg);
    EXPECT_EQ(a.status, b.status) << spec;
    EXPECT_EQ(a.stats.rounds_used, b.stats.rounds_used) << spec;
    EXPECT_EQ(a.energy.TotalAwake(), b.energy.TotalAwake()) << spec;
  }
}

TEST(Fuzz, EnginesAgreeOnRandomConfigurations) {
  // Cross-check the flat backend against the coroutine reference on random
  // (topology, algorithm, loss, knob) draws — breadth the targeted matrix
  // in test_flat_engine.cpp doesn't have.
  Rng fuzz(20260807);
  for (int iter = 0; iter < 60; ++iter) {
    const std::string spec = RandomSpec(fuzz);
    const std::uint64_t graph_seed = fuzz.NextU64();
    MisRunConfig cfg;
    cfg.algorithm = kAll[fuzz.UniformBelow(std::size(kAll))];
    cfg.seed = fuzz.NextU64();
    if (fuzz.Bernoulli(0.3)) cfg.link_loss = 0.1;
    // Unused draw, kept so every later draw, and so every case, is pinned.
    (void)fuzz.Bernoulli(0.3);
    // Sharding applies to the flat leg only; the coroutine engine runs one
    // shard whatever is requested.
    if (fuzz.Bernoulli(0.3)) cfg.shards = 4;

    Rng rng_a(graph_seed), rng_b(graph_seed);
    const Graph ga = GraphFromSpec(spec, rng_a);
    const Graph gb = GraphFromSpec(spec, rng_b);
    cfg.engine = ExecutionEngine::kCoroutine;
    const auto reference = RunMis(ga, cfg);
    cfg.engine = ExecutionEngine::kFlat;
    const auto flat = RunMis(gb, cfg);
    const std::string what =
        spec + " alg=" + std::string(ToString(cfg.algorithm)) +
        " seed=" + std::to_string(cfg.seed) + " loss=" +
        std::to_string(cfg.link_loss);
    EXPECT_EQ(flat.status, reference.status) << what;
    EXPECT_EQ(flat.stats.rounds_used, reference.stats.rounds_used) << what;
    EXPECT_EQ(flat.energy.TotalAwake(), reference.energy.TotalAwake()) << what;
    EXPECT_EQ(flat.energy.MaxAwake(), reference.energy.MaxAwake()) << what;
  }
}

TEST(Fuzz, EdgeListRoundTripsForRandomGraphs) {
  Rng fuzz(777);
  for (int iter = 0; iter < 60; ++iter) {
    const std::string spec = RandomSpec(fuzz);
    Rng graph_rng(fuzz.NextU64());
    const Graph g = GraphFromSpec(spec, graph_rng);
    std::stringstream ss;
    WriteEdgeList(ss, g);
    const Graph back = ReadEdgeList(ss);
    EXPECT_EQ(back.NumNodes(), g.NumNodes()) << spec;
    EXPECT_EQ(back.EdgeList(), g.EdgeList()) << spec;
  }
}

}  // namespace
}  // namespace emis
