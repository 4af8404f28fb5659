// Flat-engine equivalence: the batched state-machine backend must be
// observationally identical to the coroutine reference. Properties checked:
//   * RunMis fingerprints (decisions, rounds, energy totals, full trace
//     hash) match the coroutine engine for every MIS core across
//     loss {0, 0.1};
//   * the algorithms outside the 5-core matrix (beeping, naive no-CD Luby,
//     unknown-Δ doubling) match on a representative config each;
//   * the flat engine reproduces the *pinned* golden trace hashes of
//     tests/test_residual_compaction.cpp — equivalence to the frozen
//     behavior, not merely to today's coroutine build;
//   * emis-run-report/1 documents (metrics, phases, energy attribution)
//     are bit-identical across engines once the wall-clock timers and the
//     alloc section — the only engine-dependent observables — are struck;
//   * sweeps driven through SweepConfig::engine produce identical points;
//   * Spawn/SpawnFlat enforce the configured engine.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "contract_mode_guard.hpp"
#include "core/contracts.hpp"
#include "core/flat_mis.hpp"
#include "core/mis_cd.hpp"
#include "core/runner.hpp"
#include "obs/energy_ledger.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_timeline.hpp"
#include "obs/report.hpp"
#include "radio/graph.hpp"
#include "radio/graph_generators.hpp"
#include "radio/scheduler.hpp"
#include "radio/trace.hpp"
#include "trace_hash.hpp"
#include "verify/experiment.hpp"

namespace emis {
namespace {

struct RunFingerprint {
  std::vector<MisStatus> status;
  Round rounds = 0;
  std::uint64_t total_awake = 0;
  std::uint64_t max_awake = 0;
  std::uint64_t trace_hash = 0;

  friend bool operator==(const RunFingerprint&, const RunFingerprint&) = default;
};

RunFingerprint Fingerprint(const Graph& g, ExecutionEngine engine,
                           MisAlgorithm algorithm, double loss) {
  HashTrace trace;
  MisRunConfig cfg;
  cfg.algorithm = algorithm;
  cfg.seed = 7;
  cfg.engine = engine;
  cfg.trace = &trace;
  cfg.link_loss = loss;
  const MisRunResult r = RunMis(g, cfg);
  EXPECT_TRUE(r.Valid() || loss > 0.0);
  return {r.status, r.stats.rounds_used, r.energy.TotalAwake(),
          r.energy.MaxAwake(), trace.Value()};
}

// The five MIS cores of the flat backend: Algorithm 1 (CD), the naive-Luby
// CD baseline, Algorithm 2 (no-CD), the backoff-simulated Algorithm 1, and
// the Ghaffari-style round-efficient MIS.
constexpr MisAlgorithm kCores[] = {
    MisAlgorithm::kCd, MisAlgorithm::kCdNaive, MisAlgorithm::kNoCd,
    MisAlgorithm::kNoCdDaviesProfile, MisAlgorithm::kNoCdRoundEfficient};

TEST(FlatEngine, MatchesCoroutineAcrossCoreMatrix) {
  Rng rng(2026);
  const Graph g = gen::ErdosRenyi(64, 0.1, rng);
  for (MisAlgorithm algorithm : kCores) {
    for (double loss : {0.0, 0.1}) {
      const RunFingerprint reference =
          Fingerprint(g, ExecutionEngine::kCoroutine, algorithm, loss);
      const RunFingerprint flat = Fingerprint(g, ExecutionEngine::kFlat, algorithm, loss);
      EXPECT_EQ(flat, reference) << ToString(algorithm) << " loss " << loss;
    }
  }
}

TEST(FlatEngine, MatchesCoroutineOnRemainingAlgorithms) {
  Rng rng(515);
  const Graph g = gen::RandomGeometric(48, 0.25, rng);
  for (MisAlgorithm algorithm :
       {MisAlgorithm::kCdBeeping, MisAlgorithm::kNoCdNaive,
        MisAlgorithm::kNoCdUnknownDelta}) {
    for (double loss : {0.0, 0.1}) {
      const RunFingerprint reference =
          Fingerprint(g, ExecutionEngine::kCoroutine, algorithm, loss);
      const RunFingerprint flat =
          Fingerprint(g, ExecutionEngine::kFlat, algorithm, loss);
      EXPECT_EQ(flat, reference) << ToString(algorithm) << " loss " << loss;
    }
  }
}

TEST(FlatEngine, ReproducesPinnedGoldenTraceHashes) {
  // The same constants test_residual_compaction.cpp pins for the coroutine
  // engine: the flat backend must reproduce the frozen behavior exactly.
  Rng rng(424242);
  const Graph g = gen::RandomGeometric(64, 0.22, rng);
  const RunFingerprint cd =
      Fingerprint(g, ExecutionEngine::kFlat, MisAlgorithm::kCd, 0.0);
  const RunFingerprint cd_lossy =
      Fingerprint(g, ExecutionEngine::kFlat, MisAlgorithm::kCd, 0.3);
  const RunFingerprint nocd =
      Fingerprint(g, ExecutionEngine::kFlat, MisAlgorithm::kNoCd, 0.0);
  EXPECT_EQ(cd.trace_hash, 0xB54A7384D88D1E30ULL);
  EXPECT_EQ(cd_lossy.trace_hash, 0x0FA217956D3014ABULL);
  EXPECT_EQ(nocd.trace_hash, 0xE8D014E39E2297D4ULL);
}

/// Builds a full emis-run-report/1 document for one engine, then strikes
/// the only engine-dependent observables: the alloc section (coroutine
/// frames live in the arena; flat lanes do not), the wall-clock timer
/// values inside the metrics block, and the sharding cost observables
/// (run.shards plus the chan.merge_words / parallel.* gauges — the flat
/// engine may run sharded under EMIS_SHARDS while the coroutine reference
/// is always single-sharded). Everything else — counters, gauges,
/// histograms, phases, energy, attribution — must match bit for bit.
std::string NormalizedReport(const Graph& g, ExecutionEngine engine,
                             MisAlgorithm algorithm) {
  obs::MetricsRegistry metrics;
  obs::PhaseTimeline timeline;
  obs::EnergyLedger ledger(g.NumNodes());
  MisRunConfig cfg;
  cfg.algorithm = algorithm;
  cfg.seed = 21;
  cfg.engine = engine;
  cfg.metrics = &metrics;
  cfg.timeline = &timeline;
  cfg.ledger = &ledger;
  const MisRunResult r = RunMis(g, cfg);
  EXPECT_TRUE(r.Valid());
  obs::JsonValue doc = obs::BuildRunReport({.algorithm = std::string(ToString(algorithm)),
                                            .graph = "er-flat-parity",
                                            .preset = "practical",
                                            .seed = 21,
                                            .nodes = g.NumNodes(),
                                            .edges = g.NumEdges(),
                                            .max_degree = g.MaxDegree(),
                                            .valid_mis = r.Valid(),
                                            .mis_size = r.MisSize(),
                                            .stats = &r.stats,
                                            .energy = &r.energy,
                                            .timeline = &timeline,
                                            .metrics = &metrics,
                                            .ledger = &ledger});
  EXPECT_EQ(obs::ValidateRunReport(doc), "");
  // JsonValue::Set appends (duplicate keys allowed), so normalize by
  // rebuilding the objects entry by entry, preserving key order.
  obs::JsonValue normalized = obs::JsonValue::MakeObject();
  for (const auto& [key, value] : doc.Entries()) {
    if (key == "alloc") continue;
    if (key == "run") {
      obs::JsonValue run_doc = obs::JsonValue::MakeObject();
      for (const auto& [rkey, rvalue] : value.Entries()) {
        if (rkey != "shards") run_doc.Set(rkey, rvalue);
      }
      normalized.Set("run", std::move(run_doc));
      continue;
    }
    if (key != "metrics") {
      normalized.Set(key, value);
      continue;
    }
    obs::JsonValue metrics_doc = obs::JsonValue::MakeObject();
    for (const auto& [mkey, mvalue] : value.Entries()) {
      if (mkey == "timers") continue;  // wall-clock; engine-dependent
      if (mkey != "gauges") {
        metrics_doc.Set(mkey, mvalue);
        continue;
      }
      obs::JsonValue gauges = obs::JsonValue::MakeObject();
      for (const auto& [gkey, gvalue] : mvalue.Entries()) {
        // Frame-arena footprint exists only under the coroutine engine;
        // merge-word and barrier-wait tallies only under a sharded one.
        // Context/lane residency gauges report engine-dependent byte
        // counts (mem.lane_bytes is zero without flat lanes).
        if (gkey.starts_with("arena.") || gkey.starts_with("parallel.") ||
            gkey.starts_with("mem.") || gkey == "chan.merge_words") {
          continue;
        }
        gauges.Set(gkey, gvalue);
      }
      metrics_doc.Set("gauges", std::move(gauges));
    }
    normalized.Set("metrics", std::move(metrics_doc));
  }
  return normalized.Dump(2);
}

TEST(FlatEngine, RunReportsIdenticalExcludingWallAndAlloc) {
  Rng rng(77);
  const Graph g = gen::ErdosRenyi(72, 0.08, rng);
  for (MisAlgorithm algorithm :
       {MisAlgorithm::kCd, MisAlgorithm::kNoCd,
        MisAlgorithm::kNoCdRoundEfficient}) {
    EXPECT_EQ(NormalizedReport(g, ExecutionEngine::kFlat, algorithm),
              NormalizedReport(g, ExecutionEngine::kCoroutine, algorithm))
        << ToString(algorithm);
  }
}

TEST(FlatEngine, SweepPointsIdenticalAcrossEngines) {
  SweepConfig cfg;
  cfg.algorithm = MisAlgorithm::kCd;
  cfg.factory = families::SparseErdosRenyi(6.0);
  cfg.sizes = {48, 96};
  cfg.seeds_per_size = 4;
  cfg.engine = ExecutionEngine::kCoroutine;
  const std::vector<SweepPoint> reference = RunSweep(cfg);
  cfg.engine = ExecutionEngine::kFlat;
  const std::vector<SweepPoint> flat = RunSweep(cfg, 4, nullptr);
  ASSERT_EQ(flat.size(), reference.size());
  for (std::size_t i = 0; i < flat.size(); ++i) {
    EXPECT_EQ(flat[i].n, reference[i].n);
    EXPECT_EQ(flat[i].failures, reference[i].failures);
    EXPECT_EQ(flat[i].max_energy.mean, reference[i].max_energy.mean);
    EXPECT_EQ(flat[i].avg_energy.mean, reference[i].avg_energy.mean);
    EXPECT_EQ(flat[i].rounds.mean, reference[i].rounds.mean);
    EXPECT_EQ(flat[i].mis_size.mean, reference[i].mis_size.mean);
  }
}

TEST(FlatEngine, SpawnEnforcesConfiguredEngine) {
  const ModeGuard pin_abort(ContractMode::kAbort);  // the checks must throw
  const Graph g = gen::Path(4);
  std::vector<MisStatus> out(g.NumNodes(), MisStatus::kUndecided);

  // A flat-engine scheduler rejects the coroutine entry point and vice versa.
  Scheduler flat_sched(g, {.engine = ExecutionEngine::kFlat}, 1);
  EXPECT_THROW(flat_sched.Spawn(MisCdProtocol(CdParams::Practical(4), &out)),
               PreconditionError);
  Scheduler coro_sched(g, {.engine = ExecutionEngine::kCoroutine}, 1);
  EXPECT_THROW(coro_sched.SpawnFlat(
                   FlatMisCdProtocol(CdParams::Practical(4), &out, g.NumNodes())),
               PreconditionError);
  EXPECT_THROW(Scheduler(g, {.engine = ExecutionEngine::kFlat}, 1).SpawnFlat(nullptr),
               PreconditionError);
}

TEST(FlatEngine, EngineNamesRoundTrip) {
  EXPECT_EQ(ToString(ExecutionEngine::kCoroutine), "coroutine");
  EXPECT_EQ(ToString(ExecutionEngine::kFlat), "flat");
  EXPECT_EQ(ExecutionEngineFromString("coroutine"), ExecutionEngine::kCoroutine);
  EXPECT_EQ(ExecutionEngineFromString("flat"), ExecutionEngine::kFlat);
  EXPECT_EQ(ExecutionEngineFromString("batched"), kInvalidExecutionEngine);
}

}  // namespace
}  // namespace emis
