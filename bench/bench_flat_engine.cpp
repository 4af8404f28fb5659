// E21 — flat execution engine: batched state machines vs coroutine resumes.
//
// Both engines run the same protocols against the same Channel and RNG
// streams, so every observable (trace, energy, metrics, MIS) is
// bit-identical (pinned by test_flat_engine.cpp); the only thing that may
// change is wall clock. Legs:
//   * equivalence — re-assert the contract in-bench at smoke size, including
//     the chan.edges_scanned cross-check: identical scan work proves the
//     speedup is pure dispatch, not a different (cheaper) round schedule;
//   * throughput — full RunMis at n = 2^20 (override with EMIS_BENCH_N) on
//     a degree-256 G(n,p): the flat engine must sustain
//     >= 1.8x coroutine throughput at the calibrated size (measured ~2x
//     when the coroutine side still resolved every round push-side; both
//     engines now share one physical direction rule and the AVX2 word-scan
//     kernel, so the SoA lanes' cheaper resumes carry the gap; what
//     remains is random-access memory latency both engines share, which is
//     why the original 5x target proved unreachable — see DESIGN.md 12.2);
//     >= 1.15x at CI smoke sizes (n >= 2^14, where the working set still
//     fits in cache, both engines are dispatch-bound, and the flat
//     engine's advantage is smallest — measured ~1.3x);
//   * crossover — an n sweep (degree 64) timing both engines per size, the
//     EXPERIMENTS.md E21 table: flat's advantage must grow with n (the
//     coroutine engine pays per-frame cache misses that the SoA sweep
//     amortizes); EMIS_BENCH_SWEEP_MAX_N raises the largest size (2^24 is
//     feasible: ~8 GB of CSR at degree 64);
//   * working set (E23) — flat-engine RunMis at n in {2^18, 2^20, 2^22}
//     (cap via EMIS_BENCH_E23_MAX_N) on the degree-256 family, recording
//     the mem.* residency gauges per size: the hot context the resume loop
//     streams must stay >= 30% below the pre-split 128 B/node monolith
//     (DESIGN.md 12.2, EXPERIMENTS.md E23);
//   * trajectory — a timed sweep recorded into the JSON artifact (engine
//     via EMIS_BENCH_ENGINE) so CI's BENCH_*.json series tracks the engine
//     ratio over time.
#include <chrono>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/runner.hpp"

namespace emis {
namespace {

struct TimedRun {
  double seconds = 0.0;
  Round rounds = 0;
  std::uint64_t edges_scanned = 0;
  std::uint64_t total_awake = 0;
  std::size_t mis_size = 0;
  // mem.* residency gauges sampled at RunUntil exit (bytes, whole run).
  double hot_bytes = 0.0;
  double cold_bytes = 0.0;
  double lane_bytes = 0.0;
};

TimedRun RunOnce(const Graph& g, MisAlgorithm algorithm, ExecutionEngine engine,
                 std::uint64_t seed) {
  obs::MetricsRegistry metrics;
  MisRunConfig cfg;
  cfg.algorithm = algorithm;
  cfg.seed = seed;
  cfg.engine = engine;
  cfg.metrics = &metrics;
  const auto start = std::chrono::steady_clock::now();
  const MisRunResult r = RunMis(g, cfg);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  EMIS_REQUIRE(r.Valid(), "bench run must produce a valid MIS");
  return {elapsed.count(), r.stats.rounds_used,
          metrics.GetCounter("chan.edges_scanned").Value(),
          r.energy.TotalAwake(), r.MisSize(),
          metrics.GetGauge("mem.context_hot_bytes").Value(),
          metrics.GetGauge("mem.context_cold_bytes").Value(),
          metrics.GetGauge("mem.lane_bytes").Value()};
}

// --- equivalence ------------------------------------------------------------

void CheckEquivalence() {
  Rng rng(7);
  const Graph g = gen::ErdosRenyi(4096, 64.0 / 4096.0, rng);
  std::uint32_t mismatches = 0;
  for (const MisAlgorithm alg : {MisAlgorithm::kCd, MisAlgorithm::kNoCd,
                                 MisAlgorithm::kNoCdRoundEfficient}) {
    const TimedRun coro = RunOnce(g, alg, ExecutionEngine::kCoroutine, 11);
    const TimedRun flat = RunOnce(g, alg, ExecutionEngine::kFlat, 11);
    if (coro.rounds != flat.rounds || coro.mis_size != flat.mis_size ||
        coro.total_awake != flat.total_awake ||
        coro.edges_scanned != flat.edges_scanned) {
      ++mismatches;
      std::printf("  [mismatch] %s: rounds %llu/%llu awake %llu/%llu "
                  "edges %llu/%llu\n",
                  std::string(ToString(alg)).c_str(),
                  static_cast<unsigned long long>(coro.rounds),
                  static_cast<unsigned long long>(flat.rounds),
                  static_cast<unsigned long long>(coro.total_awake),
                  static_cast<unsigned long long>(flat.total_awake),
                  static_cast<unsigned long long>(coro.edges_scanned),
                  static_cast<unsigned long long>(flat.edges_scanned));
    }
  }
  bench::Verdict(mismatches == 0,
                 "engines agree on rounds, MIS size, awake rounds, and "
                 "chan.edges_scanned (cd, nocd, round-efficient)");
  std::printf("\n");
}

// --- throughput -------------------------------------------------------------

void CheckThroughput() {
  // EMIS_BENCH_N overrides the node count for smoke runs. The 1.8x floor
  // is calibrated at the default n = 2^20 with average degree 256 (the
  // committed-artifact condition; measured ~2x); at CI smoke sizes
  // (n >= 2^14) the floor is 1.15x (measured ~1.3x there), below that the
  // verdict is informational.
  NodeId n = 1u << 20;
  if (const char* env = std::getenv("EMIS_BENCH_N");
      env != nullptr && env[0] != '\0') {
    n = static_cast<NodeId>(std::strtoul(env, nullptr, 10));
  }
  MisAlgorithm algorithm = MisAlgorithm::kCd;
  if (const char* env = std::getenv("EMIS_BENCH_ALG");
      env != nullptr && env[0] != '\0') {
    algorithm = std::string_view(env) == "nocd" ? MisAlgorithm::kNoCd
                                                : MisAlgorithm::kCd;
  }
  Rng rng(42);
  const Graph g = gen::ErdosRenyi(n, 256.0 / static_cast<double>(n), rng);

  const int repeats = n >= (1u << 18) ? 1 : 3;
  TimedRun coro = RunOnce(g, algorithm, ExecutionEngine::kCoroutine, 1);
  TimedRun flat = RunOnce(g, algorithm, ExecutionEngine::kFlat, 1);
  for (int i = 1; i < repeats; ++i) {
    const TimedRun c2 = RunOnce(g, algorithm, ExecutionEngine::kCoroutine, 1);
    if (c2.seconds < coro.seconds) coro = c2;
    const TimedRun f2 = RunOnce(g, algorithm, ExecutionEngine::kFlat, 1);
    if (f2.seconds < flat.seconds) flat = f2;
  }
  EMIS_REQUIRE(coro.rounds == flat.rounds && coro.rounds > 0,
               "engines must agree on the round count");

  const double coro_rps = static_cast<double>(coro.rounds) / coro.seconds;
  const double flat_rps = static_cast<double>(flat.rounds) / flat.seconds;
  const double speedup = coro.seconds / flat.seconds;
  Table table({"engine", "wall s (best of " + std::to_string(repeats) + ")",
               "rounds/s", "edges scanned"});
  table.AddRow({"coroutine", Fmt(coro.seconds, 3), Fmt(coro_rps, 0),
                std::to_string(coro.edges_scanned)});
  table.AddRow({"flat", Fmt(flat.seconds, 3), Fmt(flat_rps, 0),
                std::to_string(flat.edges_scanned)});
  std::printf("%s",
              table.Render("RunMis(" + std::string(ToString(algorithm)) +
                           ") on G(n=" + std::to_string(n) +
                           ", 256/n), coroutine vs flat").c_str());
  bench::Metrics().GetGauge("flat.speedup_x").Set(speedup);
  bench::Metrics().GetGauge("flat.coroutine_seconds").Set(coro.seconds);
  bench::Metrics().GetGauge("flat.flat_seconds").Set(flat.seconds);
  bench::Metrics().GetGauge("flat.bench_n").Set(static_cast<double>(n));
  bench::Verdict(coro.edges_scanned == flat.edges_scanned,
                 "edges-scanned cross-check: both engines scanned " +
                     std::to_string(flat.edges_scanned) + " channel edges");
  if (n >= (1u << 20)) {
    bench::Verdict(speedup >= 1.8,
                   "flat engine sustains >= 1.8x RunMis throughput at n=" +
                       std::to_string(n) + " (measured " + Fmt(speedup, 2) +
                       "x)");
  } else if (n >= (1u << 14)) {
    bench::Verdict(speedup >= 1.15,
                   "flat engine sustains >= 1.15x RunMis throughput at smoke "
                   "n=" + std::to_string(n) + " (measured " + Fmt(speedup, 2) +
                       "x)");
  } else {
    // Below 2^14 the fixed costs (graph build, params) dilute the ratio.
    std::printf("  [info] throughput floor applies at n >= 2^14 (smoke n=%u "
                "measured %sx)\n",
                n, Fmt(speedup, 2).c_str());
  }
  std::printf("\n");
}

// --- crossover sweep --------------------------------------------------------

void CheckCrossover() {
  NodeId max_n = 1u << 16;
  if (const char* env = std::getenv("EMIS_BENCH_SWEEP_MAX_N");
      env != nullptr && env[0] != '\0') {
    max_n = static_cast<NodeId>(std::strtoul(env, nullptr, 10));
  }
  std::vector<NodeId> sizes;
  for (NodeId n = 1u << 12; n <= max_n; n <<= 2) sizes.push_back(n);
  if (sizes.empty()) sizes.push_back(max_n);

  Table table({"n", "coroutine s", "flat s", "speedup"});
  std::vector<double> speedups;
  for (const NodeId n : sizes) {
    Rng rng(9);
    const Graph g = gen::ErdosRenyi(n, 64.0 / static_cast<double>(n), rng);
    const TimedRun coro = RunOnce(g, MisAlgorithm::kCd,
                                  ExecutionEngine::kCoroutine, 3);
    const TimedRun flat = RunOnce(g, MisAlgorithm::kCd,
                                  ExecutionEngine::kFlat, 3);
    const double speedup = coro.seconds / flat.seconds;
    speedups.push_back(speedup);
    table.AddRow({std::to_string(n), Fmt(coro.seconds, 3),
                  Fmt(flat.seconds, 3), Fmt(speedup, 2) + "x"});
  }
  std::printf("%s", table.Render("E21 engine crossover: RunMis(cd) on "
                                 "G(n, 64/n) per engine").c_str());
  bench::Verdict(speedups.back() >= 1.0,
                 "flat engine is at least as fast as coroutine at the "
                 "largest swept n (" + Fmt(speedups.back(), 2) + "x)");
  bench::Verdict(speedups.back() >= speedups.front(),
                 "flat advantage does not shrink as n grows (" +
                     Fmt(speedups.front(), 2) + "x -> " +
                     Fmt(speedups.back(), 2) + "x)");
  std::printf("\n");
}

// --- E23 working-set trajectory ---------------------------------------------

void CheckWorkingSet() {
  // Flat-engine RunMis throughput as the per-node state scales past the
  // LLC: n in {2^18, 2^20, 2^22} on the degree-256 family (the same
  // condition as the throughput leg). The residency half of the leg is the
  // point: the resume loop streams sizeof(HotNodeContext) = 16 bytes plus
  // the protocol lane per node and round; before the hot/cold split it
  // dragged the full 128-byte NodeContext monolith through cache on every
  // resume. EMIS_BENCH_E23_MAX_N caps the largest size — the default 2^18
  // keeps smoke runs quick; the committed BENCH_flat_engine_n22.json
  // artifact is produced with the full 2^22 (about 12 GB peak RSS for the
  // degree-256 CSR).
  NodeId max_n = 1u << 18;
  if (const char* env = std::getenv("EMIS_BENCH_E23_MAX_N");
      env != nullptr && env[0] != '\0') {
    max_n = static_cast<NodeId>(std::strtoul(env, nullptr, 10));
  }
  // Pre-split per-node context footprint (the former NodeContext monolith).
  // The floor is calibrated to the measured layout: the 16-byte hot half is
  // an 87.5% cut, so requiring >= 75% (hot <= 0.25x monolith) leaves 2x
  // headroom while still failing loudly if half the cold fields creep back
  // into the hot array. (EXPERIMENTS.md E23's original acceptance bar was
  // a 30% cut; the verdict pins the recalibrated, tighter floor.)
  constexpr double kMonolithBytesPerNode = 128.0;
  Table table({"n", "flat s", "rounds/s", "hot B/node", "cold B/node",
               "lane B/node"});
  bool residency_ok = true;
  for (NodeId n = 1u << 18; n <= max_n; n <<= 2) {
    Rng rng(42);
    const Graph g = gen::ErdosRenyi(n, 256.0 / static_cast<double>(n), rng);
    const TimedRun flat = RunOnce(g, MisAlgorithm::kCd,
                                  ExecutionEngine::kFlat, 1);
    const double nodes = static_cast<double>(n);
    const double hot = flat.hot_bytes / nodes;
    const double cold = flat.cold_bytes / nodes;
    const double lane = flat.lane_bytes / nodes;
    residency_ok = residency_ok && hot <= 0.25 * kMonolithBytesPerNode;
    const double rps = static_cast<double>(flat.rounds) / flat.seconds;
    table.AddRow({std::to_string(n), Fmt(flat.seconds, 3), Fmt(rps, 0),
                  Fmt(hot, 0), Fmt(cold, 0), Fmt(lane, 0)});
    // log2(n) keys the gauge series so artifacts at different caps align.
    std::uint32_t log2n = 0;
    for (NodeId m = n; m > 1; m >>= 1) ++log2n;
    const std::string suffix = "_n" + std::to_string(log2n);
    bench::Metrics().GetGauge("e23.flat_seconds" + suffix).Set(flat.seconds);
    bench::Metrics().GetGauge("e23.hot_bytes" + suffix).Set(flat.hot_bytes);
    bench::Metrics().GetGauge("e23.cold_bytes" + suffix).Set(flat.cold_bytes);
    bench::Metrics().GetGauge("e23.lane_bytes" + suffix).Set(flat.lane_bytes);
  }
  std::printf("%s", table.Render("E23 working-set trajectory: RunMis(cd, "
                                 "flat) on G(n, 256/n) with mem.* "
                                 "residency gauges").c_str());
  bench::Verdict(residency_ok,
                 "hot context stays >= 75% below the pre-split 128 B/node "
                 "monolith at every swept size (mem.context_hot_bytes)");
  std::printf("\n");
}

// --- trajectory sweep -------------------------------------------------------

void RecordTrajectory() {
  SweepConfig cfg;
  cfg.algorithm = MisAlgorithm::kCd;
  cfg.factory = families::SparseErdosRenyi(32.0);
  cfg.sizes = {1024, 4096};
  cfg.seeds_per_size = 3;
  cfg.engine = ExecutionEngine::kFlat;
  const bench::TimedSweep sweep = bench::RunTimedSweep(cfg);
  bench::RecordSweep("cd / G(n, 32/n) timed sweep, flat engine (override via "
                     "EMIS_BENCH_ENGINE)",
                     sweep);
  bench::Verdict(bench::TotalFailures(sweep.points) == 0,
                 "flat-engine trajectory sweep produced valid MIS outputs at "
                 "every point");
}

}  // namespace
}  // namespace emis

int main() {
  using namespace emis;
  bench::Banner("E21 bench_flat_engine",
                "Engineering: the flat SoA state-machine engine produces "
                "bit-identical runs to the coroutine engine and sustains "
                ">= 1.8x RunMis throughput at n = 2^20 (degree 256).");
  CheckEquivalence();
  CheckThroughput();
  CheckCrossover();
  CheckWorkingSet();
  RecordTrajectory();
  bench::Footer();
  return 0;
}
