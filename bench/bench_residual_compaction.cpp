// E20 — residual-graph compaction: channel cost tracks live edges.
//
// The scheduler's residual overlay drops retired nodes from channel scan
// rows and compacts a CSR row in place once half its entries are dead, so
// per-round channel cost follows the *live* edge count — which the paper
// says collapses geometrically:
//   CD (Lemma 5):    E[|E_i|] <= |E_{i-1}| / 2 (residual = undecided nodes,
//                    who retire the round they decide);
//   no-CD (Lemma 20): E[|E_i|] <= (63/64)|E_{i-1}| (residual = everyone not
//                    out of the MIS: Definition 18 keeps MIS nodes, and so
//                    does the overlay — they announce until phases end).
// Legs:
//   * decay — run phase-by-phase (RunUntil at boundaries) and check that
//     the overlay's LiveEdges() equals the status-derived residual edge
//     count exactly, and that the measured shrink sits inside the lemma
//     envelopes;
//   * throughput — full RunMis at n = 2^18 (override with EMIS_BENCH_N) on
//     a degree-256 G(n,p), under the scheduler's own direction rule (both
//     directions scan the rows the residual overlay shortens): compaction
//     on must sustain >= 2x the throughput of compaction off, with
//     chan.edges_scanned showing why;
//   * trajectory — a small timed sweep recorded into the JSON artifact so
//     CI's BENCH_*.json series tracks the speedup over time.
#include <chrono>

#include "bench_common.hpp"
#include "core/mis_cd.hpp"
#include "core/mis_nocd.hpp"
#include "core/runner.hpp"
#include "radio/scheduler.hpp"

namespace emis {
namespace {

// --- decay ------------------------------------------------------------------

std::uint64_t StatusResidualEdges(const Graph& g,
                                  const std::vector<MisStatus>& status,
                                  bool exclude_in_mis) {
  std::uint64_t edges = 0;
  for (const Edge& e : g.EdgeList()) {
    const bool u_in = exclude_in_mis ? status[e.u] == MisStatus::kUndecided
                                     : status[e.u] != MisStatus::kOutMis;
    const bool v_in = exclude_in_mis ? status[e.v] == MisStatus::kUndecided
                                     : status[e.v] != MisStatus::kOutMis;
    edges += (u_in && v_in) ? 1 : 0;
  }
  return edges;
}

struct DecayRun {
  std::vector<double> ratios;     ///< per-phase |E_i| / |E_{i-1}| (live edges)
  std::uint32_t mismatches = 0;   ///< boundaries where overlay != status count
};

/// One CD run phase-by-phase, reading live edges from the scheduler's
/// residual overlay at every boundary.
DecayRun CdDecay(const Graph& g, std::uint64_t seed) {
  const CdParams params = CdParams::Practical(g.NumNodes());
  std::vector<MisStatus> status(g.NumNodes(), MisStatus::kUndecided);
  Scheduler sched(g, {.model = ChannelModel::kCd}, seed);
  sched.Spawn(MisCdProtocol(params, &status));
  DecayRun run;
  std::uint64_t prev = g.NumEdges();
  for (std::uint32_t phase = 1; phase <= params.luby_phases && prev > 0; ++phase) {
    sched.RunUntil(static_cast<Round>(phase) * params.PhaseRounds());
    const std::uint64_t live = sched.Residual()->LiveEdges();
    if (live != StatusResidualEdges(g, status, /*exclude_in_mis=*/true)) {
      ++run.mismatches;
    }
    run.ratios.push_back(static_cast<double>(live) / static_cast<double>(prev));
    prev = live;
  }
  return run;
}

DecayRun NoCdDecay(const Graph& g, std::uint64_t seed) {
  const NoCdParams params =
      NoCdParams::Practical(g.NumNodes(), std::max(1u, g.MaxDegree()));
  const NoCdSchedule sched_info = NoCdSchedule::Of(params);
  std::vector<MisStatus> status(g.NumNodes(), MisStatus::kUndecided);
  Scheduler sched(g, {.model = ChannelModel::kNoCd}, seed);
  sched.Spawn(MisNoCdProtocol(params, &status));
  DecayRun run;
  std::uint64_t prev = g.NumEdges();
  for (std::uint32_t phase = 1; phase <= params.luby_phases && prev > 0; ++phase) {
    sched.RunUntil(static_cast<Round>(phase) * sched_info.phase);
    const std::uint64_t live = sched.Residual()->LiveEdges();
    if (live != StatusResidualEdges(g, status, /*exclude_in_mis=*/false)) {
      ++run.mismatches;
    }
    run.ratios.push_back(static_cast<double>(live) / static_cast<double>(prev));
    prev = live;
  }
  return run;
}

void CheckDecay() {
  const std::uint32_t kSeeds = 10;
  std::vector<Summary> cd_phases(64), nocd_phases(64);
  std::uint32_t mismatches = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(seed * 977 + 5);
    const Graph g = families::SparseErdosRenyi(8.0)(512, rng);
    const DecayRun cd = CdDecay(g, seed);
    mismatches += cd.mismatches;
    for (std::size_t i = 0; i < cd.ratios.size() && i < cd_phases.size(); ++i) {
      cd_phases[i].Add(cd.ratios[i]);
    }
    const DecayRun nocd = NoCdDecay(g, seed);
    mismatches += nocd.mismatches;
    for (std::size_t i = 0; i < nocd.ratios.size() && i < nocd_phases.size(); ++i) {
      nocd_phases[i].Add(nocd.ratios[i]);
    }
  }

  Table table({"phase", "CD mean live shrink", "no-CD mean live shrink"});
  for (std::size_t i = 0; i < 6; ++i) {
    if (cd_phases[i].count == 0 && nocd_phases[i].count == 0) break;
    table.AddRow({std::to_string(i + 1),
                  cd_phases[i].count > 0 ? Fmt(cd_phases[i].mean, 3) : "-",
                  nocd_phases[i].count > 0 ? Fmt(nocd_phases[i].mean, 3) : "-"});
  }
  std::printf("%s", table.Render("live-edge decay per phase, G(512, 8/n), " +
                                 std::to_string(kSeeds) + " seeds").c_str());

  bench::Verdict(mismatches == 0,
                 "overlay LiveEdges() equals the status-derived residual "
                 "edge count at every phase boundary");
  bench::Verdict(cd_phases[0].count > 0 && cd_phases[0].mean <= 0.5 + 0.08,
                 "CD: mean first-phase live-edge shrink <= 1/2 (+slack), "
                 "Lemma 5 (" + Fmt(cd_phases[0].mean, 3) + ")");
  bench::Verdict(nocd_phases[0].count > 0 && nocd_phases[0].mean <= 63.0 / 64.0,
                 "no-CD: mean first-phase live-edge shrink <= 63/64, "
                 "Lemma 20 (" + Fmt(nocd_phases[0].mean, 3) + ")");
  std::printf("\n");
}

// --- throughput -------------------------------------------------------------

struct TimedRun {
  double seconds = 0.0;
  Round rounds = 0;
  std::uint64_t edges_scanned = 0;
};

TimedRun RunOnce(const Graph& g, MisAlgorithm algorithm, bool compaction) {
  obs::MetricsRegistry metrics;
  MisRunConfig cfg;
  cfg.algorithm = algorithm;
  cfg.seed = 1;
  cfg.compaction = compaction;
  cfg.metrics = &metrics;
  const auto start = std::chrono::steady_clock::now();
  const MisRunResult r = RunMis(g, cfg);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  EMIS_REQUIRE(r.Valid(), "throughput run must produce a valid MIS");
  return {elapsed.count(), r.stats.rounds_used,
          metrics.GetCounter("chan.edges_scanned").Value()};
}

void CheckThroughput() {
  // EMIS_BENCH_N overrides the node count (smoke runs); the 2x claim is
  // calibrated at the default n = 2^18 with average degree 256, where a
  // full off-side run takes minutes — single timed runs there (minutes of
  // wall clock dwarf timer noise), best-of-3 at smoke sizes.
  NodeId n = 1u << 18;
  if (const char* env = std::getenv("EMIS_BENCH_N");
      env != nullptr && env[0] != '\0') {
    n = static_cast<NodeId>(std::strtoul(env, nullptr, 10));
  }
  MisAlgorithm algorithm = MisAlgorithm::kNoCd;
  if (const char* env = std::getenv("EMIS_BENCH_ALG");
      env != nullptr && env[0] != '\0') {
    algorithm = std::string_view(env) == "cd" ? MisAlgorithm::kCd
                                              : MisAlgorithm::kNoCd;
  }
  Rng rng(42);
  const Graph g = gen::ErdosRenyi(n, 256.0 / static_cast<double>(n), rng);

  const int repeats = n >= (1u << 17) ? 1 : 3;
  TimedRun on = RunOnce(g, algorithm, true);
  TimedRun off = RunOnce(g, algorithm, false);
  for (int i = 1; i < repeats; ++i) {
    const TimedRun on2 = RunOnce(g, algorithm, true);
    if (on2.seconds < on.seconds) on = on2;
    const TimedRun off2 = RunOnce(g, algorithm, false);
    if (off2.seconds < off.seconds) off = off2;
  }
  EMIS_REQUIRE(on.rounds == off.rounds && on.rounds > 0,
               "compaction must not change the round count");

  const double on_rps = static_cast<double>(on.rounds) / on.seconds;
  const double off_rps = static_cast<double>(off.rounds) / off.seconds;
  const double ratio = off.seconds / on.seconds;
  Table table({"compaction", "wall s (best of " + std::to_string(repeats) + ")",
               "rounds/s", "edges scanned"});
  table.AddRow({"on", Fmt(on.seconds, 3), Fmt(on_rps, 0),
                std::to_string(on.edges_scanned)});
  table.AddRow({"off", Fmt(off.seconds, 3), Fmt(off_rps, 0),
                std::to_string(off.edges_scanned)});
  std::printf("%s",
              table.Render("RunMis(" + std::string(ToString(algorithm)) +
                           ") on G(n=" + std::to_string(n) +
                           ", 256/n), compaction on vs off").c_str());
  if (n >= (1u << 18)) {
    bench::Verdict(ratio >= 2.0,
                   "compaction sustains >= 2x RunMis throughput at n=" +
                       std::to_string(n) + " (measured " + Fmt(ratio, 2) + "x)");
  } else {
    // The 2x claim is about asymptotic scan dominance; at smoke sizes the
    // per-wake scheduler overhead (degree-independent) dilutes it.
    std::printf("  [info] 2x verdict applies at n >= 2^18 (smoke n=%u "
                "measured %sx)\n",
                n, Fmt(ratio, 2).c_str());
  }
  bench::Verdict(on.edges_scanned < off.edges_scanned,
                 "compaction scans fewer channel edges (" +
                     std::to_string(on.edges_scanned) + " vs " +
                     std::to_string(off.edges_scanned) + ")");
  std::printf("\n");
}

// --- trajectory sweep -------------------------------------------------------

void RecordTrajectory() {
  SweepConfig cfg;
  cfg.algorithm = MisAlgorithm::kCd;
  cfg.factory = families::SparseErdosRenyi(32.0);
  cfg.sizes = {1024, 4096};
  cfg.seeds_per_size = 3;
  const bench::TimedSweep sweep = bench::RunTimedSweep(cfg);
  bench::RecordSweep("cd / G(n, 32/n) timed sweep (compaction knob via "
                     "EMIS_BENCH_COMPACTION)",
                     sweep);
  bench::Verdict(bench::TotalFailures(sweep.points) == 0,
                 "trajectory sweep produced valid MIS outputs at every point");
}

}  // namespace
}  // namespace emis

int main() {
  using namespace emis;
  bench::Banner("E20 bench_residual_compaction",
                "Engineering on Lemma 5 / Lemma 20: per-round channel cost "
                "tracks live edges — the residual overlay's edge count decays "
                "inside the lemma envelopes and buys >= 2x RunMis throughput "
                "on dense graphs.");
  CheckDecay();
  CheckThroughput();
  RecordTrajectory();
  bench::Footer();
  return 0;
}
