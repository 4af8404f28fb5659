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
//   * trajectory — a small timed sweep recorded into the JSON artifact so
//     CI's BENCH_*.json series tracks its wall clock and the graph.*
//     counters over time.
// That the overlay never changes a reception (a plain Channel over the
// seed rows is the reference) is pinned by tests/test_residual_compaction.cpp.
#include "bench_common.hpp"
#include "core/mis_cd.hpp"
#include "core/mis_nocd.hpp"
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
    const std::uint64_t live = sched.Residual().LiveEdges();
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
    const std::uint64_t live = sched.Residual().LiveEdges();
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

// --- trajectory sweep -------------------------------------------------------

void RecordTrajectory() {
  SweepConfig cfg;
  cfg.algorithm = MisAlgorithm::kCd;
  cfg.factory = families::SparseErdosRenyi(32.0);
  cfg.sizes = {1024, 4096};
  cfg.seeds_per_size = 3;
  const bench::TimedSweep sweep = bench::RunTimedSweep(cfg);
  bench::RecordSweep("cd / G(n, 32/n) timed sweep", sweep);
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
                "inside the lemma envelopes.");
  CheckDecay();
  RecordTrajectory();
  bench::Footer();
  return 0;
}
