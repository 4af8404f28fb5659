// E18 — the parallel trial engine (engineering; no paper claim).
//
// Runs the same 100-trial CD-energy sweep serially and on 4 worker threads
// and checks the two halves of the engine's contract:
//   * determinism — the sweep statistics (every SweepPoint column, compared
//     through the JSON artifact encoding) are BIT-identical at any job count;
//   * speedup — with >= 4 hardware threads, 4 jobs cut wall-clock by >= 3x.
// On smaller machines the speedup line is reported but not asserted (there
// is nothing to parallelize onto); determinism is always asserted.
#include "bench_common.hpp"

namespace emis {
namespace {

void RunComparison() {
  SweepConfig cfg;
  cfg.algorithm = MisAlgorithm::kCd;
  cfg.factory = families::SparseErdosRenyi(8.0);
  cfg.sizes = {512, 1024, 2048, 4096};
  cfg.seeds_per_size = 25;  // 4 sizes x 25 seeds = 100 trials
  cfg.seed_base = 1;

  obs::MetricsRegistry serial_metrics;
  cfg.metrics = &serial_metrics;
  SweepRunInfo serial_info;
  const auto serial = RunSweep(cfg, 1, &serial_info);

  obs::MetricsRegistry parallel_metrics;
  cfg.metrics = &parallel_metrics;
  SweepRunInfo parallel_info;
  const auto parallel = RunSweep(cfg, 4, &parallel_info);

  bench::RecordSweep("cd-energy 100 trials / jobs 1", {serial, serial_info});
  bench::RecordSweep("cd-energy 100 trials / jobs 4", {parallel, parallel_info});

  Table table({"jobs", "trials", "wall s", "speedup"});
  const double speedup = parallel_info.wall_seconds > 0.0
                             ? serial_info.wall_seconds / parallel_info.wall_seconds
                             : 0.0;
  table.AddRow({"1", "100", Fmt(serial_info.wall_seconds, 2), "1.00"});
  table.AddRow({"4", "100", Fmt(parallel_info.wall_seconds, 2), Fmt(speedup, 2)});
  std::printf("%s", table.Render("100-trial CD-energy sweep, serial vs 4 jobs").c_str());

  // Byte-level comparison through the artifact encoding: every aggregate the
  // bench pipeline consumes (means from Welford reductions included) must
  // match exactly, not approximately.
  const std::string serial_doc = BuildSweepJson("sweep", serial).Dump(0);
  const std::string parallel_doc = BuildSweepJson("sweep", parallel).Dump(0);
  bench::Verdict(serial_doc == parallel_doc,
                 "jobs=4 sweep statistics are bit-identical to jobs=1");

  // Sharded metrics: the same simulated work reaches the merged registry no
  // matter how many shards it was split across.
  const auto executed = [](const obs::MetricsRegistry& m) {
    const auto& counters = m.Counters();
    const auto it = counters.find("sched.rounds_executed");
    return it == counters.end() ? std::uint64_t{0} : it->second.Value();
  };
  bench::Verdict(executed(serial_metrics) != 0 &&
                     executed(serial_metrics) == executed(parallel_metrics),
                 "merged metric shards match the serial registry (" +
                     std::to_string(executed(parallel_metrics)) + " rounds)");

  const unsigned hw = par::DefaultJobs();
  if (hw >= 4) {
    bench::Verdict(speedup >= 3.0,
                   "jobs=4 achieves >= 3x wall-clock speedup (measured " +
                       Fmt(speedup, 2) + "x on " + std::to_string(hw) +
                       " hardware threads)");
  } else {
    std::printf("speedup check skipped: only %u hardware thread(s); measured "
                "%.2fx\n",
                hw, speedup);
  }
}

void RunLossyDeterminism() {
  // Fading draws are counter-based — a pure function of (round, tx, rx,
  // seed), never of draw order — so the determinism contract extends to
  // lossy configurations: identical points at any job count.
  SweepConfig cfg;
  cfg.algorithm = MisAlgorithm::kCd;
  cfg.factory = families::SparseErdosRenyi(8.0);
  cfg.sizes = {256, 512};
  cfg.seeds_per_size = 10;
  cfg.seed_base = 7;
  cfg.tweak = [](MisRunConfig& rc, const Graph&) { rc.link_loss = 0.25; };

  const auto serial = RunSweep(cfg, 1);
  const auto parallel = RunSweep(cfg, 4);
  bench::RecordSweep("lossy cd sweep (loss 0.25) / jobs 1", serial);
  const std::string serial_doc = BuildSweepJson("sweep", serial).Dump(0);
  const std::string parallel_doc = BuildSweepJson("sweep", parallel).Dump(0);
  bench::Verdict(serial_doc == parallel_doc,
                 "lossy (0.25) sweep statistics are bit-identical across job "
                 "counts");
}

}  // namespace
}  // namespace emis

int main() {
  using namespace emis;
  bench::Banner("E18 bench_parallel_sweep",
                "Engineering: the parallel trial engine is bit-deterministic "
                "and scales independent (n, seed) trials across cores.");
  RunComparison();
  RunLossyDeterminism();
  bench::Footer();
  return 0;
}
