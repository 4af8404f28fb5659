// The sweep driver shared by the bench binaries.
//
// An experiment is (algorithm, graph family, sizes, seeds). For each size we
// generate a fresh topology per seed, run the algorithm, verify the output
// and aggregate energy/round/size distributions. Benches render the rows
// with verify/stats.hpp's Table and assert shapes with the polylog fits.
//
// Trials are independent by construction — every trial's seed is derived
// from (seed_base, n, s) alone — so RunSweep can fan them across a thread
// pool (verify/parallel.hpp). Determinism contract: per-trial results are
// written into index-addressed slots and reduced on the calling thread in
// (size, seed) order, so the returned SweepPoints are BIT-IDENTICAL for any
// jobs count. Wall-clock and job count are reported out of band via
// SweepRunInfo and never enter the points.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/stream_sink.hpp"
#include "radio/graph.hpp"
#include "radio/graph_generators.hpp"
#include "verify/stats.hpp"

namespace emis {

/// Builds the topology for one run. Must be deterministic in (n, rng).
using GraphFactory = std::function<Graph(NodeId n, Rng& rng)>;

/// Named graph families used across benches (workload definitions of
/// DESIGN.md's experiment index).
namespace families {

/// Sparse G(n, p) with expected average degree `avg_degree`.
GraphFactory SparseErdosRenyi(double avg_degree);

/// G(n, p) with p = n^-1/2: max degree grows polynomially (≈ √n), separating
/// log Δ from log log n terms.
GraphFactory PolynomialDegreeErdosRenyi();

/// Random geometric graph scaled so the expected degree stays ~`avg_degree`.
GraphFactory UnitDisk(double avg_degree);

/// Theorem 1's matching + isolated nodes family.
GraphFactory LowerBoundFamily();

GraphFactory StarFamily();
GraphFactory CompleteFamily();
GraphFactory TreeFamily();

}  // namespace families

struct SweepConfig {
  MisAlgorithm algorithm = MisAlgorithm::kCd;
  ParamPreset preset = ParamPreset::kPractical;
  GraphFactory factory;
  std::vector<NodeId> sizes;
  std::uint32_t seeds_per_size = 10;
  std::uint64_t seed_base = 1;
  /// Run in the paper's unknown-Δ regime (§1.1): nodes only know n, so the
  /// backoff window is derived from Δ = n. This is where the commit
  /// mechanism's log log n listen windows beat the baselines' log Δ = log n.
  bool delta_unknown = false;
  /// Execution backend for every trial (cost knob only; points are
  /// bit-identical across engines). `tweak` runs later and may override.
  ExecutionEngine engine = DefaultExecutionEngine();
  /// Intra-run shard count for every trial (flat engine; cost knob only,
  /// points are bit-identical at any count). Trials dispatched by a sweep
  /// worker run their shard loops inline — the pool does not nest — so
  /// sharding composes with jobs > 1 without oversubscription.
  unsigned shards = DefaultShards();
  /// Optional final tweak of the per-run config (ablations); receives the
  /// generated topology so graph-dependent parameters can be derived.
  /// Like `factory`, must be safe to invoke concurrently when jobs > 1
  /// (stateless or const-capturing callables are; all families:: are).
  std::function<void(MisRunConfig&, const Graph&)> tweak;
  /// Optional metrics sink. Each worker thread feeds a private shard (the
  /// scheduler hot-path timers/counters stay lock-free); the shards are
  /// merged into this registry in worker order after the sweep.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional per-trial observer, called on the reducing thread in strict
  /// (size, seed) order after all trials of the sweep finished — per-trial
  /// artifacts (reports, timelines rendered from results) never interleave
  /// even when the trials themselves ran concurrently.
  std::function<void(NodeId n, std::uint32_t seed_index, const MisRunResult&)>
      observe;
  /// Optional streaming telemetry. Each trial buffers its events (round
  /// heartbeats, phase events from a private PhaseTimeline) in a private
  /// StreamSink; on the reducing thread the blobs are framed with
  /// trial envelopes and concatenated in (size, seed) order, so the stream
  /// is byte-identical at any jobs count.
  std::ostream* telemetry_out = nullptr;
  obs::StreamSinkConfig telemetry_config;
};

struct SweepPoint {
  NodeId n = 0;
  std::uint32_t runs = 0;
  std::uint32_t failures = 0;   ///< runs whose output was not a valid MIS
  Summary max_energy;           ///< per-run max awake rounds (paper's energy)
  Summary avg_energy;           ///< per-run node-averaged awake rounds
  Summary rounds;               ///< per-run rounds used
  Summary mis_size;
  Summary max_degree;           ///< topology Δ per run
};

/// Out-of-band facts about how a sweep executed (never part of the points,
/// which stay bit-identical across job counts).
struct SweepRunInfo {
  unsigned jobs = 1;
  double wall_seconds = 0.0;             ///< whole sweep, including reduction
  std::vector<double> point_wall_seconds;///< per size: sum of its trial times
};

/// Runs the sweep; one point per size. Serial (jobs = 1).
std::vector<SweepPoint> RunSweep(const SweepConfig& config);

/// Runs the sweep's trials on `jobs` threads (0 = par::DefaultJobs(); 1 =
/// inline serial). Results are reduced in trial order: the returned points
/// are bit-identical to the serial path. `info`, when non-null, receives the
/// job count and wall-clock of this execution.
std::vector<SweepPoint> RunSweep(const SweepConfig& config, unsigned jobs,
                                 SweepRunInfo* info = nullptr);

/// The sweep's aggregate columns as a JSON object {title, points[...]} —
/// the `sweeps[]` entry of the emis-bench-report/1 schema. Deterministic in
/// (title, points). When `info` is non-null, adds the execution facts
/// ("jobs", "wall_seconds", per-point "wall_seconds") so BENCH_*.json
/// artifacts track the speedup trajectory.
obs::JsonValue BuildSweepJson(const std::string& title,
                              const std::vector<SweepPoint>& points,
                              const SweepRunInfo* info = nullptr);

/// Convenience: extracts (n, mean max energy) columns for fitting.
std::vector<double> Sizes(const std::vector<SweepPoint>& points);
std::vector<double> MeanMaxEnergy(const std::vector<SweepPoint>& points);
std::vector<double> MeanRounds(const std::vector<SweepPoint>& points);

/// Renders a standard result table for a sweep.
std::string RenderSweep(const std::string& title,
                        const std::vector<SweepPoint>& points);

}  // namespace emis
