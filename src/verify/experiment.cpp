#include "verify/experiment.hpp"

#include <cmath>
#include <memory>
#include <optional>
#include <ostream>

#include "obs/phase_timeline.hpp"
#include "obs/scoped_timer.hpp"
#include "verify/parallel.hpp"

namespace emis {

namespace families {

GraphFactory SparseErdosRenyi(double avg_degree) {
  return [avg_degree](NodeId n, Rng& rng) {
    const double p = n > 1 ? std::min(1.0, avg_degree / (n - 1)) : 0.0;
    return gen::ErdosRenyi(n, p, rng);
  };
}

GraphFactory PolynomialDegreeErdosRenyi() {
  return [](NodeId n, Rng& rng) {
    const double p = n > 1 ? std::min(1.0, 1.0 / std::sqrt(static_cast<double>(n))) : 0.0;
    return gen::ErdosRenyi(n, p, rng);
  };
}

GraphFactory UnitDisk(double avg_degree) {
  return [avg_degree](NodeId n, Rng& rng) {
    // Expected degree ≈ n * pi * r^2 (interior nodes): solve r.
    const double r =
        n > 1 ? std::sqrt(avg_degree / (M_PI * static_cast<double>(n))) : 0.0;
    return gen::RandomGeometric(n, r, rng);
  };
}

GraphFactory LowerBoundFamily() {
  return [](NodeId n, Rng&) { return gen::MatchingPlusIsolated(n); };
}

GraphFactory StarFamily() {
  return [](NodeId n, Rng&) { return gen::Star(n); };
}

GraphFactory CompleteFamily() {
  return [](NodeId n, Rng&) { return gen::Complete(n); };
}

GraphFactory TreeFamily() {
  return [](NodeId n, Rng& rng) { return gen::RandomTree(n, rng); };
}

}  // namespace families

namespace {

/// Everything the ordered reduction needs from one (n, seed) trial. Trials
/// write only their own slot, so the parallel fan-out shares no state.
struct TrialOutcome {
  bool valid = false;
  double max_energy = 0.0;
  double avg_energy = 0.0;
  double rounds = 0.0;
  double mis_size = 0.0;
  double max_degree = 0.0;
  double seconds = 0.0;
  std::unique_ptr<MisRunResult> full;  ///< retained only for config.observe
  /// The trial's drained NDJSON telemetry, concatenated on the reducing
  /// thread in (size, seed) order, so the stream is bit-identical across
  /// jobs counts.
  std::unique_ptr<std::string> telemetry;
};

}  // namespace

std::vector<SweepPoint> RunSweep(const SweepConfig& config) {
  return RunSweep(config, 1, nullptr);
}

std::vector<SweepPoint> RunSweep(const SweepConfig& config, unsigned jobs,
                                 SweepRunInfo* info) {
  EMIS_REQUIRE(config.factory != nullptr, "sweep needs a graph factory");
  if (jobs == 0) jobs = par::DefaultJobs();
  const double sweep_begin = obs::MonotonicSeconds();

  const std::uint64_t per_size = config.seeds_per_size;
  const std::uint64_t total = config.sizes.size() * per_size;
  std::vector<TrialOutcome> outcomes(total);
  // One metrics shard per worker: the scheduler's cached metric handles stay
  // plain (non-atomic) because no two threads share a registry.
  std::vector<obs::MetricsRegistry> shards(config.metrics != nullptr ? jobs : 0);

  if (total > 0) {
    par::ParallelFor(jobs, total, [&](std::uint64_t t, unsigned worker) {
      const double trial_begin = obs::MonotonicSeconds();
      const NodeId n = config.sizes[t / per_size];
      const auto s = static_cast<std::uint32_t>(t % per_size);
      const std::uint64_t seed =
          config.seed_base + static_cast<std::uint64_t>(n) * 1'000'003 + s;
      Rng topo_rng(seed ^ 0x9e3779b97f4a7c15ULL);
      const Graph graph = config.factory(n, topo_rng);
      MisRunConfig run_config{
          .algorithm = config.algorithm, .preset = config.preset, .seed = seed};
      run_config.engine = config.engine;
      run_config.shards = config.shards;
      if (config.delta_unknown) run_config.delta_estimate = n;
      if (config.tweak) config.tweak(run_config, graph);
      if (!shards.empty()) run_config.metrics = &shards[worker];

      // Per-trial telemetry: a private sink and the private timeline that
      // drives its phase events; the stream reaches the caller through the
      // outcome slot, never through shared state.
      obs::PhaseTimeline timeline;
      std::optional<obs::StreamSink> sink;
      if (config.telemetry_out != nullptr) {
        run_config.timeline = &timeline;
        sink.emplace(config.telemetry_config);
        run_config.telemetry = &*sink;
        obs::JsonValue begin = obs::JsonValue::MakeObject();
        begin.Set("event", "run_begin");
        begin.Set("n", static_cast<std::uint64_t>(n));
        begin.Set("seed_index", static_cast<std::uint64_t>(s));
        begin.Set("seed", seed);
        begin.Set("nodes", static_cast<std::uint64_t>(graph.NumNodes()));
        begin.Set("edges", graph.NumEdges());
        // Trial-private sink: the control event lands in this trial's own
        // bounded queue, drained into the outcome slot and merged serially
        // in (size, seed) order after the join — never a shared stream.
        // emis-lint: allow(observable-commit-order)
        sink->EmitControl(begin);
      }

      MisRunResult run = RunMis(graph, run_config);

      TrialOutcome& out = outcomes[t];
      out.valid = run.Valid();
      out.max_energy = static_cast<double>(run.energy.MaxAwake());
      out.avg_energy = run.energy.AverageAwake();
      out.rounds = static_cast<double>(run.stats.rounds_used);
      out.mis_size = static_cast<double>(run.MisSize());
      out.max_degree = static_cast<double>(graph.MaxDegree());
      out.seconds = obs::MonotonicSeconds() - trial_begin;
      if (sink) {
        obs::JsonValue end = obs::JsonValue::MakeObject();
        end.Set("event", "run_end");
        end.Set("n", static_cast<std::uint64_t>(n));
        end.Set("seed_index", static_cast<std::uint64_t>(s));
        end.Set("rounds", run.stats.rounds_used);
        end.Set("mis_size", run.MisSize());
        end.Set("valid", run.Valid());
        end.Set("emitted_events", sink->EmittedEvents());
        end.Set("dropped_events", sink->DroppedEvents());
        // Same trial-private sink as run_begin above (serial merge after
        // the join keeps the global telemetry order jobs-invariant).
        // emis-lint: allow(observable-commit-order)
        sink->EmitControl(end);
        out.telemetry = std::make_unique<std::string>(sink->DrainToString());
      }
      if (config.observe) out.full = std::make_unique<MisRunResult>(std::move(run));
    });
  }

  // Merge shards in worker order, then reduce trials in (size, seed) order —
  // the exact accumulation sequence of the serial loop, so points (and any
  // floating-point summary derived from them) are bit-identical at any jobs.
  if (config.metrics != nullptr) {
    for (const obs::MetricsRegistry& shard : shards) config.metrics->Merge(shard);
  }
  std::vector<SweepPoint> points;
  points.reserve(config.sizes.size());
  if (info != nullptr) {
    info->jobs = jobs;
    info->point_wall_seconds.assign(config.sizes.size(), 0.0);
  }
  for (std::size_t i = 0; i < config.sizes.size(); ++i) {
    SweepPoint point;
    point.n = config.sizes[i];
    for (std::uint64_t s = 0; s < per_size; ++s) {
      const TrialOutcome& out = outcomes[i * per_size + s];
      ++point.runs;
      point.failures += out.valid ? 0 : 1;
      point.max_energy.Add(out.max_energy);
      point.avg_energy.Add(out.avg_energy);
      point.rounds.Add(out.rounds);
      point.mis_size.Add(out.mis_size);
      point.max_degree.Add(out.max_degree);
      if (info != nullptr) info->point_wall_seconds[i] += out.seconds;
      if (config.telemetry_out != nullptr && out.telemetry != nullptr) {
        *config.telemetry_out << *out.telemetry;
      }
      if (config.observe) {
        config.observe(point.n, static_cast<std::uint32_t>(s), *out.full);
      }
    }
    points.push_back(point);
  }
  if (info != nullptr) {
    info->wall_seconds = obs::MonotonicSeconds() - sweep_begin;
  }
  return points;
}

std::vector<double> Sizes(const std::vector<SweepPoint>& points) {
  std::vector<double> out;
  out.reserve(points.size());
  for (const auto& p : points) out.push_back(static_cast<double>(p.n));
  return out;
}

std::vector<double> MeanMaxEnergy(const std::vector<SweepPoint>& points) {
  std::vector<double> out;
  out.reserve(points.size());
  for (const auto& p : points) out.push_back(p.max_energy.mean);
  return out;
}

std::vector<double> MeanRounds(const std::vector<SweepPoint>& points) {
  std::vector<double> out;
  out.reserve(points.size());
  for (const auto& p : points) out.push_back(p.rounds.mean);
  return out;
}

obs::JsonValue BuildSweepJson(const std::string& title,
                              const std::vector<SweepPoint>& points,
                              const SweepRunInfo* info) {
  obs::JsonValue sweep = obs::JsonValue::MakeObject();
  sweep.Set("title", title);
  if (info != nullptr) {
    sweep.Set("jobs", static_cast<std::uint64_t>(info->jobs));
    sweep.Set("wall_seconds", info->wall_seconds);
  }
  obs::JsonValue rows = obs::JsonValue::MakeArray();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    obs::JsonValue row = obs::JsonValue::MakeObject();
    row.Set("n", static_cast<std::uint64_t>(p.n));
    row.Set("runs", static_cast<std::uint64_t>(p.runs));
    row.Set("failures", static_cast<std::uint64_t>(p.failures));
    row.Set("max_energy_mean", p.max_energy.mean);
    row.Set("avg_energy_mean", p.avg_energy.mean);
    row.Set("rounds_mean", p.rounds.mean);
    row.Set("mis_size_mean", p.mis_size.mean);
    if (info != nullptr && i < info->point_wall_seconds.size()) {
      row.Set("wall_seconds", info->point_wall_seconds[i]);
    }
    rows.Push(std::move(row));
  }
  sweep.Set("points", std::move(rows));
  return sweep;
}

std::string RenderSweep(const std::string& title,
                        const std::vector<SweepPoint>& points) {
  Table table({"n", "Δ(avg)", "energy max(avg)", "energy max(max)", "energy avg",
               "rounds(avg)", "|MIS|(avg)", "ok"});
  for (const auto& p : points) {
    table.AddRow({std::to_string(p.n), Fmt(p.max_degree.mean, 1),
                  Fmt(p.max_energy.mean, 1), Fmt(p.max_energy.max, 0),
                  Fmt(p.avg_energy.mean, 1), Fmt(p.rounds.mean, 0),
                  Fmt(p.mis_size.mean, 1),
                  std::to_string(p.runs - p.failures) + "/" + std::to_string(p.runs)});
  }
  return table.Render(title);
}

}  // namespace emis
