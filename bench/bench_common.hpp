// Shared helpers for the experiment binaries (E1-E11 in DESIGN.md).
//
// Every bench prints:
//   * a header naming the paper claim it reproduces,
//   * one or more tables of measured rows,
//   * SHAPE-CHECK verdict lines ("[pass]"/"[FAIL]") that summarize whether
//     the measurement matches the claim's shape.
// Exit code is 0 even on shape failures (so `for b in bench/*; do $b; done`
// runs everything); verdicts are for the human/EXPERIMENTS.md.
//
// When the environment variable EMIS_BENCH_JSON names a file, Footer()
// additionally writes everything Banner/Verdict/RecordSweep saw as an
// "emis-bench-report/1" JSON document (see obs/report.hpp for the schema),
// which CI validates with `emis_cli validate-report`.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "obs/report.hpp"
#include "verify/experiment.hpp"
#include "verify/parallel.hpp"
#include "verify/stats.hpp"

namespace emis::bench {

inline int g_failures = 0;
inline std::string g_bench_id;
inline std::string g_bench_claim;
inline obs::JsonValue g_verdicts = obs::JsonValue::MakeArray();
inline obs::JsonValue g_sweeps = obs::JsonValue::MakeArray();

/// Bench-wide metrics: RunTimedSweep merges every sweep's worker shards into
/// this registry (unless the config routes them elsewhere), and Footer()
/// serializes it as the bench report's required "metrics" sub-document —
/// chan.live_edges / graph.compactions and the rest of the scheduler's
/// telemetry accumulate across the whole binary.
inline obs::MetricsRegistry& Metrics() {
  static obs::MetricsRegistry registry;
  return registry;
}

inline void Banner(const std::string& id, const std::string& claim) {
  g_bench_id = id;
  g_bench_claim = claim;
  std::printf("==============================================================\n");
  std::printf("%s\n", id.c_str());
  std::printf("Claim: %s\n", claim.c_str());
  std::printf("==============================================================\n");
}

inline void Verdict(bool ok, const std::string& what) {
  std::printf("SHAPE-CHECK [%s] %s\n", ok ? "pass" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
  obs::JsonValue entry = obs::JsonValue::MakeObject();
  entry.Set("what", what);
  entry.Set("ok", ok);
  g_verdicts.Push(std::move(entry));
}

/// Worker count for the benches' trial fan-out: EMIS_BENCH_JOBS when set
/// (0 or 1 forces the serial path), else every hardware thread. Sweep
/// statistics are bit-identical at any value — only wall-clock changes.
inline unsigned Jobs() {
  const char* env = std::getenv("EMIS_BENCH_JOBS");
  if (env != nullptr && env[0] != '\0') {
    const long parsed = std::strtol(env, nullptr, 10);
    return parsed < 1 ? 1 : static_cast<unsigned>(parsed);
  }
  return par::DefaultJobs();
}

/// Execution-engine override for the benches' sweeps: the value of
/// EMIS_BENCH_ENGINE (coroutine|flat) when set, else the config's own. A
/// cost knob only — sweep points are bit-identical under either engine
/// (pinned by test_flat_engine.cpp).
inline ExecutionEngine Engine(ExecutionEngine fallback) {
  const char* env = std::getenv("EMIS_BENCH_ENGINE");
  if (env == nullptr || env[0] == '\0') return fallback;
  return ParseExecutionEngine(env, "EMIS_BENCH_ENGINE");
}

/// Registry injected into sweeps that did not bring their own: the
/// process-global Metrics() (feeding the BENCH_*.json "metrics" block)
/// unless EMIS_BENCH_METRICS=off, which returns null so perf-sensitive legs
/// run with scheduler instrumentation fully disabled — the pre-PR-5
/// measurement condition. Receptions and sweep points are identical either
/// way; only timer/counter overhead changes (see EXPERIMENTS.md,
/// "Measurement conditions").
inline obs::MetricsRegistry* BenchMetrics() {
  const char* env = std::getenv("EMIS_BENCH_METRICS");
  if (env == nullptr || env[0] == '\0') return &Metrics();
  const std::string text(env);
  EMIS_REQUIRE(text == "on" || text == "off",
               "EMIS_BENCH_METRICS must be on or off (got '" + text + "')");
  return text == "on" ? &Metrics() : nullptr;
}

/// A sweep's points plus how they were computed (jobs, wall-clock).
struct TimedSweep {
  std::vector<SweepPoint> points;
  SweepRunInfo info;
};

/// Runs the sweep's trials across Jobs() threads, honouring the
/// EMIS_BENCH_ENGINE override. The returned points are bit-identical to
/// RunSweep(cfg)'s serial output (see experiment.hpp).
inline TimedSweep RunTimedSweep(const SweepConfig& cfg) {
  TimedSweep out;
  SweepConfig directed = cfg;
  directed.engine = Engine(cfg.engine);
  if (directed.metrics == nullptr) directed.metrics = BenchMetrics();
  out.points = RunSweep(directed, Jobs(), &out.info);
  return out;
}

/// Saves a sweep's aggregate columns for the JSON artifact. Call once per
/// rendered table; a no-op for the human-readable output.
inline void RecordSweep(const std::string& title,
                        const std::vector<SweepPoint>& points) {
  g_sweeps.Push(BuildSweepJson(title, points));
}

/// TimedSweep variant: the artifact row additionally carries "jobs" and
/// "wall_seconds", so BENCH_*.json tracks the speedup trajectory.
inline void RecordSweep(const std::string& title, const TimedSweep& sweep) {
  g_sweeps.Push(BuildSweepJson(title, sweep.points, &sweep.info));
}

inline void Footer() {
  if (g_failures == 0) {
    std::printf("\nAll shape checks passed.\n");
  } else {
    std::printf("\n%d shape check(s) FAILED.\n", g_failures);
  }
  const char* json_path = std::getenv("EMIS_BENCH_JSON");
  if (json_path != nullptr && json_path[0] != '\0') {
    obs::JsonValue doc = obs::JsonValue::MakeObject();
    doc.Set("schema", obs::kBenchReportSchema);
    doc.Set("bench", g_bench_id);
    doc.Set("claim", g_bench_claim);
    doc.Set("failures", static_cast<std::int64_t>(g_failures));
    doc.Set("verdicts", std::move(g_verdicts));
    doc.Set("sweeps", std::move(g_sweeps));
    doc.Set("metrics", obs::BuildMetricsJson(Metrics()));
    obs::JsonValue alloc = obs::JsonValue::MakeObject();
    alloc.Set("peak_rss_bytes", obs::PeakRssBytes());
    doc.Set("alloc", std::move(alloc));
    std::ofstream out(json_path);
    if (out.good()) {
      out << doc.Dump(2) << '\n';
      std::printf("wrote %s\n", json_path);
    } else {
      std::fprintf(stderr, "cannot write EMIS_BENCH_JSON=%s\n", json_path);
    }
  }
}

/// Sum of failures across all sweep points (invalid MIS outputs).
inline std::uint32_t TotalFailures(const std::vector<SweepPoint>& points) {
  std::uint32_t f = 0;
  for (const auto& p : points) f += p.failures;
  return f;
}

}  // namespace emis::bench
