// Run-report emission: one stable JSON document per run.
//
// The report serializes everything a perf/quality trajectory needs from a
// single run — RunStats, the EnergyMeter distribution, the PhaseTimeline and
// the MetricsRegistry — under a versioned schema ("emis-run-report/1").
// `emis_cli run --report-out FILE` and bench_common.hpp's artifact writer
// both emit through here; ValidateRunReport / ValidateBenchReport are the
// schema checks used by tests, `emis_cli validate-report` and CI.
//
// Schema emis-run-report/1 (all keys required unless noted):
//   schema   "emis-run-report/1"
//   run      {algorithm, graph, preset, seed, nodes, edges, max_degree,
//             shards (optional; cost metadata, excluded from diff gates)}
//   result   {valid_mis, mis_size, rounds, node_rounds, nodes_finished,
//             hit_round_limit}
//   energy   {max_awake, avg_awake, total_awake, total_transmit,
//             total_listen, percentiles{p10,p50,p90,p99},
//             awake_histogram{bounds[], counts[]}}
//   phases   [{label, level, begin_round, end_round, rounds,
//              transmit_rounds, listen_rounds, awake_rounds,
//              residual_edges_begin?, residual_edges_end?}]
//   energy_attribution
//            OPTIONAL (added after schema 1 shipped; older documents omit
//            it and stay valid). {total_transmit, total_listen, keys[
//            {phase, sub, transmit_rounds, listen_rounds, awake_rounds,
//             nodes_charged, max_awake, p50_awake, p90_awake, p99_awake}]}
//            — the EnergyLedger's per-(phase, level) decomposition; key
//            totals sum exactly to the energy block's totals (conservation,
//            pinned by test). The empty phase label is the unattributed
//            remainder. Gauges obs.trace_dropped / obs.telemetry_dropped in
//            the metrics block account for bounded-sink losses.
//   alloc    {arena_reserved_bytes, arena_used_bytes, peak_rss_bytes}
//   metrics  {counters{}, gauges{}, timers{name:{count,total_ns,mean_ns,
//             max_ns}}, histograms{name:{bounds[], counts[], sum}}}
//            Scheduler-fed names include the residual-compaction telemetry:
//            counters graph.compactions / graph.edges_reclaimed and the
//            gauge chan.live_edges (see SchedulerConfig::metrics).
//
// Schema emis-bench-report/1:
//   schema   "emis-bench-report/1"
//   bench    experiment id (e.g. "E1  bench_cd_energy")
//   claim    the paper claim the bench reproduces
//   failures total SHAPE-CHECK failures
//   verdicts [{what, ok}]
//   sweeps   [{title, points[{n, runs, failures, max_energy_mean,
//              avg_energy_mean, rounds_mean, mis_size_mean}]}]
//   metrics  OPTIONAL (added after schema 1 shipped; older documents omit
//            it and stay valid). Same shape as the run report's metrics
//            sub-document; sweeps merge their per-worker shards into it, so
//            scheduler counters (chan.*, graph.*, sched.*) accumulate
//            across the whole bench
//   alloc    {peak_rss_bytes}   (process-wide; arenas are per-run)
#pragma once

#include <iosfwd>
#include <string>

#include "obs/energy_ledger.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_timeline.hpp"
#include "radio/energy.hpp"
#include "radio/scheduler.hpp"

namespace emis::obs {

inline constexpr std::string_view kRunReportSchema = "emis-run-report/1";
inline constexpr std::string_view kBenchReportSchema = "emis-bench-report/1";
inline constexpr std::string_view kDiffReportSchema = "emis-diff-report/1";
/// emis_lint's artifact. /2 adds pass-1 index counters (symbols_indexed,
/// call_edges), wall_seconds, per-rule waiver accounting
/// (suppressed_by_rule), and optional per-finding "symbol" and "witness"
/// call-chain arrays; /1 artifacts (pre-PR 9) still validate.
inline constexpr std::string_view kLintReportSchema = "emis-lint-report/2";
inline constexpr std::string_view kLintReportSchemaV1 = "emis-lint-report/1";

struct RunReportInputs {
  std::string algorithm;
  std::string graph;      ///< spec or file description of the topology
  std::string preset;
  std::uint64_t seed = 0;
  NodeId nodes = 0;
  std::uint64_t edges = 0;
  std::uint32_t max_degree = 0;
  /// Intra-run shard count the run executed with (run.shards; cost metadata
  /// only — reports are bit-identical across shard counts outside this key).
  unsigned shards = 1;
  bool valid_mis = false;
  std::uint64_t mis_size = 0;
  /// Allocation telemetry: the scheduler arena's footprint
  /// (MisRunResult::arena) and the process peak RSS (PeakRssBytes()).
  std::uint64_t arena_reserved_bytes = 0;
  std::uint64_t arena_used_bytes = 0;
  std::uint64_t peak_rss_bytes = 0;
  const RunStats* stats = nullptr;         ///< required
  const EnergyMeter* energy = nullptr;     ///< required
  const PhaseTimeline* timeline = nullptr; ///< optional; spans must be closed
  const MetricsRegistry* metrics = nullptr;///< optional
  const EnergyLedger* ledger = nullptr;    ///< optional energy_attribution
};

/// Builds the report document. Deterministic in the inputs (stable key and
/// span order), so emitted files are diffable across runs of the same seed.
JsonValue BuildRunReport(const RunReportInputs& inputs);

/// Serializes BuildRunReport pretty-printed with a trailing newline.
void WriteRunReport(std::ostream& out, const RunReportInputs& inputs);

/// Serializes a MetricsRegistry alone (the `metrics` sub-document).
JsonValue BuildMetricsJson(const MetricsRegistry& registry);

/// The EnergyLedger's aggregation as the `energy_attribution` sub-document.
JsonValue BuildAttributionJson(const EnergyLedger& ledger);

/// Schema checks: empty string if the document conforms, else a description
/// of the first violation.
std::string ValidateRunReport(const JsonValue& doc);
std::string ValidateBenchReport(const JsonValue& doc);
std::string ValidateDiffReport(const JsonValue& doc);
/// Accepts both emis-lint-report/2 and the legacy /1 layout.
std::string ValidateLintReport(const JsonValue& doc);

/// Dispatches on the document's "schema" field; unknown schemas are errors.
std::string ValidateReport(const JsonValue& doc);

/// Peak resident set size of this process in bytes (Linux: VmHWM from
/// /proc/self/status; 0 on platforms without it). Monotone over the process
/// lifetime, so report emitters read it at write time.
std::uint64_t PeakRssBytes();

}  // namespace emis::obs
