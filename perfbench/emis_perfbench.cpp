// emis_perfbench: the repository benchmark program.
//
//   emis_perfbench --workload er-cd-dense|udg-nocd-observed|sweep-cd-coroutine
//                  --seed N --seconds S --trace 0|1
//                  [--scale full|toy] [--work-dir DIR]
//
// One named workload per invocation, in one process, timing calls into the
// public functions of each library layer: GraphFromSpec, WriteBinaryCsr,
// MapBinaryCsr, RunMis, CheckMis, obs::WriteRunReport, StreamSink::DrainTo,
// RunSweep and a wrapped GraphFactory. Every input derives from --seed.
//
// --trace 0 measures the end-to-end metrics with nothing attached beyond
// what the workload itself defines. --trace 1 is a separate run that
// attaches an obs::MetricsRegistry to the solves, records a span around
// every layer call, and reports the per-layer metrics; the spans are kept
// in memory and written to DIR/spans-<workload>.json when the run ends.
//
// Correctness is checked in-process and outside every timed window: each
// result is re-checked with CheckMis and with the benchmark's own MIS check,
// the mapped graph is compared with the generated one, and the first
// operation is compared bit for bit with a reference configuration. The
// last stdout line is {"correct", "attempted", "failed", "metrics"}.
// perfbench/NOTES.md documents the workloads, metrics and checks.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/runner.hpp"
#include "obs/energy_ledger.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_timeline.hpp"
#include "obs/report.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/stream_sink.hpp"
#include "radio/graph_io.hpp"
#include "radio/rng.hpp"
#include "verify/experiment.hpp"
#include "verify/mis_checker.hpp"
#include "verify/parallel.hpp"

namespace {

using emis::ExecutionEngine;
using emis::Graph;
using emis::MisAlgorithm;
using emis::MisRunConfig;
using emis::MisRunResult;
using emis::MisStatus;
using emis::NodeId;
using emis::Rng;
using emis::obs::MonotonicSeconds;

// Read during static initialization, before main: the closest in-process
// stand-in for the process start that setup_s is measured from.
const double kProcessStart = MonotonicSeconds();

/// Worker threads for every parallel knob (shards, sweep jobs).
constexpr unsigned kThreads = 4;
/// Set-up repetitions per run (setup_s is their median), unless a workload
/// whose set-up takes seconds sets fewer. The short set-ups (tens of
/// milliseconds) swing most from one repetition to the next, so they are
/// repeated often.
constexpr int kSetupReps = 25;
/// Operations every measured loop runs at least, whatever --seconds says.
constexpr std::size_t kMinOps = 3;
/// The simulated end-to-end metrics (max_awake.p50, rounds.p50) are taken
/// over this many leading operations, so they depend on the seed alone and
/// not on how many operations fit into --seconds.
constexpr std::size_t kSimulatedOps = 3;

// --- command line -----------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool toy = false;
  std::string work_dir = ".";
  std::string spans_out;
};

Args ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --flag value pairs, got '" + key + "'");
    }
    flags[key.substr(2)] = argv[i + 1];
  }
  const auto take = [&flags](const std::string& key, bool required) {
    const auto it = flags.find(key);
    if (it == flags.end()) {
      if (required) throw std::invalid_argument("missing --" + key);
      return std::string();
    }
    std::string value = it->second;
    flags.erase(it);
    return value;
  };
  Args a;
  a.workload = take("workload", true);
  a.seed = std::stoull(take("seed", true));
  a.seconds = std::stod(take("seconds", true));
  const std::string trace = take("trace", true);
  if (trace != "0" && trace != "1") throw std::invalid_argument("--trace must be 0 or 1");
  a.trace = trace == "1";
  const std::string scale = take("scale", false);
  if (!scale.empty() && scale != "full" && scale != "toy") {
    throw std::invalid_argument("--scale must be full or toy");
  }
  a.toy = scale == "toy";
  if (const std::string dir = take("work-dir", false); !dir.empty()) a.work_dir = dir;
  a.spans_out = a.work_dir + "/spans-" + a.workload + ".json";
  if (!flags.empty()) throw std::invalid_argument("unknown flag --" + flags.begin()->first);
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

std::uint64_t Mix(std::uint64_t seed, std::uint64_t stream) {
  return emis::SplitMix64(seed * 0x9e3779b97f4a7c15ULL + stream).Next();
}
/// Topology seed of a workload, and the run seed of its i-th operation.
std::uint64_t TopologySeed(std::uint64_t seed) { return Mix(seed, 0x70901067ULL); }
std::uint64_t OpSeed(std::uint64_t seed, std::size_t i) { return Mix(seed, 1 + i); }

// --- statistics -------------------------------------------------------------

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t m = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[m] : 0.5 * (xs[m - 1] + xs[m]);
}

/// The tail sample: the highest nearest-rank percentile with at least ten
/// samples beyond it, i.e. the (N-10)-th smallest of N, but never below
/// Median() (with fewer than 20 samples no percentile at or above p50 has
/// ten samples beyond it, and the tail is the median).
struct TailStat {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

TailStat TailOf(std::vector<double> xs) {
  TailStat t;
  t.samples = xs.size();
  if (xs.empty()) return t;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  const std::size_t median_rank = (n + 1) / 2;  // 1-based nearest rank
  const std::size_t rank = std::max(n > 10 ? n - 10 : 0, median_rank);
  t.value = std::max(xs[rank - 1], Median(xs));
  t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  t.beyond = n - rank;
  return t;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double PeakRssMb() {
  return static_cast<double>(emis::obs::PeakRssBytes()) / (1024.0 * 1024.0);
}

// --- spans ------------------------------------------------------------------

/// In-memory span log: name, start, end, parent span and operation id per
/// recorded layer call. Disabled logs record nothing, but their scopes
/// still time the call, so untraced and traced runs share one code path.
class SpanLog {
 public:
  static constexpr int kNone = -1;

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(SpanLog& log, std::string name, std::uint64_t op)
        : log_(log), start_(MonotonicSeconds()) {
      id_ = log_.Open(std::move(name), op, start_);
    }
    ~Scope() { End(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Closes the span (idempotent) and returns its duration in seconds.
    double End() {
      if (!ended_) {
        end_ = MonotonicSeconds();
        ended_ = true;
        log_.Close(id_, end_);
      }
      return end_ - start_;
    }
    int Id() const noexcept { return id_; }

   private:
    SpanLog& log_;
    double start_;
    double end_ = 0.0;
    bool ended_ = false;
    int id_ = kNone;
  };

  /// Records a finished span measured elsewhere (e.g. on a sweep worker
  /// thread), under an explicit parent.
  void AddFinished(std::string name, std::uint64_t op, double start, double end,
                   int parent) {
    if (!enabled_) return;
    spans_.push_back({std::move(name), start, end, parent, op});
  }

  /// Per-name self time: duration minus the union of child intervals.
  std::map<std::string, double> SelfSeconds() const {
    std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent != kNone) {
        children[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
      }
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto& kids = children[i];
      std::sort(kids.begin(), kids.end());
      double covered = 0.0;
      double cursor = s.start;
      for (const auto& [b, e] : kids) {
        const double lo = std::max(b, cursor);
        const double hi = std::min(e, s.end);
        if (hi > lo) covered += hi - lo;
        cursor = std::max(cursor, std::min(e, s.end));
      }
      self[s.name] += (s.end - s.start) - covered;
    }
    return self;
  }

  void Write(const std::string& path, const std::string& workload,
             std::uint64_t seed) const {
    emis::obs::JsonValue doc = emis::obs::JsonValue::MakeObject();
    doc.Set("schema", "emis-perfbench-spans/1");
    doc.Set("workload", workload);
    doc.Set("seed", seed);
    emis::obs::JsonValue list = emis::obs::JsonValue::MakeArray();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      emis::obs::JsonValue row = emis::obs::JsonValue::MakeObject();
      row.Set("id", static_cast<std::uint64_t>(i));
      row.Set("name", s.name);
      row.Set("start_s", s.start - kProcessStart);
      row.Set("end_s", s.end - kProcessStart);
      row.Set("parent", static_cast<double>(s.parent));
      row.Set("op", s.op);
      list.Push(std::move(row));
    }
    doc.Set("spans", std::move(list));
    emis::obs::JsonValue self = emis::obs::JsonValue::MakeObject();
    for (const auto& [name, seconds] : SelfSeconds()) self.Set(name, seconds);
    doc.Set("self_seconds", std::move(self));
    std::ofstream out(path);
    out << doc.Dump(1) << '\n';
    out.close();
    if (!out) throw std::runtime_error("cannot write span file " + path);
  }

 private:
  struct Span {
    std::string name;
    double start;
    double end;
    int parent;
    std::uint64_t op;
  };

  int Open(std::string name, std::uint64_t op, double start) {
    if (!enabled_) return kNone;
    const int parent = stack_.empty() ? kNone : stack_.back();
    spans_.push_back({std::move(name), start, start, parent, op});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }

  void Close(int id, double end) {
    if (id == kNone) return;
    spans_[static_cast<std::size_t>(id)].end = end;
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Operation ids of spans that belong to no measured operation.
constexpr std::uint64_t kSetupOp = ~0ULL;
constexpr std::uint64_t kSideOp = ~0ULL - 1;

// --- result -----------------------------------------------------------------

class Outcome {
 public:
  void Incorrect(const std::string& why) {
    correct_ = false;
    std::fprintf(stderr, "INCORRECT: %s\n", why.c_str());
  }
  /// Counts one attempted MIS run; `failure` is empty when it succeeded.
  void Attempt(const std::string& failure) {
    ++attempted_;
    if (!failure.empty()) {
      ++failed_;
      std::fprintf(stderr, "failed run: %s\n", failure.c_str());
    }
  }
  void Metric(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      Incorrect("metric " + name + " is not finite");
      value = 0.0;
    }
    metrics_.push_back({name, value, unit});
  }
  void Print() const {
    std::string out = "{\"correct\": ";
    out += correct_ ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", metrics_[i].value);
      out += (i == 0 ? "\"" : ", \"") + metrics_[i].name + "\": {\"value\": " +
             value + ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Entry> metrics_;
};

// --- correctness checks -----------------------------------------------------

/// The benchmark's own MIS check, sharing no code with the library's
/// CheckMis: every node decided, no two adjacent MIS nodes, every non-MIS
/// node dominated.
bool IndependentMisCheck(const Graph& g, const std::vector<MisStatus>& status) {
  if (status.size() != g.NumNodes()) return false;
  const auto offsets = g.RowOffsets();
  const auto adj = g.Adjacency();
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    if (status[u] == MisStatus::kUndecided) return false;
    bool dominated = false;
    for (std::uint64_t i = offsets[u]; i < offsets[u + 1]; ++i) {
      if (status[adj[i]] != MisStatus::kInMis) continue;
      if (status[u] == MisStatus::kInMis) return false;
      dominated = true;
    }
    if (status[u] == MisStatus::kOutMis && !dominated) return false;
  }
  return true;
}

/// Both MIS checks of one result. Pure, so sweep trials check in parallel.
struct MisCheck {
  bool valid = false;        ///< CheckMis verdict
  bool own_valid = false;    ///< IndependentMisCheck verdict
  std::string problem;       ///< CheckMis description when invalid
  double start = 0.0, end = 0.0;  ///< CheckMis call
};

MisCheck CheckStatus(const Graph& g, const std::vector<MisStatus>& status) {
  MisCheck c;
  c.start = MonotonicSeconds();
  const emis::MisReport report = emis::CheckMis(g, status);
  c.end = MonotonicSeconds();
  c.valid = report.IsValidMis();
  if (!c.valid) c.problem = report.Describe();
  c.own_valid = IndependentMisCheck(g, status);
  return c;
}

/// Returns the failure reason (empty for a valid, completed MIS);
/// disagreement between the checks and the result makes the output
/// incorrect.
std::string Judge(const MisCheck& c, bool reported_valid, bool hit_round_limit,
                  Outcome& out) {
  if (c.valid != reported_valid) out.Incorrect("CheckMis disagrees with result.Valid()");
  if (c.own_valid != c.valid) out.Incorrect("the benchmark's MIS check disagrees with CheckMis");
  if (hit_round_limit) return "hit_round_limit";
  if (!c.valid) return "invalid MIS: " + c.problem;
  return "";
}

bool SameGraph(const Graph& a, const Graph& b) {
  return a.NumNodes() == b.NumNodes() && a.MaxDegree() == b.MaxDegree() &&
         std::ranges::equal(a.RowOffsets(), b.RowOffsets()) &&
         std::ranges::equal(a.Adjacency(), b.Adjacency());
}

/// Empty when two runs agree on status, per-node energy and RunStats.
std::string RunDiff(const MisRunResult& a, const MisRunResult& b) {
  if (a.status != b.status) return "status differs";
  if (a.energy.NumNodes() != b.energy.NumNodes()) return "energy size differs";
  for (NodeId v = 0; v < a.energy.NumNodes(); ++v) {
    if (!(a.energy.Of(v) == b.energy.Of(v))) {
      return "energy of node " + std::to_string(v) + " differs";
    }
  }
  if (a.stats.rounds_used != b.stats.rounds_used ||
      a.stats.node_rounds != b.stats.node_rounds ||
      a.stats.nodes_finished != b.stats.nodes_finished ||
      a.stats.hit_round_limit != b.stats.hit_round_limit) {
    return "RunStats differ";
  }
  return "";
}

// --- registry readers -------------------------------------------------------

std::uint64_t CounterOf(const emis::obs::MetricsRegistry& r, std::string_view name) {
  const auto it = r.Counters().find(name);
  return it == r.Counters().end() ? 0 : it->second.Value();
}
double GaugeOf(const emis::obs::MetricsRegistry& r, std::string_view name) {
  const auto it = r.Gauges().find(name);
  return it == r.Gauges().end() ? 0.0 : it->second.Value();
}
double TimerSecondsOf(const emis::obs::MetricsRegistry& r, std::string_view name) {
  const auto it = r.Timers().find(name);
  return it == r.Timers().end() ? 0.0 : static_cast<double>(it->second.TotalNs()) * 1e-9;
}

/// Per-layer sums over the traced operations; reported as per-operation
/// means (and ratios of sums).
struct LayerSums {
  std::size_t ops = 0;
  double run_s = 0.0;  ///< wall of the solve calls (RunMis, or trials)
  double execute_round_s = 0.0, resume_s = 0.0, wake_heap_s = 0.0;
  double edges_scanned = 0.0, push_rounds = 0.0, pull_rounds = 0.0;
  double compactions = 0.0, edges_reclaimed = 0.0;
  double rounds_executed = 0.0, rounds_skipped = 0.0, wake_events = 0.0;
  double node_rounds = 0.0, merge_words = 0.0, barrier_waits = 0.0;
  double check_s = 0.0, report_s = 0.0, report_bytes = 0.0;
  double drain_s = 0.0, telemetry_events = 0.0, telemetry_dropped = 0.0;
  double gen_s = 0.0, trial_s_sum = 0.0, pool_util = 0.0;
  double hot_bytes = 0.0, cold_bytes = 0.0, lane_bytes = 0.0, arena_bytes = 0.0;

  void AddRegistry(const emis::obs::MetricsRegistry& r) {
    execute_round_s += TimerSecondsOf(r, "sched.execute_round");
    resume_s += TimerSecondsOf(r, "sched.resume");
    wake_heap_s += TimerSecondsOf(r, "sched.wake_heap");
    edges_scanned += static_cast<double>(CounterOf(r, "chan.edges_scanned"));
    push_rounds += static_cast<double>(CounterOf(r, "chan.push_rounds"));
    pull_rounds += static_cast<double>(CounterOf(r, "chan.pull_rounds"));
    compactions += static_cast<double>(CounterOf(r, "graph.compactions"));
    edges_reclaimed += static_cast<double>(CounterOf(r, "graph.edges_reclaimed"));
    rounds_executed += static_cast<double>(CounterOf(r, "sched.rounds_executed"));
    rounds_skipped += static_cast<double>(CounterOf(r, "sched.rounds_skipped"));
    wake_events += static_cast<double>(CounterOf(r, "sched.wake_events"));
    merge_words += GaugeOf(r, "chan.merge_words");
    hot_bytes += GaugeOf(r, "mem.context_hot_bytes");
    cold_bytes += GaugeOf(r, "mem.context_cold_bytes");
    lane_bytes += GaugeOf(r, "mem.lane_bytes");
  }
  double PerOp(double sum) const { return Ratio(sum, static_cast<double>(ops)); }
};

/// Facts measured outside the traced loop that feed per-layer metrics.
struct SideFacts {
  double gen_s = 0.0, gen_edges = 0.0;
  double pack_s = 0.0, map_s = 0.0, csr_bytes = 0.0;
  double shard_speedup = 0.0, obs_overhead = 0.0, jobs_speedup = 0.0;
  double trace_overhead = 0.0;
};

void EmitLayerMetrics(const LayerSums& l, const SideFacts& f, Outcome& out) {
  const double timers = l.execute_round_s + l.resume_s + l.wake_heap_s;
  out.Metric("gen.s", f.gen_s, "s");
  out.Metric("gen.ns_per_edge", Ratio(f.gen_s * 1e9, f.gen_edges), "ns");
  out.Metric("io.pack_s", f.pack_s, "s");
  out.Metric("io.pack_mb_per_s", Ratio(f.csr_bytes * 1e-6, f.pack_s), "MB/s");
  out.Metric("io.map_s", f.map_s, "s");
  out.Metric("io.csr_bytes", f.csr_bytes, "bytes");
  out.Metric("chan.edges_scanned", l.PerOp(l.edges_scanned), "count");
  out.Metric("chan.push_rounds", l.PerOp(l.push_rounds), "count");
  out.Metric("chan.pull_rounds", l.PerOp(l.pull_rounds), "count");
  out.Metric("chan.ns_per_edge", Ratio(l.execute_round_s * 1e9, l.edges_scanned), "ns");
  out.Metric("graph.compactions", l.PerOp(l.compactions), "count");
  out.Metric("graph.edges_reclaimed", l.PerOp(l.edges_reclaimed), "count");
  out.Metric("sched.execute_round_s", l.PerOp(l.execute_round_s), "s");
  out.Metric("sched.resume_s", l.PerOp(l.resume_s), "s");
  out.Metric("sched.resume_ns_per_node_round", Ratio(l.resume_s * 1e9, l.node_rounds), "ns");
  out.Metric("sched.wake_heap_s", l.PerOp(l.wake_heap_s), "s");
  out.Metric("sched.wake_ns_per_event", Ratio(l.wake_heap_s * 1e9, l.wake_events), "ns");
  out.Metric("sched.rounds_executed", l.PerOp(l.rounds_executed), "count");
  out.Metric("sched.rounds_skipped", l.PerOp(l.rounds_skipped), "count");
  out.Metric("core.node_rounds", l.PerOp(l.node_rounds), "count");
  out.Metric("sched.unattributed_s", l.PerOp(l.run_s - l.gen_s - timers), "s");
  out.Metric("shard.speedup_x", f.shard_speedup, "x");
  out.Metric("parallel.barrier_waits", l.PerOp(l.barrier_waits), "count");
  out.Metric("chan.merge_words", l.PerOp(l.merge_words), "count");
  out.Metric("check.s", l.PerOp(l.check_s), "s");
  out.Metric("obs.report_s", l.PerOp(l.report_s), "s");
  out.Metric("obs.report_bytes", l.PerOp(l.report_bytes), "bytes");
  out.Metric("obs.telemetry_drain_s", l.PerOp(l.drain_s), "s");
  out.Metric("obs.telemetry_events", l.PerOp(l.telemetry_events), "count");
  out.Metric("obs.telemetry_dropped", l.PerOp(l.telemetry_dropped), "count");
  out.Metric("obs.overhead_x", f.obs_overhead, "x");
  out.Metric("sweep.trial_s_sum", l.PerOp(l.trial_s_sum), "s");
  out.Metric("sweep.pool_util", l.PerOp(l.pool_util), "ratio");
  out.Metric("sweep.gen_s_sum", l.PerOp(l.gen_s), "s");
  out.Metric("sweep.gen_share", Ratio(l.gen_s, l.trial_s_sum), "ratio");
  out.Metric("sweep.jobs_speedup_x", f.jobs_speedup, "x");
  out.Metric("arena.bytes_reserved", l.PerOp(l.arena_bytes), "bytes");
  out.Metric("mem.context_hot_bytes", l.PerOp(l.hot_bytes), "bytes");
  out.Metric("mem.context_cold_bytes", l.PerOp(l.cold_bytes), "bytes");
  out.Metric("mem.lane_bytes", l.PerOp(l.lane_bytes), "bytes");
  out.Metric("trace.overhead_x", f.trace_overhead, "x");
}

/// The traced run's output: per-layer metrics, the self-time table on
/// stderr, and the span file.
void EmitTraced(const Args& a, const SpanLog& spans, const LayerSums& layers,
                const SideFacts& f, Outcome& out) {
  EmitLayerMetrics(layers, f, out);
  for (const auto& [name, seconds] : spans.SelfSeconds()) {
    std::fprintf(stderr, "self %-24s %10.4f s\n", name.c_str(), seconds);
  }
  spans.Write(a.spans_out, a.workload, a.seed);
}

/// The end-to-end metrics of one untraced loop.
struct LoopTotals {
  std::vector<double> op_s;
  std::uint64_t verified = 0;
  double node_rounds = 0.0;
  std::vector<double> max_awake;  ///< leading results only (kSimulatedOps)
  std::vector<double> rounds;
};

void EmitEndToEnd(const std::vector<double>& setup_s, const LoopTotals& t,
                  double peak_rss_mb, Outcome& out) {
  double total = 0.0;
  for (const double s : t.op_s) total += s;
  const TailStat tail = TailOf(t.op_s);
  std::fprintf(stderr,
               "solve_s.tail = p%.1f over %zu ops (%zu beyond it); "
               "setup reps %zu\n",
               tail.percentile, tail.samples, tail.beyond, setup_s.size());
  std::fprintf(stderr, "op seconds:");
  for (const double s : t.op_s) std::fprintf(stderr, " %.3f", s);
  std::fprintf(stderr, "\nsetup seconds:");
  for (const double s : setup_s) std::fprintf(stderr, " %.3f", s);
  std::fprintf(stderr, "\n");
  out.Metric("setup_s", Median(setup_s), "s");
  out.Metric("solve_s.p50", Median(t.op_s), "s");
  out.Metric("solve_s.tail", tail.value, "s");
  out.Metric("trials_per_s", Ratio(static_cast<double>(t.verified), total), "1/s");
  out.Metric("node_rounds_per_s", Ratio(t.node_rounds, total), "1/s");
  out.Metric("peak_rss_mb", peak_rss_mb, "MB");
  out.Metric("max_awake.p50", Median(t.max_awake), "rounds");
  out.Metric("rounds.p50", Median(t.rounds), "rounds");
}

// --- single-run workloads ---------------------------------------------------

struct SingleRunWorkload {
  std::string spec;
  MisAlgorithm algorithm;
  /// Attach the full collector set of `emis_cli run --report-out
  /// --telemetry-out --heartbeat-every 64` to every operation.
  bool observed;
  int setup_reps;
};

/// Algorithm 2 runs RunMis's practical preset with one constant raised:
/// LowDegreeMIS ranks as long as the competition's (2 log n + 4 bits, not
/// log n + 4). Two adjacent committed nodes that draw the same rank both
/// join, which with log n + 4 bits happens in about one run in a thousand
/// on udg:n=16384 (NOTES.md, "Failures").
emis::NoCdParams NoCdParamsFor(const Graph& g) {
  emis::NoCdParams p = emis::NoCdParams::Practical(std::max<std::uint64_t>(g.NumNodes(), 2),
                                                   std::max(g.MaxDegree(), 1U));
  p.low_degree.rank_bits = p.rank_bits;
  return p;
}

/// The preset a workload's reports name.
std::string PresetName(const SingleRunWorkload& w) {
  return w.algorithm == MisAlgorithm::kNoCd ? "practical, low_degree.rank_bits=rank_bits"
                                            : "practical";
}

/// A uniquely named .csr file in the work directory; removed on
/// destruction unless removed earlier. mkstemps opens it O_EXCL, so no
/// process ever packs into (or maps) a file another process left behind.
class TempCsr {
 public:
  explicit TempCsr(const std::string& dir) {
    std::string pattern = dir + "/graph-" + std::to_string(::getpid()) + "-XXXXXX.csr";
    const int fd = ::mkstemps(pattern.data(), 4);
    if (fd < 0) throw std::runtime_error("cannot create a temporary file in " + dir);
    ::close(fd);
    path_ = pattern;
  }
  ~TempCsr() { Remove(); }
  TempCsr(const TempCsr&) = delete;
  TempCsr& operator=(const TempCsr&) = delete;

  const std::string& Path() const noexcept { return path_; }
  void Remove() noexcept {
    if (!path_.empty()) ::unlink(path_.c_str());
    path_.clear();
  }

 private:
  std::string path_;
};

struct GraphSetup {
  std::optional<Graph> mapped;
  double seconds = 0.0;
  double gen_s = 0.0, pack_s = 0.0, map_s = 0.0;
  std::uint64_t csr_bytes = 0;
  std::uint64_t edges = 0;
};

/// Generate, pack to a private .csr file, map it. The file is unlinked
/// right after mapping (the mapping keeps the data alive), so a crash
/// leaves nothing behind. The generated graph is compared with the mapped
/// one after the clock stops.
GraphSetup SetUpGraph(const Args& a, const SingleRunWorkload& w, double t0,
                      SpanLog& spans, Outcome& out) {
  GraphSetup s;
  std::optional<Graph> generated;
  {
    SpanLog::Scope setup(spans, "setup", kSetupOp);
    {
      SpanLog::Scope span(spans, "GraphFromSpec", kSetupOp);
      Rng rng(TopologySeed(a.seed));
      generated.emplace(emis::GraphFromSpec(w.spec, rng));
      s.gen_s = span.End();
    }
    TempCsr file(a.work_dir);
    {
      SpanLog::Scope span(spans, "WriteBinaryCsr", kSetupOp);
      std::ofstream os(file.Path(), std::ios::binary | std::ios::trunc);
      emis::WriteBinaryCsr(os, *generated);
      os.close();
      if (!os) throw std::runtime_error("writing " + file.Path() + " failed");
      s.pack_s = span.End();
    }
    s.csr_bytes = std::filesystem::file_size(file.Path());
    {
      SpanLog::Scope span(spans, "MapBinaryCsr", kSetupOp);
      s.mapped.emplace(emis::MapBinaryCsr(file.Path()));
      s.map_s = span.End();
    }
    file.Remove();
  }
  s.seconds = MonotonicSeconds() - t0;
  s.edges = generated->NumEdges();
  if (!SameGraph(*generated, *s.mapped)) {
    out.Incorrect("mapped graph differs from the generated graph");
  }
  return s;
}

/// The run-report inputs `emis_cli run --report-out` would pass.
emis::obs::RunReportInputs ReportInputs(const Graph& g, const SingleRunWorkload& w,
                                        std::uint64_t seed, unsigned shards,
                                        const MisRunResult& r,
                                        const emis::obs::MetricsRegistry& metrics,
                                        const emis::obs::PhaseTimeline* timeline,
                                        const emis::obs::EnergyLedger* ledger) {
  return {.algorithm = std::string(emis::ToString(w.algorithm)),
          .graph = w.spec,
          .preset = PresetName(w),
          .seed = seed,
          .nodes = g.NumNodes(),
          .edges = g.NumEdges(),
          .max_degree = g.MaxDegree(),
          .shards = shards,
          .valid_mis = r.Valid(),
          .mis_size = r.MisSize(),
          .arena_reserved_bytes = r.arena.reserved_bytes,
          .arena_used_bytes = r.arena.used_bytes,
          .peak_rss_bytes = emis::obs::PeakRssBytes(),
          .stats = &r.stats,
          .energy = &r.energy,
          .timeline = timeline,
          .metrics = &metrics,
          .ledger = ledger};
}

struct SolveRecord {
  MisRunResult result;
  double seconds = 0.0;      ///< operation wall (timed window)
  double run_s = 0.0;        ///< RunMis alone
  double report_s = 0.0, drain_s = 0.0;
  std::size_t report_bytes = 0;
  std::uint64_t telemetry_events = 0, telemetry_dropped = 0;
  double barrier_waits = 0.0;
};

/// One operation. Observed runs carry the full collector set inside the
/// timed window; their ledger, report and telemetry are checked after it.
SolveRecord Solve(const Graph& g, const SingleRunWorkload& w, std::uint64_t seed,
                  ExecutionEngine engine, unsigned shards, bool observed,
                  emis::obs::MetricsRegistry* registry, SpanLog& spans,
                  std::uint64_t op, Outcome& out) {
  namespace obs = emis::obs;
  SolveRecord rec;
  MisRunConfig cfg{.algorithm = w.algorithm, .seed = seed};
  if (w.algorithm == MisAlgorithm::kNoCd) cfg.nocd_params = NoCdParamsFor(g);
  cfg.engine = engine;
  cfg.shards = shards;
  cfg.metrics = registry;
  const std::uint64_t waits_before = emis::par::BarrierWaits();
  const double t0 = MonotonicSeconds();
  if (!observed) {
    SpanLog::Scope span(spans, "RunMis", op);
    rec.result = emis::RunMis(g, cfg);
    rec.run_s = span.End();
    rec.seconds = MonotonicSeconds() - t0;
    rec.barrier_waits = static_cast<double>(emis::par::BarrierWaits() - waits_before);
    return rec;
  }
  obs::MetricsRegistry local;
  if (cfg.metrics == nullptr) cfg.metrics = &local;
  obs::PhaseTimeline timeline;
  obs::EnergyLedger ledger(g.NumNodes());
  obs::StreamSink sink(obs::StreamSinkConfig{.heartbeat_every = 64});
  cfg.timeline = &timeline;
  cfg.ledger = &ledger;
  cfg.telemetry = &sink;
  obs::JsonValue begin = obs::JsonValue::MakeObject();
  begin.Set("schema", obs::kTelemetrySchema);
  begin.Set("event", "run_begin");
  begin.Set("algorithm", std::string(emis::ToString(w.algorithm)));
  begin.Set("graph", w.spec);
  begin.Set("seed", seed);
  begin.Set("nodes", static_cast<std::uint64_t>(g.NumNodes()));
  begin.Set("edges", g.NumEdges());
  sink.EmitControl(begin);
  {
    SpanLog::Scope span(spans, "RunMis", op);
    rec.result = emis::RunMis(g, cfg);
    rec.run_s = span.End();
  }
  rec.barrier_waits = static_cast<double>(emis::par::BarrierWaits() - waits_before);
  obs::JsonValue end = obs::JsonValue::MakeObject();
  end.Set("event", "run_end");
  end.Set("rounds", rec.result.stats.rounds_used);
  end.Set("mis_size", rec.result.MisSize());
  end.Set("valid", rec.result.Valid());
  end.Set("emitted_events", sink.EmittedEvents());
  end.Set("dropped_events", sink.DroppedEvents());
  sink.EmitControl(end);
  std::ostringstream telemetry;
  {
    SpanLog::Scope span(spans, "StreamSink::DrainTo", op);
    sink.DrainTo(telemetry);
    rec.drain_s = span.End();
  }
  cfg.metrics->GetGauge("obs.trace_dropped").Set(0.0);
  cfg.metrics->GetGauge("obs.telemetry_dropped")
      .Set(static_cast<double>(sink.DroppedEvents()));
  std::ostringstream report;
  {
    SpanLog::Scope span(spans, "obs::WriteRunReport", op);
    obs::WriteRunReport(report, ReportInputs(g, w, seed, shards, rec.result, *cfg.metrics,
                                             &timeline, &ledger));
    rec.report_s = span.End();
  }
  rec.seconds = MonotonicSeconds() - t0;

  // Outside the timed window: the ledger conserves against the meter, the
  // report validates, the stream is framed and lossless.
  rec.telemetry_events = sink.EmittedEvents();
  rec.telemetry_dropped = sink.DroppedEvents();
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    const emis::NodeEnergy& e = rec.result.energy.Of(v);
    if (ledger.AttributedTransmit(v) != e.transmit_rounds ||
        ledger.AttributedListen(v) != e.listen_rounds) {
      out.Incorrect("energy ledger does not conserve at node " + std::to_string(v));
      break;
    }
  }
  const std::string text = report.str();
  rec.report_bytes = text.size();
  const std::string problem = obs::ValidateRunReport(obs::ParseJson(text));
  if (!problem.empty()) out.Incorrect("run report invalid: " + problem);
  const std::string stream = telemetry.str();
  const std::size_t first_end = stream.find('\n');
  const std::size_t last_begin = stream.rfind('\n', stream.size() - 2);
  if (first_end == std::string::npos || last_begin == std::string::npos ||
      stream.substr(0, first_end).find("\"run_begin\"") == std::string::npos ||
      stream.substr(last_begin).find("\"run_end\"") == std::string::npos) {
    out.Incorrect("telemetry stream is not framed by run_begin/run_end");
  }
  return rec;
}

int RunSingle(const Args& a, const SingleRunWorkload& w, Outcome& out) {
  SpanLog spans(a.trace);
  std::vector<double> setup_s, gen_s, pack_s, map_s;
  GraphSetup setup;
  for (int rep = 0; rep < w.setup_reps; ++rep) {
    setup = GraphSetup();  // drop the previous mapping before re-packing
    setup = SetUpGraph(a, w, rep == 0 ? kProcessStart : MonotonicSeconds(), spans, out);
    setup_s.push_back(setup.seconds);
    gen_s.push_back(setup.gen_s);
    pack_s.push_back(setup.pack_s);
    map_s.push_back(setup.map_s);
  }
  const Graph& g = *setup.mapped;

  std::optional<MisRunResult> first;
  // One measured loop: operations 0, 1, ... until `seconds` passed (and at
  // least kMinOps ran). Checks run after each operation's clock stopped.
  const auto loop = [&](double seconds, bool traced, LayerSums* layers) {
    LoopTotals t;
    const double loop_start = MonotonicSeconds();
    for (std::size_t i = 0; i < kMinOps || MonotonicSeconds() - loop_start < seconds; ++i) {
      const std::uint64_t seed = OpSeed(a.seed, i);
      emis::obs::MetricsRegistry registry;
      SpanLog::Scope op_span(spans, "op", i);
      SolveRecord rec = Solve(g, w, seed, ExecutionEngine::kFlat, kThreads, w.observed,
                              traced ? &registry : nullptr, spans, i, out);
      op_span.End();
      SpanLog::Scope verify(spans, "verify", i);
      const MisCheck check = CheckStatus(g, rec.result.status);
      spans.AddFinished("CheckMis", i, check.start, check.end, verify.Id());
      verify.End();
      const double check_s = check.end - check.start;
      std::string failure = Judge(check, rec.result.Valid(),
                                  rec.result.stats.hit_round_limit, out);
      if (failure.empty() && rec.telemetry_dropped > 0) {
        failure = "telemetry dropped " + std::to_string(rec.telemetry_dropped) + " events";
      }
      out.Attempt(failure);
      t.op_s.push_back(rec.seconds);
      t.verified += failure.empty() ? 1 : 0;
      t.node_rounds += static_cast<double>(rec.result.stats.node_rounds);
      if (i < kSimulatedOps) {
        t.max_awake.push_back(static_cast<double>(rec.result.energy.MaxAwake()));
        t.rounds.push_back(static_cast<double>(rec.result.stats.rounds_used));
      }
      if (layers != nullptr) {
        ++layers->ops;
        layers->AddRegistry(registry);
        layers->run_s += rec.run_s;
        layers->node_rounds += static_cast<double>(rec.result.stats.node_rounds);
        layers->barrier_waits += rec.barrier_waits;
        layers->check_s += check_s;
        layers->arena_bytes += static_cast<double>(rec.result.arena.reserved_bytes);
        if (w.observed) {
          layers->report_s += rec.report_s;
          layers->report_bytes += static_cast<double>(rec.report_bytes);
          layers->drain_s += rec.drain_s;
          layers->telemetry_events += static_cast<double>(rec.telemetry_events);
          layers->telemetry_dropped += static_cast<double>(rec.telemetry_dropped);
        } else {
          SpanLog::Scope span(spans, "obs::WriteRunReport", i);
          // A registry-only report: this workload may not attach a timeline.
          std::ostringstream report;
          emis::obs::WriteRunReport(report, ReportInputs(g, w, seed, kThreads, rec.result,
                                                         registry, nullptr, nullptr));
          layers->report_s += span.End();
          layers->report_bytes += static_cast<double>(report.str().size());
        }
      }
      if (!first) first.emplace(std::move(rec.result));
    }
    return t;
  };

  LoopTotals untraced = loop(a.trace ? a.seconds / 2 : a.seconds, false, nullptr);
  const double peak_rss_mb = PeakRssMb();
  LayerSums layers;
  LoopTotals traced;
  if (a.trace) traced = loop(a.seconds / 2, true, &layers);

  // Reference configuration for the first operation's seed: the coroutine
  // engine, one shard, no sinks. Observers and shards are cost knobs only,
  // so the measured configuration must match it bit for bit.
  {
    SpanLog::Scope span(spans, "reference", kSideOp);
    const SolveRecord ref = Solve(g, w, OpSeed(a.seed, 0), ExecutionEngine::kCoroutine, 1,
                                  false, nullptr, spans, kSideOp, out);
    const std::string diff = RunDiff(*first, ref.result);
    if (!diff.empty()) out.Incorrect("reference (coroutine, 1 shard) mismatch: " + diff);
  }

  if (!a.trace) {
    EmitEndToEnd(setup_s, untraced, peak_rss_mb, out);
    return 0;
  }

  // Side measurements on the first operation's seed, alternating the two
  // configurations of each comparison.
  SideFacts f;
  f.gen_s = Median(gen_s);
  f.gen_edges = static_cast<double>(setup.edges);
  f.pack_s = Median(pack_s);
  f.map_s = Median(map_s);
  f.csr_bytes = static_cast<double>(setup.csr_bytes);
  {
    std::vector<double> one, four, bare;
    for (int rep = 0; rep < 2; ++rep) {
      for (const unsigned shards : {1U, kThreads}) {
        const SolveRecord r = Solve(g, w, OpSeed(a.seed, 0), ExecutionEngine::kFlat, shards,
                                    w.observed, nullptr, spans, kSideOp, out);
        (shards == 1 ? one : four).push_back(r.seconds);
        if (const std::string d = RunDiff(*first, r.result); !d.empty()) {
          out.Incorrect("shard comparison run mismatch: " + d);
        }
      }
      if (w.observed) {
        const SolveRecord r = Solve(g, w, OpSeed(a.seed, 0), ExecutionEngine::kFlat,
                                    kThreads, false, nullptr, spans, kSideOp, out);
        bare.push_back(r.seconds);
      }
    }
    f.shard_speedup = Ratio(Median(one), Median(four));
    if (w.observed) f.obs_overhead = Ratio(Median(four), Median(bare));
  }
  f.trace_overhead = Ratio(Median(traced.op_s), Median(untraced.op_s));
  EmitTraced(a, spans, layers, f, out);
  return 0;
}

// --- the sweep workload -----------------------------------------------------

struct SweepWorkload {
  std::vector<NodeId> sizes;
  std::uint32_t seeds_per_size;
  double avg_degree;
};

/// The workload's sweep of Algorithm 1 with no hooks attached.
emis::SweepConfig PlainSweep(const SweepWorkload& w, emis::GraphFactory factory,
                             std::uint64_t seed_base, ExecutionEngine engine) {
  emis::SweepConfig cfg;
  cfg.algorithm = MisAlgorithm::kCd;
  cfg.factory = std::move(factory);
  cfg.sizes = w.sizes;
  cfg.seeds_per_size = w.seeds_per_size;
  cfg.seed_base = seed_base;
  cfg.engine = engine;
  cfg.shards = 1;
  return cfg;
}

/// Instruments one RunSweep without touching what it computes. The wrapped
/// GraphFactory times each trial's generation and remembers the topology
/// RNG the trial started from; `tweak` files that RNG under the trial's run
/// seed; `observe` copies each result's status. After the clock stops,
/// Verify regenerates every trial's graph from its RNG and re-checks the
/// result.
class SweepProbe {
 public:
  explicit SweepProbe(emis::GraphFactory family) : family_(std::move(family)) {}
  SweepProbe(const SweepProbe&) = delete;
  SweepProbe& operator=(const SweepProbe&) = delete;

  emis::SweepConfig Config(const SweepWorkload& w, std::uint64_t seed_base,
                           ExecutionEngine engine) {
    gens_.clear();
    topologies_.clear();
    trials_.clear();
    emis::SweepConfig cfg = PlainSweep(w, nullptr, seed_base, engine);
    cfg.factory = [this](NodeId n, Rng& rng) {
      TrialRng().emplace(rng);
      const double start = MonotonicSeconds();
      Graph g = family_(n, rng);
      const double end = MonotonicSeconds();
      const std::lock_guard<std::mutex> lock(mu_);
      gens_.push_back({start, end, g.NumEdges()});
      return g;
    };
    // The sweep calls tweak on the thread that just ran the factory for the
    // same trial, so the thread-local RNG copy belongs to this seed.
    cfg.tweak = [this](MisRunConfig& run, const Graph& g) {
      const std::lock_guard<std::mutex> lock(mu_);
      topologies_.emplace(run.seed, Topology{g.NumNodes(), *TrialRng()});
    };
    cfg.observe = [this](NodeId n, std::uint32_t s, const MisRunResult& r) {
      trials_.push_back({n, s, r.status, r.Valid(), r.stats, r.energy.MaxAwake(),
                         r.arena.reserved_bytes});
    };
    return cfg;
  }

  struct Trial {
    NodeId n;
    std::uint32_t seed_index;
    std::vector<MisStatus> status;
    bool valid;
    emis::RunStats stats;
    std::uint64_t max_awake;
    std::uint64_t arena_reserved;
  };
  const std::vector<Trial>& Trials() const noexcept { return trials_; }

  double GenSeconds() const {
    double total = 0.0;
    for (const Gen& g : gens_) total += g.end - g.start;
    return total;
  }
  double GenEdges() const {
    double total = 0.0;
    for (const Gen& g : gens_) total += static_cast<double>(g.edges);
    return total;
  }
  void AddGenSpans(SpanLog& spans, std::uint64_t op, int parent) const {
    for (const Gen& g : gens_) spans.AddFinished("GraphFactory", op, g.start, g.end, parent);
  }

  /// Re-checks every trial of the last sweep; returns the CheckMis seconds.
  double Verify(const SweepWorkload& w, Outcome& out, SpanLog& spans, std::uint64_t op,
                int parent) {
    // Run seeds of one size, ascending, are that size's seed indices in
    // order (the sweep derives seed = base + n * k + seed_index). A wrong
    // pairing would fail the checks below, never pass them.
    std::map<NodeId, std::vector<const Topology*>> by_size;
    for (const auto& [seed, topo] : topologies_) by_size[topo.n].push_back(&topo);
    if (trials_.size() != w.sizes.size() * w.seeds_per_size ||
        topologies_.size() != trials_.size()) {
      out.Incorrect("sweep trial count mismatch");
      return 0.0;
    }
    // Regenerate and check on the pool (pure work into per-trial slots),
    // then judge serially in trial order.
    struct Slot {
      double gen_start = 0.0, gen_end = 0.0;
      MisCheck check;
    };
    std::vector<Slot> slots(trials_.size());
    for (const Trial& t : trials_) {
      if (t.seed_index >= by_size[t.n].size()) {
        out.Incorrect("sweep trial without a recorded topology");
        return 0.0;
      }
    }
    emis::par::ParallelFor(kThreads, trials_.size(), [&](std::uint64_t i, unsigned) {
      const Trial& t = trials_[i];
      Rng rng = by_size.at(t.n)[t.seed_index]->rng;
      slots[i].gen_start = MonotonicSeconds();
      const Graph g = family_(t.n, rng);
      slots[i].gen_end = MonotonicSeconds();
      slots[i].check = CheckStatus(g, t.status);
    });
    double check_s = 0.0;
    for (std::size_t i = 0; i < trials_.size(); ++i) {
      const Trial& t = trials_[i];
      const Slot& slot = slots[i];
      spans.AddFinished("GraphFactory(verify)", op, slot.gen_start, slot.gen_end, parent);
      spans.AddFinished("CheckMis", op, slot.check.start, slot.check.end, parent);
      check_s += slot.check.end - slot.check.start;
      out.Attempt(Judge(slot.check, t.valid, t.stats.hit_round_limit, out));
    }
    return check_s;
  }

 private:
  struct Gen {
    double start;
    double end;
    std::uint64_t edges;
  };
  struct Topology {
    NodeId n;
    Rng rng;
  };

  static std::optional<Rng>& TrialRng() {
    thread_local std::optional<Rng> rng;
    return rng;
  }

  emis::GraphFactory family_;
  std::mutex mu_;  ///< guards gens_ and topologies_ (written by workers)
  std::vector<Gen> gens_;
  std::map<std::uint64_t, Topology> topologies_;
  std::vector<Trial> trials_;  ///< written on the reducing thread only
};

bool SamePoints(const std::vector<emis::SweepPoint>& a,
                const std::vector<emis::SweepPoint>& b) {
  const auto same = [](const emis::Summary& x, const emis::Summary& y) {
    return x.count == y.count && x.mean == y.mean && x.m2 == y.m2 && x.min == y.min &&
           x.max == y.max;
  };
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].n != b[i].n || a[i].runs != b[i].runs || a[i].failures != b[i].failures ||
        !same(a[i].max_energy, b[i].max_energy) || !same(a[i].avg_energy, b[i].avg_energy) ||
        !same(a[i].rounds, b[i].rounds) || !same(a[i].mis_size, b[i].mis_size) ||
        !same(a[i].max_degree, b[i].max_degree)) {
      return false;
    }
  }
  return true;
}

int RunSweepWorkload(const Args& a, const SweepWorkload& w, Outcome& out) {
  SpanLog spans(a.trace);
  const emis::GraphFactory family = emis::families::UnitDisk(w.avg_degree);

  // Setup: start the worker pool, then warm it with one small sweep (one
  // trial of the smallest size per worker) so allocator arenas and frame
  // pools are faulted in before the first measured operation.
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = rep == 0 ? kProcessStart : MonotonicSeconds();
    SpanLog::Scope setup(spans, "setup", kSetupOp);
    if (rep == 0) {
      SpanLog::Scope span(spans, "pool start", kSetupOp);
      emis::par::ParallelFor(kThreads, kThreads, [](std::uint64_t, unsigned) {});
    }
    emis::SweepConfig warm =
        PlainSweep(w, family, Mix(a.seed, 0x3a3a ^ static_cast<std::uint64_t>(rep)),
                   ExecutionEngine::kCoroutine);
    warm.sizes = {w.sizes.front()};
    warm.seeds_per_size = kThreads;
    {
      SpanLog::Scope span(spans, "RunSweep", kSetupOp);
      (void)emis::RunSweep(warm, kThreads);
    }
    setup.End();
    setup_s.push_back(MonotonicSeconds() - t0);
  }

  SweepProbe probe(family);
  std::optional<std::vector<emis::SweepPoint>> first;
  const auto loop = [&](double seconds, bool traced, LayerSums* layers) {
    LoopTotals t;
    const double loop_start = MonotonicSeconds();
    for (std::size_t i = 0; i < kMinOps || MonotonicSeconds() - loop_start < seconds; ++i) {
      emis::obs::MetricsRegistry registry;
      emis::SweepConfig cfg = probe.Config(w, OpSeed(a.seed, i), ExecutionEngine::kCoroutine);
      if (traced) cfg.metrics = &registry;
      emis::SweepRunInfo info;
      std::vector<emis::SweepPoint> points;
      const std::uint64_t waits_before = emis::par::BarrierWaits();
      double op_s = 0.0;
      {
        SpanLog::Scope op_span(spans, "op", i);
        SpanLog::Scope span(spans, "RunSweep", i);
        points = emis::RunSweep(cfg, kThreads, &info);
        op_s = span.End();
        probe.AddGenSpans(spans, i, span.Id());
      }
      const double waits = static_cast<double>(emis::par::BarrierWaits() - waits_before);

      double check_s = 0.0;
      {
        SpanLog::Scope span(spans, "verify", i);
        check_s = probe.Verify(w, out, spans, i, span.Id());
      }
      std::uint32_t failures = 0;
      double node_rounds = 0.0;
      for (const emis::SweepPoint& p : points) {
        failures += p.failures;
        node_rounds += p.avg_energy.mean * static_cast<double>(p.n) * p.runs;
      }
      std::uint64_t valid = 0;
      for (const SweepProbe::Trial& trial : probe.Trials()) valid += trial.valid ? 1 : 0;
      if (valid + failures != probe.Trials().size()) {
        out.Incorrect("sweep point failures disagree with the trials");
      }
      t.op_s.push_back(op_s);
      t.verified += valid;
      t.node_rounds += node_rounds;
      if (i == 0) {
        for (const SweepProbe::Trial& trial : probe.Trials()) {
          t.max_awake.push_back(static_cast<double>(trial.max_awake));
          t.rounds.push_back(static_cast<double>(trial.stats.rounds_used));
        }
      }
      if (layers != nullptr) {
        double trial_s = 0.0;
        for (const double s : info.point_wall_seconds) trial_s += s;
        ++layers->ops;
        layers->AddRegistry(registry);
        layers->run_s += trial_s;
        layers->trial_s_sum += trial_s;
        layers->gen_s += probe.GenSeconds();
        layers->pool_util += Ratio(trial_s, info.jobs * info.wall_seconds);
        layers->barrier_waits += waits;
        layers->check_s += check_s;
        double arena = 0.0;
        for (const SweepProbe::Trial& trial : probe.Trials()) {
          layers->node_rounds += static_cast<double>(trial.stats.node_rounds);
          arena = std::max(arena, static_cast<double>(trial.arena_reserved));
        }
        layers->arena_bytes += arena;
        SpanLog::Scope span(spans, "BuildSweepJson", i);
        layers->report_bytes += static_cast<double>(
            emis::BuildSweepJson("sweep-cd-coroutine", points, &info).Dump(1).size());
        layers->report_s += span.End();
      }
      if (!first) first.emplace(std::move(points));
    }
    return t;
  };

  LoopTotals untraced = loop(a.trace ? a.seconds / 2 : a.seconds, false, nullptr);
  const double peak_rss_mb = PeakRssMb();
  LayerSums layers;
  LoopTotals traced;
  SideFacts f;
  if (a.trace) {
    traced = loop(a.seconds / 2, true, &layers);
    f.gen_s = layers.PerOp(layers.gen_s);
    f.gen_edges = probe.GenEdges();
  }

  // Reference: the first operation's SweepConfig on the flat engine (untraced
  // run) or at jobs=1 (traced run, which doubles as the single-threaded
  // baseline). Engines and job counts are cost knobs: the points must match.
  {
    SpanLog::Scope span(spans, "reference", kSideOp);
    const ExecutionEngine engine = a.trace ? ExecutionEngine::kCoroutine : ExecutionEngine::kFlat;
    const unsigned jobs = a.trace ? 1 : kThreads;
    const emis::SweepConfig cfg = PlainSweep(w, family, OpSeed(a.seed, 0), engine);
    SpanLog::Scope run(spans, "RunSweep", kSideOp);
    const std::vector<emis::SweepPoint> ref = emis::RunSweep(cfg, jobs);
    const double ref_s = run.End();
    if (!SamePoints(*first, ref)) {
      out.Incorrect(a.trace ? "sweep points differ at jobs=1"
                            : "sweep points differ on the flat engine");
    }
    f.jobs_speedup = Ratio(ref_s, Median(untraced.op_s));
  }

  if (!a.trace) {
    EmitEndToEnd(setup_s, untraced, peak_rss_mb, out);
    return 0;
  }
  f.trace_overhead = Ratio(Median(traced.op_s), Median(untraced.op_s));
  EmitTraced(a, spans, layers, f, out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = ParseArgs(argc, argv);
    std::filesystem::create_directories(a.work_dir);
    Outcome out;
    int rc = 0;
    if (a.workload == "er-cd-dense") {
      rc = RunSingle(a,
                     {a.toy ? "er:n=4096,p=0.015625" : "er:n=262144,p=0.0009765625",
                      MisAlgorithm::kCd, false, 3},
                     out);
    } else if (a.workload == "udg-nocd-observed") {
      rc = RunSingle(a, {a.toy ? "udg:n=1024,r=0.1" : "udg:n=16384,r=0.025",
                         MisAlgorithm::kNoCd, true, kSetupReps},
                     out);
    } else if (a.workload == "sweep-cd-coroutine") {
      SweepWorkload w{.sizes = {16384, 32768, 65536}, .seeds_per_size = 8, .avg_degree = 32};
      if (a.toy) w = {.sizes = {256, 512, 1024}, .seeds_per_size = 2, .avg_degree = 32};
      rc = RunSweepWorkload(a, w, out);
    } else {
      throw std::invalid_argument("unknown workload '" + a.workload + "'");
    }
    out.Print();
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "emis_perfbench: %s\n", e.what());
    return 1;
  }
}
