// emis_cli — run the library from the command line.
//
//   emis_cli help | --help | -h
//   emis_cli algorithms
//   emis_cli gen   <graph-spec> [--seed S] [--out FILE]
//   emis_cli graph pack --graph <spec | file:PATH> [--seed S] --out FILE.csr
//   emis_cli run   --graph <spec | file:PATH | csr:PATH> --alg <name>
//                  [--seed S] [--preset practical|theory] [--delta-unknown]
//                  [--engine coroutine|flat] [--shards N]
//                  [--trace-jsonl FILE.jsonl]
//                  [--report-out FILE.json] [--flamegraph-out FILE.txt]
//                  [--telemetry-out PATH|fd:N] [--heartbeat-every R] [--quiet]
//   emis_cli sweep --alg <name> --family <er|udg|star|tree|matching|complete>
//                  --sizes 64,128,... [--seeds K] [--delta-unknown]
//                  [--avg-degree D] [--engine coroutine|flat]
//                  [--shards N] [--jobs N] [--report-out FILE.json]
//                  [--telemetry-out PATH|fd:N] [--heartbeat-every R] [--quiet]
//   emis_cli validate-report FILE.json
//
// Each command accepts exactly the flags listed for it; any other `--flag`
// is a usage error.
//
// Exit status: 0 on success (and valid MIS for `run`, conforming document
// for `validate-report`, requested help), 1 on invalid MIS / non-conforming
// document, 2 on usage errors.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/runner.hpp"
#include "obs/energy_ledger.hpp"
#include "obs/jsonl_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_timeline.hpp"
#include "obs/report.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/stream_sink.hpp"
#include "radio/graph_io.hpp"
#include "verify/experiment.hpp"
#include "verify/parallel.hpp"

namespace emis::cli {
namespace {

const std::map<std::string, MisAlgorithm>& AlgorithmsByName() {
  static const std::map<std::string, MisAlgorithm> kMap = {
      {"cd", MisAlgorithm::kCd},
      {"cd-beeping", MisAlgorithm::kCdBeeping},
      {"cd-naive-luby", MisAlgorithm::kCdNaive},
      {"nocd", MisAlgorithm::kNoCd},
      {"nocd-davies-profile", MisAlgorithm::kNoCdDaviesProfile},
      {"nocd-naive-luby", MisAlgorithm::kNoCdNaive},
      {"nocd-unknown-delta", MisAlgorithm::kNoCdUnknownDelta},
      {"nocd-round-efficient", MisAlgorithm::kNoCdRoundEfficient},
  };
  return kMap;
}

struct Flags {
  std::vector<std::string> positional;
  std::map<std::string, std::string> named;
  bool Has(const std::string& key) const { return named.count(key) > 0; }
  std::string Get(const std::string& key, const std::string& fallback = "") const {
    const auto it = named.find(key);
    return it == named.end() ? fallback : it->second;
  }
};

/// The flags one command accepts: `values` consume the next argument,
/// `switches` take none.
struct FlagSet {
  std::string command;
  std::set<std::string, std::less<>> values;
  std::set<std::string, std::less<>> switches;
};

const FlagSet kGenFlags{"gen", {"seed", "out"}, {}};
const FlagSet kGraphPackFlags{"graph pack", {"graph", "seed", "out"}, {"quiet"}};
const FlagSet kRunFlags{"run",
                        {"graph", "alg", "seed", "preset", "engine", "shards",
                         "trace-jsonl", "report-out", "flamegraph-out",
                         "telemetry-out", "heartbeat-every"},
                        {"delta-unknown", "quiet"}};
const FlagSet kSweepFlags{"sweep",
                          {"alg", "family", "sizes", "seeds", "avg-degree", "engine",
                           "shards", "jobs", "report-out", "telemetry-out",
                           "heartbeat-every"},
                          {"delta-unknown", "quiet"}};
const FlagSet kValidateReportFlags{"validate-report", {}, {}};

/// Parses argv[first..] against the command's flag set: a flag outside it
/// is a usage error naming the flag (a typo never runs on defaults).
Flags Parse(int argc, char** argv, int first, const FlagSet& accepted) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      flags.positional.emplace_back(arg);
      continue;
    }
    const std::string_view key = arg.substr(2);
    if (accepted.switches.contains(key)) {
      flags.named.insert_or_assign(std::string(key), std::string("1"));
      continue;
    }
    if (!accepted.values.contains(key)) {
      throw PreconditionError("unknown flag " + std::string(arg) + " for `" +
                              accepted.command + "`");
    }
    if (i + 1 >= argc) {
      throw PreconditionError("flag " + std::string(arg) + " needs a value");
    }
    flags.named.insert_or_assign(std::string(key), std::string(argv[++i]));
  }
  return flags;
}

ExecutionEngine EngineFlag(const Flags& flags) {
  return flags.Has("engine") ? ParseExecutionEngine(flags.Get("engine"), "--engine")
                             : DefaultExecutionEngine();
}

unsigned ShardsFlag(const Flags& flags) {
  return flags.Has("shards") ? ParseShards(flags.Get("shards"), "--shards")
                             : DefaultShards();
}

Graph LoadGraph(const std::string& source, std::uint64_t seed) {
  if (source.rfind("csr:", 0) == 0) {
    // Memory-mapped emis-csr/1: adjacency pages fault in lazily as the run
    // touches them, so start-up cost is O(1) pages regardless of graph size.
    return MapBinaryCsr(source.substr(4));
  }
  if (source.rfind("file:", 0) == 0) {
    const std::string path = source.substr(5);
    std::ifstream in(path);
    EMIS_REQUIRE(in.good(), "cannot open graph file '" + path + "'");
    return ReadEdgeList(in);
  }
  Rng rng(seed ^ 0xC0FFEEULL);
  return GraphFromSpec(source, rng);
}

int CmdAlgorithms() {
  std::printf("algorithm            channel   paper artifact\n");
  std::printf("cd                   CD        Algorithm 1 (Thm 2: O(log n) energy)\n");
  std::printf("cd-beeping           beeping   Algorithm 1, beeping variant (§3.1)\n");
  std::printf("cd-naive-luby        CD        §1.3 naive baseline (Θ(log² n) energy)\n");
  std::printf("nocd                 no-CD     Algorithm 2 (Thm 10: O(log² n loglog n))\n");
  std::printf("nocd-davies-profile  no-CD     Davies'23 energy profile (Θ(log² n logΔ))\n");
  std::printf("nocd-naive-luby      no-CD     §1.3 naive baseline (O(log⁴ n))\n");
  std::printf("nocd-unknown-delta   no-CD     §1.1 Δ-doubling wrapper around Alg 2\n");
  std::printf("nocd-round-efficient no-CD     §4.2-style Ghaffari simulation (Davies'23 stand-in)\n");
  return 0;
}

int CmdGen(const Flags& flags) {
  EMIS_REQUIRE(flags.positional.size() == 1, "gen needs exactly one graph spec");
  const std::uint64_t seed = std::stoull(flags.Get("seed", "1"));
  Rng rng(seed);
  const Graph g = GraphFromSpec(flags.positional[0], rng);
  const std::string out_path = flags.Get("out");
  if (out_path.empty()) {
    WriteEdgeList(std::cout, g);
  } else {
    std::ofstream out(out_path);
    EMIS_REQUIRE(out.good(), "cannot write '" + out_path + "'");
    WriteEdgeList(out, g);
    std::printf("wrote %u nodes, %llu edges to %s\n", g.NumNodes(),
                static_cast<unsigned long long>(g.NumEdges()), out_path.c_str());
  }
  return 0;
}

int CmdGraphPack(const Flags& flags) {
  const std::string graph_spec = flags.Get("graph");
  EMIS_REQUIRE(!graph_spec.empty(), "graph pack needs --graph <spec|file:PATH>");
  const std::string out_path = flags.Get("out");
  EMIS_REQUIRE(!out_path.empty(), "graph pack needs --out FILE.csr");
  const std::uint64_t seed = std::stoull(flags.Get("seed", "1"));
  const double generate_begin = obs::MonotonicSeconds();
  const Graph g = LoadGraph(graph_spec, seed);
  const double write_begin = obs::MonotonicSeconds();
  std::ofstream out(out_path, std::ios::binary);
  EMIS_REQUIRE(out.good(), "cannot write '" + out_path + "'");
  WriteBinaryCsr(out, g);
  out.flush();
  EMIS_REQUIRE(out.good(), "write to '" + out_path + "' failed");
  const double write_end = obs::MonotonicSeconds();
  if (!flags.Has("quiet")) {
    // Stage times go to stderr so stdout stays byte-stable across runs.
    std::fprintf(stderr, "generate %.3f s, write %.3f s\n",
                 write_begin - generate_begin, write_end - write_begin);
    std::printf("packed %u nodes, %llu edges (max degree %u) into %s\n",
                g.NumNodes(), static_cast<unsigned long long>(g.NumEdges()),
                g.MaxDegree(), out_path.c_str());
    std::printf("load with: emis_cli run --graph csr:%s ...\n", out_path.c_str());
  }
  return 0;
}

int CmdRun(const Flags& flags) {
  const std::string alg_name = flags.Get("alg", "cd");
  const auto alg_it = AlgorithmsByName().find(alg_name);
  EMIS_REQUIRE(alg_it != AlgorithmsByName().end(),
               "unknown algorithm '" + alg_name + "' (see `emis_cli algorithms`)");
  const std::string graph_spec = flags.Get("graph");
  EMIS_REQUIRE(!graph_spec.empty(), "run needs --graph <spec|file:PATH>");
  const std::uint64_t seed = std::stoull(flags.Get("seed", "1"));

  const Graph g = LoadGraph(graph_spec, seed);

  MisRunConfig cfg{.algorithm = alg_it->second, .seed = seed};
  const std::string preset = flags.Get("preset", "practical");
  EMIS_REQUIRE(preset == "practical" || preset == "theory",
               "--preset must be practical or theory");
  cfg.preset = preset == "theory" ? ParamPreset::kTheory : ParamPreset::kPractical;
  cfg.engine = EngineFlag(flags);
  cfg.shards = ShardsFlag(flags);
  if (flags.Has("delta-unknown")) cfg.delta_estimate = g.NumNodes();

  std::ofstream jsonl_file;
  std::optional<obs::JsonlTraceSink> jsonl_trace;
  if (flags.Has("trace-jsonl")) {
    jsonl_file.open(flags.Get("trace-jsonl"));
    EMIS_REQUIRE(jsonl_file.good(), "cannot write jsonl trace file");
    jsonl_trace.emplace(jsonl_file);
    cfg.trace = &*jsonl_trace;
  }

  // Collectors attach on demand: the report wants metrics; the report,
  // flamegraph and telemetry want the timeline; the report's attribution
  // block and the flamegraph want the ledger.
  obs::MetricsRegistry metrics;
  obs::PhaseTimeline timeline;
  const bool want_report = flags.Has("report-out");
  const bool want_flame = flags.Has("flamegraph-out");
  const bool want_telemetry = flags.Has("telemetry-out");
  if (want_report) cfg.metrics = &metrics;
  if (want_report || want_flame || want_telemetry) cfg.timeline = &timeline;
  std::optional<obs::EnergyLedger> ledger;
  if (want_report || want_flame) {
    ledger.emplace(g.NumNodes());
    cfg.ledger = &*ledger;
  }
  std::unique_ptr<std::ostream> telemetry_stream;
  std::optional<obs::StreamSink> telemetry;
  if (want_telemetry) {
    telemetry_stream = obs::OpenTelemetryStream(flags.Get("telemetry-out"));
    obs::StreamSinkConfig sink_config;
    sink_config.heartbeat_every =
        static_cast<Round>(std::stoull(flags.Get("heartbeat-every", "1")));
    EMIS_REQUIRE(sink_config.heartbeat_every > 0,
                 "--heartbeat-every must be >= 1");
    telemetry.emplace(sink_config);
    cfg.telemetry = &*telemetry;
    obs::JsonValue begin = obs::JsonValue::MakeObject();
    begin.Set("schema", obs::kTelemetrySchema);
    begin.Set("event", "run_begin");
    begin.Set("algorithm", alg_name);
    begin.Set("graph", graph_spec);
    begin.Set("seed", seed);
    begin.Set("nodes", static_cast<std::uint64_t>(g.NumNodes()));
    begin.Set("edges", g.NumEdges());
    telemetry->EmitControl(begin);
  }

  const MisRunResult r = RunMis(g, cfg);

  if (want_telemetry) {
    obs::JsonValue end = obs::JsonValue::MakeObject();
    end.Set("event", "run_end");
    end.Set("rounds", r.stats.rounds_used);
    end.Set("mis_size", r.MisSize());
    end.Set("valid", r.Valid());
    end.Set("emitted_events", telemetry->EmittedEvents());
    end.Set("dropped_events", telemetry->DroppedEvents());
    telemetry->EmitControl(end);
    telemetry->DrainTo(*telemetry_stream);
    telemetry_stream->flush();
  }
  if (cfg.metrics != nullptr) {
    // Bounded-sink losses become gauges so a report where the trace ring or
    // the telemetry queue overflowed says so (satellite of DESIGN.md §11).
    metrics.GetGauge("obs.trace_dropped")
        .Set(cfg.trace != nullptr
                 ? static_cast<double>(cfg.trace->DroppedCount())
                 : 0.0);
    metrics.GetGauge("obs.telemetry_dropped")
        .Set(telemetry ? static_cast<double>(telemetry->DroppedEvents()) : 0.0);
  }

  if (want_report) {
    const std::string report_path = flags.Get("report-out");
    std::ofstream report_file(report_path);
    EMIS_REQUIRE(report_file.good(), "cannot write '" + report_path + "'");
    obs::WriteRunReport(report_file,
                        {.algorithm = alg_name,
                         .graph = graph_spec,
                         .preset = preset,
                         .seed = seed,
                         .nodes = g.NumNodes(),
                         .edges = g.NumEdges(),
                         .max_degree = g.MaxDegree(),
                         .shards = r.shards,
                         .valid_mis = r.Valid(),
                         .mis_size = r.MisSize(),
                         .arena_reserved_bytes = r.arena.reserved_bytes,
                         .arena_used_bytes = r.arena.used_bytes,
                         .peak_rss_bytes = obs::PeakRssBytes(),
                         .stats = &r.stats,
                         .energy = &r.energy,
                         .timeline = &timeline,
                         .metrics = &metrics,
                         .ledger = &*ledger});
    if (!flags.Has("quiet")) {
      std::printf("report:      %s\n", report_path.c_str());
    }
  }
  if (want_flame) {
    const std::string flame_path = flags.Get("flamegraph-out");
    std::ofstream flame_file(flame_path);
    EMIS_REQUIRE(flame_file.good(), "cannot write '" + flame_path + "'");
    // Collapsed-stack lines (`root;phase;sub weight`) — feed directly into
    // flamegraph.pl / speedscope to see where the awake rounds went.
    ledger->WriteCollapsed(flame_file, alg_name);
    if (!flags.Has("quiet")) {
      std::printf("flamegraph:  %s\n", flame_path.c_str());
    }
  }
  if (!flags.Has("quiet")) {
    std::printf("graph:       %u nodes, %llu edges, max degree %u\n", g.NumNodes(),
                static_cast<unsigned long long>(g.NumEdges()), g.MaxDegree());
    std::printf("algorithm:   %s (%s channel, %s preset)\n", alg_name.c_str(),
                std::string(ToString(ModelFor(cfg.algorithm))).c_str(),
                preset.c_str());
    std::printf("valid MIS:   %s\n", r.Valid() ? "yes" : "NO");
    if (!r.Valid()) std::printf("violations:  %s\n", r.report.Describe().c_str());
    std::printf("|MIS|:       %llu\n", static_cast<unsigned long long>(r.MisSize()));
    std::printf("rounds:      %llu\n",
                static_cast<unsigned long long>(r.stats.rounds_used));
    std::printf("energy max:  %llu awake rounds\n",
                static_cast<unsigned long long>(r.energy.MaxAwake()));
    std::printf("energy avg:  %.2f awake rounds\n", r.energy.AverageAwake());
    std::printf("energy p50:  %llu / p90: %llu\n",
                static_cast<unsigned long long>(r.energy.PercentileAwake(50)),
                static_cast<unsigned long long>(r.energy.PercentileAwake(90)));
  }
  return r.Valid() ? 0 : 1;
}

int CmdSweep(const Flags& flags) {
  const std::string alg_name = flags.Get("alg", "cd");
  const auto alg_it = AlgorithmsByName().find(alg_name);
  EMIS_REQUIRE(alg_it != AlgorithmsByName().end(),
               "unknown algorithm '" + alg_name + "'");
  const std::string family = flags.Get("family", "er");
  const std::string sizes_csv = flags.Get("sizes", "64,128,256,512");

  SweepConfig cfg;
  cfg.algorithm = alg_it->second;
  cfg.seeds_per_size = static_cast<std::uint32_t>(std::stoul(flags.Get("seeds", "5")));
  cfg.delta_unknown = flags.Has("delta-unknown");
  cfg.engine = EngineFlag(flags);
  cfg.shards = ShardsFlag(flags);
  // Sweep-wide metrics (merged across worker shards) feed the report's
  // required "metrics" sub-document, so chan.live_edges / graph.compactions
  // accumulate in the BENCH_*.json trajectory.
  obs::MetricsRegistry metrics;
  cfg.metrics = &metrics;
  std::istringstream ss(sizes_csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    cfg.sizes.push_back(static_cast<NodeId>(std::stoul(item)));
  }
  if (family == "er") {
    cfg.factory = families::SparseErdosRenyi(std::stod(flags.Get("avg-degree", "8")));
  } else if (family == "udg") {
    cfg.factory = families::UnitDisk(std::stod(flags.Get("avg-degree", "8")));
  } else if (family == "star") {
    cfg.factory = families::StarFamily();
  } else if (family == "tree") {
    cfg.factory = families::TreeFamily();
  } else if (family == "matching") {
    cfg.factory = families::LowerBoundFamily();
  } else if (family == "complete") {
    cfg.factory = families::CompleteFamily();
  } else {
    throw PreconditionError("unknown sweep family '" + family +
                            "' (er, udg, star, tree, matching, complete)");
  }
  const unsigned jobs = flags.Has("jobs")
                            ? static_cast<unsigned>(std::stoul(flags.Get("jobs")))
                            : par::DefaultJobs();
  // Streaming telemetry: the sweep gives each trial a private sink and
  // concatenates the drained blobs in (size, seed) order, so this stream is
  // byte-identical at any --jobs. The sweep-level envelopes frame it.
  std::unique_ptr<std::ostream> telemetry_stream;
  if (flags.Has("telemetry-out")) {
    telemetry_stream = obs::OpenTelemetryStream(flags.Get("telemetry-out"));
    cfg.telemetry_config.heartbeat_every =
        static_cast<Round>(std::stoull(flags.Get("heartbeat-every", "1")));
    EMIS_REQUIRE(cfg.telemetry_config.heartbeat_every > 0,
                 "--heartbeat-every must be >= 1");
    cfg.telemetry_out = telemetry_stream.get();
    obs::JsonValue begin = obs::JsonValue::MakeObject();
    begin.Set("schema", obs::kTelemetrySchema);
    begin.Set("event", "sweep_begin");
    begin.Set("algorithm", alg_name);
    begin.Set("family", family);
    begin.Set("seeds_per_size", static_cast<std::uint64_t>(cfg.seeds_per_size));
    obs::JsonValue sizes = obs::JsonValue::MakeArray();
    for (const NodeId n : cfg.sizes) sizes.Push(static_cast<std::uint64_t>(n));
    begin.Set("sizes", std::move(sizes));
    *telemetry_stream << begin.Dump(-1) << '\n';
  }
  SweepRunInfo info;
  const auto points = RunSweep(cfg, jobs, &info);
  if (telemetry_stream != nullptr) {
    std::uint32_t sweep_failures = 0;
    for (const auto& p : points) sweep_failures += p.failures;
    obs::JsonValue end = obs::JsonValue::MakeObject();
    end.Set("event", "sweep_end");
    end.Set("trials", static_cast<std::uint64_t>(cfg.sizes.size() *
                                                 cfg.seeds_per_size));
    end.Set("failures", static_cast<std::uint64_t>(sweep_failures));
    *telemetry_stream << end.Dump(-1) << '\n';
    telemetry_stream->flush();
  }
  std::printf("%s", RenderSweep("algorithm " + alg_name + ", family " + family,
                                points)
                        .c_str());
  if (!flags.Has("quiet")) {
    std::printf("jobs: %u, wall: %.3fs\n", info.jobs, info.wall_seconds);
  }

  if (flags.Has("report-out")) {
    // Same emis-bench-report/1 schema the experiment binaries emit, so
    // `emis_cli validate-report` and the CI round-trip accept it.
    std::uint32_t failures = 0;
    for (const auto& p : points) failures += p.failures;
    obs::JsonValue doc = obs::JsonValue::MakeObject();
    doc.Set("schema", obs::kBenchReportSchema);
    doc.Set("bench", std::string("emis_cli sweep"));
    doc.Set("claim", "algorithm " + alg_name + ", family " + family);
    doc.Set("failures", static_cast<std::int64_t>(failures));
    doc.Set("verdicts", obs::JsonValue::MakeArray());
    obs::JsonValue sweeps = obs::JsonValue::MakeArray();
    sweeps.Push(BuildSweepJson("algorithm " + alg_name + ", family " + family,
                               points, &info));
    doc.Set("sweeps", std::move(sweeps));
    doc.Set("metrics", obs::BuildMetricsJson(metrics));
    obs::JsonValue alloc = obs::JsonValue::MakeObject();
    alloc.Set("peak_rss_bytes", obs::PeakRssBytes());
    doc.Set("alloc", std::move(alloc));
    const std::string report_path = flags.Get("report-out");
    std::ofstream report_file(report_path);
    EMIS_REQUIRE(report_file.good(), "cannot write '" + report_path + "'");
    report_file << doc.Dump(2) << '\n';
    if (!flags.Has("quiet")) std::printf("report: %s\n", report_path.c_str());
  }
  return 0;
}

int CmdValidateReport(const Flags& flags) {
  EMIS_REQUIRE(flags.positional.size() == 1,
               "validate-report needs exactly one FILE.json");
  const std::string& path = flags.positional[0];
  std::ifstream in(path);
  EMIS_REQUIRE(in.good(), "cannot open report file '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const obs::JsonValue doc = obs::ParseJson(buffer.str());
  const std::string error = obs::ValidateReport(doc);
  if (error.empty()) {
    std::printf("%s: conforms to %s\n", path.c_str(),
                std::string(doc.Find("schema")->AsString()).c_str());
    return 0;
  }
  std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
  return 1;
}

/// The usage text, shared by `help` (exit 0) and usage errors (exit 2).
/// Every run/sweep cost knob (--engine, --shards) is listed
/// for both commands; tests/golden/emis_cli_help.txt snapshots this
/// output.
void PrintUsage() {
  std::printf(
      "usage:\n"
      "  emis_cli help | --help | -h\n"
      "  emis_cli algorithms\n"
      "  emis_cli gen <graph-spec> [--seed S] [--out FILE]\n"
      "  emis_cli graph pack --graph <spec|file:PATH> [--seed S] --out FILE.csr\n"
      "  emis_cli run --graph <spec|file:PATH|csr:PATH> --alg <name> [--seed S]\n"
      "               [--preset practical|theory] [--delta-unknown]\n"
      "               [--engine coroutine|flat] [--shards N] [--trace-jsonl FILE.jsonl]\n"
      "               [--report-out FILE.json] [--flamegraph-out FILE.txt]\n"
      "               [--telemetry-out PATH|fd:N] [--heartbeat-every R] [--quiet]\n"
      "  emis_cli sweep --alg <name> --family <er|udg|star|tree|matching|complete>\n"
      "               --sizes 64,128,... [--seeds K] [--avg-degree D] [--delta-unknown]\n"
      "               [--engine coroutine|flat] [--shards N] [--jobs N]\n"
      "               [--report-out FILE.json]\n"
      "               [--telemetry-out PATH|fd:N] [--heartbeat-every R] [--quiet]\n"
      "  emis_cli validate-report FILE.json\n"
      "                (run, bench, diff, and emis-lint-report/1|/2 schemas)\n"
      "cost knobs (identical results, different cost):\n"
      "  --engine      execution backend: coroutine (default; override via\n"
      "                EMIS_ENGINE) resumes one coroutine per awake node;\n"
      "                flat advances packed per-node state machines\n"
      "  --shards      intra-run shard count for the flat engine (default 1;\n"
      "                override via EMIS_SHARDS): rounds are partitioned over\n"
      "                edge-balanced node ranges on a worker pool, results\n"
      "                stay bit-identical at any count\n"
      "observability sinks (identical results, extra artifacts):\n"
      "  --flamegraph-out  collapsed-stack energy attribution (phase;sub w)\n"
      "  --telemetry-out   emis-telemetry/1 NDJSON stream (file or fd:N);\n"
      "                    --heartbeat-every R thins round events to every R\n"
      "graph specs: %s\n",
      GraphSpecHelp().c_str());
}

int Usage() {
  PrintUsage();
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "help" || cmd == "--help" || cmd == "-h") {
      PrintUsage();
      return 0;
    }
    if (cmd == "algorithms") return CmdAlgorithms();
    if (cmd == "graph") {
      // Subcommand group: `graph pack` converts any loadable topology into
      // the mmap-ready emis-csr/1 binary format.
      if (argc < 3 || std::strcmp(argv[2], "pack") != 0) {
        std::fprintf(stderr, "unknown graph subcommand (expected `graph pack`)\n");
        return Usage();
      }
      return CmdGraphPack(Parse(argc, argv, 3, kGraphPackFlags));
    }
    if (cmd == "gen") return CmdGen(Parse(argc, argv, 2, kGenFlags));
    if (cmd == "run") return CmdRun(Parse(argc, argv, 2, kRunFlags));
    if (cmd == "sweep") return CmdSweep(Parse(argc, argv, 2, kSweepFlags));
    if (cmd == "validate-report") {
      return CmdValidateReport(Parse(argc, argv, 2, kValidateReportFlags));
    }
    std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
    return Usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

}  // namespace
}  // namespace emis::cli

int main(int argc, char** argv) { return emis::cli::Main(argc, argv); }
