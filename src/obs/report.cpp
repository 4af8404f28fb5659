#include "obs/report.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

namespace emis::obs {
namespace {

JsonValue HistogramJson(const Histogram& h) {
  JsonValue bounds = JsonValue::MakeArray();
  JsonValue counts = JsonValue::MakeArray();
  for (std::size_t i = 0; i < h.NumBuckets(); ++i) {
    // The final (overflow) bucket has an infinite bound; JSON cannot carry
    // infinity, so it is implied by counts being one longer than bounds.
    if (i + 1 < h.NumBuckets()) bounds.Push(JsonValue(h.UpperBound(i)));
    counts.Push(JsonValue(h.BucketCount(i)));
  }
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("bounds", std::move(bounds));
  obj.Set("counts", std::move(counts));
  obj.Set("sum", JsonValue(h.Sum()));
  return obj;
}

JsonValue EnergyJson(const EnergyMeter& energy) {
  JsonValue e = JsonValue::MakeObject();
  e.Set("max_awake", JsonValue(energy.MaxAwake()));
  e.Set("avg_awake", JsonValue(energy.AverageAwake()));
  e.Set("total_awake", JsonValue(energy.TotalAwake()));
  e.Set("total_transmit", JsonValue(energy.TotalTransmit()));
  e.Set("total_listen", JsonValue(energy.TotalListen()));
  JsonValue pct = JsonValue::MakeObject();
  pct.Set("p10", JsonValue(energy.PercentileAwake(10)));
  pct.Set("p50", JsonValue(energy.PercentileAwake(50)));
  pct.Set("p90", JsonValue(energy.PercentileAwake(90)));
  pct.Set("p99", JsonValue(energy.PercentileAwake(99)));
  e.Set("percentiles", std::move(pct));
  // Per-node awake distribution in power-of-two buckets: enough resolution
  // to separate O(log n) from O(log² n) profiles at any practical n.
  Histogram awake(Histogram::ExponentialBounds(1.0, 2.0, 20));
  for (NodeId v = 0; v < energy.NumNodes(); ++v) {
    awake.Observe(static_cast<double>(energy.Of(v).Awake()));
  }
  e.Set("awake_histogram", HistogramJson(awake));
  return e;
}

JsonValue PhasesJson(const PhaseTimeline& timeline) {
  // Report order: by begin round, phases before their sub-phases, stable for
  // ties — reads as a chronological timeline regardless of close order.
  std::vector<const PhaseSpan*> spans;
  spans.reserve(timeline.Spans().size());
  for (const PhaseSpan& s : timeline.Spans()) spans.push_back(&s);
  std::stable_sort(spans.begin(), spans.end(),
                   [](const PhaseSpan* a, const PhaseSpan* b) {
                     if (a->begin_round != b->begin_round) {
                       return a->begin_round < b->begin_round;
                     }
                     return a->level < b->level;
                   });
  JsonValue arr = JsonValue::MakeArray();
  for (const PhaseSpan* s : spans) {
    JsonValue p = JsonValue::MakeObject();
    p.Set("label", JsonValue(s->label));
    p.Set("level", JsonValue(static_cast<std::uint64_t>(s->level)));
    p.Set("begin_round", JsonValue(s->begin_round));
    p.Set("end_round", JsonValue(s->end_round));
    p.Set("rounds", JsonValue(s->Rounds()));
    p.Set("transmit_rounds", JsonValue(s->transmit_rounds));
    p.Set("listen_rounds", JsonValue(s->listen_rounds));
    p.Set("awake_rounds", JsonValue(s->AwakeRounds()));
    if (s->has_residual) {
      p.Set("residual_edges_begin", JsonValue(s->residual_edges_begin));
      p.Set("residual_edges_end", JsonValue(s->residual_edges_end));
    }
    arr.Push(std::move(p));
  }
  return arr;
}

// --- validation helpers ----------------------------------------------------

std::string KindName(JsonValue::Kind k) {
  switch (k) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return "bool";
    case JsonValue::Kind::kNumber: return "number";
    case JsonValue::Kind::kString: return "string";
    case JsonValue::Kind::kArray: return "array";
    case JsonValue::Kind::kObject: return "object";
  }
  return "?";
}

/// Returns the value at `path`.`key` if present with the right kind, else
/// writes an error into *err and returns nullptr.
const JsonValue* Need(const JsonValue& obj, std::string_view key,
                      JsonValue::Kind kind, const std::string& path,
                      std::string* err) {
  if (!err->empty()) return nullptr;
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) {
    *err = path + "." + std::string(key) + ": missing";
    return nullptr;
  }
  if (v->kind() != kind) {
    *err = path + "." + std::string(key) + ": expected " + KindName(kind) +
           ", got " + KindName(v->kind());
    return nullptr;
  }
  return v;
}

void NeedKeys(const JsonValue& obj, const std::string& path,
              std::initializer_list<std::pair<const char*, JsonValue::Kind>> keys,
              std::string* err) {
  for (const auto& [key, kind] : keys) {
    Need(obj, key, kind, path, err);
    if (!err->empty()) return;
  }
}

std::string CheckHistogramObject(const JsonValue& h, const std::string& path) {
  std::string err;
  const JsonValue* bounds = Need(h, "bounds", JsonValue::Kind::kArray, path, &err);
  const JsonValue* counts = Need(h, "counts", JsonValue::Kind::kArray, path, &err);
  if (!err.empty()) return err;
  if (counts->Items().size() != bounds->Items().size() + 1) {
    return path + ": counts must have exactly one more entry than bounds";
  }
  return "";
}

}  // namespace

JsonValue BuildMetricsJson(const MetricsRegistry& registry) {
  JsonValue m = JsonValue::MakeObject();
  JsonValue counters = JsonValue::MakeObject();
  for (const auto& [name, c] : registry.Counters()) {
    counters.Set(name, JsonValue(c.Value()));
  }
  m.Set("counters", std::move(counters));
  JsonValue gauges = JsonValue::MakeObject();
  for (const auto& [name, g] : registry.Gauges()) {
    gauges.Set(name, JsonValue(g.Value()));
  }
  m.Set("gauges", std::move(gauges));
  JsonValue timers = JsonValue::MakeObject();
  for (const auto& [name, t] : registry.Timers()) {
    JsonValue tj = JsonValue::MakeObject();
    tj.Set("count", JsonValue(t.Count()));
    tj.Set("total_ns", JsonValue(t.TotalNs()));
    tj.Set("mean_ns", JsonValue(t.MeanNs()));
    tj.Set("max_ns", JsonValue(t.MaxNs()));
    timers.Set(name, std::move(tj));
  }
  m.Set("timers", std::move(timers));
  JsonValue histograms = JsonValue::MakeObject();
  for (const auto& [name, h] : registry.Histograms()) {
    histograms.Set(name, HistogramJson(h));
  }
  m.Set("histograms", std::move(histograms));
  return m;
}

JsonValue BuildAttributionJson(const EnergyLedger& ledger) {
  JsonValue doc = JsonValue::MakeObject();
  std::uint64_t total_tx = 0;
  std::uint64_t total_lx = 0;
  JsonValue keys = JsonValue::MakeArray();
  for (const AttributionRow& row : ledger.Table()) {
    total_tx += row.transmit_rounds;
    total_lx += row.listen_rounds;
    JsonValue k = JsonValue::MakeObject();
    k.Set("phase", JsonValue(row.phase));
    k.Set("sub", JsonValue(row.sub));
    k.Set("transmit_rounds", JsonValue(row.transmit_rounds));
    k.Set("listen_rounds", JsonValue(row.listen_rounds));
    k.Set("awake_rounds", JsonValue(row.AwakeRounds()));
    k.Set("nodes_charged", JsonValue(row.nodes_charged));
    k.Set("max_awake", JsonValue(row.max_awake));
    k.Set("p50_awake", JsonValue(row.p50_awake));
    k.Set("p90_awake", JsonValue(row.p90_awake));
    k.Set("p99_awake", JsonValue(row.p99_awake));
    keys.Push(std::move(k));
  }
  // Ledger charges mirror the EnergyMeter's exactly, so these totals equal
  // the energy block's total_transmit/total_listen (conservation).
  doc.Set("total_transmit", JsonValue(total_tx));
  doc.Set("total_listen", JsonValue(total_lx));
  doc.Set("keys", std::move(keys));
  return doc;
}

JsonValue BuildRunReport(const RunReportInputs& inputs) {
  EMIS_REQUIRE(inputs.stats != nullptr && inputs.energy != nullptr,
               "run report needs stats and energy");
  JsonValue doc = JsonValue::MakeObject();
  doc.Set("schema", JsonValue(kRunReportSchema));

  JsonValue run = JsonValue::MakeObject();
  run.Set("algorithm", JsonValue(inputs.algorithm));
  run.Set("graph", JsonValue(inputs.graph));
  run.Set("preset", JsonValue(inputs.preset));
  run.Set("seed", JsonValue(inputs.seed));
  run.Set("nodes", JsonValue(static_cast<std::uint64_t>(inputs.nodes)));
  run.Set("edges", JsonValue(inputs.edges));
  run.Set("max_degree", JsonValue(static_cast<std::uint64_t>(inputs.max_degree)));
  run.Set("shards", JsonValue(static_cast<std::uint64_t>(inputs.shards)));
  doc.Set("run", std::move(run));

  JsonValue result = JsonValue::MakeObject();
  result.Set("valid_mis", JsonValue(inputs.valid_mis));
  result.Set("mis_size", JsonValue(inputs.mis_size));
  result.Set("rounds", JsonValue(inputs.stats->rounds_used));
  result.Set("node_rounds", JsonValue(inputs.stats->node_rounds));
  result.Set("nodes_finished",
             JsonValue(static_cast<std::uint64_t>(inputs.stats->nodes_finished)));
  result.Set("hit_round_limit", JsonValue(inputs.stats->hit_round_limit));
  doc.Set("result", std::move(result));

  doc.Set("energy", EnergyJson(*inputs.energy));
  doc.Set("phases", inputs.timeline != nullptr ? PhasesJson(*inputs.timeline)
                                               : JsonValue::MakeArray());
  // Optional (post-schema-1) block: older consumers that ignore unknown
  // keys keep working, and documents without it stay valid.
  if (inputs.ledger != nullptr) {
    doc.Set("energy_attribution", BuildAttributionJson(*inputs.ledger));
  }

  JsonValue alloc = JsonValue::MakeObject();
  alloc.Set("arena_reserved_bytes", JsonValue(inputs.arena_reserved_bytes));
  alloc.Set("arena_used_bytes", JsonValue(inputs.arena_used_bytes));
  alloc.Set("peak_rss_bytes", JsonValue(inputs.peak_rss_bytes));
  doc.Set("alloc", std::move(alloc));

  doc.Set("metrics", inputs.metrics != nullptr ? BuildMetricsJson(*inputs.metrics)
                                               : BuildMetricsJson(MetricsRegistry{}));
  return doc;
}

void WriteRunReport(std::ostream& out, const RunReportInputs& inputs) {
  out << BuildRunReport(inputs).Dump(2) << '\n';
}

std::string ValidateRunReport(const JsonValue& doc) {
  if (!doc.IsObject()) return "report: not a JSON object";
  std::string err;
  const JsonValue* schema =
      Need(doc, "schema", JsonValue::Kind::kString, "report", &err);
  if (!err.empty()) return err;
  if (schema->AsString() != kRunReportSchema) {
    return "report.schema: expected \"" + std::string(kRunReportSchema) + "\"";
  }

  const JsonValue* run = Need(doc, "run", JsonValue::Kind::kObject, "report", &err);
  if (run != nullptr) {
    NeedKeys(*run, "run",
             {{"algorithm", JsonValue::Kind::kString},
              {"graph", JsonValue::Kind::kString},
              {"preset", JsonValue::Kind::kString},
              {"seed", JsonValue::Kind::kNumber},
              {"nodes", JsonValue::Kind::kNumber},
              {"edges", JsonValue::Kind::kNumber},
              {"max_degree", JsonValue::Kind::kNumber}},
             &err);
  }

  const JsonValue* result =
      Need(doc, "result", JsonValue::Kind::kObject, "report", &err);
  if (result != nullptr) {
    NeedKeys(*result, "result",
             {{"valid_mis", JsonValue::Kind::kBool},
              {"mis_size", JsonValue::Kind::kNumber},
              {"rounds", JsonValue::Kind::kNumber},
              {"node_rounds", JsonValue::Kind::kNumber},
              {"nodes_finished", JsonValue::Kind::kNumber},
              {"hit_round_limit", JsonValue::Kind::kBool}},
             &err);
  }

  const JsonValue* energy =
      Need(doc, "energy", JsonValue::Kind::kObject, "report", &err);
  if (energy != nullptr) {
    NeedKeys(*energy, "energy",
             {{"max_awake", JsonValue::Kind::kNumber},
              {"avg_awake", JsonValue::Kind::kNumber},
              {"total_awake", JsonValue::Kind::kNumber},
              {"total_transmit", JsonValue::Kind::kNumber},
              {"total_listen", JsonValue::Kind::kNumber},
              {"percentiles", JsonValue::Kind::kObject},
              {"awake_histogram", JsonValue::Kind::kObject}},
             &err);
    if (err.empty()) {
      err = CheckHistogramObject(*energy->Find("awake_histogram"),
                                 "energy.awake_histogram");
    }
  }

  const JsonValue* phases =
      Need(doc, "phases", JsonValue::Kind::kArray, "report", &err);
  if (phases != nullptr && err.empty()) {
    std::size_t i = 0;
    for (const JsonValue& p : phases->Items()) {
      const std::string path = "phases[" + std::to_string(i) + "]";
      if (!p.IsObject()) return path + ": not an object";
      NeedKeys(p, path,
               {{"label", JsonValue::Kind::kString},
                {"level", JsonValue::Kind::kNumber},
                {"begin_round", JsonValue::Kind::kNumber},
                {"end_round", JsonValue::Kind::kNumber},
                {"rounds", JsonValue::Kind::kNumber},
                {"transmit_rounds", JsonValue::Kind::kNumber},
                {"listen_rounds", JsonValue::Kind::kNumber},
                {"awake_rounds", JsonValue::Kind::kNumber}},
               &err);
      if (!err.empty()) return err;
      ++i;
    }
  }

  // "energy_attribution" joined the run report after schema 1 shipped, so
  // it stays optional under the unchanged schema id; when present its shape
  // must conform.
  const JsonValue* attribution = doc.Find("energy_attribution");
  if (attribution != nullptr && err.empty()) {
    if (!attribution->IsObject()) {
      return "report.energy_attribution: expected object, got " +
             KindName(attribution->kind());
    }
    NeedKeys(*attribution, "energy_attribution",
             {{"total_transmit", JsonValue::Kind::kNumber},
              {"total_listen", JsonValue::Kind::kNumber},
              {"keys", JsonValue::Kind::kArray}},
             &err);
    if (!err.empty()) return err;
    std::size_t i = 0;
    for (const JsonValue& k : attribution->Find("keys")->Items()) {
      const std::string path = "energy_attribution.keys[" + std::to_string(i) + "]";
      if (!k.IsObject()) return path + ": not an object";
      NeedKeys(k, path,
               {{"phase", JsonValue::Kind::kString},
                {"sub", JsonValue::Kind::kString},
                {"transmit_rounds", JsonValue::Kind::kNumber},
                {"listen_rounds", JsonValue::Kind::kNumber},
                {"awake_rounds", JsonValue::Kind::kNumber},
                {"nodes_charged", JsonValue::Kind::kNumber},
                {"max_awake", JsonValue::Kind::kNumber},
                {"p50_awake", JsonValue::Kind::kNumber},
                {"p90_awake", JsonValue::Kind::kNumber},
                {"p99_awake", JsonValue::Kind::kNumber}},
               &err);
      if (!err.empty()) return err;
      ++i;
    }
  }

  const JsonValue* alloc =
      Need(doc, "alloc", JsonValue::Kind::kObject, "report", &err);
  if (alloc != nullptr) {
    NeedKeys(*alloc, "alloc",
             {{"arena_reserved_bytes", JsonValue::Kind::kNumber},
              {"arena_used_bytes", JsonValue::Kind::kNumber},
              {"peak_rss_bytes", JsonValue::Kind::kNumber}},
             &err);
  }

  const JsonValue* metrics =
      Need(doc, "metrics", JsonValue::Kind::kObject, "report", &err);
  if (metrics != nullptr) {
    NeedKeys(*metrics, "metrics",
             {{"counters", JsonValue::Kind::kObject},
              {"gauges", JsonValue::Kind::kObject},
              {"timers", JsonValue::Kind::kObject},
              {"histograms", JsonValue::Kind::kObject}},
             &err);
  }
  return err;
}

std::string ValidateBenchReport(const JsonValue& doc) {
  if (!doc.IsObject()) return "report: not a JSON object";
  std::string err;
  const JsonValue* schema =
      Need(doc, "schema", JsonValue::Kind::kString, "report", &err);
  if (!err.empty()) return err;
  if (schema->AsString() != kBenchReportSchema) {
    return "report.schema: expected \"" + std::string(kBenchReportSchema) + "\"";
  }
  NeedKeys(doc, "report",
           {{"bench", JsonValue::Kind::kString},
            {"claim", JsonValue::Kind::kString},
            {"failures", JsonValue::Kind::kNumber},
            {"verdicts", JsonValue::Kind::kArray},
            {"sweeps", JsonValue::Kind::kArray}},
           &err);
  if (!err.empty()) return err;
  // "metrics" joined the bench report after schema 1 shipped, so it stays
  // optional under the unchanged schema id: documents from older binaries
  // (no metrics block) remain valid, and when the block is present its
  // shape must conform.
  const JsonValue* metrics = doc.Find("metrics");
  if (metrics != nullptr) {
    if (!metrics->IsObject()) {
      return "report.metrics: expected object, got " + KindName(metrics->kind());
    }
    NeedKeys(*metrics, "metrics",
             {{"counters", JsonValue::Kind::kObject},
              {"gauges", JsonValue::Kind::kObject},
              {"timers", JsonValue::Kind::kObject},
              {"histograms", JsonValue::Kind::kObject}},
             &err);
    if (!err.empty()) return err;
  }
  std::size_t i = 0;
  for (const JsonValue& v : doc.Find("verdicts")->Items()) {
    const std::string path = "verdicts[" + std::to_string(i) + "]";
    if (!v.IsObject()) return path + ": not an object";
    NeedKeys(v, path,
             {{"what", JsonValue::Kind::kString}, {"ok", JsonValue::Kind::kBool}},
             &err);
    if (!err.empty()) return err;
    ++i;
  }
  i = 0;
  for (const JsonValue& s : doc.Find("sweeps")->Items()) {
    const std::string path = "sweeps[" + std::to_string(i) + "]";
    if (!s.IsObject()) return path + ": not an object";
    NeedKeys(s, path,
             {{"title", JsonValue::Kind::kString},
              {"points", JsonValue::Kind::kArray}},
             &err);
    if (!err.empty()) return err;
    std::size_t j = 0;
    for (const JsonValue& p : s.Find("points")->Items()) {
      const std::string ppath = path + ".points[" + std::to_string(j) + "]";
      if (!p.IsObject()) return ppath + ": not an object";
      NeedKeys(p, ppath,
               {{"n", JsonValue::Kind::kNumber},
                {"runs", JsonValue::Kind::kNumber},
                {"failures", JsonValue::Kind::kNumber},
                {"max_energy_mean", JsonValue::Kind::kNumber},
                {"avg_energy_mean", JsonValue::Kind::kNumber},
                {"rounds_mean", JsonValue::Kind::kNumber},
                {"mis_size_mean", JsonValue::Kind::kNumber}},
               &err);
      if (!err.empty()) return err;
      ++j;
    }
    ++i;
  }
  const JsonValue* alloc =
      Need(doc, "alloc", JsonValue::Kind::kObject, "report", &err);
  if (alloc != nullptr) {
    NeedKeys(*alloc, "alloc", {{"peak_rss_bytes", JsonValue::Kind::kNumber}},
             &err);
  }
  return err;
}

std::string ValidateDiffReport(const JsonValue& doc) {
  if (!doc.IsObject()) return "report: not a JSON object";
  std::string err;
  const JsonValue* schema =
      Need(doc, "schema", JsonValue::Kind::kString, "report", &err);
  if (!err.empty()) return err;
  if (schema->AsString() != kDiffReportSchema) {
    return "report.schema: expected \"" + std::string(kDiffReportSchema) + "\"";
  }
  NeedKeys(doc, "report",
           {{"baseline", JsonValue::Kind::kString},
            {"current", JsonValue::Kind::kString},
            {"compared", JsonValue::Kind::kNumber},
            {"out_of_tolerance", JsonValue::Kind::kNumber},
            {"deltas", JsonValue::Kind::kArray}},
           &err);
  if (!err.empty()) return err;
  std::size_t i = 0;
  for (const JsonValue& d : doc.Find("deltas")->Items()) {
    const std::string path = "deltas[" + std::to_string(i) + "]";
    if (!d.IsObject()) return path + ": not an object";
    NeedKeys(d, path,
             {{"metric", JsonValue::Kind::kString},
              {"class", JsonValue::Kind::kString}},
             &err);
    if (!err.empty()) return err;
    ++i;
  }
  return err;
}

std::string ValidateLintReport(const JsonValue& doc) {
  if (!doc.IsObject()) return "report: not a JSON object";
  std::string err;
  const JsonValue* schema =
      Need(doc, "schema", JsonValue::Kind::kString, "report", &err);
  if (!err.empty()) return err;
  const bool v2 = schema->AsString() == kLintReportSchema;
  if (!v2 && schema->AsString() != kLintReportSchemaV1) {
    return "report.schema: expected \"" + std::string(kLintReportSchema) +
           "\" or \"" + std::string(kLintReportSchemaV1) + "\"";
  }
  NeedKeys(doc, "report",
           {{"root", JsonValue::Kind::kString},
            {"files_scanned", JsonValue::Kind::kNumber},
            {"suppressed_count", JsonValue::Kind::kNumber},
            {"rules", JsonValue::Kind::kArray},
            {"findings", JsonValue::Kind::kArray}},
           &err);
  if (!err.empty()) return err;
  if (v2) {
    // /2 additions: pass-1 index counters, lint wall time, and per-rule
    // waiver accounting (values must be numbers).
    NeedKeys(doc, "report",
             {{"symbols_indexed", JsonValue::Kind::kNumber},
              {"call_edges", JsonValue::Kind::kNumber},
              {"wall_seconds", JsonValue::Kind::kNumber},
              {"suppressed_by_rule", JsonValue::Kind::kObject}},
             &err);
    if (!err.empty()) return err;
    for (const auto& [rule, count] : doc.Find("suppressed_by_rule")->Entries()) {
      if (!count.IsNumber()) {
        return "report.suppressed_by_rule[\"" + rule + "\"]: not a number";
      }
    }
  }
  std::size_t i = 0;
  for (const JsonValue& r : doc.Find("rules")->Items()) {
    if (!r.IsString()) {
      return "report.rules[" + std::to_string(i) + "]: not a string";
    }
    ++i;
  }
  i = 0;
  for (const JsonValue& f : doc.Find("findings")->Items()) {
    const std::string path = "findings[" + std::to_string(i) + "]";
    if (!f.IsObject()) return path + ": not an object";
    NeedKeys(f, path,
             {{"rule", JsonValue::Kind::kString},
              {"file", JsonValue::Kind::kString},
              {"line", JsonValue::Kind::kNumber},
              {"message", JsonValue::Kind::kString}},
             &err);
    if (!err.empty()) return err;
    // Graph-rule findings carry a symbol and a witness call chain; token
    // findings omit both (optional in /2, absent in /1).
    const JsonValue* symbol = f.Find("symbol");
    if (symbol != nullptr && !symbol->IsString()) {
      return path + ".symbol: expected string, got " + KindName(symbol->kind());
    }
    const JsonValue* witness = f.Find("witness");
    if (witness != nullptr) {
      if (!witness->IsArray()) {
        return path + ".witness: expected array, got " + KindName(witness->kind());
      }
      std::size_t w = 0;
      for (const JsonValue& hop : witness->Items()) {
        if (!hop.IsString()) {
          return path + ".witness[" + std::to_string(w) + "]: not a string";
        }
        ++w;
      }
    }
    ++i;
  }
  return err;
}

std::string ValidateReport(const JsonValue& doc) {
  if (!doc.IsObject()) return "report: not a JSON object";
  const JsonValue* schema = doc.Find("schema");
  if (schema == nullptr || !schema->IsString()) {
    return "report.schema: missing or not a string";
  }
  if (schema->AsString() == kRunReportSchema) return ValidateRunReport(doc);
  if (schema->AsString() == kBenchReportSchema) return ValidateBenchReport(doc);
  if (schema->AsString() == kDiffReportSchema) return ValidateDiffReport(doc);
  if (schema->AsString() == kLintReportSchema ||
      schema->AsString() == kLintReportSchemaV1) {
    return ValidateLintReport(doc);
  }
  return "report.schema: unknown schema \"" + schema->AsString() + "\"";
}

std::uint64_t PeakRssBytes() {
#ifdef __linux__
  // VmHWM ("high water mark") is the peak resident set, reported in kB.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    std::uint64_t kb = 0;
    fields >> kb;
    return kb * 1024;
  }
#endif
  return 0;
}

}  // namespace emis::obs
