// emis_report_diff — the bench regression gate's comparison engine.
//
// Diffs two report artifacts (emis-run-report/1 or emis-bench-report/1)
// against per-metric tolerances and classifies every comparable metric as
// ok / out_of_tolerance / added / removed. The CI gate runs it between a
// committed baseline (bench/baselines/) and a freshly regenerated artifact:
// exit 0 means every metric is within tolerance, so a self-diff is always
// clean and any drift in the deterministic columns fails the build.
//
// What is compared (the deterministic surface of each schema):
//   run report    result.*, energy.* (totals + percentiles),
//                 metrics.counters.*, energy_attribution totals and
//                 per-(phase, sub) splits, and every phases[] span's
//                 integral fields keyed by (position, label), so an added,
//                 missing or reordered span fails closed
//   bench report  failures, sweeps keyed by (title, n): runs/failures and
//                 the *_mean columns, metrics.counters.*
// What is NOT compared: wall_seconds, jobs, alloc, timers, gauges and
// histograms — the execution-dependent facts that the determinism contract
// explicitly keeps out of the points.
//
// Tolerances: metrics whose flattened name contains "mean" or "avg" are
// float-valued (trial averages) and compare under a relative tolerance
// (default 1e-6 — bit-identical reductions pass, real drift does not);
// everything else is integral and compares exactly. Per-metric overrides
// (--tolerance NAME=REL) take precedence over both.
//
// Output: an "emis-diff-report/1" document —
//   {schema, baseline, current, compared, out_of_tolerance,
//    deltas[{metric, class, baseline?, current?, rel_delta?, tolerance?}]}
// deltas lists only the non-ok metrics, so an in-tolerance diff is compact.
//
// Header-only so tests drive the engine directly (the emis_lint pattern);
// the binary in emis_report_diff.cpp owns all file and console I/O.
#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/report.hpp"

namespace emis_diff {

struct DiffOptions {
  /// Relative tolerance for float-valued metrics (name contains mean/avg).
  double default_rel_tolerance = 1e-6;
  /// Per-metric relative tolerances, keyed by flattened metric name;
  /// override both the float default and the integral exact-match rule.
  std::map<std::string, double> overrides;
};

struct MetricDelta {
  std::string metric;
  std::string cls;  ///< "ok" | "out_of_tolerance" | "added" | "removed"
  double baseline = 0.0;
  double current = 0.0;
  double rel_delta = 0.0;
  double tolerance = 0.0;
  bool has_baseline = false;
  bool has_current = false;
};

struct DiffResult {
  std::vector<MetricDelta> deltas;  ///< every compared metric, name-ordered
  std::size_t compared = 0;
  std::size_t out_of_tolerance = 0;  ///< non-ok: drifted, added or removed
  bool Ok() const noexcept { return out_of_tolerance == 0; }
};

namespace detail {

/// Number at `key` folded to double; bools fold to 0/1 so validity flags
/// diff like any other metric.
inline bool FoldScalar(const emis::obs::JsonValue& obj, std::string_view key,
                       double* out) {
  const emis::obs::JsonValue* v = obj.Find(key);
  if (v == nullptr) return false;
  if (v->IsBool()) {
    *out = v->AsBool() ? 1.0 : 0.0;
    return true;
  }
  if (v->IsNumber()) {
    *out = v->AsNumber();
    return true;
  }
  return false;
}

inline void FlattenKeys(const emis::obs::JsonValue& doc, std::string_view block,
                        std::string_view prefix,
                        const std::vector<std::string_view>& fields,
                        std::map<std::string, double>* out) {
  const emis::obs::JsonValue* obj = doc.Find(block);
  if (obj == nullptr || !obj->IsObject()) return;
  for (const std::string_view field : fields) {
    double value = 0.0;
    if (FoldScalar(*obj, field, &value)) {
      (*out)[std::string(prefix) + "." + std::string(field)] = value;
    }
  }
}

/// metrics.counters are deterministic event counts (chan.*, graph.*,
/// sched.*); gauges/timers/histograms stay out of the comparison.
inline void FlattenCounters(const emis::obs::JsonValue& doc,
                            std::map<std::string, double>* out) {
  const emis::obs::JsonValue* metrics = doc.Find("metrics");
  if (metrics == nullptr || !metrics->IsObject()) return;
  const emis::obs::JsonValue* counters = metrics->Find("counters");
  if (counters == nullptr || !counters->IsObject()) return;
  for (const auto& [name, value] : counters->Entries()) {
    if (value.IsNumber()) (*out)["metrics.counters." + name] = value.AsNumber();
  }
}

/// The phases array in report (chronological) order: span i labelled L
/// flattens to "phases.i.L.<field>" for each integral field it carries
/// (residual_edges_* only where the span has a residual).
inline void FlattenPhases(const emis::obs::JsonValue& doc,
                          std::map<std::string, double>* out) {
  const emis::obs::JsonValue* phases = doc.Find("phases");
  if (phases == nullptr || !phases->IsArray()) return;
  std::size_t i = 0;
  for (const emis::obs::JsonValue& span : phases->Items()) {
    const emis::obs::JsonValue* label = span.IsObject() ? span.Find("label") : nullptr;
    if (label == nullptr || !label->IsString()) continue;
    const std::string prefix =
        "phases." + std::to_string(i++) + "." + label->AsString() + ".";
    for (const std::string_view field :
         {std::string_view("level"), std::string_view("begin_round"),
          std::string_view("end_round"), std::string_view("rounds"),
          std::string_view("transmit_rounds"), std::string_view("listen_rounds"),
          std::string_view("awake_rounds"), std::string_view("residual_edges_begin"),
          std::string_view("residual_edges_end")}) {
      double value = 0.0;
      if (FoldScalar(span, field, &value)) (*out)[prefix + std::string(field)] = value;
    }
  }
}

inline void FlattenRunReport(const emis::obs::JsonValue& doc,
                             std::map<std::string, double>* out) {
  FlattenKeys(doc, "result", "result",
              {"valid_mis", "mis_size", "rounds", "node_rounds",
               "nodes_finished", "hit_round_limit"},
              out);
  FlattenKeys(doc, "energy", "energy",
              {"max_awake", "avg_awake", "total_awake", "total_transmit",
               "total_listen"},
              out);
  const emis::obs::JsonValue* energy = doc.Find("energy");
  if (energy != nullptr && energy->IsObject()) {
    FlattenKeys(*energy, "percentiles", "energy.percentiles",
                {"p10", "p50", "p90", "p99"}, out);
  }
  const emis::obs::JsonValue* attribution = doc.Find("energy_attribution");
  if (attribution != nullptr && attribution->IsObject()) {
    FlattenKeys(doc, "energy_attribution", "energy_attribution",
                {"total_transmit", "total_listen"}, out);
    const emis::obs::JsonValue* keys = attribution->Find("keys");
    if (keys != nullptr && keys->IsArray()) {
      for (const emis::obs::JsonValue& k : keys->Items()) {
        if (!k.IsObject()) continue;
        const emis::obs::JsonValue* phase = k.Find("phase");
        const emis::obs::JsonValue* sub = k.Find("sub");
        if (phase == nullptr || !phase->IsString()) continue;
        std::string name = "energy_attribution." +
                           (phase->AsString().empty() ? std::string("(unattributed)")
                                                      : phase->AsString());
        if (sub != nullptr && sub->IsString() && !sub->AsString().empty()) {
          name += "/" + sub->AsString();
        }
        for (const std::string_view field :
             {std::string_view("transmit_rounds"),
              std::string_view("listen_rounds"),
              std::string_view("awake_rounds")}) {
          double value = 0.0;
          if (FoldScalar(k, field, &value)) {
            (*out)[name + "." + std::string(field)] = value;
          }
        }
      }
    }
  }
  FlattenPhases(doc, out);
  FlattenCounters(doc, out);
}

inline void FlattenBenchReport(const emis::obs::JsonValue& doc,
                               std::map<std::string, double>* out) {
  double failures = 0.0;
  if (FoldScalar(doc, "failures", &failures)) (*out)["failures"] = failures;
  const emis::obs::JsonValue* sweeps = doc.Find("sweeps");
  if (sweeps != nullptr && sweeps->IsArray()) {
    for (const emis::obs::JsonValue& sweep : sweeps->Items()) {
      if (!sweep.IsObject()) continue;
      const emis::obs::JsonValue* title = sweep.Find("title");
      const emis::obs::JsonValue* points = sweep.Find("points");
      if (title == nullptr || !title->IsString() || points == nullptr ||
          !points->IsArray()) {
        continue;
      }
      for (const emis::obs::JsonValue& point : points->Items()) {
        if (!point.IsObject()) continue;
        double n = 0.0;
        if (!FoldScalar(point, "n", &n)) continue;
        const std::string prefix = "sweeps." + title->AsString() + ".n" +
                                   std::to_string(static_cast<std::uint64_t>(n));
        for (const std::string_view field :
             {std::string_view("runs"), std::string_view("failures"),
              std::string_view("max_energy_mean"),
              std::string_view("avg_energy_mean"),
              std::string_view("rounds_mean"),
              std::string_view("mis_size_mean")}) {
          double value = 0.0;
          if (FoldScalar(point, field, &value)) {
            (*out)[prefix + "." + std::string(field)] = value;
          }
        }
      }
    }
  }
  FlattenCounters(doc, out);
}

}  // namespace detail

/// Flattens a report's deterministic metrics to name → value. Returns an
/// empty string on success, else a description of why the document is not
/// diffable (unknown schema, schema check failure).
inline std::string FlattenReport(const emis::obs::JsonValue& doc,
                                 std::map<std::string, double>* out) {
  const std::string err = emis::obs::ValidateReport(doc);
  if (!err.empty()) return err;
  const std::string& schema = doc.Find("schema")->AsString();
  if (schema == emis::obs::kRunReportSchema) {
    detail::FlattenRunReport(doc, out);
    return {};
  }
  if (schema == emis::obs::kBenchReportSchema) {
    detail::FlattenBenchReport(doc, out);
    return {};
  }
  return "not a diffable schema: \"" + schema + "\"";
}

/// The tolerance applied to `metric`: an explicit override wins; otherwise
/// trial-average columns ("mean"/"avg" in the name) get the float default
/// and everything else compares exactly (0).
inline double ToleranceFor(const std::string& metric, const DiffOptions& options) {
  const auto it = options.overrides.find(metric);
  if (it != options.overrides.end()) return it->second;
  if (metric.find("mean") != std::string::npos ||
      metric.find("avg") != std::string::npos) {
    return options.default_rel_tolerance;
  }
  return 0.0;
}

/// Diffs two validated reports. `error` (optional) receives the reason when
/// the documents are not comparable — mismatched or invalid schemas — in
/// which case the result counts one out_of_tolerance so callers fail closed.
inline DiffResult DiffReports(const emis::obs::JsonValue& baseline,
                              const emis::obs::JsonValue& current,
                              const DiffOptions& options,
                              std::string* error = nullptr) {
  DiffResult result;
  std::map<std::string, double> base_metrics;
  std::map<std::string, double> cur_metrics;
  std::string err = FlattenReport(baseline, &base_metrics);
  if (err.empty()) {
    err = FlattenReport(current, &cur_metrics);
    if (!err.empty()) err = "current: " + err;
  } else {
    err = "baseline: " + err;
  }
  if (err.empty() &&
      baseline.Find("schema")->AsString() != current.Find("schema")->AsString()) {
    err = "schema mismatch: baseline is " + baseline.Find("schema")->AsString() +
          ", current is " + current.Find("schema")->AsString();
  }
  if (!err.empty()) {
    if (error != nullptr) *error = err;
    result.out_of_tolerance = 1;
    return result;
  }

  // Walk the union of names in order; std::map keeps the output stable.
  auto b = base_metrics.begin();
  auto c = cur_metrics.begin();
  while (b != base_metrics.end() || c != cur_metrics.end()) {
    MetricDelta delta;
    if (c == cur_metrics.end() ||
        (b != base_metrics.end() && b->first < c->first)) {
      delta.metric = b->first;
      delta.baseline = b->second;
      delta.has_baseline = true;
      delta.cls = "removed";
      ++b;
    } else if (b == base_metrics.end() || c->first < b->first) {
      delta.metric = c->first;
      delta.current = c->second;
      delta.has_current = true;
      delta.cls = "added";
      ++c;
    } else {
      delta.metric = b->first;
      delta.baseline = b->second;
      delta.current = c->second;
      delta.has_baseline = delta.has_current = true;
      delta.tolerance = ToleranceFor(delta.metric, options);
      const double scale = std::max(std::abs(delta.baseline), 1e-12);
      delta.rel_delta = std::abs(delta.current - delta.baseline) / scale;
      const bool ok = delta.tolerance == 0.0
                          ? delta.current == delta.baseline
                          : delta.rel_delta <= delta.tolerance;
      delta.cls = ok ? "ok" : "out_of_tolerance";
      ++b;
      ++c;
    }
    ++result.compared;
    if (delta.cls != "ok") ++result.out_of_tolerance;
    result.deltas.push_back(std::move(delta));
  }
  return result;
}

/// Renders the result as an "emis-diff-report/1" document. Only non-ok
/// deltas are listed; a clean diff is {.., out_of_tolerance: 0, deltas: []}.
inline emis::obs::JsonValue BuildDiffReportJson(const DiffResult& result,
                                                const std::string& baseline_name,
                                                const std::string& current_name) {
  emis::obs::JsonValue doc = emis::obs::JsonValue::MakeObject();
  doc.Set("schema", emis::obs::kDiffReportSchema);
  doc.Set("baseline", baseline_name);
  doc.Set("current", current_name);
  doc.Set("compared", static_cast<std::uint64_t>(result.compared));
  doc.Set("out_of_tolerance", static_cast<std::uint64_t>(result.out_of_tolerance));
  emis::obs::JsonValue deltas = emis::obs::JsonValue::MakeArray();
  for (const MetricDelta& delta : result.deltas) {
    if (delta.cls == "ok") continue;
    emis::obs::JsonValue row = emis::obs::JsonValue::MakeObject();
    row.Set("metric", delta.metric);
    row.Set("class", delta.cls);
    if (delta.has_baseline) row.Set("baseline", delta.baseline);
    if (delta.has_current) row.Set("current", delta.current);
    if (delta.has_baseline && delta.has_current) {
      row.Set("rel_delta", delta.rel_delta);
      row.Set("tolerance", delta.tolerance);
    }
    deltas.Push(std::move(row));
  }
  doc.Set("deltas", std::move(deltas));
  return doc;
}

}  // namespace emis_diff
