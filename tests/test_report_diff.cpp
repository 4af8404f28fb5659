// emis_report_diff engine: flattening, tolerance classes, added/removed
// detection, phase spans on the diff surface, the self-diff-is-clean
// guarantee the CI gate rests on, and the emis-diff-report/1 schema
// round-trip.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/runner.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_timeline.hpp"
#include "obs/report.hpp"
#include "radio/graph_generators.hpp"
#include "tools/emis_report_diff.hpp"

namespace emis {
namespace {

using obs::JsonValue;

JsonValue RealRunReport() {
  Rng rng(7);
  Graph g = gen::ErdosRenyi(48, 0.1, rng);
  obs::MetricsRegistry metrics;
  obs::PhaseTimeline timeline;
  obs::EnergyLedger ledger(g.NumNodes());
  const MisRunResult r =
      RunMis(g, {.algorithm = MisAlgorithm::kCd, .seed = 5, .metrics = &metrics,
                 .timeline = &timeline, .ledger = &ledger});
  EXPECT_TRUE(r.Valid());
  return obs::BuildRunReport({.algorithm = "cd",
                              .graph = "er-test",
                              .preset = "practical",
                              .seed = 5,
                              .nodes = g.NumNodes(),
                              .edges = g.NumEdges(),
                              .max_degree = g.MaxDegree(),
                              .valid_mis = r.Valid(),
                              .mis_size = r.MisSize(),
                              .stats = &r.stats,
                              .energy = &r.energy,
                              .timeline = &timeline,
                              .metrics = &metrics,
                              .ledger = &ledger});
}

/// Deep-copies `doc` with the number at top-level `section`.`key` replaced.
JsonValue WithChanged(const JsonValue& doc, const std::string& section,
                      const std::string& key, double value) {
  JsonValue out = obs::ParseJson(doc.Dump());
  JsonValue patched = JsonValue::MakeObject();
  for (const auto& [k, v] : out.Entries()) {
    if (k != section) {
      patched.Set(k, v);
      continue;
    }
    JsonValue sec = JsonValue::MakeObject();
    for (const auto& [sk, sv] : v.Entries()) {
      sec.Set(sk, sk == key ? JsonValue(value) : sv);
    }
    patched.Set(section, std::move(sec));
  }
  return patched;
}

TEST(ReportDiff, SelfDiffIsClean) {
  const JsonValue doc = RealRunReport();
  std::string error;
  const emis_diff::DiffResult result =
      emis_diff::DiffReports(doc, doc, {}, &error);
  EXPECT_EQ(error, "");
  EXPECT_GT(result.compared, 10u);
  EXPECT_EQ(result.out_of_tolerance, 0u);
  EXPECT_TRUE(result.Ok());
  // energy_attribution keys made it into the comparable surface.
  bool saw_attribution = false;
  for (const emis_diff::MetricDelta& d : result.deltas) {
    saw_attribution |= d.metric.rfind("energy_attribution.", 0) == 0;
    EXPECT_EQ(d.cls, "ok");
  }
  EXPECT_TRUE(saw_attribution);
}

TEST(ReportDiff, PerturbedIntegerMetricFailsExactly) {
  const JsonValue doc = RealRunReport();
  const double rounds = doc.Find("result")->Find("rounds")->AsNumber();
  const JsonValue drifted = WithChanged(doc, "result", "rounds", rounds + 1);
  const emis_diff::DiffResult result = emis_diff::DiffReports(doc, drifted, {});
  EXPECT_EQ(result.out_of_tolerance, 1u);
  bool found = false;
  for (const emis_diff::MetricDelta& d : result.deltas) {
    if (d.metric != "result.rounds") continue;
    found = true;
    EXPECT_EQ(d.cls, "out_of_tolerance");
    EXPECT_DOUBLE_EQ(d.tolerance, 0.0);  // integral: exact compare
  }
  EXPECT_TRUE(found);
}

TEST(ReportDiff, FloatMetricsUseRelativeTolerance) {
  const JsonValue doc = RealRunReport();
  const double avg = doc.Find("energy")->Find("avg_awake")->AsNumber();
  // Inside the default 1e-6 relative band: ok.
  const JsonValue close = WithChanged(doc, "energy", "avg_awake",
                                      avg * (1.0 + 1e-9));
  EXPECT_TRUE(emis_diff::DiffReports(doc, close, {}).Ok());
  // Outside: flagged.
  const JsonValue far = WithChanged(doc, "energy", "avg_awake", avg * 1.01);
  EXPECT_FALSE(emis_diff::DiffReports(doc, far, {}).Ok());
  // Per-metric override loosens just that metric.
  emis_diff::DiffOptions loose;
  loose.overrides["energy.avg_awake"] = 0.05;
  EXPECT_TRUE(emis_diff::DiffReports(doc, far, loose).Ok());
}

TEST(ReportDiff, AddedAndRemovedMetricsAreFlagged) {
  const JsonValue doc = RealRunReport();
  // Strip the (schema-optional) attribution block: its keyed metrics become
  // "removed" relative to a baseline that has them.
  JsonValue stripped = JsonValue::MakeObject();
  for (const auto& [k, v] : doc.Entries()) {
    if (k != "energy_attribution") stripped.Set(k, v);
  }
  const emis_diff::DiffResult removed = emis_diff::DiffReports(doc, stripped, {});
  EXPECT_FALSE(removed.Ok());
  bool saw_removed = false;
  for (const emis_diff::MetricDelta& d : removed.deltas) {
    if (d.cls == "removed") saw_removed = true;
    EXPECT_NE(d.cls, "added");
  }
  EXPECT_TRUE(saw_removed);
  // The mirror image classifies as "added".
  const emis_diff::DiffResult added = emis_diff::DiffReports(stripped, doc, {});
  EXPECT_FALSE(added.Ok());
  bool saw_added = false;
  for (const emis_diff::MetricDelta& d : added.deltas) saw_added |= d.cls == "added";
  EXPECT_TRUE(saw_added);
}

/// The committed bench/baselines/run_er_cd.json.
JsonValue CommittedBaseline() {
  std::ifstream in(std::string(EMIS_SOURCE_ROOT) + "/bench/baselines/run_er_cd.json");
  EXPECT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  return obs::ParseJson(text.str());
}

/// Deep-copies `doc` with phases[i].`key` set to `value`, or with span i
/// dropped when `key` is empty.
JsonValue WithPhase(const JsonValue& doc, std::size_t i, const std::string& key,
                    double value) {
  JsonValue out = JsonValue::MakeObject();
  for (const auto& [k, v] : doc.Entries()) {
    if (k != "phases") {
      out.Set(k, v);
      continue;
    }
    JsonValue phases = JsonValue::MakeArray();
    for (std::size_t j = 0; j < v.Items().size(); ++j) {
      if (j != i) {
        phases.Push(v.Items()[j]);
        continue;
      }
      if (key.empty()) continue;
      JsonValue span = JsonValue::MakeObject();
      for (const auto& [sk, sv] : v.Items()[j].Entries()) {
        span.Set(sk, sk == key ? JsonValue(value) : sv);
      }
      phases.Push(std::move(span));
    }
    out.Set("phases", std::move(phases));
  }
  return out;
}

TEST(ReportDiff, PhaseSpansAreOnTheDiffSurface) {
  const JsonValue baseline = CommittedBaseline();
  ASSERT_EQ(obs::ValidateReport(baseline), "");
  EXPECT_TRUE(emis_diff::DiffReports(baseline, baseline, {}).Ok());
  // luby-phase 0 ends at 76 residual edges; 966 is what the residual read
  // before boundary probing. The gate must see the drift.
  ASSERT_EQ(baseline.Find("phases")->Items()[0].Find("residual_edges_end")->AsNumber(),
            76.0);
  const emis_diff::DiffResult drifted = emis_diff::DiffReports(
      baseline, WithPhase(baseline, 0, "residual_edges_end", 966), {});
  EXPECT_EQ(drifted.out_of_tolerance, 1u);
  bool found = false;
  for (const emis_diff::MetricDelta& d : drifted.deltas) {
    if (d.metric != "phases.0.luby-phase 0.residual_edges_end") continue;
    found = true;
    EXPECT_EQ(d.cls, "out_of_tolerance");
    EXPECT_DOUBLE_EQ(d.baseline, 76.0);
    EXPECT_DOUBLE_EQ(d.current, 966.0);
  }
  EXPECT_TRUE(found);
  // A missing span fails closed: its fields are "removed", and the spans
  // after it no longer line up with their positions.
  const emis_diff::DiffResult missing =
      emis_diff::DiffReports(baseline, WithPhase(baseline, 0, "", 0), {});
  EXPECT_FALSE(missing.Ok());
  bool saw_removed = false;
  for (const emis_diff::MetricDelta& d : missing.deltas) saw_removed |= d.cls == "removed";
  EXPECT_TRUE(saw_removed);
}

TEST(ReportDiff, IncomparableDocumentsFailClosed) {
  const JsonValue doc = RealRunReport();
  JsonValue bench = JsonValue::MakeObject();
  bench.Set("schema", obs::kBenchReportSchema);
  std::string error;
  const emis_diff::DiffResult result =
      emis_diff::DiffReports(doc, bench, {}, &error);
  EXPECT_NE(error, "");  // bench doc is schema-invalid AND mismatched
  EXPECT_FALSE(result.Ok());
}

TEST(ReportDiff, BenchReportsFlattenSweepPoints) {
  JsonValue doc = JsonValue::MakeObject();
  doc.Set("schema", obs::kBenchReportSchema);
  doc.Set("bench", "gate");
  doc.Set("claim", "baseline");
  doc.Set("failures", 0);
  doc.Set("verdicts", JsonValue::MakeArray());
  JsonValue sweeps = JsonValue::MakeArray();
  JsonValue sweep = JsonValue::MakeObject();
  sweep.Set("title", "er / cd");
  JsonValue points = JsonValue::MakeArray();
  JsonValue point = JsonValue::MakeObject();
  point.Set("n", 64);
  point.Set("runs", 4);
  point.Set("failures", 0);
  point.Set("max_energy_mean", 12.5);
  point.Set("avg_energy_mean", 3.25);
  point.Set("rounds_mean", 40.0);
  point.Set("mis_size_mean", 20.0);
  point.Set("wall_seconds", 0.5);  // execution fact: must NOT be compared
  points.Push(std::move(point));
  sweep.Set("points", std::move(points));
  sweeps.Push(std::move(sweep));
  doc.Set("sweeps", std::move(sweeps));
  JsonValue alloc = JsonValue::MakeObject();
  alloc.Set("peak_rss_bytes", 1);
  doc.Set("alloc", std::move(alloc));

  std::map<std::string, double> flat;
  EXPECT_EQ(emis_diff::FlattenReport(doc, &flat), "");
  EXPECT_EQ(flat.count("sweeps.er / cd.n64.max_energy_mean"), 1u);
  EXPECT_EQ(flat.count("sweeps.er / cd.n64.wall_seconds"), 0u);
  EXPECT_EQ(flat.count("failures"), 1u);
  EXPECT_TRUE(emis_diff::DiffReports(doc, doc, {}).Ok());
}

TEST(ReportDiff, DiffReportJsonValidates) {
  const JsonValue doc = RealRunReport();
  const JsonValue drifted = WithChanged(
      doc, "result", "rounds", doc.Find("result")->Find("rounds")->AsNumber() + 2);
  const emis_diff::DiffResult result = emis_diff::DiffReports(doc, drifted, {});
  const JsonValue report =
      emis_diff::BuildDiffReportJson(result, "baseline.json", "current.json");
  EXPECT_EQ(obs::ValidateDiffReport(report), "");
  EXPECT_EQ(obs::ValidateReport(report), "");  // dispatch knows the schema
  EXPECT_DOUBLE_EQ(report.Find("out_of_tolerance")->AsNumber(),
                   static_cast<double>(result.out_of_tolerance));
  // Only non-ok deltas are listed, so a clean diff renders compact.
  const JsonValue clean =
      emis_diff::BuildDiffReportJson(emis_diff::DiffReports(doc, doc, {}),
                                     "a.json", "b.json");
  EXPECT_EQ(obs::ValidateDiffReport(clean), "");
  EXPECT_TRUE(clean.Find("deltas")->Items().empty());
}

}  // namespace
}  // namespace emis
