// Observability layer: JSON model, metrics registry, phase timeline, JSONL
// trace sink, and the run-report schema round-trip through real runs.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "contract_mode_guard.hpp"
#include "core/runner.hpp"
#include "obs/json.hpp"
#include "obs/jsonl_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_timeline.hpp"
#include "obs/report.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/stream_sink.hpp"
#include "radio/graph_generators.hpp"
#include "radio/trace.hpp"

namespace emis {
namespace {

using obs::JsonValue;

// --- JSON ------------------------------------------------------------------

TEST(Json, DumpCompact) {
  JsonValue doc = JsonValue::MakeObject();
  doc.Set("name", "emis");
  doc.Set("n", std::uint64_t{256});
  doc.Set("ok", true);
  doc.Set("ratio", 0.5);
  doc.Set("none", JsonValue());
  JsonValue arr = JsonValue::MakeArray();
  arr.Push(1);
  arr.Push(2);
  doc.Set("xs", std::move(arr));
  EXPECT_EQ(doc.Dump(),
            R"({"name":"emis","n":256,"ok":true,"ratio":0.5,"none":null,"xs":[1,2]})");
}

TEST(Json, EscapesStrings) {
  EXPECT_EQ(obs::EscapeJson("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
  JsonValue v("quote \" backslash \\");
  const JsonValue parsed = obs::ParseJson(v.Dump());
  EXPECT_EQ(parsed.AsString(), "quote \" backslash \\");
}

TEST(Json, ParseDumpRoundTrip) {
  const std::string text =
      R"({"a":[1,2.5,-3],"b":{"c":null,"d":false},"s":"xéy"})";
  const JsonValue doc = obs::ParseJson(text);
  EXPECT_EQ(doc.Find("a")->Items().size(), 3u);
  EXPECT_DOUBLE_EQ(doc.Find("a")->Items()[1].AsNumber(), 2.5);
  EXPECT_TRUE(doc.Find("b")->Find("c")->IsNull());
  EXPECT_EQ(doc.Find("s")->AsString(), "x\xC3\xA9y");  // é as UTF-8
  // Round-trip is stable from the first dump onwards.
  const std::string once = doc.Dump();
  EXPECT_EQ(obs::ParseJson(once).Dump(), once);
}

TEST(Json, ParseRejectsMalformed) {
  EXPECT_THROW(obs::ParseJson("{"), PreconditionError);
  EXPECT_THROW(obs::ParseJson("[1,]"), PreconditionError);
  EXPECT_THROW(obs::ParseJson("{} trailing"), PreconditionError);
  EXPECT_THROW(obs::ParseJson("\"unterminated"), PreconditionError);
  EXPECT_THROW(obs::ParseJson("tru"), PreconditionError);
}

TEST(Json, IntegersRenderWithoutFraction) {
  JsonValue v(std::uint64_t{1234567});
  EXPECT_EQ(v.Dump(), "1234567");
  JsonValue neg(std::int64_t{-42});
  EXPECT_EQ(neg.Dump(), "-42");
}

// --- MetricsRegistry -------------------------------------------------------

TEST(Metrics, CounterGaugeTimer) {
  obs::MetricsRegistry reg;
  EXPECT_TRUE(reg.Empty());
  obs::Counter& c = reg.GetCounter("events");
  c.Inc();
  c.Inc(9);
  EXPECT_EQ(reg.GetCounter("events").Value(), 10u);
  EXPECT_EQ(&reg.GetCounter("events"), &c);  // get-or-create, stable reference

  reg.GetGauge("load").Set(0.75);
  EXPECT_DOUBLE_EQ(reg.GetGauge("load").Value(), 0.75);

  obs::Timer& t = reg.GetTimer("section");
  t.Record(100);
  t.Record(300);
  EXPECT_EQ(t.Count(), 2u);
  EXPECT_EQ(t.TotalNs(), 400u);
  EXPECT_EQ(t.MaxNs(), 300u);
  EXPECT_DOUBLE_EQ(t.MeanNs(), 200.0);
  EXPECT_FALSE(reg.Empty());
}

TEST(Metrics, HistogramBuckets) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.GetHistogram("awake", {1.0, 2.0, 4.0});
  ASSERT_EQ(h.NumBuckets(), 4u);  // 3 bounds + overflow
  h.Observe(0.5);   // bucket 0 (<= 1)
  h.Observe(2.0);   // bucket 1 (<= 2)
  h.Observe(3.0);   // bucket 2 (<= 4)
  h.Observe(100.0); // overflow
  EXPECT_EQ(h.BucketCount(0), 1u);
  EXPECT_EQ(h.BucketCount(1), 1u);
  EXPECT_EQ(h.BucketCount(2), 1u);
  EXPECT_EQ(h.BucketCount(3), 1u);
  EXPECT_EQ(h.TotalCount(), 4u);
  EXPECT_DOUBLE_EQ(h.Sum(), 105.5);
  // Re-creating with different bounds returns the existing histogram.
  EXPECT_EQ(&reg.GetHistogram("awake", {9.0}), &h);
  EXPECT_EQ(h.NumBuckets(), 4u);
}

TEST(Metrics, ExponentialBounds) {
  const auto bounds = obs::Histogram::ExponentialBounds(1.0, 2.0, 5);
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[4], 16.0);
}

TEST(Metrics, ScopedTimerRecordsAndToleratesNull) {
  obs::Timer timer;
  {
    const obs::ScopedTimer timing(&timer);
  }
  EXPECT_EQ(timer.Count(), 1u);
  {
    const obs::ScopedTimer noop(nullptr);  // must not crash
  }
}

// --- PhaseTimeline ---------------------------------------------------------

TEST(PhaseTimeline, MergesRepeatsAndClosesPreviousSpan) {
  obs::PhaseTimeline tl;
  tl.Annotate("luby-phase", 0, 0);
  tl.Annotate("luby-phase", 0, 0);  // second annotator of the same boundary
  tl.Annotate("luby-phase", 0, 3);  // late participant, still the same phase
  tl.Annotate("luby-phase", 1, 10);
  tl.Close(25);
  const auto& spans = tl.Spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].label, "luby-phase 0");
  EXPECT_EQ(spans[0].begin_round, 0u);
  EXPECT_EQ(spans[0].end_round, 10u);
  EXPECT_EQ(spans[1].label, "luby-phase 1");
  EXPECT_EQ(spans[1].end_round, 25u);
  EXPECT_FALSE(tl.HasOpenPhase());
}

TEST(PhaseTimeline, SubPhasesNestInsidePhases) {
  obs::PhaseTimeline tl;
  tl.Annotate("phase", 0, 0);
  tl.AnnotateSub("competition", obs::PhaseTimeline::kNoIndex, 0);
  tl.AnnotateSub("deep-check", obs::PhaseTimeline::kNoIndex, 5);
  tl.Annotate("phase", 1, 12);  // closes sub-phase and phase
  tl.Close(20);
  const auto& spans = tl.Spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].label, "competition");
  EXPECT_EQ(spans[0].level, 1u);
  EXPECT_EQ(spans[0].end_round, 5u);
  EXPECT_EQ(spans[1].label, "deep-check");
  EXPECT_EQ(spans[1].end_round, 12u);
  EXPECT_EQ(spans[2].label, "phase 0");
  EXPECT_EQ(spans[2].level, 0u);
  EXPECT_EQ(spans[3].label, "phase 1");
}

TEST(PhaseTimeline, SnapshotsEnergyDeltas) {
  EnergyMeter meter(2);
  obs::PhaseTimeline tl;
  tl.BindEnergy(&meter);
  tl.Annotate("a", obs::PhaseTimeline::kNoIndex, 0);
  meter.ChargeTransmit(0);
  meter.ChargeListen(1);
  meter.ChargeListen(1);
  tl.Annotate("b", obs::PhaseTimeline::kNoIndex, 4);
  meter.ChargeTransmit(1);
  tl.Close(8);
  const auto& spans = tl.Spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].transmit_rounds, 1u);
  EXPECT_EQ(spans[0].listen_rounds, 2u);
  EXPECT_EQ(spans[0].AwakeRounds(), 3u);
  EXPECT_EQ(spans[1].transmit_rounds, 1u);
  EXPECT_EQ(spans[1].listen_rounds, 0u);
}

TEST(PhaseTimeline, ResidualProbeRunsOncePerBoundary) {
  obs::PhaseTimeline tl;
  int probes = 0;
  std::uint64_t residual = 100;
  tl.SetResidualProbe([&] {
    ++probes;
    return residual;
  });
  tl.Annotate("p", 0, 0);      // boundary at round 0: residual pending
  EXPECT_TRUE(tl.ResidualPending());
  EXPECT_EQ(probes, 0);
  tl.ResolveResidual();        // probe #1 (open)
  residual = 40;
  tl.Annotate("p", 1, 10);
  tl.ResolveResidual();        // probe #2 (shared by close+open)
  tl.ResolveResidual();        // nothing pending: no probe
  EXPECT_FALSE(tl.ResidualPending());
  residual = 0;
  tl.Close(20);                // probe #3
  EXPECT_EQ(probes, 3);
  const auto& spans = tl.Spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_TRUE(spans[0].has_residual);
  EXPECT_EQ(spans[0].residual_edges_begin, 100u);
  EXPECT_EQ(spans[0].residual_edges_end, 40u);
  EXPECT_EQ(spans[1].residual_edges_begin, 40u);
  EXPECT_EQ(spans[1].residual_edges_end, 0u);
}

TEST(PhaseTimeline, BoundaryResidualIsReadAtResolutionNotFirstAnnotation) {
  // Nodes stepping into a boundary round decide one after another; the
  // residual a boundary reports is the probe's value once all of them were
  // committed, and the spans it closes reach the hook only then, in close
  // order.
  obs::PhaseTimeline tl;
  std::uint64_t residual = 100;
  tl.SetResidualProbe([&] { return residual; });
  std::vector<std::string> hooked;
  tl.SetSpanHook([&](const obs::PhaseSpan& span) { hooked.push_back(span.label); });
  tl.Annotate("p", 0, 0);
  tl.AnnotateSub("a", obs::PhaseTimeline::kNoIndex, 0);
  tl.ResolveResidual();
  residual = 60;
  tl.Annotate("p", 1, 10);  // first annotator of the boundary at round 10
  // The sub-span carries no residual and is final at once; "p 0" waits.
  EXPECT_EQ(hooked, std::vector<std::string>{"a"});
  residual = 7;             // later steps into round 10 decide more nodes
  tl.Annotate("p", 1, 10);
  tl.ResolveResidual();
  EXPECT_EQ(hooked, (std::vector<std::string>{"a", "p 0"}));
  tl.Close(15);
  ASSERT_EQ(tl.Spans().size(), 3u);
  EXPECT_EQ(tl.Spans()[1].residual_edges_begin, 100u);
  EXPECT_EQ(tl.Spans()[1].residual_edges_end, 7u);
  EXPECT_EQ(tl.Spans()[2].residual_edges_begin, 7u);
  EXPECT_EQ(hooked.size(), 3u);
}

TEST(PhaseTimeline, LaterRoundMustNotAnnotateOverAPendingBoundary) {
  const ModeGuard pin_abort(ContractMode::kAbort);
  obs::PhaseTimeline tl;
  tl.SetResidualProbe([] { return std::uint64_t{1}; });
  tl.Annotate("p", 0, 4);
  EXPECT_THROW(tl.AnnotateSub("a", obs::PhaseTimeline::kNoIndex, 5),
               PreconditionError);
  EXPECT_THROW(tl.Annotate("p", 1, 5), PreconditionError);
  tl.ResolveResidual();
  EXPECT_NO_THROW(tl.Annotate("p", 1, 5));
}

TEST(PhaseTimeline, CloseIsIdempotentAndClearResets) {
  obs::PhaseTimeline tl;
  tl.Annotate("p", obs::PhaseTimeline::kNoIndex, 0);
  tl.Close(5);
  tl.Close(9);
  EXPECT_EQ(tl.Spans().size(), 1u);
  tl.Clear();
  EXPECT_TRUE(tl.Spans().empty());
  EXPECT_FALSE(tl.HasOpenPhase());
}

// --- JsonlTraceSink --------------------------------------------------------

TEST(JsonlTrace, EmitsOneParseableObjectPerEvent) {
  std::ostringstream out;
  obs::JsonlTraceSink sink(out);
  sink.OnEvent({3, 7, ActionKind::kTransmit, 42, {}});
  sink.OnEvent({4, 8, ActionKind::kListen, 0, {ReceptionKind::kMessage, 42}});
  sink.OnEvent({5, 9, ActionKind::kListen, 0, {ReceptionKind::kCollision, 0}});
  sink.Flush();
  EXPECT_EQ(sink.EventsWritten(), 3u);

  std::istringstream lines(out.str());
  std::string line;
  std::vector<JsonValue> docs;
  while (std::getline(lines, line)) docs.push_back(obs::ParseJson(line));
  ASSERT_EQ(docs.size(), 3u);
  EXPECT_EQ(docs[0].Find("action")->AsString(), "transmit");
  EXPECT_DOUBLE_EQ(docs[0].Find("payload")->AsNumber(), 42.0);
  EXPECT_EQ(docs[1].Find("reception")->AsString(), "message");
  EXPECT_DOUBLE_EQ(docs[1].Find("recv_payload")->AsNumber(), 42.0);
  EXPECT_EQ(docs[2].Find("reception")->AsString(), "collision");
  EXPECT_EQ(docs[2].Find("recv_payload"), nullptr);
}

TEST(JsonlTrace, EndToEndThroughRunner) {
  std::ostringstream out;
  obs::JsonlTraceSink sink(out);
  Rng rng(1);
  Graph g = gen::ErdosRenyi(24, 0.1, rng);
  const auto r = RunMis(g, {.algorithm = MisAlgorithm::kCd, .seed = 2,
                            .trace = &sink});
  ASSERT_TRUE(r.Valid());
  EXPECT_EQ(sink.EventsWritten(), r.energy.TotalAwake());
  std::istringstream lines(out.str());
  std::string line;
  std::uint64_t parsed = 0;
  while (std::getline(lines, line)) {
    EXPECT_NO_THROW(obs::ParseJson(line));
    ++parsed;
  }
  EXPECT_EQ(parsed, sink.EventsWritten());
}

// --- Run report ------------------------------------------------------------

/// Runs `algorithm` with full observability and returns the built report.
JsonValue ReportFor(MisAlgorithm algorithm, NodeId n, double p) {
  Rng rng(7);
  Graph g = gen::ErdosRenyi(n, p, rng);
  obs::MetricsRegistry metrics;
  obs::PhaseTimeline timeline;
  const MisRunResult r = RunMis(g, {.algorithm = algorithm, .seed = 5,
                                    .metrics = &metrics, .timeline = &timeline});
  EXPECT_TRUE(r.Valid());
  return obs::BuildRunReport({.algorithm = std::string(ToString(algorithm)),
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
                              .metrics = &metrics});
}

void ExpectConformingReport(const JsonValue& doc) {
  EXPECT_EQ(obs::ValidateRunReport(doc), "");
  EXPECT_EQ(obs::ValidateReport(doc), "");
  // Serialization round-trip preserves conformance byte-for-byte.
  const std::string dumped = doc.Dump(2);
  const JsonValue reparsed = obs::ParseJson(dumped);
  EXPECT_EQ(obs::ValidateReport(reparsed), "");
  EXPECT_EQ(reparsed.Dump(2), dumped);
}

TEST(RunReport, CdReportHasPhasesEnergyAndMetrics) {
  const JsonValue doc = ReportFor(MisAlgorithm::kCd, 64, 0.1);
  ExpectConformingReport(doc);

  const JsonValue* phases = doc.Find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_FALSE(phases->Items().empty());
  // Level-0 phases carry round/energy deltas and residual-edge counts, and
  // residuals chain: each phase starts where the previous ended.
  double prev_end_residual = -1.0;
  std::uint64_t awake_total = 0;
  for (const JsonValue& p : phases->Items()) {
    if (p.Find("level")->AsNumber() != 0.0) continue;
    EXPECT_GE(p.Find("end_round")->AsNumber(), p.Find("begin_round")->AsNumber());
    awake_total += static_cast<std::uint64_t>(p.Find("awake_rounds")->AsNumber());
    ASSERT_NE(p.Find("residual_edges_begin"), nullptr);
    if (prev_end_residual >= 0.0) {
      EXPECT_DOUBLE_EQ(p.Find("residual_edges_begin")->AsNumber(),
                       prev_end_residual);
    }
    prev_end_residual = p.Find("residual_edges_end")->AsNumber();
  }
  EXPECT_DOUBLE_EQ(prev_end_residual, 0.0);  // run ended with a full MIS
  // Phase-attributed energy covers the whole run.
  EXPECT_EQ(awake_total,
            static_cast<std::uint64_t>(
                doc.Find("energy")->Find("total_awake")->AsNumber()));

  // The scheduler's hot-path instrumentation made it into the document.
  const JsonValue* timers = doc.Find("metrics")->Find("timers");
  ASSERT_NE(timers->Find("sched.execute_round"), nullptr);
  EXPECT_GT(timers->Find("sched.execute_round")->Find("count")->AsNumber(), 0.0);
  const JsonValue* hist = doc.Find("energy")->Find("awake_histogram");
  EXPECT_EQ(hist->Find("counts")->Items().size(),
            hist->Find("bounds")->Items().size() + 1);
}

TEST(RunReport, NoCdReportConformsWithSubPhases) {
  const JsonValue doc = ReportFor(MisAlgorithm::kNoCd, 48, 0.08);
  ExpectConformingReport(doc);
  bool saw_sub_phase = false;
  for (const JsonValue& p : doc.Find("phases")->Items()) {
    if (p.Find("level")->AsNumber() == 1.0) saw_sub_phase = true;
  }
  EXPECT_TRUE(saw_sub_phase);  // competition/deep-check/shallow-check windows
}

TEST(RunReport, ValidatorRejectsBrokenDocuments) {
  const JsonValue doc = ReportFor(MisAlgorithm::kCd, 32, 0.1);
  // Drop a required section.
  JsonValue broken = JsonValue::MakeObject();
  for (const auto& [key, value] : doc.Entries()) {
    if (key != "energy") broken.Set(key, value);
  }
  EXPECT_NE(obs::ValidateRunReport(broken), "");
  // Unknown schema string.
  JsonValue wrong_schema = JsonValue::MakeObject();
  wrong_schema.Set("schema", "emis-run-report/99");
  EXPECT_NE(obs::ValidateReport(wrong_schema), "");
  EXPECT_NE(obs::ValidateReport(JsonValue()), "");
}

TEST(BenchReport, SchemaValidates) {
  JsonValue doc = JsonValue::MakeObject();
  doc.Set("schema", obs::kBenchReportSchema);
  doc.Set("bench", "E1  bench_cd_energy");
  doc.Set("claim", "Theorem 2");
  doc.Set("failures", 0);
  JsonValue verdicts = JsonValue::MakeArray();
  JsonValue verdict = JsonValue::MakeObject();
  verdict.Set("what", "valid MIS");
  verdict.Set("ok", true);
  verdicts.Push(std::move(verdict));
  doc.Set("verdicts", std::move(verdicts));
  JsonValue sweeps = JsonValue::MakeArray();
  JsonValue sweep = JsonValue::MakeObject();
  sweep.Set("title", "star / cd");
  JsonValue points = JsonValue::MakeArray();
  JsonValue point = JsonValue::MakeObject();
  point.Set("n", 64);
  point.Set("runs", 10);
  point.Set("failures", 0);
  point.Set("max_energy_mean", 12.5);
  point.Set("avg_energy_mean", 3.5);
  point.Set("rounds_mean", 40.0);
  point.Set("mis_size_mean", 20.0);
  points.Push(std::move(point));
  sweep.Set("points", std::move(points));
  sweeps.Push(std::move(sweep));
  doc.Set("sweeps", std::move(sweeps));
  JsonValue alloc = JsonValue::MakeObject();
  alloc.Set("peak_rss_bytes", obs::PeakRssBytes());
  doc.Set("alloc", std::move(alloc));

  // The metrics sub-document is optional under schema 1: documents from
  // binaries predating it must keep validating, while a present-but-broken
  // block is rejected and a well-formed (possibly empty) one conforms.
  EXPECT_EQ(obs::ValidateBenchReport(doc), "");
  JsonValue broken_metrics = doc;
  broken_metrics.Set("metrics", "not an object");
  EXPECT_NE(obs::ValidateBenchReport(broken_metrics), "");
  doc.Set("metrics", obs::BuildMetricsJson(obs::MetricsRegistry()));

  EXPECT_EQ(obs::ValidateBenchReport(doc), "");
  EXPECT_EQ(obs::ValidateReport(doc), "");

  JsonValue missing = JsonValue::MakeObject();
  missing.Set("schema", obs::kBenchReportSchema);
  EXPECT_NE(obs::ValidateBenchReport(missing), "");
}

TEST(LintReport, V2SchemaValidatesAndRoundTrips) {
  // The exact shape tools/emis_lint ToJson emits: /2 counters, per-rule
  // waiver accounting, and a graph finding with symbol + witness chain.
  const JsonValue doc = obs::ParseJson(
      "{\n"
      "  \"schema\": \"emis-lint-report/2\",\n"
      "  \"root\": \".\",\n"
      "  \"files_scanned\": 110,\n"
      "  \"symbols_indexed\": 866,\n"
      "  \"call_edges\": 5489,\n"
      "  \"wall_seconds\": 0.041,\n"
      "  \"suppressed_count\": 7,\n"
      "  \"suppressed_by_rule\": {\"banned-clock\": 2, \"io-in-library\": 2},\n"
      "  \"rules\": [\"banned-random\", \"nested-dispatch\"],\n"
      "  \"findings\": [\n"
      "    {\"rule\": \"nested-dispatch\", \"file\": \"src/radio/s.cpp\",\n"
      "     \"line\": 12, \"message\": \"region re-enters the pool\",\n"
      "     \"symbol\": \"RunRound\",\n"
      "     \"witness\": [\"src/radio/s.cpp:14 ShardPass\",\n"
      "                   \"src/verify/parallel.cpp:152 ParallelFor\"]},\n"
      "    {\"rule\": \"banned-random\", \"file\": \"src/core/x.cpp\",\n"
      "     \"line\": 3, \"message\": \"rand() is banned\"}\n"
      "  ]\n"
      "}\n");
  EXPECT_EQ(obs::ValidateLintReport(doc), "");
  EXPECT_EQ(obs::ValidateReport(doc), "");  // dispatch on the schema string
  const std::string dumped = doc.Dump(2);
  EXPECT_EQ(obs::ValidateReport(obs::ParseJson(dumped)), "");
}

TEST(LintReport, V1ArtifactsStillValidateThroughDispatch) {
  // Pre-PR 9 artifacts lack the /2 counters; they must keep validating so
  // archived CI artifacts stay checkable.
  const JsonValue v1 = obs::ParseJson(
      "{\"schema\": \"emis-lint-report/1\", \"root\": \".\",\n"
      " \"files_scanned\": 5, \"suppressed_count\": 0,\n"
      " \"rules\": [\"banned-random\"], \"findings\": []}");
  EXPECT_EQ(obs::ValidateLintReport(v1), "");
  EXPECT_EQ(obs::ValidateReport(v1), "");
  // The same document under the /2 id is rejected: the counters became
  // mandatory with the version bump. (Built fresh rather than via copy+Set:
  // JsonValue::Set appends duplicate keys and Find returns the first match,
  // so "overriding" a key on a copy would leave the original value visible.)
  const JsonValue as_v2 = obs::ParseJson(
      "{\"schema\": \"emis-lint-report/2\", \"root\": \".\",\n"
      " \"files_scanned\": 5, \"suppressed_count\": 0,\n"
      " \"rules\": [\"banned-random\"], \"findings\": []}");
  EXPECT_NE(obs::ValidateLintReport(as_v2), "");
}

TEST(LintReport, ValidatorRejectsMalformedFindings) {
  // Each variant is built from scratch: JsonValue::Set appends duplicate keys
  // and Find returns the first match, so mutating a copy cannot override a
  // key that is already present.
  const auto make_doc = [](JsonValue suppressed_by_rule, JsonValue findings) {
    JsonValue doc = JsonValue::MakeObject();
    doc.Set("schema", obs::kLintReportSchema);
    doc.Set("root", ".");
    doc.Set("files_scanned", 1);
    doc.Set("symbols_indexed", 0);
    doc.Set("call_edges", 0);
    doc.Set("wall_seconds", 0.0);
    doc.Set("suppressed_count", 0);
    doc.Set("suppressed_by_rule", std::move(suppressed_by_rule));
    doc.Set("rules", JsonValue::MakeArray());
    doc.Set("findings", std::move(findings));
    return doc;
  };
  EXPECT_EQ(obs::ValidateLintReport(
                make_doc(JsonValue::MakeObject(), JsonValue::MakeArray())),
            "");

  // witness must be an array of strings when present.
  JsonValue bad_witness = JsonValue::MakeObject();
  bad_witness.Set("rule", "nested-dispatch");
  bad_witness.Set("file", "src/x.cpp");
  bad_witness.Set("line", 1);
  bad_witness.Set("message", "m");
  bad_witness.Set("witness", "not an array");
  JsonValue findings = JsonValue::MakeArray();
  findings.Push(std::move(bad_witness));
  const JsonValue broken =
      make_doc(JsonValue::MakeObject(), std::move(findings));
  EXPECT_NE(obs::ValidateLintReport(broken), "");

  // suppressed_by_rule values must be numbers.
  JsonValue bad_counts = JsonValue::MakeObject();
  bad_counts.Set("banned-clock", "two");
  const JsonValue broken2 =
      make_doc(std::move(bad_counts), JsonValue::MakeArray());
  EXPECT_NE(obs::ValidateLintReport(broken2), "");
}

TEST(RunReport, AllocSectionCarriesArenaAndRss) {
  Rng rng(3);
  Graph g = gen::ErdosRenyi(48, 0.1, rng);
  // Arena stats are a coroutine-engine observable (the flat engine allocates
  // no frames), so pin the engine rather than inherit EMIS_ENGINE.
  const MisRunResult r = RunMis(g, {.algorithm = MisAlgorithm::kCd, .seed = 9,
                                    .engine = ExecutionEngine::kCoroutine});
  ASSERT_TRUE(r.Valid());
  EXPECT_GT(r.arena.reserved_bytes, 0u);   // root frames came from the arena
  EXPECT_GT(r.arena.frame_allocations, 0u);
  // Stats are read while the scheduler (hence every root task) is still
  // alive: the live frames are exactly the n root coroutines. Sub-protocol
  // frames were recycled as their awaits completed.
  EXPECT_EQ(r.arena.live_frames, g.NumNodes());
  EXPECT_GE(r.arena.reserved_bytes, r.arena.used_bytes);

  const JsonValue doc =
      obs::BuildRunReport({.algorithm = "cd",
                           .graph = "er-test",
                           .preset = "practical",
                           .seed = 9,
                           .nodes = g.NumNodes(),
                           .edges = g.NumEdges(),
                           .max_degree = g.MaxDegree(),
                           .valid_mis = r.Valid(),
                           .mis_size = r.MisSize(),
                           .arena_reserved_bytes = r.arena.reserved_bytes,
                           .arena_used_bytes = r.arena.used_bytes,
                           .peak_rss_bytes = obs::PeakRssBytes(),
                           .stats = &r.stats,
                           .energy = &r.energy});
  EXPECT_EQ(obs::ValidateRunReport(doc), "");
  const JsonValue* alloc = doc.Find("alloc");
  ASSERT_NE(alloc, nullptr);
  EXPECT_DOUBLE_EQ(alloc->Find("arena_reserved_bytes")->AsNumber(),
                   static_cast<double>(r.arena.reserved_bytes));
#ifdef __linux__
  EXPECT_GT(alloc->Find("peak_rss_bytes")->AsNumber(), 0.0);
#endif
}

// --- StreamSink ------------------------------------------------------------

TEST(StreamSink, BoundedQueueDropsAndCounts) {
  obs::StreamSink sink({.max_queued_events = 2});
  JsonValue e = JsonValue::MakeObject();
  e.Set("event", "round");
  sink.Emit(e);
  sink.Emit(e);
  sink.Emit(e);  // over the bound: dropped, counted
  EXPECT_EQ(sink.QueuedEvents(), 2u);
  EXPECT_EQ(sink.EmittedEvents(), 2u);
  EXPECT_EQ(sink.DroppedEvents(), 1u);
  // Control envelopes bypass the bound — the run_end that carries the drop
  // accounting must never itself be dropped.
  JsonValue control = JsonValue::MakeObject();
  control.Set("event", "run_end");
  sink.EmitControl(control);
  EXPECT_EQ(sink.QueuedEvents(), 3u);
  EXPECT_EQ(sink.EmittedEvents(), 3u);

  const std::string blob = sink.DrainToString();
  EXPECT_EQ(sink.QueuedEvents(), 0u);
  EXPECT_EQ(sink.DroppedEvents(), 1u);  // counters survive the drain
  std::istringstream lines(blob);
  std::string line;
  std::size_t parsed = 0;
  while (std::getline(lines, line)) {
    EXPECT_NO_THROW(obs::ParseJson(line));
    ++parsed;
  }
  EXPECT_EQ(parsed, 3u);
}

TEST(StreamSink, OpenTelemetryStreamRejectsBadSpecs) {
  EXPECT_THROW(obs::OpenTelemetryStream(""), PreconditionError);
  EXPECT_THROW(obs::OpenTelemetryStream("fd:notanumber"), PreconditionError);
  EXPECT_THROW(obs::OpenTelemetryStream("/nonexistent-dir/x/y.ndjson"),
               PreconditionError);
}

TEST(StreamSink, SchedulerEmitsHeartbeatsAndPhaseEvents) {
  Rng rng(4);
  Graph g = gen::ErdosRenyi(40, 0.1, rng);
  obs::PhaseTimeline timeline;
  obs::StreamSink sink({.heartbeat_every = 2});
  const auto r = RunMis(g, {.algorithm = MisAlgorithm::kCd, .seed = 6,
                            .timeline = &timeline, .telemetry = &sink});
  ASSERT_TRUE(r.Valid());
  std::istringstream lines(sink.DrainToString());
  std::string line;
  std::uint64_t rounds = 0;
  std::uint64_t phases = 0;
  double last_round = -1.0;
  while (std::getline(lines, line)) {
    const JsonValue event = obs::ParseJson(line);
    const std::string& kind = event.Find("event")->AsString();
    if (kind == "round") {
      ++rounds;
      // Heartbeats arrive in round order with the documented gauges.
      EXPECT_GT(event.Find("round")->AsNumber(), last_round);
      last_round = event.Find("round")->AsNumber();
      ASSERT_NE(event.Find("awake"), nullptr);
      ASSERT_NE(event.Find("decided"), nullptr);
      ASSERT_NE(event.Find("live_edges"), nullptr);
    } else if (kind == "phase") {
      ++phases;
      EXPECT_GE(event.Find("end_round")->AsNumber(),
                event.Find("begin_round")->AsNumber());
      ASSERT_NE(event.Find("transmit_rounds"), nullptr);
      ASSERT_NE(event.Find("listen_rounds"), nullptr);
    }
  }
  EXPECT_GT(rounds, 0u);
  // heartbeat_every = 2 thins the stream to at most every other round.
  EXPECT_LE(rounds, static_cast<std::uint64_t>(r.stats.rounds_used) / 2 + 1);
  EXPECT_GT(phases, 0u);  // one per closed luby-phase span
}

// --- Bounded-sink drop gauges ----------------------------------------------

TEST(TraceSink, RingTraceReportsDropsThroughBaseInterface) {
  RingTrace ring(4);
  for (Round r = 0; r < 10; ++r) {
    ring.OnEvent({r, 0, ActionKind::kTransmit, 0, {}});
  }
  // Through the base pointer — the path drivers use to fill the gauge.
  const TraceSink* sink = &ring;
  EXPECT_EQ(sink->DroppedCount(), 6u);
  std::ostringstream jsonl_out;
  obs::JsonlTraceSink jsonl(jsonl_out);  // unbounded sinks report zero by default
  EXPECT_EQ(static_cast<const TraceSink&>(jsonl).DroppedCount(), 0u);
}

}  // namespace
}  // namespace emis
