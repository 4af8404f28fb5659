// Energy attribution ledger: unit behavior, the conservation invariant
// against the EnergyMeter across the full knob matrix, collapsed-stack
// export, and the sweep telemetry stream's bit-identity across --jobs (the
// sweep determinism contract extended to observability).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/runner.hpp"
#include "obs/energy_ledger.hpp"
#include "obs/phase_timeline.hpp"
#include "obs/report.hpp"
#include "obs/stream_sink.hpp"
#include "radio/graph_generators.hpp"
#include "verify/experiment.hpp"

namespace emis {
namespace {

// --- EnergyLedger units ----------------------------------------------------

TEST(EnergyLedger, ChargesLandUnderCurrentKey) {
  obs::EnergyLedger ledger(3);
  ledger.ChargeListen(0);  // before any phase: unattributed
  ledger.SetPhase("luby-phase 0");
  ledger.ChargeTransmit(0);
  ledger.ChargeListen(1);
  ledger.SetSub("competition");
  ledger.ChargeListen(1);
  ledger.SetSub({});               // back to phase level
  ledger.ChargeTransmit(2);
  ledger.SetPhase("luby-phase 1"); // clears the sub context too
  ledger.ChargeListen(2);

  const auto table = ledger.Table();
  ASSERT_EQ(table.size(), 4u);
  // First-charge order: unattributed, phase 0, competition, phase 1.
  EXPECT_EQ(table[0].phase, "");
  EXPECT_EQ(table[0].listen_rounds, 1u);
  EXPECT_EQ(table[1].phase, "luby-phase 0");
  EXPECT_EQ(table[1].sub, "");
  EXPECT_EQ(table[1].transmit_rounds, 2u);
  EXPECT_EQ(table[1].listen_rounds, 1u);
  EXPECT_EQ(table[1].nodes_charged, 3u);
  EXPECT_EQ(table[2].phase, "luby-phase 0");
  EXPECT_EQ(table[2].sub, "competition");
  EXPECT_EQ(table[2].listen_rounds, 1u);
  EXPECT_EQ(table[2].nodes_charged, 1u);
  EXPECT_EQ(table[3].phase, "luby-phase 1");
  EXPECT_EQ(table[3].listen_rounds, 1u);

  // Per-node attributed totals cover every charge.
  EXPECT_EQ(ledger.AttributedTransmit(0), 1u);
  EXPECT_EQ(ledger.AttributedListen(0), 1u);
  EXPECT_EQ(ledger.AttributedListen(1), 2u);
  EXPECT_EQ(ledger.AttributedTransmit(2), 1u);
  EXPECT_EQ(ledger.AttributedListen(2), 1u);
}

TEST(EnergyLedger, PercentilesMatchMeterConvention) {
  // Nodes charged 1, 2, 3, 4 listen rounds under one key: nearest-rank with
  // idx = q/100 * (size-1) + 0.5, the EnergyMeter::PercentileAwake rule.
  obs::EnergyLedger ledger(4);
  ledger.SetPhase("p");
  for (NodeId v = 0; v < 4; ++v) {
    for (NodeId c = 0; c <= v; ++c) ledger.ChargeListen(v);
  }
  const auto table = ledger.Table();
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table[0].max_awake, 4u);
  EXPECT_EQ(table[0].p50_awake, 3u);  // idx = 0.5*3 + 0.5 = 2 -> awake[2]
  EXPECT_EQ(table[0].p90_awake, 4u);
  EXPECT_EQ(table[0].p99_awake, 4u);
}

TEST(EnergyLedger, RevisitedKeyFoldsPerNode) {
  // A node charged under p, then q, then p again must count once in p's
  // nodes_charged and with its combined total in the distribution.
  obs::EnergyLedger ledger(1);
  ledger.SetPhase("p");
  ledger.ChargeListen(0);
  ledger.SetPhase("q");
  ledger.ChargeListen(0);
  ledger.SetPhase("p");
  ledger.ChargeListen(0);
  const auto table = ledger.Table();
  ASSERT_EQ(table.size(), 2u);
  EXPECT_EQ(table[0].phase, "p");
  EXPECT_EQ(table[0].listen_rounds, 2u);
  EXPECT_EQ(table[0].nodes_charged, 1u);
  EXPECT_EQ(table[0].max_awake, 2u);
  EXPECT_EQ(ledger.NumKeys(), 2u);
}

TEST(EnergyLedger, WriteCollapsedEmitsFlamegraphLines) {
  obs::EnergyLedger ledger(2);
  ledger.ChargeListen(0);
  ledger.SetPhase("luby-phase 0");
  ledger.ChargeTransmit(0);
  ledger.SetSub("competition");
  ledger.ChargeListen(1);
  ledger.ChargeListen(1);
  std::ostringstream out;
  ledger.WriteCollapsed(out, "cd");
  EXPECT_EQ(out.str(),
            "cd;(unattributed) 1\n"
            "cd;luby-phase 0 1\n"
            "cd;luby-phase 0;competition 2\n");
}

TEST(EnergyLedger, ClearResets) {
  obs::EnergyLedger ledger(2);
  ledger.SetPhase("p");
  ledger.ChargeTransmit(0);
  ledger.Clear();
  EXPECT_EQ(ledger.NumKeys(), 0u);
  EXPECT_TRUE(ledger.Table().empty());
  EXPECT_EQ(ledger.AttributedTransmit(0), 0u);
  ledger.ChargeListen(1);  // fresh context: lands unattributed
  ASSERT_EQ(ledger.Table().size(), 1u);
  EXPECT_EQ(ledger.Table()[0].phase, "");
}

// --- Conservation against the EnergyMeter ----------------------------------

/// Σ over keys of per-node attributed charges must equal the EnergyMeter's
/// per-node entries exactly — for every core and loss rate. The ledger
/// charges beside the meter in the scheduler, so a violation means the
/// wiring regressed.
TEST(EnergyLedger, ConservationAcrossKnobMatrix) {
  Rng rng(2026);
  const Graph g = gen::ErdosRenyi(48, 0.12, rng);
  for (MisAlgorithm algorithm :
       {MisAlgorithm::kCd, MisAlgorithm::kNoCd, MisAlgorithm::kNoCdDaviesProfile,
        MisAlgorithm::kNoCdUnknownDelta, MisAlgorithm::kNoCdRoundEfficient}) {
    for (double loss : {0.0, 0.3}) {
      obs::PhaseTimeline timeline;
      obs::EnergyLedger ledger(g.NumNodes());
      MisRunConfig cfg;
      cfg.algorithm = algorithm;
      cfg.seed = 7;
      cfg.link_loss = loss;
      cfg.timeline = &timeline;
      cfg.ledger = &ledger;
      const MisRunResult r = RunMis(g, cfg);
      const std::string what =
          std::string(ToString(algorithm)) + " loss " + std::to_string(loss);
      for (NodeId v = 0; v < g.NumNodes(); ++v) {
        EXPECT_EQ(ledger.AttributedTransmit(v), r.energy.Of(v).transmit_rounds)
            << what << " node " << v;
        EXPECT_EQ(ledger.AttributedListen(v), r.energy.Of(v).listen_rounds)
            << what << " node " << v;
      }
      std::uint64_t tx = 0;
      std::uint64_t lx = 0;
      for (const obs::AttributionRow& row : ledger.Table()) {
        tx += row.transmit_rounds;
        lx += row.listen_rounds;
      }
      EXPECT_EQ(tx, r.energy.TotalTransmit()) << what;
      EXPECT_EQ(lx, r.energy.TotalListen()) << what;
    }
  }
}

TEST(EnergyLedger, AnnotatedRunsAttributeMostEnergyToPhases) {
  Rng rng(11);
  const Graph g = gen::ErdosRenyi(64, 0.1, rng);
  obs::PhaseTimeline timeline;
  obs::EnergyLedger ledger(g.NumNodes());
  const MisRunResult r = RunMis(g, {.algorithm = MisAlgorithm::kCd, .seed = 3,
                                    .timeline = &timeline, .ledger = &ledger});
  ASSERT_TRUE(r.Valid());
  std::uint64_t attributed = 0;
  for (const obs::AttributionRow& row : ledger.Table()) {
    if (!row.phase.empty()) attributed += row.AwakeRounds();
  }
  // mis_cd annotates every Luby phase, so the unattributed remainder is
  // at most bookkeeping rounds around the annotated region.
  EXPECT_GT(attributed, 0u);
  EXPECT_GE(2 * attributed, r.energy.TotalAwake());
}

// --- Report integration ----------------------------------------------------

TEST(EnergyLedger, ReportBlockConservesTotalsAndValidates) {
  Rng rng(5);
  const Graph g = gen::ErdosRenyi(56, 0.1, rng);
  obs::MetricsRegistry metrics;
  obs::PhaseTimeline timeline;
  obs::EnergyLedger ledger(g.NumNodes());
  const MisRunResult r =
      RunMis(g, {.algorithm = MisAlgorithm::kNoCd, .seed = 2,
                 .metrics = &metrics, .timeline = &timeline, .ledger = &ledger});
  ASSERT_TRUE(r.Valid());
  const obs::JsonValue doc =
      obs::BuildRunReport({.algorithm = "nocd",
                           .graph = "er-test",
                           .preset = "practical",
                           .seed = 2,
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
  EXPECT_EQ(obs::ValidateRunReport(doc), "");
  const obs::JsonValue* attribution = doc.Find("energy_attribution");
  ASSERT_NE(attribution, nullptr);
  EXPECT_DOUBLE_EQ(attribution->Find("total_transmit")->AsNumber(),
                   static_cast<double>(r.energy.TotalTransmit()));
  EXPECT_DOUBLE_EQ(attribution->Find("total_listen")->AsNumber(),
                   static_cast<double>(r.energy.TotalListen()));
  double key_awake = 0;
  for (const obs::JsonValue& k : attribution->Find("keys")->Items()) {
    key_awake += k.Find("awake_rounds")->AsNumber();
  }
  EXPECT_DOUBLE_EQ(key_awake, static_cast<double>(r.energy.TotalAwake()));

  // A present-but-malformed block must be rejected. (Set() appends, so the
  // replacement has to rebuild the document entry by entry.)
  obs::JsonValue broken = obs::JsonValue::MakeObject();
  for (const auto& [k, v] : doc.Entries()) {
    if (k == "energy_attribution") {
      broken.Set(k, obs::JsonValue("not an object"));
    } else {
      broken.Set(k, v);
    }
  }
  EXPECT_NE(obs::ValidateRunReport(broken), "");
}

// --- Sweep telemetry: --jobs determinism ----------------------------------

SweepConfig SmallSweep() {
  SweepConfig cfg;
  cfg.algorithm = MisAlgorithm::kNoCd;  // exercises sub-phase events too
  cfg.factory = families::SparseErdosRenyi(6.0);
  cfg.sizes = {48, 64};
  cfg.seeds_per_size = 3;
  cfg.seed_base = 7;
  return cfg;
}

TEST(SweepObservability, TelemetryBitIdenticalAcrossJobs) {
  std::ostringstream telemetry1;
  SweepConfig cfg1 = SmallSweep();
  cfg1.telemetry_out = &telemetry1;
  cfg1.telemetry_config.heartbeat_every = 4;
  const auto serial = RunSweep(cfg1, 1);

  std::ostringstream telemetry8;
  SweepConfig cfg8 = SmallSweep();
  cfg8.telemetry_out = &telemetry8;
  cfg8.telemetry_config.heartbeat_every = 4;
  const auto parallel = RunSweep(cfg8, 8);

  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_FALSE(telemetry1.str().empty());
  EXPECT_EQ(telemetry1.str(), telemetry8.str());

  // The stream is valid NDJSON framed by per-trial run_begin/run_end pairs.
  std::istringstream lines(telemetry1.str());
  std::string line;
  std::uint64_t begins = 0;
  std::uint64_t ends = 0;
  std::uint64_t phases = 0;
  while (std::getline(lines, line)) {
    const obs::JsonValue event = obs::ParseJson(line);
    const std::string& kind = event.Find("event")->AsString();
    begins += kind == "run_begin";
    ends += kind == "run_end";
    phases += kind == "phase";  // every trial's closed spans ride the stream
    if (kind == "run_end") {
      EXPECT_DOUBLE_EQ(event.Find("dropped_events")->AsNumber(), 0.0);
    }
  }
  EXPECT_EQ(begins, 6u);  // 2 sizes x 3 seeds
  EXPECT_EQ(ends, 6u);
  EXPECT_GT(phases, 0u);
}

}  // namespace
}  // namespace emis
