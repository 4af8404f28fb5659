#include "core/runner.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "core/contracts.hpp"
#include "core/delta_doubling.hpp"
#include "core/flat_mis.hpp"
#include "core/ghaffari_mis.hpp"
#include "core/mis_cd.hpp"
#include "core/mis_nocd.hpp"
#include "core/simulated_cd_mis.hpp"

namespace emis {
namespace {

std::uint64_t EffectiveN(const Graph& graph, const MisRunConfig& config) {
  return config.n_estimate != 0 ? config.n_estimate
                                : std::max<std::uint64_t>(graph.NumNodes(), 2);
}

std::uint32_t EffectiveDelta(const Graph& graph, const MisRunConfig& config) {
  if (config.delta_estimate != 0) return config.delta_estimate;
  return std::max<std::uint32_t>(graph.MaxDegree(), 1);
}

}  // namespace

ExecutionEngine ParseExecutionEngine(std::string_view text, std::string_view source) {
  const ExecutionEngine engine = ExecutionEngineFromString(text);
  EMIS_REQUIRE(engine != kInvalidExecutionEngine,
               std::string(source) + " must be coroutine or flat (got '" +
                   std::string(text) + "')");
  return engine;
}

ExecutionEngine DefaultExecutionEngine() {
  static const ExecutionEngine engine = [] {
    // Read once under the static's init guard; the process never setenv()s,
    // so the getenv cannot race a writer. A throw leaves the static
    // uninitialized, so every later call rethrows.
    const char* env = std::getenv("EMIS_ENGINE");  // NOLINT(concurrency-mt-unsafe)
    if (env == nullptr || *env == '\0') return ExecutionEngine::kCoroutine;
    return ParseExecutionEngine(env, "EMIS_ENGINE");
  }();
  return engine;
}

ChannelModel ModelFor(MisAlgorithm algorithm) noexcept {
  switch (algorithm) {
    case MisAlgorithm::kCd:
    case MisAlgorithm::kCdNaive:
      return ChannelModel::kCd;
    case MisAlgorithm::kCdBeeping:
      return ChannelModel::kBeeping;
    case MisAlgorithm::kNoCd:
    case MisAlgorithm::kNoCdDaviesProfile:
    case MisAlgorithm::kNoCdNaive:
    case MisAlgorithm::kNoCdUnknownDelta:
    case MisAlgorithm::kNoCdRoundEfficient:
      return ChannelModel::kNoCd;
  }
  return ChannelModel::kCd;
}

CdParams DeriveCdParams(const Graph& graph, const MisRunConfig& config) {
  if (config.cd_params) return *config.cd_params;
  const std::uint64_t n = EffectiveN(graph, config);
  CdParams p = config.preset == ParamPreset::kTheory ? CdParams::Theory(n)
                                                     : CdParams::Practical(n);
  p.losers_keep_listening = config.algorithm == MisAlgorithm::kCdNaive;
  return p;
}

NoCdParams DeriveNoCdParams(const Graph& graph, const MisRunConfig& config) {
  if (config.nocd_params) return *config.nocd_params;
  const std::uint64_t n = EffectiveN(graph, config);
  const std::uint32_t delta = EffectiveDelta(graph, config);
  return config.preset == ParamPreset::kTheory ? NoCdParams::Theory(n, delta)
                                               : NoCdParams::Practical(n, delta);
}

SimCdParams DeriveSimParams(const Graph& graph, const MisRunConfig& config) {
  if (config.sim_params) return *config.sim_params;
  const std::uint64_t n = EffectiveN(graph, config);
  const std::uint32_t delta = EffectiveDelta(graph, config);
  const std::uint32_t log_n = CdParams::LogN(n);
  SimCdParams p;
  if (config.preset == ParamPreset::kTheory) {
    p.luby_phases = 4 * log_n;
    p.rank_bits = 4 * log_n;
    p.reps = 26 * log_n;  // (7/8)^k <= n^-5
  } else {
    p.luby_phases = 2 * log_n + 10;
    p.rank_bits = 2 * log_n + 4;
    p.reps = 2 * log_n + 12;
  }
  p.delta = delta;
  p.delta_est = delta;
  p.style = config.algorithm == MisAlgorithm::kNoCdNaive
                ? BackoffStyle::kTraditional
                : BackoffStyle::kEnergyEfficient;
  return p;
}

MisRunResult RunMis(const Graph& graph, const MisRunConfig& config) {
  MisRunResult result;
  result.status.assign(graph.NumNodes(), MisStatus::kUndecided);

  Scheduler scheduler(
      graph,
      {.model = ModelFor(config.algorithm), .max_rounds = config.max_rounds,
       .trace = config.trace, .link_loss = config.link_loss,
       .metrics = config.metrics, .timeline = config.timeline,
       .ledger = config.ledger, .engine = config.engine,
       .telemetry = config.telemetry, .shards = config.shards},
      config.seed);

  if (config.timeline != nullptr) {
    // Residual graph at each phase boundary: edges whose endpoints are both
    // still undecided — the quantity Lemma 5 / Lemma 20 argue halves/decays
    // per Luby phase. O(m) per probe, and probes happen once per phase.
    config.timeline->SetResidualProbe([&graph, &status = result.status] {
      std::uint64_t residual = 0;
      for (NodeId u = 0; u < graph.NumNodes(); ++u) {
        if (status[u] != MisStatus::kUndecided) continue;
        for (const NodeId v : graph.Neighbors(u)) {
          residual += u < v && status[v] == MisStatus::kUndecided;
        }
      }
      return residual;
    });
  }

  const bool flat = config.engine == ExecutionEngine::kFlat;
  const NodeId n = graph.NumNodes();
  switch (config.algorithm) {
    case MisAlgorithm::kCd:
    case MisAlgorithm::kCdBeeping:
    case MisAlgorithm::kCdNaive: {
      const CdParams p = DeriveCdParams(graph, config);
      if (flat) {
        scheduler.SpawnFlat(FlatMisCdProtocol(p, &result.status, n));
      } else {
        scheduler.Spawn(MisCdProtocol(p, &result.status));
      }
      break;
    }
    case MisAlgorithm::kNoCd: {
      const NoCdParams p = DeriveNoCdParams(graph, config);
      if (flat) {
        scheduler.SpawnFlat(FlatMisNoCdProtocol(p, &result.status, n));
      } else {
        scheduler.Spawn(MisNoCdProtocol(p, &result.status));
      }
      break;
    }
    case MisAlgorithm::kNoCdDaviesProfile:
    case MisAlgorithm::kNoCdNaive: {
      const SimCdParams p = DeriveSimParams(graph, config);
      if (flat) {
        scheduler.SpawnFlat(FlatSimulatedCdMisProtocol(p, &result.status, n));
      } else {
        scheduler.Spawn(SimulatedCdMisProtocol(p, &result.status));
      }
      break;
    }
    case MisAlgorithm::kNoCdUnknownDelta: {
      DeltaDoublingParams p = DeltaDoublingParams::Practical(EffectiveN(graph, config));
      p.theory_constants = config.preset == ParamPreset::kTheory;
      if (flat) {
        scheduler.SpawnFlat(FlatDeltaDoublingMisProtocol(p, &result.status, n));
      } else {
        scheduler.Spawn(DeltaDoublingMisProtocol(p, &result.status));
      }
      break;
    }
    case MisAlgorithm::kNoCdRoundEfficient: {
      const GhaffariParams p = GhaffariParams::Practical(
          EffectiveN(graph, config), EffectiveDelta(graph, config));
      if (flat) {
        scheduler.SpawnFlat(FlatGhaffariMisProtocol(p, &result.status, n));
      } else {
        scheduler.Spawn(GhaffariMisProtocol(p, &result.status));
      }
      break;
    }
  }

  result.stats = scheduler.Run();
  if (config.timeline != nullptr) {
    // Close any span left open by a protocol that went quiet without
    // finishing (the scheduler closes only on completion / round limit), and
    // drop the run-scoped bindings: the probe references result.status
    // (owned by this frame), and the ledger/telemetry hooks reference
    // caller-owned collectors that may die before the timeline does.
    config.timeline->Close(result.stats.rounds_used);
    config.timeline->SetResidualProbe(nullptr);
    config.timeline->BindLedger(nullptr);
    config.timeline->SetSpanHook(nullptr);
  }
  result.energy = scheduler.Energy();
  result.arena = scheduler.ArenaStats();
  result.shards = scheduler.Shards();
  result.report = CheckMis(graph, result.status);
  return result;
}

std::uint64_t MisRunResult::MisSize() const noexcept {
  return static_cast<std::uint64_t>(
      std::count(status.begin(), status.end(), MisStatus::kInMis));
}

}  // namespace emis
