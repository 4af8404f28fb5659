// Energy attribution: which (phase, level) charged each node its awake rounds.
//
// The EnergyMeter answers "how much energy did node v spend"; the
// PhaseTimeline answers "how much energy did phase p spend in total". Neither
// answers the paper's decomposition question — Banasik et al. (and the
// per-level budget of Dufoulon–Moses–Pandurangan) argue about the awake
// rounds a *node* spends *inside a phase/level* — so the ledger charges every
// awake round to a (node, phase, sub-phase) key as the scheduler executes it.
//
// Wiring: the Scheduler owns the charge calls (one per transmit/listen, right
// next to the EnergyMeter charges, so conservation is exact by construction);
// the PhaseTimeline owns the context (BindLedger makes every span open/close
// update the ledger's current key). Charges that land outside any annotated
// phase — protocols that never call NodeApi::Phase, or rounds after the last
// Close — accumulate under the empty phase label, rendered as
// "(unattributed)" in exports. Σ over keys of a node's charges therefore
// equals its EnergyMeter entry exactly, always.
//
// Exports:
//   * Table(): per-key rows with transmit/listen splits and tail percentiles
//     of the per-node awake distribution within the key — the
//     `energy_attribution` block of emis-run-report/1.
//   * WriteCollapsed(): collapsed-stack text ("root;phase;sub count" lines),
//     the input format of standard flamegraph tooling (flamegraph.pl,
//     inferno, speedscope), weighted by awake rounds.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "radio/types.hpp"

namespace emis::obs {

/// One aggregated (phase, sub-phase) row of a single run's attribution.
struct AttributionRow {
  std::string phase;  ///< level-0 label; "" = outside any annotated phase
  std::string sub;    ///< level-1 label; "" = charged at phase level
  std::uint64_t transmit_rounds = 0;
  std::uint64_t listen_rounds = 0;
  /// Nodes with at least one charge under this key.
  std::uint64_t nodes_charged = 0;
  /// Distribution of per-node awake rounds within the key (the paper's
  /// per-phase energy bounds are worst-case per node, so the tail matters).
  std::uint64_t max_awake = 0;
  std::uint64_t p50_awake = 0;
  std::uint64_t p90_awake = 0;
  std::uint64_t p99_awake = 0;
  std::uint64_t AwakeRounds() const noexcept {
    return transmit_rounds + listen_rounds;
  }
};

class EnergyLedger {
 public:
  explicit EnergyLedger(NodeId num_nodes) : nodes_(num_nodes) {}

  NodeId NumNodes() const noexcept {
    return static_cast<NodeId>(nodes_.size());
  }

  /// Context updates, driven by PhaseTimeline::BindLedger. Setting a phase
  /// clears the sub-phase (a new level-0 span closes any level-1 span);
  /// empty labels mean "no open span at this level".
  void SetPhase(std::string_view label);
  void SetSub(std::string_view label);

  /// Charge node v's awake round to the current (phase, sub) key. O(1) in
  /// the common case: phases progress monotonically per node, so the charge
  /// lands in the node's most recent cell.
  void ChargeTransmit(NodeId v) { Charge(v).tx += 1; }
  void ChargeListen(NodeId v) { Charge(v).lx += 1; }

  /// Interns the current (phase, sub) key now, on the calling thread. The
  /// sharded scheduler calls this once per round before its parallel charge
  /// passes: with the key pre-interned, concurrent Charge calls touch only
  /// the per-node cell vectors (disjoint across shards) and never the
  /// shared key table. Annotations only move between rounds (inside the
  /// serial resume pass), so the key cannot change mid-pass.
  void PrimeCurrentKey() { (void)CurrentKey(); }

  /// Per-node totals across all keys — the conservation check's left-hand
  /// side (must equal the EnergyMeter's per-node entries).
  std::uint64_t AttributedTransmit(NodeId v) const;
  std::uint64_t AttributedListen(NodeId v) const;

  /// Number of distinct keys charged so far.
  std::size_t NumKeys() const noexcept { return keys_.size(); }

  /// Aggregated rows in first-charge order (chronological for a run, and
  /// deterministic: charges happen on the single scheduler thread).
  std::vector<AttributionRow> Table() const;

  /// Collapsed-stack flamegraph lines "root;phase[;sub] awake_rounds\n",
  /// one per charged key in first-charge order; zero-weight keys are
  /// skipped. The empty phase renders as "(unattributed)".
  void WriteCollapsed(std::ostream& out, std::string_view root) const;

  void Clear();

 private:
  struct Cell {
    std::uint32_t key = 0;
    std::uint64_t tx = 0;
    std::uint64_t lx = 0;
  };

  Cell& Charge(NodeId v);
  std::uint32_t CurrentKey();

  std::string phase_;
  std::string sub_;
  bool key_valid_ = false;     ///< current_key_ matches (phase_, sub_)
  std::uint32_t current_key_ = 0;

  /// Interned (phase, sub) pairs; ids index keys_ in first-charge order.
  std::vector<std::pair<std::string, std::string>> keys_;
  std::map<std::pair<std::string, std::string>, std::uint32_t> ids_;

  /// Node-major sparse charges: nodes_[v] lists the keys v was charged
  /// under, in v's own chronological order.
  std::vector<std::vector<Cell>> nodes_;
};

}  // namespace emis::obs
