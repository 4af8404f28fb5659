// Energy accounting — the quantity the paper optimizes.
//
// A node pays one unit of energy per round in which it is awake (transmitting
// or listening); sleeping rounds and local computation are free (paper §1.1).
// The meter tracks transmit and listen rounds separately because the paper's
// backoff procedures have deliberately asymmetric sender/receiver costs
// (Lemma 8).
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "radio/types.hpp"

namespace emis {

struct NodeEnergy {
  std::uint64_t transmit_rounds = 0;
  std::uint64_t listen_rounds = 0;

  std::uint64_t Awake() const noexcept { return transmit_rounds + listen_rounds; }

  friend bool operator==(const NodeEnergy&, const NodeEnergy&) = default;
};

class EnergyMeter {
 public:
  EnergyMeter() = default;
  explicit EnergyMeter(NodeId num_nodes) : per_node_(num_nodes) {}

  void ChargeTransmit(NodeId v) {
    ++per_node_[v].transmit_rounds;
    ++total_transmit_;
  }
  void ChargeListen(NodeId v) {
    ++per_node_[v].listen_rounds;
    ++total_listen_;
  }

  // Per-shard charging (radio/scheduler.cpp's round passes, at every shard
  // count): the per-node entries are disjoint across shards so the Local
  // variants are safe to call concurrently, while the shared totals — which
  // are plain sums, hence order-independent — are reconciled once per round
  // on the scheduler thread via CommitShardTotals. Conservation is preserved
  // exactly: Σ per-node entries == totals at every round boundary.
  void ChargeTransmitLocal(NodeId v) { ++per_node_[v].transmit_rounds; }
  void ChargeListenLocal(NodeId v) { ++per_node_[v].listen_rounds; }
  void CommitShardTotals(std::uint64_t transmit_rounds,
                         std::uint64_t listen_rounds) noexcept {
    total_transmit_ += transmit_rounds;
    total_listen_ += listen_rounds;
  }

  NodeId NumNodes() const noexcept { return static_cast<NodeId>(per_node_.size()); }

  const NodeEnergy& Of(NodeId v) const {
    EMIS_REQUIRE(v < per_node_.size(), "node out of range");
    return per_node_[v];
  }

  /// The paper's (worst-case) energy complexity of the run: max over nodes of
  /// awake rounds.
  std::uint64_t MaxAwake() const noexcept {
    std::uint64_t best = 0;
    for (const auto& e : per_node_) best = std::max(best, e.Awake());
    return best;
  }

  /// Node-averaged awake complexity (cf. Chatterjee–Gmyr–Pandurangan).
  double AverageAwake() const noexcept {
    if (per_node_.empty()) return 0.0;
    std::uint64_t total = 0;
    for (const auto& e : per_node_) total += e.Awake();
    return static_cast<double>(total) / static_cast<double>(per_node_.size());
  }

  // Totals are maintained incrementally so phase-boundary snapshots (the
  // observability layer's PhaseTimeline) are O(1), not O(n).
  std::uint64_t TotalAwake() const noexcept { return total_transmit_ + total_listen_; }
  std::uint64_t TotalTransmit() const noexcept { return total_transmit_; }
  std::uint64_t TotalListen() const noexcept { return total_listen_; }

  /// q-th percentile (q in [0,100]) of per-node awake rounds.
  std::uint64_t PercentileAwake(double q) const {
    EMIS_REQUIRE(q >= 0.0 && q <= 100.0, "percentile out of range");
    if (per_node_.empty()) return 0;
    std::vector<std::uint64_t> awake(per_node_.size());
    std::transform(per_node_.begin(), per_node_.end(), awake.begin(),
                   [](const NodeEnergy& e) { return e.Awake(); });
    std::sort(awake.begin(), awake.end());
    const auto idx = static_cast<std::size_t>(
        q / 100.0 * static_cast<double>(awake.size() - 1) + 0.5);
    return awake[std::min(idx, awake.size() - 1)];
  }

 private:
  std::vector<NodeEnergy> per_node_;
  std::uint64_t total_transmit_ = 0;
  std::uint64_t total_listen_ = 0;
};

}  // namespace emis
