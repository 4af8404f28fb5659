#include "obs/energy_ledger.hpp"

#include <algorithm>
#include <ostream>

#include "core/contracts.hpp"

namespace emis::obs {
namespace {

/// Same nearest-rank convention as EnergyMeter::PercentileAwake, so the
/// report's per-key percentiles are comparable with the run-level ones.
std::uint64_t Percentile(const std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      q / 100.0 * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

void EnergyLedger::SetPhase(std::string_view label) {
  if (phase_ == label && sub_.empty()) return;
  phase_.assign(label);
  sub_.clear();
  key_valid_ = false;
}

void EnergyLedger::SetSub(std::string_view label) {
  if (sub_ == label) return;
  sub_.assign(label);
  key_valid_ = false;
}

std::uint32_t EnergyLedger::CurrentKey() {
  if (!key_valid_) {
    const auto key = std::make_pair(phase_, sub_);
    const auto [it, inserted] =
        ids_.emplace(key, static_cast<std::uint32_t>(keys_.size()));
    if (inserted) keys_.push_back(key);
    current_key_ = it->second;
    key_valid_ = true;
  }
  return current_key_;
}

EnergyLedger::Cell& EnergyLedger::Charge(NodeId v) {
  EMIS_EXPECTS(v < nodes_.size(), "ledger charge for out-of-range node");
  const std::uint32_t key = CurrentKey();
  std::vector<Cell>& cells = nodes_[v];
  // Phases progress forward in time for every node, so a revisit of an older
  // key (e.g. the unattributed key between phases) is rare; the linear case
  // is "same key as my last charge".
  if (cells.empty() || cells.back().key != key) {
    cells.push_back(Cell{key, 0, 0});
  }
  return cells.back();
}

std::uint64_t EnergyLedger::AttributedTransmit(NodeId v) const {
  EMIS_EXPECTS(v < nodes_.size(), "node out of range");
  std::uint64_t total = 0;
  for (const Cell& c : nodes_[v]) total += c.tx;
  return total;
}

std::uint64_t EnergyLedger::AttributedListen(NodeId v) const {
  EMIS_EXPECTS(v < nodes_.size(), "node out of range");
  std::uint64_t total = 0;
  for (const Cell& c : nodes_[v]) total += c.lx;
  return total;
}

std::vector<AttributionRow> EnergyLedger::Table() const {
  struct PerKey {
    std::uint64_t tx = 0;
    std::uint64_t lx = 0;
    std::vector<std::uint64_t> node_awake;
  };
  std::vector<PerKey> agg(keys_.size());
  // A node may be charged under one key in several separate stints (e.g.
  // returning to the unattributed key between phases); fold its stints
  // before the distribution is taken.
  std::vector<std::uint64_t> node_totals(keys_.size());
  for (const std::vector<Cell>& cells : nodes_) {
    std::fill(node_totals.begin(), node_totals.end(), 0);
    for (const Cell& c : cells) {
      agg[c.key].tx += c.tx;
      agg[c.key].lx += c.lx;
      node_totals[c.key] += c.tx + c.lx;
    }
    for (const Cell& c : cells) {
      if (node_totals[c.key] > 0) {
        agg[c.key].node_awake.push_back(node_totals[c.key]);
        node_totals[c.key] = 0;  // push each key once per node
      }
    }
  }
  std::vector<AttributionRow> rows;
  rows.reserve(keys_.size());
  for (std::size_t k = 0; k < keys_.size(); ++k) {
    AttributionRow row;
    row.phase = keys_[k].first;
    row.sub = keys_[k].second;
    row.transmit_rounds = agg[k].tx;
    row.listen_rounds = agg[k].lx;
    row.nodes_charged = agg[k].node_awake.size();
    std::sort(agg[k].node_awake.begin(), agg[k].node_awake.end());
    if (!agg[k].node_awake.empty()) {
      row.max_awake = agg[k].node_awake.back();
      row.p50_awake = Percentile(agg[k].node_awake, 50);
      row.p90_awake = Percentile(agg[k].node_awake, 90);
      row.p99_awake = Percentile(agg[k].node_awake, 99);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

void EnergyLedger::WriteCollapsed(std::ostream& out,
                                  std::string_view root) const {
  for (const AttributionRow& row : Table()) {
    const std::uint64_t weight = row.AwakeRounds();
    if (weight == 0) continue;
    if (!root.empty()) out << root << ';';
    out << (row.phase.empty() ? std::string_view("(unattributed)")
                              : std::string_view(row.phase));
    if (!row.sub.empty()) out << ';' << row.sub;
    out << ' ' << weight << '\n';
  }
}

void EnergyLedger::Clear() {
  phase_.clear();
  sub_.clear();
  key_valid_ = false;
  keys_.clear();
  ids_.clear();
  for (std::vector<Cell>& cells : nodes_) cells.clear();
}

}  // namespace emis::obs
