#include "radio/graph_generators.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>
#include <vector>

namespace emis::gen {
namespace {

/// Skip-sampling for G(n, p): iterates over present pairs directly, giving
/// O(n + m) expected work instead of O(n^2) Bernoulli draws.
template <typename EmitEdge>
void SampleBernoulliPairs(NodeId n, double p, Rng& rng, EmitEdge emit) {
  if (n < 2 || p <= 0.0) return;
  if (p >= 1.0) {
    for (NodeId u = 0; u < n; ++u)
      for (NodeId v = u + 1; v < n; ++v) emit(u, v);
    return;
  }
  // Pairs in lexicographic order are positions 0..n(n-1)/2-1; jump between
  // successes with geometric gaps: gap = floor(log(U)/log(1-p)).
  const double log1mp = std::log1p(-p);
  const std::uint64_t total = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  std::uint64_t pos = 0;
  // Row r owns the n-1-r positions [row_begin, row_end) of pairs (r, r+1..).
  // Positions only grow, so a forward cursor decodes them in O(n + m) total
  // (Batagelj & Brandes 2005) rather than a binary search per edge.
  NodeId row = 0;
  std::uint64_t row_begin = 0;
  std::uint64_t row_end = n - 1;
  for (;;) {
    const double u = std::max(rng.UniformUnit(), 1e-300);  // avoid log(0)
    // The gap is positive, so truncation is its floor; and total - pos is a
    // whole number, so testing the unfloored gap against it is equivalent.
    const double skip = std::log(u) / log1mp;
    if (skip >= static_cast<double>(total - pos)) return;
    pos += static_cast<std::uint64_t>(skip);
    if (pos >= total) return;
    while (pos >= row_end) {
      ++row;
      row_begin = row_end;
      row_end += n - 1 - row;
    }
    emit(row, static_cast<NodeId>(row + 1 + (pos - row_begin)));
    ++pos;
    if (pos >= total) return;
  }
}

}  // namespace

Graph ErdosRenyi(NodeId n, double p, Rng& rng) {
  EMIS_REQUIRE(p >= 0.0 && p <= 1.0, "probability out of range");
  GraphBuilder builder(n);
  if (n >= 2 && p > 0.0) {
    // Expected m = p * C(n,2); reserve with ~3 standard deviations of slack
    // so the pending-edge list almost never reallocates.
    const double total = 0.5 * static_cast<double>(n) * (n - 1);
    const double expected = p * total;
    builder.Reserve(static_cast<std::uint64_t>(
        expected + 3.0 * std::sqrt(expected * (1.0 - p)) + 16.0));
  }
  SampleBernoulliPairs(n, p, rng, [&](NodeId u, NodeId v) { builder.AddEdge(u, v); });
  return std::move(builder).Build();
}

Graph GnM(NodeId n, std::uint64_t m, Rng& rng) {
  const std::uint64_t total = n < 2 ? 0 : static_cast<std::uint64_t>(n) * (n - 1) / 2;
  EMIS_REQUIRE(m <= total, "too many edges requested");
  GraphBuilder builder(n);
  builder.Reserve(m);
  std::uint64_t added = 0;
  while (added < m) {
    const NodeId u = static_cast<NodeId>(rng.UniformBelow(n));
    const NodeId v = static_cast<NodeId>(rng.UniformBelow(n));
    if (builder.AddEdgeIfAbsent(u, v)) ++added;
  }
  return std::move(builder).Build();
}

Graph RandomGeometric(NodeId n, double radius, Rng& rng) {
  EMIS_REQUIRE(radius >= 0.0, "radius must be non-negative");
  std::vector<double> x(n), y(n);
  for (NodeId v = 0; v < n; ++v) {
    x[v] = rng.UniformUnit();
    y[v] = rng.UniformUnit();
  }
  // Grid-bucket the points so expected work is O(n + m), not O(n^2). Cells
  // finer than ~sqrt(n) per side gain nothing, so clamp (also guards the
  // radius -> 0 blow-up).
  const double cell = std::max(radius, 1e-9);
  const auto max_side = static_cast<std::uint32_t>(std::sqrt(static_cast<double>(n))) + 1;
  const auto side = static_cast<std::uint32_t>(
      std::clamp(std::floor(1.0 / cell), 1.0, static_cast<double>(max_side)));
  std::vector<std::vector<NodeId>> buckets(static_cast<std::size_t>(side) * side);
  auto bucket_of = [&](NodeId v) {
    auto bx = std::min<std::uint32_t>(side - 1, static_cast<std::uint32_t>(x[v] * side));
    auto by = std::min<std::uint32_t>(side - 1, static_cast<std::uint32_t>(y[v] * side));
    return static_cast<std::size_t>(bx) * side + by;
  };
  for (NodeId v = 0; v < n; ++v) buckets[bucket_of(v)].push_back(v);

  const double r2 = radius * radius;
  GraphBuilder builder(n);
  for (NodeId v = 0; v < n; ++v) {
    const auto bx = static_cast<std::int64_t>(std::min<std::uint32_t>(
        side - 1, static_cast<std::uint32_t>(x[v] * side)));
    const auto by = static_cast<std::int64_t>(std::min<std::uint32_t>(
        side - 1, static_cast<std::uint32_t>(y[v] * side)));
    for (std::int64_t dx = -1; dx <= 1; ++dx) {
      for (std::int64_t dy = -1; dy <= 1; ++dy) {
        const std::int64_t cx = bx + dx, cy = by + dy;
        if (cx < 0 || cy < 0 || cx >= static_cast<std::int64_t>(side) ||
            cy >= static_cast<std::int64_t>(side))
          continue;
        for (NodeId w : buckets[static_cast<std::size_t>(cx) * side + cy]) {
          if (w <= v) continue;
          const double ddx = x[v] - x[w], ddy = y[v] - y[w];
          if (ddx * ddx + ddy * ddy <= r2) builder.AddEdge(v, w);
        }
      }
    }
  }
  return std::move(builder).Build();
}

Graph Grid(NodeId rows, NodeId cols) {
  GraphBuilder builder(rows * cols);
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) builder.AddEdge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) builder.AddEdge(id(r, c), id(r + 1, c));
    }
  }
  return std::move(builder).Build();
}

Graph Path(NodeId n) {
  GraphBuilder builder(n);
  for (NodeId v = 0; v + 1 < n; ++v) builder.AddEdge(v, v + 1);
  return std::move(builder).Build();
}

Graph Cycle(NodeId n) {
  EMIS_REQUIRE(n == 0 || n >= 3, "cycle needs at least 3 nodes");
  GraphBuilder builder(n);
  for (NodeId v = 0; v + 1 < n; ++v) builder.AddEdge(v, v + 1);
  if (n >= 3) builder.AddEdge(n - 1, 0);
  return std::move(builder).Build();
}

Graph Star(NodeId n) {
  GraphBuilder builder(n);
  for (NodeId v = 1; v < n; ++v) builder.AddEdge(0, v);
  return std::move(builder).Build();
}

Graph Complete(NodeId n) {
  GraphBuilder builder(n);
  if (n >= 2) builder.Reserve(static_cast<std::uint64_t>(n) * (n - 1) / 2);
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = u + 1; v < n; ++v) builder.AddEdge(u, v);
  return std::move(builder).Build();
}

Graph CompleteBipartite(NodeId left, NodeId right) {
  GraphBuilder builder(left + right);
  builder.Reserve(static_cast<std::uint64_t>(left) * right);
  for (NodeId u = 0; u < left; ++u)
    for (NodeId v = 0; v < right; ++v) builder.AddEdge(u, left + v);
  return std::move(builder).Build();
}

Graph RandomTree(NodeId n, Rng& rng) {
  if (n <= 1) return Empty(n);
  if (n == 2) return Path(2);
  // Prüfer decoding: a uniform sequence of n-2 labels decodes to a uniform
  // labeled tree.
  std::vector<NodeId> prufer(n - 2);
  for (auto& s : prufer) s = static_cast<NodeId>(rng.UniformBelow(n));
  std::vector<std::uint32_t> degree(n, 1);
  for (NodeId s : prufer) ++degree[s];

  GraphBuilder builder(n);
  builder.Reserve(n - 1);
  // Min-leaf extraction with a min-heap of current leaves.
  std::priority_queue<NodeId, std::vector<NodeId>, std::greater<>> leaves;
  for (NodeId v = 0; v < n; ++v) {
    if (degree[v] == 1) leaves.push(v);
  }
  for (NodeId s : prufer) {
    const NodeId leaf = leaves.top();
    leaves.pop();
    builder.AddEdge(leaf, s);
    if (--degree[s] == 1) leaves.push(s);
  }
  EMIS_ASSERT(leaves.size() == 2, "Prüfer decode failed");
  const NodeId a = leaves.top();
  leaves.pop();
  builder.AddEdge(a, leaves.top());
  return std::move(builder).Build();
}

Graph NearRegular(NodeId n, std::uint32_t d, Rng& rng) {
  EMIS_REQUIRE(d < n, "degree must be below n");
  GraphBuilder builder(n);
  builder.Reserve(static_cast<std::uint64_t>(n) * d / 2);
  std::vector<std::uint32_t> degree(n, 0);
  // Repeated random pairing among nodes still short of degree d; bounded
  // retries keep this from spinning on the (rare) final odd remainder.
  const std::uint64_t target = static_cast<std::uint64_t>(n) * d / 2;
  std::uint64_t added = 0;
  std::uint64_t stall = 0;
  const std::uint64_t max_stall = 50ULL * n * (d + 1) + 1000;
  while (added < target && stall < max_stall) {
    const NodeId u = static_cast<NodeId>(rng.UniformBelow(n));
    const NodeId v = static_cast<NodeId>(rng.UniformBelow(n));
    if (u == v || degree[u] >= d || degree[v] >= d) {
      ++stall;
      continue;
    }
    if (builder.AddEdgeIfAbsent(u, v)) {
      ++degree[u];
      ++degree[v];
      ++added;
      stall = 0;
    } else {
      ++stall;
    }
  }
  return std::move(builder).Build();
}

Graph BarabasiAlbert(NodeId n, std::uint32_t m, Rng& rng) {
  EMIS_REQUIRE(m >= 1, "attachment count must be >= 1");
  EMIS_REQUIRE(n > m, "need more nodes than attachment edges");
  GraphBuilder builder(n);
  builder.Reserve(static_cast<std::uint64_t>(m) * (m + 1) / 2 +
                  static_cast<std::uint64_t>(n - m - 1) * m);
  // Endpoint multiset for preferential attachment: each edge contributes both
  // endpoints, so sampling uniformly from `endpoints` is degree-proportional.
  std::vector<NodeId> endpoints;
  // Seed clique on m+1 nodes.
  for (NodeId u = 0; u <= m; ++u) {
    for (NodeId v = u + 1; v <= m; ++v) {
      builder.AddEdge(u, v);
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  for (NodeId v = m + 1; v < n; ++v) {
    std::uint32_t attached = 0;
    std::uint64_t guard = 0;
    while (attached < m && guard < 10000) {
      const NodeId target = endpoints[rng.UniformBelow(endpoints.size())];
      if (builder.AddEdgeIfAbsent(v, target)) {
        endpoints.push_back(v);
        endpoints.push_back(target);
        ++attached;
      }
      ++guard;
    }
    EMIS_ASSERT(attached == m, "preferential attachment stalled");
  }
  return std::move(builder).Build();
}

Graph MatchingPlusIsolated(NodeId n) {
  GraphBuilder builder(n);
  const NodeId pairs = n / 4;
  for (NodeId i = 0; i < pairs; ++i) builder.AddEdge(2 * i, 2 * i + 1);
  return std::move(builder).Build();
}

Graph PerfectMatching(NodeId n) {
  EMIS_REQUIRE(n % 2 == 0, "perfect matching needs even n");
  GraphBuilder builder(n);
  for (NodeId i = 0; i < n / 2; ++i) builder.AddEdge(2 * i, 2 * i + 1);
  return std::move(builder).Build();
}

Graph DisjointCliques(NodeId count, NodeId size) {
  GraphBuilder builder(count * size);
  if (size >= 2) {
    builder.Reserve(static_cast<std::uint64_t>(count) * size * (size - 1) / 2);
  }
  for (NodeId c = 0; c < count; ++c) {
    const NodeId base = c * size;
    for (NodeId u = 0; u < size; ++u)
      for (NodeId v = u + 1; v < size; ++v) builder.AddEdge(base + u, base + v);
  }
  return std::move(builder).Build();
}

Graph Caterpillar(NodeId spine, NodeId legs) {
  GraphBuilder builder(spine * (1 + legs));
  for (NodeId s = 0; s + 1 < spine; ++s) builder.AddEdge(s, s + 1);
  for (NodeId s = 0; s < spine; ++s) {
    for (NodeId l = 0; l < legs; ++l) builder.AddEdge(s, spine + s * legs + l);
  }
  return std::move(builder).Build();
}

Graph Empty(NodeId n) { return GraphBuilder(n).Build(); }

}  // namespace emis::gen
