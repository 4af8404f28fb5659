#include "radio/graph_generators.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>
#include <span>
#include <vector>

#include "verify/parallel.hpp"

namespace emis::gen {
namespace {

/// First pair position of row r in the lexicographic pair order: row r owns
/// the n-1-r positions [RowBegin(n, r), RowBegin(n, r + 1)) of the pairs
/// (r, r+1..). The 128-bit product cannot overflow for any NodeId n.
std::uint64_t RowBegin(NodeId n, NodeId r) {
  return static_cast<std::uint64_t>(static_cast<unsigned __int128>(r) *
                                    (2 * static_cast<std::uint64_t>(n) - r - 1) / 2);
}

/// Decodes increasing pair positions to edges. Positions only grow, so the
/// cursor moves forward and a whole run costs O(n + m) (Batagelj & Brandes
/// 2005) rather than a search per edge; only its start is a binary search.
class RowCursor {
 public:
  /// A cursor on the row holding `pos` (< n(n-1)/2).
  RowCursor(NodeId n, std::uint64_t pos) : n_(n) {
    NodeId lo = 0, hi = n - 2;  // largest row r with RowBegin(r) <= pos
    while (lo < hi) {
      const NodeId mid = lo + (hi - lo + 1) / 2;
      if (RowBegin(n, mid) <= pos) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    row_ = lo;
    row_begin_ = RowBegin(n, lo);
    row_end_ = row_begin_ + (n - 1 - lo);
  }

  /// The pair at `pos`, which must not precede the previous call's.
  Edge Decode(std::uint64_t pos) {
    while (pos >= row_end_) {
      ++row_;
      row_begin_ = row_end_;
      row_end_ += n_ - 1 - row_;
    }
    return {row_, static_cast<NodeId>(row_ + 1 + (pos - row_begin_))};
  }

 private:
  NodeId n_;
  NodeId row_ = 0;
  std::uint64_t row_begin_ = 0;
  std::uint64_t row_end_ = 0;
};

/// The geometric gap a uniform draw encodes: the pair after a success is
/// the next success with probability p, so floor(log(U) / log(1-p)) pairs
/// are skipped. U is clamped away from 0 to keep the log finite.
double GapOf(double u, double log1mp) { return std::log(std::max(u, 1e-300)) / log1mp; }

/// The sampler's per-draw loop, from pair position `pos` (< total) until
/// it stops: the exact reference every block of SampleBernoulliPairs must
/// agree with, and what runs wherever a block cannot prove it agrees.
void SampleTail(NodeId n, double log1mp, std::uint64_t total, std::uint64_t pos, Rng& rng,
                GraphBuilder& builder) {
  RowCursor cursor(n, pos);
  for (;;) {
    const double skip = GapOf(rng.UniformUnit(), log1mp);
    // The gap is positive, so truncation is its floor; and total - pos is a
    // whole number, so testing the unfloored gap against it is equivalent.
    if (skip >= static_cast<double>(total - pos)) return;
    pos += static_cast<std::uint64_t>(skip);
    if (pos >= total) return;
    const Edge e = cursor.Decode(pos);
    builder.AddEdge(e.u, e.v);
    ++pos;
    if (pos >= total) return;
  }
}

/// Skip-sampling for G(n, p): iterates over present pairs directly, giving
/// O(n + m) expected work instead of O(n^2) Bernoulli draws. Pairs in
/// lexicographic order are positions 0..n(n-1)/2-1; successive successes
/// are geometric gaps apart, one uniform draw each.
///
/// The draws run through blocks of whole chunks (kSamplerChunkDraws each),
/// block sizes doubling to kMaxBlockChunks:
///   1. the caller draws the block's uniforms (the xoshiro stream is
///      sequential), keeping a copy of the Rng from the block's start;
///   2. chunks turn them into gaps on the pool, with each chunk's integer
///      sum of floor(gap) + 1 — the positions the chunk advances;
///   3. a serial scan passes a chunk whole only while every gap is < 2^52
///      and its sum is < total - pos. Then no draw inside it can stop the
///      per-draw loop: pos_i + floor(gap_i) + 1 <= pos + sum < total, so
///      neither position test fires and gap_i < total - pos_i; as gap_i <
///      2^52, the double comparison agrees even where rounding total - pos_i
///      to a double (past 2^53) moves it;
///   4. the passed chunks decode their positions on the pool, each from a
///      cursor placed by binary search, into edge slots reserved in order;
///   5. the first chunk that might stop the loop is replayed exactly by
///      SampleTail, with the Rng rewound to the block's start and advanced
///      by the draws the passed chunks consumed.
/// The edges, their order and the Rng state afterwards are therefore those
/// of the per-draw loop alone, at any job count. No draw happens on a pool
/// worker.
void SampleBernoulliPairs(NodeId n, double p, Rng& rng, GraphBuilder& builder) {
  if (n < 2 || p <= 0.0) return;
  if (p >= 1.0) {
    for (NodeId u = 0; u < n; ++u)
      for (NodeId v = u + 1; v < n; ++v) builder.AddEdge(u, v);
    return;
  }
  constexpr std::uint64_t kMaxBlockChunks = 256;  // 2 MiB of gaps
  constexpr double kExactGap = 0x1p52;
  const double log1mp = std::log1p(-p);
  const std::uint64_t total = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  const unsigned jobs = p * static_cast<double>(total) >=
                                static_cast<double>(GraphBuilder::kParallelMinEdges)
                            ? par::DefaultJobs()
                            : 1;
  struct ChunkScan {
    std::uint64_t advance = 0;  // sum of floor(gap) + 1 (valid when exact)
    std::uint64_t start = 0;    // position before the chunk's first gap
    bool exact = false;         // every gap < kExactGap
  };
  std::vector<double> gaps;
  std::vector<ChunkScan> scans;
  std::uint64_t pos = 0;
  for (std::uint64_t chunks = 1;; chunks = std::min(2 * chunks, kMaxBlockChunks)) {
    const Rng block_start = rng;
    gaps.resize(chunks * kSamplerChunkDraws);
    for (double& u : gaps) u = rng.UniformUnit();
    scans.resize(chunks);
    par::ParallelFor(jobs, chunks, [&](std::uint64_t c, unsigned) {
      double* gap = gaps.data() + c * kSamplerChunkDraws;
      std::uint64_t advance = 0;
      bool exact = true;
      for (std::uint64_t i = 0; i < kSamplerChunkDraws; ++i) {
        gap[i] = GapOf(gap[i], log1mp);
        exact &= gap[i] < kExactGap;
        advance += static_cast<std::uint64_t>(std::min(gap[i], kExactGap)) + 1;
      }
      ChunkScan& scan = scans[c];
      scan.advance = advance;
      scan.exact = exact;
    });
    std::uint64_t whole = 0;
    for (; whole < chunks; ++whole) {
      ChunkScan& scan = scans[whole];
      if (!scan.exact || scan.advance >= total - pos) break;
      scan.start = pos;
      pos += scan.advance;
    }
    const std::span<Edge> edge_slots = builder.AppendEdgeSlots(whole * kSamplerChunkDraws);
    par::ParallelFor(jobs, whole, [&](std::uint64_t c, unsigned) {
      const double* gap = gaps.data() + c * kSamplerChunkDraws;
      std::uint64_t at = scans[c].start;
      RowCursor cursor(n, at);
      for (std::uint64_t i = 0; i < kSamplerChunkDraws; ++i) {
        at += static_cast<std::uint64_t>(gap[i]);
        edge_slots[c * kSamplerChunkDraws + i] = cursor.Decode(at);
        ++at;
      }
    });
    if (whole < chunks) {
      rng = block_start;
      for (std::uint64_t k = 0; k < whole * kSamplerChunkDraws; ++k) rng.NextU64();
      SampleTail(n, log1mp, total, pos, rng, builder);
      return;
    }
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
  SampleBernoulliPairs(n, p, rng, builder);
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
  const auto coord_cell = [side](double c) {
    return std::min<std::uint32_t>(side - 1, static_cast<std::uint32_t>(c * side));
  };
  // Counting-sort the points by cell (cx * side + cy) into structure-of-
  // arrays coordinates, ids ascending within a cell. The three cells
  // (cx, cy-1..cy+1) are then one contiguous strip.
  const std::size_t cells = static_cast<std::size_t>(side) * side;
  std::vector<NodeId> cell_start(cells + 1, 0);
  std::vector<std::uint32_t> cell_of(n);
  for (NodeId v = 0; v < n; ++v) {
    cell_of[v] = coord_cell(x[v]) * side + coord_cell(y[v]);
    ++cell_start[cell_of[v] + 1];
  }
  for (std::size_t c = 0; c < cells; ++c) cell_start[c + 1] += cell_start[c];
  std::vector<double> sorted_x(n), sorted_y(n);
  std::vector<NodeId> sorted_id(n);
  {
    std::vector<NodeId> fill(cell_start.begin(), cell_start.end() - 1);
    for (NodeId v = 0; v < n; ++v) {
      const NodeId slot = fill[cell_of[v]]++;
      sorted_x[slot] = x[v];
      sorted_y[slot] = y[v];
      sorted_id[slot] = v;
    }
  }

  const double r2 = radius * radius;
  GraphBuilder builder(n);
  std::vector<NodeId> upper;  // v's upper neighbours
  for (NodeId v = 0; v < n; ++v) {
    const std::uint32_t bx = coord_cell(x[v]);
    const std::uint32_t by = coord_cell(y[v]);
    const std::uint32_t y_lo = by == 0 ? 0 : by - 1;
    const std::uint32_t y_hi = std::min(by + 1, side - 1);
    const std::uint32_t x_lo = bx == 0 ? 0 : bx - 1;
    const std::uint32_t x_hi = std::min(bx + 1, side - 1);
    std::size_t candidates = 0;
    for (std::uint32_t cx = x_lo; cx <= x_hi; ++cx) {
      const std::size_t row = static_cast<std::size_t>(cx) * side;
      candidates += cell_start[row + y_hi + 1] - cell_start[row + y_lo];
    }
    if (upper.size() < candidates) upper.resize(candidates);
    // Branch-free filter: every candidate is written, and kept only if it
    // is above v and within the radius.
    std::size_t count = 0;
    for (std::uint32_t cx = x_lo; cx <= x_hi; ++cx) {
      const std::size_t row = static_cast<std::size_t>(cx) * side;
      const NodeId strip_end = cell_start[row + y_hi + 1];
      for (NodeId k = cell_start[row + y_lo]; k < strip_end; ++k) {
        const double ddx = x[v] - sorted_x[k], ddy = y[v] - sorted_y[k];
        upper[count] = sorted_id[k];
        count += static_cast<std::size_t>(sorted_id[k] > v) &
                 static_cast<std::size_t>(ddx * ddx + ddy * ddy <= r2);
      }
    }
    // Ascending rows (lower neighbours arrive first, in v order) let Build
    // skip its per-row sort. At the usual ~16 ids std::sort is one
    // insertion sort; it stays O(k log k) on dense inputs.
    const auto kept = upper.begin() + static_cast<std::ptrdiff_t>(count);
    std::sort(upper.begin(), kept);
    for (auto it = upper.begin(); it != kept; ++it) builder.AddEdge(v, *it);
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
