// The parallel trial engine's contract: ParallelFor visits every index
// exactly once and propagates failures; RunSweep produces bit-identical
// results at any job count; MetricsRegistry::Merge is associative, so
// shard-merging does not depend on how the work was split.
#include "verify/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "obs/report.hpp"
#include "verify/experiment.hpp"

namespace emis {
namespace {

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (const unsigned jobs : {1u, 2u, 4u, 7u}) {
    const std::uint64_t count = 1000;
    std::vector<std::atomic<int>> visits(count);
    par::ParallelFor(jobs, count, [&](std::uint64_t i, unsigned) {
      visits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::uint64_t i = 0; i < count; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "index " << i << ", jobs " << jobs;
    }
  }
}

TEST(ParallelFor, WorkerIdsAreInRange) {
  const unsigned jobs = 4;
  std::atomic<bool> ok{true};
  par::ParallelFor(jobs, 500, [&](std::uint64_t, unsigned worker) {
    if (worker >= jobs) ok = false;
  });
  EXPECT_TRUE(ok.load());
}

TEST(ParallelFor, ZeroCountIsANoOp) {
  bool called = false;
  par::ParallelFor(4, 0, [&](std::uint64_t, unsigned) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, JobsZeroMeansDefault) {
  std::vector<std::atomic<int>> visits(64);
  par::ParallelFor(0, 64, [&](std::uint64_t i, unsigned) {
    visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::uint64_t i = 0; i < 64; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelFor, PropagatesTheFirstException) {
  EXPECT_THROW(
      par::ParallelFor(4, 100,
                       [](std::uint64_t i, unsigned) {
                         if (i == 37) throw std::runtime_error("trial 37");
                       }),
      std::runtime_error);
}

TEST(DefaultJobs, IsAtLeastOne) { EXPECT_GE(par::DefaultJobs(), 1u); }

TEST(Pool, ThreadsPersistAcrossDispatches) {
  // The pool grows to jobs - 1 threads on first use and keeps them parked —
  // sharded rounds dispatch several times per simulated round, so thread
  // creation must never be on that path.
  par::ParallelFor(3, 100, [](std::uint64_t, unsigned) {});
  const unsigned after_first = par::PoolThreads();
  EXPECT_GE(after_first, 2u);
  for (int i = 0; i < 50; ++i) {
    par::ParallelFor(3, 100, [](std::uint64_t, unsigned) {});
    ASSERT_EQ(par::PoolThreads(), after_first) << "dispatch " << i;
  }
  // A wider dispatch may grow the pool; it never shrinks.
  par::ParallelFor(5, 100, [](std::uint64_t, unsigned) {});
  EXPECT_GE(par::PoolThreads(), after_first);
}

TEST(Pool, NestedCallsRunInlineWithoutDeadlock) {
  // A trial that itself calls ParallelFor (a sweep of sharded runs) must
  // not wait for the pool it is occupying: nested calls run inline and
  // serial on the occupying worker. This must hold on *every* participant,
  // including worker 0 — the calling thread holds the pool's dispatch lock
  // while it works its own slice, so a nested call that re-entered the pool
  // from there would self-deadlock (regression: sweep trials on the calling
  // thread hung under EMIS_SHARDS > 1). The outer count of 64 makes the
  // caller claim at least one slice on any schedule.
  std::vector<std::atomic<int>> inner_visits(8);
  par::ParallelFor(4, 64, [&](std::uint64_t, unsigned outer_worker) {
    par::ParallelFor(4, 8, [&](std::uint64_t i, unsigned inner_worker) {
      EXPECT_EQ(inner_worker, 0u) << "nested dispatch must be inline";
      (void)outer_worker;
      inner_visits[i].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(inner_visits[i].load(), 64) << "index " << i;
  }
}

TEST(Pool, BarrierWaitsIsMonotone) {
  const std::uint64_t before = par::BarrierWaits();
  // Uneven work: worker 0 claims almost everything while one straggler
  // sleeps-by-spinning, so the caller usually reaches the barrier first.
  // The counter is execution-dependent; only monotonicity is contractual.
  for (int round = 0; round < 20; ++round) {
    par::ParallelFor(4, 64, [](std::uint64_t i, unsigned) {
      volatile std::uint64_t sink = 0;
      const std::uint64_t spin = i % 16 == 0 ? 20000 : 1;
      for (std::uint64_t k = 0; k < spin; ++k) sink = sink + k;
    });
  }
  EXPECT_GE(par::BarrierWaits(), before);
}

SweepConfig SmallSweep() {
  SweepConfig cfg;
  cfg.algorithm = MisAlgorithm::kCd;
  cfg.factory = families::SparseErdosRenyi(6.0);
  cfg.sizes = {64, 96, 128};
  cfg.seeds_per_size = 4;
  cfg.seed_base = 7;
  return cfg;
}

void ExpectBitIdentical(const std::vector<SweepPoint>& a,
                        const std::vector<SweepPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  const auto same = [](const Summary& x, const Summary& y) {
    // memcmp, not ==: the contract is bit-identity of the accumulated
    // floats, which is stronger than numeric equality.
    return std::memcmp(&x, &y, sizeof(Summary)) == 0;
  };
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].n, b[i].n);
    EXPECT_EQ(a[i].runs, b[i].runs);
    EXPECT_EQ(a[i].failures, b[i].failures);
    EXPECT_TRUE(same(a[i].max_energy, b[i].max_energy)) << "point " << i;
    EXPECT_TRUE(same(a[i].avg_energy, b[i].avg_energy)) << "point " << i;
    EXPECT_TRUE(same(a[i].rounds, b[i].rounds)) << "point " << i;
    EXPECT_TRUE(same(a[i].mis_size, b[i].mis_size)) << "point " << i;
    EXPECT_TRUE(same(a[i].max_degree, b[i].max_degree)) << "point " << i;
  }
}

TEST(RunSweep, ParallelIsBitIdenticalToSerial) {
  const SweepConfig cfg = SmallSweep();
  const auto serial = RunSweep(cfg, 1);
  for (const unsigned jobs : {2u, 4u}) {
    const auto parallel = RunSweep(cfg, jobs);
    ExpectBitIdentical(serial, parallel);
  }
}

TEST(RunSweep, ParallelJsonArtifactIsByteIdentical) {
  const SweepConfig cfg = SmallSweep();
  const auto serial = RunSweep(cfg, 1);
  const auto parallel = RunSweep(cfg, 4);
  EXPECT_EQ(BuildSweepJson("t", serial).Dump(2),
            BuildSweepJson("t", parallel).Dump(2));
}

TEST(RunSweep, LegacySerialOverloadAgrees) {
  const SweepConfig cfg = SmallSweep();
  ExpectBitIdentical(RunSweep(cfg), RunSweep(cfg, 4));
}

TEST(RunSweep, ShardedMetricsMatchSerialTotals) {
  SweepConfig cfg = SmallSweep();
  obs::MetricsRegistry serial_metrics;
  cfg.metrics = &serial_metrics;
  (void)RunSweep(cfg, 1);

  obs::MetricsRegistry parallel_metrics;
  cfg.metrics = &parallel_metrics;
  (void)RunSweep(cfg, 4);

  const auto& sc = serial_metrics.Counters();
  const auto& pc = parallel_metrics.Counters();
  ASSERT_FALSE(sc.empty());
  ASSERT_EQ(sc.size(), pc.size());
  for (const auto& [name, counter] : sc) {
    const auto it = pc.find(name);
    ASSERT_NE(it, pc.end()) << name;
    EXPECT_EQ(counter.Value(), it->second.Value()) << name;
  }
  // Timers accumulate wall time (not deterministic), but the event counts
  // must agree: the same work ran, just on more threads.
  for (const auto& [name, timer] : serial_metrics.Timers()) {
    const auto it = parallel_metrics.Timers().find(name);
    ASSERT_NE(it, parallel_metrics.Timers().end()) << name;
    EXPECT_EQ(timer.Count(), it->second.Count()) << name;
  }
}

TEST(RunSweep, ObserverRunsInTrialOrder) {
  SweepConfig cfg = SmallSweep();
  std::vector<std::pair<NodeId, std::uint32_t>> order;
  cfg.observe = [&](NodeId n, std::uint32_t s, const MisRunResult& r) {
    EXPECT_TRUE(r.Valid());
    order.emplace_back(n, s);
  };
  (void)RunSweep(cfg, 4);
  ASSERT_EQ(order.size(), cfg.sizes.size() * cfg.seeds_per_size);
  std::size_t k = 0;
  for (const NodeId n : cfg.sizes) {
    for (std::uint32_t s = 0; s < cfg.seeds_per_size; ++s, ++k) {
      EXPECT_EQ(order[k].first, n);
      EXPECT_EQ(order[k].second, s);
    }
  }
}

TEST(RunSweep, InfoReportsJobsAndWallClock) {
  const SweepConfig cfg = SmallSweep();
  SweepRunInfo info;
  (void)RunSweep(cfg, 2, &info);
  EXPECT_EQ(info.jobs, 2u);
  EXPECT_GT(info.wall_seconds, 0.0);
  ASSERT_EQ(info.point_wall_seconds.size(), cfg.sizes.size());
  for (const double s : info.point_wall_seconds) EXPECT_GT(s, 0.0);
}

obs::MetricsRegistry MakeShard(std::uint64_t salt) {
  obs::MetricsRegistry m;
  m.GetCounter("c").Inc(10 + salt);
  m.GetGauge("g").Set(static_cast<double>(salt));
  m.GetHistogram("h", {1.0, 10.0}).Observe(static_cast<double>(salt));
  m.GetHistogram("h", {1.0, 10.0}).Observe(5.0);
  return m;
}

std::string DumpMetrics(const obs::MetricsRegistry& m) {
  return obs::BuildMetricsJson(m).Dump(2);
}

TEST(MetricsRegistry, MergeIsAssociative) {
  // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c): merging shards pairwise in any grouping
  // yields the same registry, which is what lets RunSweep merge per-worker
  // shards in a simple left fold.
  const obs::MetricsRegistry a = MakeShard(1);
  const obs::MetricsRegistry b = MakeShard(2);
  const obs::MetricsRegistry c = MakeShard(3);

  obs::MetricsRegistry left;
  left.Merge(a);
  left.Merge(b);
  left.Merge(c);

  obs::MetricsRegistry bc;
  bc.Merge(b);
  bc.Merge(c);
  obs::MetricsRegistry right;
  right.Merge(a);
  right.Merge(bc);

  EXPECT_EQ(DumpMetrics(left), DumpMetrics(right));
  EXPECT_EQ(left.GetCounter("c").Value(), 36u);
}

TEST(MetricsRegistry, MergeIntoEmptyCopies) {
  const obs::MetricsRegistry a = MakeShard(4);
  obs::MetricsRegistry target;
  target.Merge(a);
  EXPECT_EQ(DumpMetrics(target), DumpMetrics(a));
}

}  // namespace
}  // namespace emis
