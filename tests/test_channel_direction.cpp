// Direction-optimizing channel resolution: push and pull must be two
// implementations of the same radio semantics. Properties checked here:
//   * push/pull reception equivalence on random graphs, transmitter sets,
//     models, and loss rates (the tentpole invariant);
//   * the counter-based fading stream is pinned against golden values, so
//     an accidental reseeding or hash change fails loudly;
//   * double transmitter registration throws instead of double-delivering;
//   * the scheduler's accounting model picks the cheap side and feeds the
//     chan.* counters, and its frame arena reaches a pooled steady state.
#include <gtest/gtest.h>

#include <vector>

#include "core/contracts.hpp"
#include "core/runner.hpp"
#include "obs/metrics.hpp"
#include "radio/channel.hpp"
#include "radio/graph_generators.hpp"
#include "radio/scheduler.hpp"

namespace emis {
namespace {

/// Runs one identically-seeded round on two channels, one per direction,
/// and expects every listener's view to match.
void ExpectDirectionsAgree(const Graph& g, ChannelModel model, double loss) {
  Channel push(g, model);
  Channel pull(g, model);
  if (loss > 0.0) {
    push.SetLoss(loss, 77);
    pull.SetLoss(loss, 77);
  }
  Rng rng(g.NumNodes() * 131 + static_cast<std::uint64_t>(model));
  for (int round = 0; round < 6; ++round) {
    push.BeginRound(ChannelDirection::kPush);
    pull.BeginRound(ChannelDirection::kPull);
    std::vector<bool> transmits(g.NumNodes(), false);
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (rng.Bernoulli(0.3)) {
        transmits[v] = true;
        const std::uint64_t payload = 1 + rng.UniformBelow(1000);
        push.AddTransmitter(v, payload);
        pull.AddTransmitter(v, payload);
      }
    }
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (transmits[v]) continue;
      EXPECT_EQ(push.ResolveListener(v), pull.ResolveListener(v))
          << "model " << ToString(model) << " loss " << loss << " node " << v;
      EXPECT_EQ(push.TransmittingNeighbors(v), pull.TransmittingNeighbors(v));
    }
  }
}

TEST(ChannelDirection, PushAndPullAgreeOnRandomRounds) {
  Rng rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    const NodeId n = 6 + static_cast<NodeId>(rng.UniformBelow(50));
    const Graph g = gen::ErdosRenyi(n, 0.15, rng);
    for (ChannelModel model :
         {ChannelModel::kCd, ChannelModel::kNoCd, ChannelModel::kBeeping}) {
      ExpectDirectionsAgree(g, model, /*loss=*/0.0);
      ExpectDirectionsAgree(g, model, /*loss=*/0.3);
    }
  }
}

TEST(ChannelDirection, PullBasicSemantics) {
  // The pull path alone reproduces the push-path unit behaviours.
  const Graph star = gen::Star(5);
  Channel ch(star, ChannelModel::kCd);
  ch.BeginRound(ChannelDirection::kPull);
  EXPECT_EQ(ch.ResolveListener(0).kind, ReceptionKind::kSilence);

  ch.BeginRound(ChannelDirection::kPull);
  ch.AddTransmitter(1, 0xABC);
  Reception r = ch.ResolveListener(0);
  EXPECT_EQ(r.kind, ReceptionKind::kMessage);
  EXPECT_EQ(r.payload, 0xABCu);
  EXPECT_EQ(ch.ResolveListener(2).kind, ReceptionKind::kSilence);

  ch.BeginRound(ChannelDirection::kPull);
  ch.AddTransmitter(1, 1);
  ch.AddTransmitter(2, 2);
  EXPECT_EQ(ch.ResolveListener(0).kind, ReceptionKind::kCollision);
  EXPECT_EQ(ch.TransmittingNeighbors(0), 2u);

  // Directions may alternate round to round; epochs keep them clean.
  ch.BeginRound(ChannelDirection::kPush);
  ch.AddTransmitter(3, 9);
  EXPECT_EQ(ch.ResolveListener(0).payload, 9u);
  ch.BeginRound(ChannelDirection::kPull);
  EXPECT_EQ(ch.ResolveListener(0).kind, ReceptionKind::kSilence);
}

TEST(ChannelDirection, DoubleRegistrationThrows) {
  // Pin abort mode: the env (e.g. CI's EMIS_CONTRACTS=audit) must not turn
  // the expected throw into a logged continuation.
  contracts::SetMode(ContractMode::kAbort);
  const Graph star = gen::Star(4);
  for (ChannelDirection dir :
       {ChannelDirection::kPush, ChannelDirection::kPull}) {
    Channel ch(star, ChannelModel::kCd);
    ch.BeginRound(dir);
    ch.AddTransmitter(1, 1);
    EXPECT_THROW(ch.AddTransmitter(1, 1), InvariantError);
    // The next round accepts the node again.
    ch.BeginRound(dir);
    EXPECT_NO_THROW(ch.AddTransmitter(1, 1));
  }
}

// --- counter-based fading ---------------------------------------------------

TEST(CounterHashGolden, PinnedValues) {
  // Golden values pin the hash stream: any change to CounterHash/MixU64 or
  // to how the channel keys erasure draws is a determinism break for stored
  // seeds, and must show up here as a deliberate diff.
  EXPECT_EQ(CounterHash(0x5eedULL, 0, 0, 0), 0xb5148eca4cc6b0d0ULL);
  EXPECT_EQ(CounterHash(0x5eedULL, 1, 2, 3), 0x02892dcdfdcd4648ULL);
  EXPECT_EQ(CounterHash(0x5eedULL, 1, 3, 2), 0x4296e44dc0753b27ULL);
  EXPECT_EQ(CounterHash(42, 7, 11, 13), 0x0076d3e3c6234030ULL);
  EXPECT_DOUBLE_EQ(CounterHashUnit(0x5eedULL, 5, 8, 21), 0.73663826418136202);
}

TEST(CounterHashGolden, LinkErasedPattern) {
  // The channel's per-(round, tx, rx) erasure pattern for seed 9, loss 0.3.
  // Erasure is per *directed* link: (2 -> 5) and (5 -> 2) are independent.
  const std::vector<int> fwd = {0, 1, 1, 0, 0, 0, 0, 0};  // 2 -> 5
  const std::vector<int> rev = {0, 1, 1, 1, 1, 0, 0, 1};  // 5 -> 2
  for (std::uint64_t r = 1; r <= 8; ++r) {
    EXPECT_EQ(Channel::LinkErased(r, 2, 5, 9, 0.3), fwd[r - 1] != 0) << r;
    EXPECT_EQ(Channel::LinkErased(r, 5, 2, 9, 0.3), rev[r - 1] != 0) << r;
  }
  // Pure function: re-evaluation cannot perturb any stream.
  EXPECT_EQ(Channel::LinkErased(3, 2, 5, 9, 0.3),
            Channel::LinkErased(3, 2, 5, 9, 0.3));
}

// --- scheduler integration --------------------------------------------------

TEST(SchedulerResolution, AutoPullsWhenListenersAreCheap) {
  // Star, hub transmits once, one leaf listens: Σdeg(listen) = 1 beats
  // Σdeg(tx) = n - 1, so the round must be accounted pull-side. The 62 idle
  // leaves sleep through the round instead of finishing at spawn, so none
  // has retired and the hub's live degree is still n - 1 (had they
  // finished, the live-degree sums would tie and push would win: see
  // test_residual_compaction.cpp's CostModelSumsLiveDegrees).
  const Graph g = gen::Star(64);
  obs::MetricsRegistry metrics;
  Scheduler sched(g, {.metrics = &metrics}, /*seed=*/1);
  sched.Spawn([](NodeApi api) -> proc::Task<void> {
    if (api.Id() == 0) {
      co_await api.Transmit(1);
    } else if (api.Id() == 1) {
      const Reception r = co_await api.Listen();
      EMIS_ASSERT(r.kind == ReceptionKind::kMessage, "leaf must hear the hub");
    } else {
      co_await api.SleepFor(2);
    }
  });
  sched.Run();
  EXPECT_EQ(metrics.GetCounter("chan.pull_rounds").Value(), 1u);
  EXPECT_EQ(metrics.GetCounter("chan.push_rounds").Value(), 0u);
  EXPECT_EQ(metrics.GetCounter("chan.edges_scanned").Value(), 1u);
}

TEST(FrameArena, PoolsSubProtocolFrames) {
  // A protocol that repeatedly awaits a sub-protocol must reach a pooled
  // steady state: allocations beyond the first wave are served by reuse,
  // and the arena footprint stays bounded.
  const Graph g = gen::Star(8);
  Scheduler sched(g, {}, /*seed=*/2);
  sched.Spawn([](NodeApi api) -> proc::Task<void> {
    auto sub = [](NodeApi inner) -> proc::Task<void> {
      co_await inner.SleepFor(1);
    };
    for (int i = 0; i < 50; ++i) co_await sub(api);
  });
  sched.Run();
  const FrameArena::Stats& stats = sched.ArenaStats();
  // 8 roots + 8 * 50 sub-frames were allocated...
  EXPECT_GE(stats.frame_allocations, 8u + 8u * 50u);
  // ...but all sub-frames after the first wave came from the pool,
  EXPECT_GE(stats.pool_reuses, 8u * 49u);
  // so the bump high-water mark is ~one frame per node, not 50.
  EXPECT_LT(stats.used_bytes, 8u * 4096u);
  EXPECT_GE(stats.reserved_bytes, stats.used_bytes);
  // Only the roots are still live (held by the scheduler's tasks).
  EXPECT_EQ(stats.live_frames, 8u);
}

TEST(FrameArena, HeapFallbackOutsideScheduler) {
  // Tasks driven without a scheduler (no FrameArenaScope) must still work:
  // frames fall back to the heap and are freed there.
  auto coro = [](int x) -> proc::Task<int> { co_return x * 2; };
  auto outer = [&](int x) -> proc::Task<int> {
    const int a = co_await coro(x);
    co_return a + 1;
  };
  proc::Task<int> t = outer(20);
  t.RawHandle().resume();
  ASSERT_TRUE(t.Done());
  EXPECT_EQ(FrameArenaScope::Current(), nullptr);
}

}  // namespace
}  // namespace emis
