#include "radio/scheduler.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "contract_mode_guard.hpp"
#include "core/contracts.hpp"
#include "obs/metrics.hpp"
#include "radio/graph_generators.hpp"
#include "trace_hash.hpp"

namespace emis {
namespace {

// --- Tiny protocols used as fixtures -------------------------------------

struct Slots {
  std::vector<Reception> heard;
  std::vector<Round> acted_at;
};

proc::Task<void> TransmitOnce(NodeApi api) { co_await api.Transmit(42); }

proc::Task<void> ListenOnce(NodeApi api, Slots* out) {
  const Reception r = co_await api.Listen();
  out->heard.push_back(r);
}

TEST(Scheduler, SingleTransmitterIsHeard) {
  Graph g = gen::Path(2);
  Scheduler sched(g, {.model = ChannelModel::kCd}, 1);
  Slots slots;
  sched.Spawn([&](NodeApi api) -> proc::Task<void> {
    if (api.Id() == 0) return TransmitOnce(api);
    return ListenOnce(api, &slots);
  });
  const RunStats stats = sched.Run();
  EXPECT_TRUE(sched.AllFinished());
  EXPECT_EQ(stats.rounds_used, 1u);
  ASSERT_EQ(slots.heard.size(), 1u);
  EXPECT_EQ(slots.heard[0].kind, ReceptionKind::kMessage);
  EXPECT_EQ(slots.heard[0].payload, 42u);
}

TEST(Scheduler, CollisionOnStarHub) {
  Graph g = gen::Star(4);  // hub 0, leaves 1..3
  Scheduler sched(g, {.model = ChannelModel::kCd}, 1);
  Slots slots;
  sched.Spawn([&](NodeApi api) -> proc::Task<void> {
    if (api.Id() == 0) return ListenOnce(api, &slots);
    return TransmitOnce(api);
  });
  sched.Run();
  ASSERT_EQ(slots.heard.size(), 1u);
  EXPECT_EQ(slots.heard[0].kind, ReceptionKind::kCollision);
}

proc::Task<void> SleepThenTransmit(NodeApi api, Round sleep_rounds) {
  co_await api.SleepFor(sleep_rounds);
  co_await api.Transmit(7);
}

proc::Task<void> ListenAtRound(NodeApi api, Round round, Slots* out) {
  co_await api.SleepUntil(round);
  out->acted_at.push_back(api.Now());
  const Reception r = co_await api.Listen();
  out->heard.push_back(r);
}

TEST(Scheduler, SleepAlignsRounds) {
  // Node 0 sleeps 5 rounds then transmits (acts in round 5); node 1 sleeps
  // until round 5 then listens. They must meet.
  Graph g = gen::Path(2);
  Scheduler sched(g, {.model = ChannelModel::kCd}, 1);
  Slots slots;
  sched.Spawn([&](NodeApi api) -> proc::Task<void> {
    if (api.Id() == 0) return SleepThenTransmit(api, 5);
    return ListenAtRound(api, 5, &slots);
  });
  const RunStats stats = sched.Run();
  ASSERT_EQ(slots.heard.size(), 1u);
  EXPECT_EQ(slots.heard[0].kind, ReceptionKind::kMessage);
  EXPECT_EQ(slots.acted_at[0], 5u);
  EXPECT_EQ(stats.rounds_used, 6u);  // rounds 0..5, awake only in round 5
  EXPECT_EQ(stats.node_rounds, 2u);  // round-skipping: only 2 node-rounds simulated
}

TEST(Scheduler, RoundSkippingJumpsLongSleeps) {
  Graph g = gen::Path(2);
  Scheduler sched(g, {.model = ChannelModel::kCd}, 1);
  Slots slots;
  const Round kFar = 1'000'000;
  sched.Spawn([&](NodeApi api) -> proc::Task<void> {
    if (api.Id() == 0) return SleepThenTransmit(api, kFar);
    return ListenAtRound(api, kFar, &slots);
  });
  const RunStats stats = sched.Run();
  EXPECT_EQ(stats.rounds_used, kFar + 1);
  EXPECT_EQ(stats.node_rounds, 2u);
  ASSERT_EQ(slots.heard.size(), 1u);
  EXPECT_EQ(slots.heard[0].kind, ReceptionKind::kMessage);
}

TEST(Scheduler, SleepOfExactlyWheelSizeDoesNotAliasCurrentSlot) {
  // Horizon-edge regression: a wake at distance exactly kWheelSize maps to
  // the same slot as the current round (round & (W-1) == now & (W-1)). It
  // must go to the overflow list, not the wheel — otherwise the clock
  // re-drains the current bucket without advancing and the node resumes
  // kWheelSize rounds early (firing the wake-round invariant).
  constexpr Round kW = Scheduler::kWheelSize;
  Graph g = gen::Path(2);
  Scheduler sched(g, {.model = ChannelModel::kCd}, 1);
  Slots slots;
  sched.Spawn([&](NodeApi api) -> proc::Task<void> {
    if (api.Id() == 0) return SleepThenTransmit(api, kW);
    return ListenAtRound(api, kW, &slots);
  });
  const RunStats stats = sched.Run();
  EXPECT_TRUE(sched.AllFinished());
  EXPECT_EQ(stats.rounds_used, kW + 1);
  EXPECT_EQ(stats.node_rounds, 2u);
  ASSERT_EQ(slots.heard.size(), 1u);
  EXPECT_EQ(slots.heard[0].kind, ReceptionKind::kMessage);
  EXPECT_EQ(slots.acted_at[0], kW);
}

proc::Task<void> SleepWheelSizeTwiceThenTransmit(NodeApi api, Slots* out) {
  co_await api.SleepFor(Scheduler::kWheelSize);
  out->acted_at.push_back(api.Now());
  co_await api.SleepFor(Scheduler::kWheelSize);
  out->acted_at.push_back(api.Now());
  co_await api.Transmit(7);
}

TEST(Scheduler, WheelSizeSleepFromDrainedBucketStaysOnSchedule) {
  // The nastiest alias case: the node wakes from the just-drained bucket and
  // immediately sleeps exactly kWheelSize again, so the push targets the very
  // slot being drained in a round where every woken node goes back to sleep
  // (actors stay empty and the clock relies on NextWakeRound to advance).
  constexpr Round kW = Scheduler::kWheelSize;
  Graph g = gen::Path(2);
  Scheduler sched(g, {.model = ChannelModel::kCd}, 1);
  Slots wake_log, slots;
  sched.Spawn([&](NodeApi api) -> proc::Task<void> {
    if (api.Id() == 0) return SleepWheelSizeTwiceThenTransmit(api, &wake_log);
    return ListenAtRound(api, 2 * kW, &slots);
  });
  const RunStats stats = sched.Run();
  EXPECT_TRUE(sched.AllFinished());
  EXPECT_EQ(stats.rounds_used, 2 * kW + 1);
  ASSERT_EQ(wake_log.acted_at.size(), 2u);
  EXPECT_EQ(wake_log.acted_at[0], kW);
  EXPECT_EQ(wake_log.acted_at[1], 2 * kW);
  ASSERT_EQ(slots.heard.size(), 1u);
  EXPECT_EQ(slots.heard[0].kind, ReceptionKind::kMessage);
}

TEST(Scheduler, SleepsAroundTheWheelHorizon) {
  // Distances W-1 (last wheel slot), W (overflow), and W+1 (overflow) all
  // wake exactly on time.
  constexpr Round kW = Scheduler::kWheelSize;
  for (const Round d : {kW - 1, kW, kW + 1}) {
    Graph g = gen::Empty(1);
    Scheduler sched(g, {.model = ChannelModel::kCd}, 1);
    Slots slots;
    sched.Spawn([&](NodeApi api) -> proc::Task<void> {
      return ListenAtRound(api, d, &slots);
    });
    const RunStats stats = sched.Run();
    EXPECT_TRUE(sched.AllFinished());
    EXPECT_EQ(stats.rounds_used, d + 1);
    ASSERT_EQ(slots.acted_at.size(), 1u);
    EXPECT_EQ(slots.acted_at[0], d);
  }
}

proc::Task<void> SleepZeroThenTransmit(NodeApi api) {
  co_await api.SleepFor(0);              // must not suspend
  co_await api.SleepUntil(api.Now());    // must not suspend
  co_await api.Transmit(3);
}

TEST(Scheduler, ZeroSleepIsNoop) {
  Graph g = gen::Path(2);
  Scheduler sched(g, {.model = ChannelModel::kCd}, 1);
  Slots slots;
  sched.Spawn([&](NodeApi api) -> proc::Task<void> {
    if (api.Id() == 0) return SleepZeroThenTransmit(api);
    return ListenOnce(api, &slots);
  });
  const RunStats stats = sched.Run();
  EXPECT_EQ(stats.rounds_used, 1u);
  ASSERT_EQ(slots.heard.size(), 1u);
  EXPECT_EQ(slots.heard[0].payload, 3u);
}

// --- Sub-task composition -------------------------------------------------

proc::Task<bool> ListenTwiceSub(NodeApi api) {
  const Reception a = co_await api.Listen();
  const Reception b = co_await api.Listen();
  co_return a.Busy() || b.Busy();
}

proc::Task<void> ComposedListener(NodeApi api, bool* heard) {
  *heard = co_await ListenTwiceSub(api);
}

proc::Task<void> TransmitSecondRound(NodeApi api) {
  co_await api.SleepFor(1);
  co_await api.Transmit(1);
}

TEST(Scheduler, SubTasksComposeAndReturnValues) {
  Graph g = gen::Path(2);
  Scheduler sched(g, {.model = ChannelModel::kCd}, 1);
  bool heard = false;
  sched.Spawn([&](NodeApi api) -> proc::Task<void> {
    if (api.Id() == 0) return ComposedListener(api, &heard);
    return TransmitSecondRound(api);
  });
  sched.Run();
  EXPECT_TRUE(heard);
}

proc::Task<int> NestedInner(NodeApi api) {
  co_await api.Listen();
  co_return 21;
}

proc::Task<int> NestedMiddle(NodeApi api) {
  const int x = co_await NestedInner(api);
  co_await api.Listen();
  co_return x * 2;
}

proc::Task<void> NestedOuter(NodeApi api, int* out) {
  *out = co_await NestedMiddle(api);
}

TEST(Scheduler, DeeplyNestedSubTasks) {
  Graph g = gen::Empty(1);
  Scheduler sched(g, {.model = ChannelModel::kCd}, 1);
  int out = 0;
  sched.Spawn([&](NodeApi api) -> proc::Task<void> { return NestedOuter(api, &out); });
  const RunStats stats = sched.Run();
  EXPECT_EQ(out, 42);
  EXPECT_EQ(stats.rounds_used, 2u);
}

// --- Energy accounting ----------------------------------------------------

proc::Task<void> MixedActivity(NodeApi api) {
  co_await api.Transmit(1);   // 1 transmit
  co_await api.Listen();      // 1 listen
  co_await api.SleepFor(10);  // free
  co_await api.Listen();      // 1 listen
}

TEST(Scheduler, EnergyCountsOnlyAwakeRounds) {
  Graph g = gen::Empty(1);
  Scheduler sched(g, {.model = ChannelModel::kCd}, 1);
  sched.Spawn([](NodeApi api) -> proc::Task<void> { return MixedActivity(api); });
  const RunStats stats = sched.Run();
  EXPECT_EQ(stats.rounds_used, 13u);  // rounds 0..12
  const NodeEnergy e = sched.Energy().Of(0);
  EXPECT_EQ(e.transmit_rounds, 1u);
  EXPECT_EQ(e.listen_rounds, 2u);
  EXPECT_EQ(e.Awake(), 3u);
}

// --- Partial runs and limits ----------------------------------------------

proc::Task<void> TransmitForever(NodeApi api) {
  for (;;) co_await api.Transmit(1);
}

TEST(Scheduler, MaxRoundsStopsRunaways) {
  Graph g = gen::Empty(2);
  Scheduler sched(g, {.model = ChannelModel::kCd, .max_rounds = 100}, 1);
  sched.Spawn([](NodeApi api) -> proc::Task<void> { return TransmitForever(api); });
  const RunStats stats = sched.Run();
  EXPECT_TRUE(stats.hit_round_limit);
  EXPECT_FALSE(sched.AllFinished());
  EXPECT_EQ(stats.rounds_used, 100u);
  EXPECT_EQ(sched.Energy().Of(0).transmit_rounds, 100u);
}

TEST(Scheduler, RunUntilResumesSeamlessly) {
  Graph g = gen::Empty(1);
  Scheduler sched(g, {.model = ChannelModel::kCd}, 1);
  sched.Spawn([](NodeApi api) -> proc::Task<void> { return MixedActivity(api); });
  sched.RunUntil(2);
  EXPECT_EQ(sched.Energy().Of(0).Awake(), 2u);  // transmit + listen happened
  const RunStats stats = sched.Run();
  EXPECT_TRUE(sched.AllFinished());
  EXPECT_EQ(stats.rounds_used, 13u);
  EXPECT_EQ(sched.Energy().Of(0).Awake(), 3u);
}

TEST(Scheduler, RunUntilClampsRoundSkipAtLimit) {
  // A wake event beyond `limit` must not drag the virtual clock past the
  // limit, and sched.rounds_skipped must count only the rounds skipped
  // within this RunUntil call (the remainder belongs to the resume).
  Graph g = gen::Empty(1);
  obs::MetricsRegistry metrics;
  Scheduler sched(g, {.model = ChannelModel::kCd, .metrics = &metrics}, 1);
  sched.Spawn([](NodeApi api) -> proc::Task<void> {
    return SleepThenTransmit(api, 1000);
  });

  sched.RunUntil(10);
  EXPECT_EQ(sched.Now(), 10u);
  EXPECT_EQ(metrics.GetCounter("sched.rounds_skipped").Value(), 10u);
  EXPECT_FALSE(sched.AllFinished());

  const RunStats stats = sched.Run();
  EXPECT_TRUE(sched.AllFinished());
  EXPECT_EQ(stats.rounds_used, 1001u);
  EXPECT_EQ(metrics.GetCounter("sched.rounds_skipped").Value(), 1000u);
  EXPECT_EQ(metrics.GetCounter("sched.rounds_executed").Value(), 1u);
}

TEST(Scheduler, RunUntilClampedStopStillHitsMaxRounds) {
  // When limit == max_rounds and the next wake lies beyond it, the clamped
  // jump must still report hit_round_limit (the clock reached max_rounds).
  Graph g = gen::Empty(1);
  Scheduler sched(g, {.model = ChannelModel::kCd, .max_rounds = 50}, 1);
  sched.Spawn([](NodeApi api) -> proc::Task<void> {
    return SleepThenTransmit(api, 1000);
  });
  const RunStats stats = sched.Run();
  EXPECT_FALSE(sched.AllFinished());
  EXPECT_TRUE(stats.hit_round_limit);
  EXPECT_EQ(sched.Now(), 50u);
}

TEST(Scheduler, RunUntilMidSleepThenContinue) {
  Graph g = gen::Path(2);
  Scheduler sched(g, {.model = ChannelModel::kCd}, 1);
  Slots slots;
  sched.Spawn([&](NodeApi api) -> proc::Task<void> {
    if (api.Id() == 0) return SleepThenTransmit(api, 50);
    return ListenAtRound(api, 50, &slots);
  });
  sched.RunUntil(10);
  EXPECT_FALSE(sched.AllFinished());
  sched.RunUntil(51);
  EXPECT_TRUE(sched.AllFinished());
  ASSERT_EQ(slots.heard.size(), 1u);
  EXPECT_EQ(slots.heard[0].kind, ReceptionKind::kMessage);
}

// --- Error handling ---------------------------------------------------------

proc::Task<void> ThrowingProtocol(NodeApi api) {
  co_await api.Listen();
  throw std::runtime_error("protocol bug");
}

TEST(Scheduler, ProtocolExceptionsPropagate) {
  Graph g = gen::Empty(1);
  Scheduler sched(g, {.model = ChannelModel::kCd}, 1);
  sched.Spawn([](NodeApi api) -> proc::Task<void> { return ThrowingProtocol(api); });
  EXPECT_THROW(sched.Run(), std::runtime_error);
}

proc::Task<void> ThrowingSub(NodeApi api) {
  co_await api.Listen();
  throw std::runtime_error("sub bug");
}

proc::Task<void> CatchingParent(NodeApi api, bool* caught) {
  try {
    co_await ThrowingSub(api);
  } catch (const std::runtime_error&) {
    *caught = true;
  }
}

TEST(Scheduler, SubTaskExceptionsReachParent) {
  Graph g = gen::Empty(1);
  Scheduler sched(g, {.model = ChannelModel::kCd}, 1);
  bool caught = false;
  sched.Spawn([&](NodeApi api) -> proc::Task<void> { return CatchingParent(api, &caught); });
  sched.Run();
  EXPECT_TRUE(caught);
}

TEST(Scheduler, SpawnTwiceIsRejected) {
  // Pin abort mode: the env (e.g. CI's EMIS_CONTRACTS=audit) must not turn
  // the expected throw into a logged continuation.
  contracts::SetMode(ContractMode::kAbort);
  Graph g = gen::Empty(1);
  Scheduler sched(g, {.model = ChannelModel::kCd}, 1);
  auto factory = [](NodeApi api) -> proc::Task<void> { return TransmitOnce(api); };
  sched.Spawn(factory);
  EXPECT_THROW(sched.Spawn(factory), PreconditionError);
}

TEST(Scheduler, RunBeforeSpawnIsRejected) {
  contracts::SetMode(ContractMode::kAbort);
  Graph g = gen::Empty(1);
  Scheduler sched(g, {.model = ChannelModel::kCd}, 1);
  EXPECT_THROW(sched.Run(), PreconditionError);
}

// --- Determinism ------------------------------------------------------------

proc::Task<void> RandomActivity(NodeApi api, std::vector<int>* log) {
  for (int i = 0; i < 20; ++i) {
    if (api.Rand().Bit()) {
      co_await api.Transmit(api.Id());
      log->push_back(-1);
    } else {
      const Reception r = co_await api.Listen();
      log->push_back(static_cast<int>(r.kind));
    }
  }
}

TEST(Scheduler, RunsAreDeterministicGivenSeed) {
  Graph g = gen::Complete(6);
  std::vector<std::vector<int>> logs1(6), logs2(6);
  for (int rep = 0; rep < 2; ++rep) {
    auto& logs = rep == 0 ? logs1 : logs2;
    Scheduler sched(g, {.model = ChannelModel::kCd}, 777);
    sched.Spawn([&](NodeApi api) -> proc::Task<void> {
      return RandomActivity(api, &logs[api.Id()]);
    });
    sched.Run();
  }
  EXPECT_EQ(logs1, logs2);
}

TEST(Scheduler, DifferentSeedsDiverge) {
  Graph g = gen::Complete(6);
  std::vector<std::vector<int>> logs1(6), logs2(6);
  for (int rep = 0; rep < 2; ++rep) {
    auto& logs = rep == 0 ? logs1 : logs2;
    Scheduler sched(g, {.model = ChannelModel::kCd}, rep == 0 ? 1 : 2);
    sched.Spawn([&](NodeApi api) -> proc::Task<void> {
      return RandomActivity(api, &logs[api.Id()]);
    });
    sched.Run();
  }
  EXPECT_NE(logs1, logs2);
}

// --- Tracing ----------------------------------------------------------------

TEST(Scheduler, TraceRecordsAwakeEvents) {
  Graph g = gen::Path(2);
  RingTrace trace;
  Scheduler sched(g, {.model = ChannelModel::kCd, .max_rounds = 1000, .trace = &trace}, 1);
  Slots slots;
  sched.Spawn([&](NodeApi api) -> proc::Task<void> {
    if (api.Id() == 0) return TransmitOnce(api);
    return ListenOnce(api, &slots);
  });
  sched.Run();
  ASSERT_EQ(trace.Events().size(), 2u);
  // Transmissions are logged before receptions within a round.
  EXPECT_EQ(trace.Events()[0].action, ActionKind::kTransmit);
  EXPECT_EQ(trace.Events()[0].node, 0u);
  EXPECT_EQ(trace.Events()[1].action, ActionKind::kListen);
  EXPECT_EQ(trace.Events()[1].reception.kind, ReceptionKind::kMessage);
}

// --- Edge cases ---------------------------------------------------------------

TEST(Scheduler, ZeroNodeGraph) {
  Graph g = gen::Empty(0);
  Scheduler sched(g, {.model = ChannelModel::kCd}, 1);
  sched.Spawn([](NodeApi api) -> proc::Task<void> { return TransmitOnce(api); });
  const RunStats stats = sched.Run();
  EXPECT_TRUE(sched.AllFinished());
  EXPECT_EQ(stats.rounds_used, 0u);
}

proc::Task<void> ImmediateReturn(NodeApi) { co_return; }

TEST(Scheduler, ProtocolThatNeverActs) {
  Graph g = gen::Empty(3);
  Scheduler sched(g, {.model = ChannelModel::kCd}, 1);
  sched.Spawn([](NodeApi api) -> proc::Task<void> { return ImmediateReturn(api); });
  const RunStats stats = sched.Run();
  EXPECT_TRUE(sched.AllFinished());
  EXPECT_EQ(stats.rounds_used, 0u);
  EXPECT_EQ(stats.node_rounds, 0u);
}

TEST(Scheduler, BeepingModelEndToEnd) {
  Graph g = gen::Star(4);
  Scheduler sched(g, {.model = ChannelModel::kBeeping}, 1);
  Slots slots;
  sched.Spawn([&](NodeApi api) -> proc::Task<void> {
    if (api.Id() == 0) return ListenOnce(api, &slots);
    return TransmitOnce(api);
  });
  sched.Run();
  ASSERT_EQ(slots.heard.size(), 1u);
  EXPECT_EQ(slots.heard[0].kind, ReceptionKind::kBeep);
}

// --- Fused transmit-then-sleep ---------------------------------------------

/// Transmits `payload` at round 0 (fused with a `sleep`-round sleep, or as
/// Transmit + SleepFor), then listens once; records the listen's round.
proc::Task<void> TransmitSleepListen(NodeApi api, bool fused, Round sleep,
                                     Slots* out) {
  if (fused) {
    co_await api.TransmitThenSleepFor(9, sleep);
  } else {
    co_await api.Transmit(9);
    co_await api.SleepFor(sleep);
  }
  out->acted_at.push_back(api.Now());
  out->heard.push_back(co_await api.Listen());
}

struct FusedRun {
  std::uint64_t trace = 0;
  std::uint64_t steps = 0;
  std::uint64_t wake_events = 0;
  RunStats stats;
  Slots slots;
};

/// Both path:n=2 nodes run TransmitSleepListen; the trace pins the round of
/// every transmit and listen.
FusedRun RunFused(bool fused, Round sleep, Round run_until = 0) {
  const Graph g = gen::Path(2);
  HashTrace trace;
  obs::MetricsRegistry metrics;
  Scheduler sched(g, {.model = ChannelModel::kNoCd, .trace = &trace, .metrics = &metrics},
                  5);
  FusedRun run;
  sched.Spawn([&](NodeApi api) -> proc::Task<void> {
    return TransmitSleepListen(api, fused, sleep, &run.slots);
  });
  if (run_until > 0) sched.RunUntil(run_until);  // pause mid-sleep
  run.stats = sched.Run();
  EXPECT_TRUE(sched.AllFinished());
  run.trace = trace.Value();
  run.steps = metrics.GetCounter("sched.steps").Value();
  run.wake_events = metrics.GetCounter("sched.wake_events").Value();
  return run;
}

TEST(Scheduler, FusedTransmitWithoutSleepIsAPlainTransmit) {
  // d = 0 files exactly Transmit(payload): same rounds, same steps.
  const FusedRun fused = RunFused(true, 0);
  const FusedRun plain = RunFused(false, 0);
  EXPECT_EQ(fused.trace, plain.trace);
  EXPECT_EQ(fused.steps, plain.steps);
  EXPECT_EQ(fused.wake_events, 0u);
  EXPECT_EQ(fused.stats.rounds_used, 2u);
}

TEST(Scheduler, FusedTransmitResumesOnceAfterItsSleep) {
  const ModeGuard pin_abort(ContractMode::kAbort);  // "missed a wake event" throws
  for (const Round sleep : {Round{1}, Round{5}, Round{Scheduler::kWheelSize},
                            Round{HotNodeContext::kSleepAfterMax}}) {
    const FusedRun fused = RunFused(true, sleep);
    const FusedRun plain = RunFused(false, sleep);
    // Same actions in the same rounds: the listen comes `sleep` rounds
    // after the round following the transmit.
    EXPECT_EQ(fused.trace, plain.trace) << sleep;
    ASSERT_EQ(fused.slots.acted_at.size(), 2u);
    EXPECT_EQ(fused.slots.acted_at[0], 1 + sleep);
    EXPECT_EQ(fused.stats.node_rounds, 4u);
    // Per node: the spawn, the resume at the wake the scheduler filed and
    // the resume after the listen — never the step after the transmit
    // that the unfused form pays.
    EXPECT_EQ(fused.steps, 6u) << sleep;
    EXPECT_EQ(plain.steps, 8u) << sleep;
    EXPECT_EQ(fused.wake_events, 2u);
  }
  // A pause inside the scheduler-filed sleep resumes on schedule.
  const FusedRun paused = RunFused(true, 9, 4);
  EXPECT_EQ(paused.trace, RunFused(false, 9).trace);
  EXPECT_EQ(paused.steps, 6u);
}

proc::Task<void> RetireThenFusedTransmit(NodeApi api) {
  api.Retire();
  co_await api.TransmitThenSleepFor(1, 3);
}

TEST(Scheduler, RetiredNodesFusedTransmitIsRejected) {
  const ModeGuard pin_abort(ContractMode::kAbort);  // the check must throw
  const Graph g = gen::Path(2);
  Scheduler sched(g, {}, 1);
  try {
    sched.Spawn([](NodeApi api) -> proc::Task<void> {
      return RetireThenFusedTransmit(api);
    });
    ADD_FAILURE() << "a retired node's fused transmit was filed";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("retired node submitted a radio action"),
              std::string::npos)
        << e.what();
  }
}

proc::Task<void> OverlongFusedSleep(NodeApi api) {
  co_await api.TransmitThenSleepFor(1, HotNodeContext::kSleepAfterMax + 1);
}

TEST(Scheduler, FusedSleepBeyondItsFieldIsRejected) {
  const ModeGuard pin_abort(ContractMode::kAbort);
  const Graph g = gen::Empty(1);
  Scheduler sched(g, {}, 1);
  EXPECT_THROW(sched.Spawn([](NodeApi api) -> proc::Task<void> {
                 return OverlongFusedSleep(api);
               }),
               PreconditionError);
}

}  // namespace
}  // namespace emis
