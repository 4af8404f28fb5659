#include "radio/trace.hpp"

#include <gtest/gtest.h>

#include "core/runner.hpp"
#include "radio/graph_generators.hpp"

namespace emis {
namespace {

TraceEvent TransmitEvent(Round r, NodeId v, std::uint64_t payload) {
  return {r, v, ActionKind::kTransmit, payload, {}};
}

TraceEvent ListenEvent(Round r, NodeId v, Reception rec) {
  return {r, v, ActionKind::kListen, 0, rec};
}

TEST(RingTrace, KeepsMostRecent) {
  RingTrace trace(3);
  for (Round r = 0; r < 5; ++r) trace.OnEvent(TransmitEvent(r, 0, 1));
  EXPECT_EQ(trace.TotalSeen(), 5u);
  ASSERT_EQ(trace.Events().size(), 3u);
  EXPECT_EQ(trace.Events().front().round, 2u);
  EXPECT_EQ(trace.Events().back().round, 4u);
}

TEST(RingTrace, ClearResets) {
  RingTrace trace(8);
  trace.OnEvent(TransmitEvent(0, 1, 1));
  trace.Clear();
  EXPECT_TRUE(trace.Events().empty());
  EXPECT_EQ(trace.TotalSeen(), 0u);
  EXPECT_EQ(trace.DroppedCount(), 0u);
}

TEST(RingTrace, CountsDroppedEvents) {
  RingTrace trace(3);
  EXPECT_EQ(trace.DroppedCount(), 0u);
  for (Round r = 0; r < 5; ++r) trace.OnEvent(TransmitEvent(r, 0, 1));
  EXPECT_EQ(trace.DroppedCount(), 2u);
  EXPECT_EQ(trace.DroppedCount(), trace.TotalSeen() - trace.Events().size());
}

TEST(TraceToString, Renders) {
  EXPECT_EQ(ToString(TransmitEvent(12, 3, 1)), "r12 n3 transmit(1)");
  EXPECT_EQ(ToString(ListenEvent(2, 0, {ReceptionKind::kSilence, 0})),
            "r2 n0 listen -> silence");
  EXPECT_EQ(ToString(ListenEvent(2, 0, {ReceptionKind::kMessage, 9})),
            "r2 n0 listen -> message(9)");
}

TEST(Trace, EndToEndThroughRunner) {
  RingTrace trace;
  Rng rng(1);
  Graph g = gen::ErdosRenyi(30, 0.1, rng);
  const auto r = RunMis(g, {.algorithm = MisAlgorithm::kCd, .seed = 4,
                            .trace = &trace});
  ASSERT_TRUE(r.Valid());
  // Every awake node-round produced exactly one event.
  EXPECT_EQ(trace.TotalSeen(), r.energy.TotalAwake());
  // Events arrive in non-decreasing round order.
  Round prev = 0;
  for (const TraceEvent& e : trace.Events()) {
    EXPECT_GE(e.round, prev);
    prev = e.round;
  }
}

}  // namespace
}  // namespace emis
