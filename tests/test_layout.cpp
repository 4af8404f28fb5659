// Pins the hot/cold context split and the flat-lane geometry the resume
// loop's cache behavior depends on (DESIGN.md §12.2). The size budgets in
// radio/size_budget.hpp are already static_asserted at the definition
// sites; these tests additionally pin *placement* — field offsets, packing
// of the status flags into one byte, and the strides the flat factories
// publish — so a well-intentioned reorder that stays under a byte budget
// but splits a hot field pair across cache lines still fails visibly.
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "core/delta_doubling.hpp"
#include "core/flat_mis.hpp"
#include "core/params.hpp"
#include "core/status.hpp"
#include "radio/process.hpp"
#include "radio/size_budget.hpp"
#include "radio/types.hpp"

namespace emis {
namespace {

// ---------------------------------------------------------------------------
// HotNodeContext: the 16-byte half the scheduler streams on every resume.
// ---------------------------------------------------------------------------

static_assert(std::is_standard_layout_v<HotNodeContext>,
              "offsetof below requires standard layout — keep all members "
              "public and non-virtual");
static_assert(std::is_trivially_copyable_v<HotNodeContext>,
              "hot contexts are bulk-initialized in a flat vector");

TEST(HotContextLayout, SizeAlignmentAndFieldPlacement) {
  EXPECT_EQ(sizeof(HotNodeContext), kHotContextBytes);
  EXPECT_EQ(alignof(HotNodeContext), alignof(std::uint64_t));
  // The action argument fills the first word; the narrowed clock, the
  // packed flags byte and the fused post-transmit sleep share the second.
  // Moving or widening any of these changes which lines the resume loop
  // touches (16 B = four contexts per line, none straddling) — that is
  // what this pin is for.
  EXPECT_EQ(offsetof(HotNodeContext, arg), 0u);
  EXPECT_EQ(offsetof(HotNodeContext, now), 8u);
  EXPECT_EQ(offsetof(HotNodeContext, flags), 12u);
  EXPECT_EQ(offsetof(HotNodeContext, sleep_after), 14u);
}

TEST(HotContextLayout, DefaultIsParkedSleeper) {
  const HotNodeContext hot;
  EXPECT_EQ(hot.now, 0u);
  EXPECT_EQ(hot.Pending(), ActionKind::kSleep);
  EXPECT_FALSE(hot.Done());
  EXPECT_FALSE(hot.RetireRequested());
  EXPECT_FALSE(hot.Retired());
}

TEST(HotContextLayout, ActionFilingOverwritesTheArgumentSlot) {
  HotNodeContext hot;
  // The u64 argument is an overlay: transmit payload and wake round never
  // coexist because filing an action overwrites both the kind and the slot.
  hot.FileTransmit(0xabcdu);
  EXPECT_EQ(hot.Pending(), ActionKind::kTransmit);
  EXPECT_EQ(hot.Payload(), 0xabcdu);
  hot.FileSleep(17);
  EXPECT_EQ(hot.Pending(), ActionKind::kSleep);
  EXPECT_EQ(hot.WakeRound(), 17u);
  hot.FileListen();
  EXPECT_EQ(hot.Pending(), ActionKind::kListen);
  // A fused transmit carries its sleep beside the payload; a plain one, or
  // a fused one of length 0, clears it.
  hot.FileTransmitThenSleep(0x12u, 6);
  EXPECT_EQ(hot.Pending(), ActionKind::kTransmit);
  EXPECT_EQ(hot.Payload(), 0x12u);
  EXPECT_EQ(hot.sleep_after, 6u);
  hot.FileTransmit(0x12u);
  EXPECT_EQ(hot.sleep_after, 0u);
  hot.FileTransmitThenSleep(0x12u, 6);
  hot.FileTransmitThenSleep(0x12u, 0);
  EXPECT_EQ(hot.sleep_after, 0u);
}

TEST(HotContextLayout, StatusBitsPackAndSurviveRefiling) {
  HotNodeContext hot;
  hot.MarkDone();
  EXPECT_TRUE(hot.Done());
  EXPECT_EQ(hot.Pending(), ActionKind::kSleep);  // status bits ≠ action bits
  hot.RequestRetire();
  EXPECT_TRUE(hot.RetireRequested());
  EXPECT_FALSE(hot.Retired());
  // Retiring consumes the request in the same single-byte update.
  hot.MarkRetired();
  EXPECT_TRUE(hot.Retired());
  EXPECT_FALSE(hot.RetireRequested());
  // Filing actions touches only the low pending bits.
  hot.FileTransmit(1);
  EXPECT_TRUE(hot.Done());
  EXPECT_TRUE(hot.Retired());
  EXPECT_EQ(hot.Pending(), ActionKind::kTransmit);
}

// ---------------------------------------------------------------------------
// ColdNodeContext: the rarely-touched half (parallel array).
// ---------------------------------------------------------------------------

TEST(ColdContextLayout, SizeAlignmentAndFieldOrder) {
  EXPECT_LE(sizeof(ColdNodeContext), kColdContextBytes);
  EXPECT_EQ(alignof(ColdNodeContext), 8u);
  // Pin the declaration order by address (offsetof on a struct with a
  // non-trivial Rng member is only conditionally supported): RNG state
  // first (the most common cold access, protocol draws), then the listen
  // result, then the coroutine/pointer tail.
  const ColdNodeContext cold;
  const char* base = reinterpret_cast<const char*>(&cold);
  EXPECT_EQ(reinterpret_cast<const char*>(&cold.rng) - base, 0);
  EXPECT_LT(reinterpret_cast<const char*>(&cold.rng),
            reinterpret_cast<const char*>(&cold.last_reception));
  EXPECT_LT(reinterpret_cast<const char*>(&cold.last_reception),
            reinterpret_cast<const char*>(&cold.resume_point));
  EXPECT_LT(reinterpret_cast<const char*>(&cold.resume_point),
            reinterpret_cast<const char*>(&cold.energy));
  EXPECT_LT(reinterpret_cast<const char*>(&cold.energy),
            reinterpret_cast<const char*>(&cold.phase_notes));
  EXPECT_LT(reinterpret_cast<const char*>(&cold.phase_notes),
            reinterpret_cast<const char*>(&cold.id));
}

TEST(ContextView, IsTwoPointers) {
  EXPECT_EQ(sizeof(NodeContext), kContextViewBytes);
  static_assert(std::is_trivially_copyable_v<NodeContext>,
                "the view is passed by value through Step/NodeApi");
}

// ---------------------------------------------------------------------------
// Flat lane strides: what the factories publish is what the scheduler
// prefetches by, and what mem.lane_bytes reports.
// ---------------------------------------------------------------------------

TEST(LaneStrides, StayWithinBudgets) {
  std::vector<MisStatus> out(4);
  EXPECT_LE(FlatMisCdProtocol(CdParams::Practical(64), &out, 4)->Lanes().stride,
            kCdLaneBytes);
  EXPECT_LE(FlatSimulatedCdMisProtocol(SimCdParams::LowDegree(64, 7, 4, 4, 2),
                                       &out, 4)
                ->Lanes()
                .stride,
            kSimCdLaneBytes);
  EXPECT_LE(
      FlatGhaffariMisProtocol(GhaffariParams::Practical(64, 8), &out, 4)
          ->Lanes()
          .stride,
      kGhaffariLaneBytes);
  EXPECT_LE(FlatMisNoCdProtocol(NoCdParams::Practical(64, 8), &out, 4)
                ->Lanes()
                .stride,
            kNoCdLaneBytes);
  EXPECT_LE(
      FlatDeltaDoublingMisProtocol(DeltaDoublingParams::Practical(64), &out, 4)
          ->Lanes()
          .stride,
      kDeltaLaneBytes);
}

}  // namespace
}  // namespace emis
