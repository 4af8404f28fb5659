// Compile-time size budgets for the per-node hot-path structs.
//
// The flat engine's wall clock is dominated by how many cache lines the
// resume loop streams per node (DESIGN.md §12.2): every byte added to a
// hot struct is paid once per node per touched round, so growth must be a
// deliberate, reviewed decision — not an accident of a convenient field.
// Each budget below is static_asserted at the owning struct's definition
// site (radio/process.hpp for the context halves, core/flat_mis.cpp for
// the protothread lanes), which turns a re-bloated hot line into a compile
// error pointing here instead of a perf mystery three PRs later.
// tests/test_layout.cpp additionally pins field placement, alignment, and
// the published lane strides, so a silent reorder cannot undo the split.
#pragma once

#include <cstddef>

namespace emis {

/// HotNodeContext: the half of a node's state the scheduler streams on
/// every resume — pending action argument, narrowed round clock, packed
/// flags, fused post-transmit sleep. Two 8-byte slots; four nodes per cache
/// line, none straddling.
inline constexpr std::size_t kHotContextBytes = 16;

/// ColdNodeContext: RNG state, last reception, coroutine handle, and the
/// energy/timeline pointers — touched only when a node actually acts.
inline constexpr std::size_t kColdContextBytes = 88;

/// NodeContext: the two-pointer hot/cold view handed to protocols.
inline constexpr std::size_t kContextViewBytes = 16;

/// ResidualGraph::RowMeta: per-node row pointer/scan-length/live-degree,
/// interleaved so channel scans and the retire walk touch one random
/// line per neighbor instead of three parallel-array lines.
inline constexpr std::size_t kResidualRowBytes = 16;

// Flat protothread lanes (core/flat_mis.cpp). A lane holds everything one
// node's state machine keeps alive across yields; the scheduler prefetches
// lanes by the stride FlatProtocol::Lanes() publishes, so these budgets are
// also what the prefetcher's coverage assumptions rest on.
inline constexpr std::size_t kBackoffLaneBytes = 24;
inline constexpr std::size_t kCdLaneBytes = 20;
inline constexpr std::size_t kSimCdLaneBytes = 40;
inline constexpr std::size_t kGhaffariLaneBytes = 48;
inline constexpr std::size_t kCompetitionLaneBytes = 40;
inline constexpr std::size_t kNoCdEpochLaneBytes = 160;
inline constexpr std::size_t kNoCdLaneBytes = 168;
inline constexpr std::size_t kDeltaLaneBytes = 208;

}  // namespace emis
