// Flat state-machine backends for the MIS cores (radio/flat_engine.hpp).
//
// Each factory mirrors one coroutine protocol — same params struct, same
// output contract — but packs every node's suspended state into a small
// contiguous lane instead of a coroutine frame. The machines are exact
// transcriptions: identical RNG draw order, identical actions per round,
// identical Phase/SubPhase annotations and status-vector writes, so runs
// are golden-trace-hash- and report-identical to the coroutine engine
// (pinned by tests/test_flat_engine.cpp).
#pragma once

#include <memory>
#include <vector>

#include "core/delta_doubling.hpp"
#include "core/params.hpp"
#include "core/status.hpp"
#include "radio/flat_engine.hpp"
#include "radio/types.hpp"

namespace emis {

/// Flat mirror of MisCdProtocol (core/mis_cd.cpp): Algorithm 1 on CD or
/// beeping channels, including the naive-Luby (losers_keep_listening),
/// energy-cap, and repetition-coding variants.
std::unique_ptr<FlatProtocol> FlatMisCdProtocol(CdParams params,
                                                std::vector<MisStatus>* out,
                                                NodeId num_nodes);

/// Flat mirror of MisNoCdProtocol (core/mis_nocd.cpp): Algorithm 2 with
/// either LowDegreeMIS kind.
std::unique_ptr<FlatProtocol> FlatMisNoCdProtocol(NoCdParams params,
                                                  std::vector<MisStatus>* out,
                                                  NodeId num_nodes);

/// Flat mirror of SimulatedCdMisProtocol (core/simulated_cd_mis.cpp):
/// backoff-simulated Algorithm 1, both backoff styles.
std::unique_ptr<FlatProtocol> FlatSimulatedCdMisProtocol(
    SimCdParams params, std::vector<MisStatus>* out, NodeId num_nodes);

/// Flat mirror of GhaffariMisProtocol (core/ghaffari_mis.cpp).
std::unique_ptr<FlatProtocol> FlatGhaffariMisProtocol(
    GhaffariParams params, std::vector<MisStatus>* out, NodeId num_nodes);

/// Flat mirror of DeltaDoublingMisProtocol (core/delta_doubling.cpp).
std::unique_ptr<FlatProtocol> FlatDeltaDoublingMisProtocol(
    DeltaDoublingParams params, std::vector<MisStatus>* out, NodeId num_nodes);

/// Flat mirror of a root program that runs SndEBackoffPayload(k, delta,
/// payload) once (core/backoff.cpp) and finishes — the energy-efficient
/// sender alone, for tests and benches that pin its per-round cost.
std::unique_ptr<FlatProtocol> FlatSndEBackoffProtocol(std::uint32_t k,
                                                      std::uint32_t delta,
                                                      std::uint64_t payload,
                                                      NodeId num_nodes);

/// Flat mirror of one energy-efficient backoff on a star: node 0 (the hub)
/// runs RecEBackoff(k, delta, delta_est), every other node
/// SndEBackoff(k, delta), each once — for tests that pin the receiver's
/// per-round cost.
std::unique_ptr<FlatProtocol> FlatEBackoffStarProtocol(std::uint32_t k,
                                                       std::uint32_t delta,
                                                       std::uint32_t delta_est,
                                                       NodeId num_nodes);

}  // namespace emis
