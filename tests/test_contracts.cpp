// Tests for the leveled contracts layer (core/contracts.hpp): mode parsing,
// the audit/abort firing semantics, a corrupted-channel demonstration that
// the epoch-consistency invariant actually trips, and the satellite
// acceptance check that audit-mode smoke runs across the algorithm matrix
// complete with zero contract firings.
#include "core/contracts.hpp"

#include <gtest/gtest.h>

#include "contract_mode_guard.hpp"
#include "core/runner.hpp"
#include "radio/channel.hpp"
#include "radio/graph_generators.hpp"
#include "radio/rng.hpp"

namespace emis {
namespace {

TEST(ContractMode, ParseRecognizesAllLevels) {
  EXPECT_EQ(contracts::ParseMode("off"), ContractMode::kOff);
  EXPECT_EQ(contracts::ParseMode("audit"), ContractMode::kAudit);
  EXPECT_EQ(contracts::ParseMode("abort"), ContractMode::kAbort);
}

TEST(ContractMode, UnknownAndNullDefaultToAbort) {
  EXPECT_EQ(contracts::ParseMode(nullptr), ContractMode::kAbort);
  EXPECT_EQ(contracts::ParseMode(""), ContractMode::kAbort);
  EXPECT_EQ(contracts::ParseMode("loud"), ContractMode::kAbort);
}

TEST(Contracts, AbortModeThrowsTypedErrors) {
  ModeGuard guard(ContractMode::kAbort);
  // EMIS_EXPECTS models precondition violations; the rest are invariants.
  EXPECT_THROW(EMIS_EXPECTS(false, "precondition"), PreconditionError);
  EXPECT_THROW(EMIS_ENSURES(false, "postcondition"), InvariantError);
  EXPECT_THROW(EMIS_INVARIANT(false, "invariant"), InvariantError);
  EXPECT_THROW(EMIS_UNREACHABLE("unreachable"), InvariantError);
}

TEST(Contracts, AuditModeCountsWithoutThrowing) {
  ModeGuard guard(ContractMode::kAudit);
  EXPECT_NO_THROW(EMIS_EXPECTS(false, "precondition"));
  EXPECT_NO_THROW(EMIS_ENSURES(false, "postcondition"));
  EXPECT_NO_THROW(EMIS_INVARIANT(false, "invariant"));
  EXPECT_EQ(contracts::AuditFiringCount(), 3u);
  // A passing check fires nothing.
  EMIS_INVARIANT(true, "holds");
  EXPECT_EQ(contracts::AuditFiringCount(), 3u);
}

TEST(Contracts, OffModeSkipsEvaluationEntirely) {
  ModeGuard guard(ContractMode::kOff);
  int evaluations = 0;
  auto probe = [&]() { ++evaluations; return false; };
  EXPECT_NO_THROW(EMIS_INVARIANT(probe(), "never evaluated"));
  EXPECT_EQ(evaluations, 0);
  EXPECT_EQ(contracts::AuditFiringCount(), 0u);
}

TEST(Contracts, UnreachableThrowsEvenInAuditMode) {
  // Falling past an UNREACHABLE has no valid continuation, so audit mode
  // cannot log-and-continue through it.
  ModeGuard guard(ContractMode::kAudit);
  EXPECT_THROW(EMIS_UNREACHABLE("no continuation"), InvariantError);
}

// ---------------------------------------------------------------------------
// The corrupted-channel demonstration: a rewound epoch makes stamps point at
// a "future" round, which the epoch-consistency invariant in ResolveListener
// must catch (abort) or count (audit) instead of misreading stale buffers as
// live traffic.

TEST(ChannelEpochInvariant, CorruptedEpochTripsAbort) {
  ModeGuard guard(ContractMode::kAbort);
  const Graph g = gen::Star(5);
  Channel ch(g, ChannelModel::kCd);
  ch.BeginRound();
  ch.AddTransmitter(1, 42);
  ch.CorruptEpochForTesting(0);
  EXPECT_THROW(ch.ResolveListener(0), InvariantError);
}

TEST(ChannelEpochInvariant, CorruptedEpochCountsInAuditMode) {
  ModeGuard guard(ContractMode::kAudit);
  const Graph g = gen::Star(5);
  Channel ch(g, ChannelModel::kCd);
  ch.BeginRound();
  ch.AddTransmitter(1, 42);
  ch.CorruptEpochForTesting(0);
  EXPECT_NO_THROW(ch.ResolveListener(0));
  EXPECT_GE(contracts::AuditFiringCount(), 1u);
}

TEST(ChannelEpochInvariant, UncorruptedChannelFiresNothing) {
  ModeGuard guard(ContractMode::kAudit);
  const Graph g = gen::Star(5);
  Channel ch(g, ChannelModel::kCd);
  ch.BeginRound();
  ch.AddTransmitter(1, 42);
  EXPECT_EQ(ch.ResolveListener(0).payload, 42u);
  EXPECT_EQ(contracts::AuditFiringCount(), 0u);
}

// ---------------------------------------------------------------------------
// Audit-mode smoke matrix: representative configs across the algorithm
// and loss axes must complete with zero contract firings — the
// contracts describe the code, they don't flag healthy runs.

struct SmokeCase {
  MisAlgorithm algorithm;
  double link_loss;
};

class AuditSmoke : public ::testing::TestWithParam<SmokeCase> {};

TEST_P(AuditSmoke, RunsWithZeroContractFirings) {
  ModeGuard guard(ContractMode::kAudit);
  const SmokeCase& c = GetParam();
  Rng graph_rng(7);
  const Graph g = gen::ErdosRenyi(96, 0.06, graph_rng);
  MisRunConfig config;
  config.algorithm = c.algorithm;
  config.seed = 11;
  config.link_loss = c.link_loss;
  const MisRunResult result = RunMis(g, config);
  // Lossy channels may legitimately leave the MIS incomplete at smoke sizes;
  // the contract question is only whether healthy code paths fire checks.
  if (c.link_loss == 0.0) {
    EXPECT_TRUE(result.Valid());
  }
  EXPECT_EQ(contracts::AuditFiringCount(), 0u)
      << "audit-mode contracts fired during a healthy run";
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmMatrix, AuditSmoke,
    ::testing::Values(
        SmokeCase{MisAlgorithm::kCd, 0.0},
        SmokeCase{MisAlgorithm::kCdBeeping, 0.0},
        SmokeCase{MisAlgorithm::kNoCd, 0.0},
        SmokeCase{MisAlgorithm::kNoCdUnknownDelta, 0.0},
        SmokeCase{MisAlgorithm::kCd, 0.1},
        SmokeCase{MisAlgorithm::kNoCdRoundEfficient, 0.0}));

}  // namespace
}  // namespace emis
