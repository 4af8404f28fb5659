// Shared test helper: pins the contract enforcement level for one scope.
#pragma once

#include "core/contracts.hpp"

namespace emis {

/// RAII guard: forces a contract mode for one test scope and restores the
/// mode that was in effect before (EMIS_CONTRACTS' level, or abort), so test
/// order cannot leak modes. Tests that EXPECT_THROW a contract pin
/// ContractMode::kAbort with it: under EMIS_CONTRACTS=audit a violated
/// check logs and continues instead of throwing.
class ModeGuard {
 public:
  explicit ModeGuard(ContractMode mode) : previous_(contracts::CurrentMode()) {
    contracts::SetMode(mode);
    contracts::ResetAuditFiringCount();
  }
  ~ModeGuard() { contracts::SetMode(previous_); }

  ModeGuard(const ModeGuard&) = delete;
  ModeGuard& operator=(const ModeGuard&) = delete;

 private:
  ContractMode previous_;
};

}  // namespace emis
