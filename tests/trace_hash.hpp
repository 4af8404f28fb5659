// Shared test helper: a trace sink that hashes every traced event.
#pragma once

#include <cstdint>

#include "radio/trace.hpp"

namespace emis {

/// FNV-1a over every traced action and reception — any divergence in who
/// acted, what was heard, or which payload was decoded changes the hash.
/// The golden trace hashes of test_residual_compaction, test_flat_engine and
/// test_sharded_run are values of this function.
class HashTrace final : public TraceSink {
 public:
  void OnEvent(const TraceEvent& e) override {
    Mix(e.round);
    Mix(e.node);
    Mix(static_cast<std::uint64_t>(e.action));
    Mix(e.payload);
    Mix(static_cast<std::uint64_t>(e.reception.kind));
    Mix(e.reception.payload);
  }
  std::uint64_t Value() const noexcept { return hash_; }

 private:
  void Mix(std::uint64_t x) noexcept {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (x >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

}  // namespace emis
