#include "core/backoff.hpp"

#include <algorithm>

namespace emis {

proc::Task<void> SndEBackoffPayload(NodeApi api, std::uint32_t k, std::uint32_t delta,
                                    std::uint64_t payload) {
  const std::uint32_t window = BackoffWindow(delta);
  if (k == 0) co_return;
  // Slot x ∈ {1..window}: geometric(1/2) capped at the window, so the last
  // slot absorbs the tail (transmit prob. 2^-(window-1), paper App. C).
  std::uint32_t x = std::min(api.Rand().GeometricHalf(), window);
  co_await api.SleepFor(x - 1);
  for (std::uint32_t i = 0; i < k; ++i) {
    // Iteration i's tail (window - x) and iteration i+1's lead-in (x' - 1)
    // are one sleep, filed by the scheduler with the transmit: x' is drawn
    // here, one step early — the sender draws nothing else in between, so
    // its RNG stream is consumed in the same order.
    Round sleep = window - x;
    if (i + 1 < k) {
      x = std::min(api.Rand().GeometricHalf(), window);
      sleep += x - 1;
    }
    co_await api.TransmitThenSleepFor(payload, sleep);
  }
}

proc::Task<bool> RecEBackoff(NodeApi api, std::uint32_t k, std::uint32_t delta,
                             std::uint32_t delta_est) {
  const std::uint32_t window = BackoffWindow(delta);
  const std::uint32_t listen_window = std::min(BackoffWindow(delta_est), window);
  const Round end_round = api.Now() + BackoffRounds(k, delta);
  bool heard = false;
  for (std::uint32_t i = 0; i < k; ++i) {
    const Round iter_end = end_round - static_cast<Round>(k - 1 - i) * window;
    for (std::uint32_t j = 0; j < listen_window && !heard; ++j) {
      heard = (co_await api.Listen()).Busy();
    }
    if (heard) break;
    co_await api.SleepUntil(iter_end);
  }
  // Heard early: sleep out the rest of the backoff in one go to stay
  // synchronized (no wake at the iteration's end in between).
  co_await api.SleepUntil(end_round);
  co_return heard;
}

proc::Task<std::optional<std::uint64_t>> RecEBackoffCapture(NodeApi api,
                                                            std::uint32_t k,
                                                            std::uint32_t delta,
                                                            std::uint32_t delta_est) {
  const std::uint32_t window = BackoffWindow(delta);
  const std::uint32_t listen_window = std::min(BackoffWindow(delta_est), window);
  const Round end_round = api.Now() + BackoffRounds(k, delta);
  std::optional<std::uint64_t> captured;
  for (std::uint32_t i = 0; i < k; ++i) {
    const Round iter_end = end_round - static_cast<Round>(k - 1 - i) * window;
    for (std::uint32_t j = 0; j < listen_window && !captured; ++j) {
      const Reception r = co_await api.Listen();
      if (r.kind == ReceptionKind::kMessage) captured = r.payload;
    }
    if (captured) break;
    co_await api.SleepUntil(iter_end);
  }
  co_await api.SleepUntil(end_round);
  co_return captured;
}

proc::Task<void> SndDecay(NodeApi api, std::uint32_t k, std::uint32_t delta) {
  api.SubPhase("decay");
  const std::uint32_t window = BackoffWindow(delta);
  for (std::uint32_t i = 0; i < k; ++i) {
    // Transmit a geometric prefix: all senders start together and each keeps
    // transmitting with probability 1/2 per round — the classic Decay.
    const std::uint32_t x = std::min(api.Rand().GeometricHalf(), window);
    for (std::uint32_t j = 0; j < window; ++j) {
      if (j < x) {
        co_await api.Transmit(1);
      } else {
        // Stay awake (the traditional protocol keeps everyone up); what a
        // dropped-out sender hears carries no information for it.
        co_await api.Listen();
      }
    }
  }
}

proc::Task<bool> RecDecay(NodeApi api, std::uint32_t k, std::uint32_t delta) {
  api.SubPhase("decay");
  const Round total = BackoffRounds(k, delta);
  bool heard = false;
  for (Round j = 0; j < total; ++j) {
    const Reception r = co_await api.Listen();
    heard = heard || r.Busy();
  }
  co_return heard;
}

proc::Task<void> SndBackoff(NodeApi api, BackoffStyle style, std::uint32_t k,
                            std::uint32_t delta) {
  if (style == BackoffStyle::kEnergyEfficient) {
    co_await SndEBackoff(api, k, delta);
  } else {
    co_await SndDecay(api, k, delta);
  }
}

proc::Task<bool> RecBackoff(NodeApi api, BackoffStyle style, std::uint32_t k,
                            std::uint32_t delta, std::uint32_t delta_est) {
  if (style == BackoffStyle::kEnergyEfficient) {
    co_return co_await RecEBackoff(api, k, delta, delta_est);
  }
  co_return co_await RecDecay(api, k, delta);
}

}  // namespace emis
