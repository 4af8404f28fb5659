// Optional per-round execution tracing.
//
// Tracing exists for debugging and for the trace_demo example; the scheduler
// takes a TraceSink* that is null in performance runs. Events record what a
// node did in a round and, for listeners, what it heard.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "radio/model.hpp"
#include "radio/types.hpp"

namespace emis {

struct TraceEvent {
  Round round = 0;
  NodeId node = kInvalidNode;
  ActionKind action = ActionKind::kSleep;
  std::uint64_t payload = 0;             ///< transmissions: what was sent
  Reception reception;                   ///< listens: what was heard
  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Receives one event per awake node-round. Implementations must tolerate
/// events arriving in (round, arbitrary node order).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnEvent(const TraceEvent& event) = 0;
  /// Events this sink discarded (capacity-bounded sinks evict). Drivers
  /// surface it as the `obs.trace_dropped` gauge in run reports so silent
  /// trace loss is visible in artifacts.
  virtual std::uint64_t DroppedCount() const noexcept { return 0; }
};

/// Keeps the most recent `capacity` events in memory.
class RingTrace final : public TraceSink {
 public:
  explicit RingTrace(std::size_t capacity = 65536) : capacity_(capacity) {}

  void OnEvent(const TraceEvent& event) override {
    if (events_.size() == capacity_) events_.pop_front();
    events_.push_back(event);
    ++total_seen_;
  }

  const std::deque<TraceEvent>& Events() const noexcept { return events_; }
  std::uint64_t TotalSeen() const noexcept { return total_seen_; }
  /// Events evicted because the ring was full. TotalSeen() - Events().size().
  std::uint64_t DroppedCount() const noexcept override {
    return total_seen_ - events_.size();
  }
  void Clear() noexcept {
    events_.clear();
    total_seen_ = 0;
  }

 private:
  std::size_t capacity_;
  std::deque<TraceEvent> events_;
  std::uint64_t total_seen_ = 0;
};

/// One-line human-readable rendering, e.g. "r12 n3 listen -> collision".
std::string ToString(const TraceEvent& event);

}  // namespace emis
