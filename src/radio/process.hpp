// Coroutine node processes: the API in which protocols are written.
//
// A protocol is a C++20 coroutine returning proc::Task<T>. It interacts with
// the radio exclusively through a NodeApi value:
//
//   proc::Task<void> MyProtocol(NodeApi api) {
//     co_await api.Transmit(1);                  // one round, awake
//     Reception r = co_await api.Listen();       // one round, awake
//     co_await api.SleepFor(10);                 // ten rounds, free
//     co_await api.SleepUntil(phase_end);        // absolute-round sync point
//     co_await api.TransmitThenSleepFor(1, 4);   // one awake round, then four
//                                                // free ones, one resume
//   }
//
// Sub-protocols compose by awaiting Tasks (`bool heard = co_await
// RecEBackoff(api, k, delta);`), which is how the paper's backoff procedures
// plug into Algorithms 2 and 3.
//
// Core Guidelines notes: coroutines here are named functions (CP.51), and
// every pointer captured in a coroutine frame (NodeContext, output slots)
// outlives the scheduler run that drives the coroutine (CP.53).
#pragma once

#include <coroutine>
#include <exception>
#include <functional>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "core/contracts.hpp"
#include "obs/phase_timeline.hpp"
#include "radio/energy.hpp"
#include "radio/frame_arena.hpp"
#include "radio/model.hpp"
#include "radio/rng.hpp"
#include "radio/size_budget.hpp"
#include "radio/types.hpp"

namespace emis {

class Scheduler;

/// Per-node mutable state is split into a hot half — everything the
/// scheduler reads or writes when deciding what a node does next — and a
/// cold half touched only when the node actually acts (RNG draws, reception
/// delivery, coroutine resumption, annotation). The Scheduler owns one
/// parallel array of each, so its per-round loops stream 16 B/node instead
/// of the former 128 B monolith; the sleeping majority's RNG/reception/
/// handle state never enters the cache (DESIGN.md §12.2, size_budget.hpp).
/// Protocols, awaitables, and the flat engine reach both halves through the
/// two-pointer NodeContext view below.
struct HotNodeContext {
  /// `flags` packs the pending ActionKind (low two bits, the enum's values)
  /// with the three status bits that used to be separate bools.
  static constexpr std::uint8_t kPendingMask = 0x03;
  /// Set when the node's root program finishes.
  static constexpr std::uint8_t kDoneBit = 0x04;
  /// One-shot request raised by NodeApi::Retire(); the scheduler consumes
  /// it after the current resume slice (see MarkRetired).
  static constexpr std::uint8_t kRetireRequestBit = 0x08;
  /// Set once the scheduler has retired the node: it must never transmit or
  /// listen again (sleeping until a sync round and finishing are fine).
  static constexpr std::uint8_t kRetiredBit = 0x10;
  /// Set while the node's step has staged PhaseNotes that filing has not
  /// committed yet, so filing skips the buffers for every other node.
  static constexpr std::uint8_t kPhaseNotesBit = 0x20;

  /// Widest clock value the narrowed `now` field can hold. The scheduler
  /// asserts each round that the global clock fits; executing 2^32 rounds
  /// is infeasible (runs here use hundreds), so the bound costs one
  /// predictable compare per round, not per resume.
  static constexpr Round kNowMax = 0xffffffffu;

  /// Argument of the pending action: the wake round while Pending() is
  /// kSleep, the transmit payload while kTransmit, dead while kListen. The
  /// two uses never coexist — filing an action overwrites the slot — which
  /// is what lets one 8-byte field replace the old wake_round/out_payload
  /// pair.
  std::uint64_t arg = 0;

  /// The round in which this node's *next* submitted action will execute.
  /// Maintained by the scheduler; protocols read it through NodeApi::Now().
  /// Stored narrow (see kNowMax): together with the packed flags byte this
  /// is what brings the hot context to 16 bytes — four per cache line,
  /// none straddling a line boundary.
  std::uint32_t now = 0;

  std::uint8_t flags = static_cast<std::uint8_t>(ActionKind::kSleep);

  /// Rounds the node sleeps after its pending transmit executes — the fused
  /// NodeApi::TransmitThenSleepFor / FlatCtx::TransmitThenSleepFor action;
  /// 0 for a plain transmit. Set only together with kTransmit: the
  /// scheduler files the sleep itself after the round instead of stepping
  /// the node (Scheduler::AdvanceNode). Fills two of the three bytes the
  /// flags byte left as padding, so the context stays 16 bytes.
  std::uint16_t sleep_after = 0;

  /// Longest fused post-transmit sleep the `sleep_after` field holds.
  static constexpr Round kSleepAfterMax = 0xffff;

  /// Action submitted by the protocol for resolution.
  ActionKind Pending() const noexcept {
    return static_cast<ActionKind>(flags & kPendingMask);
  }
  /// First round to act again; meaningful only while Pending() == kSleep.
  Round WakeRound() const noexcept { return arg; }
  /// Transmit payload; meaningful only while Pending() == kTransmit.
  std::uint64_t Payload() const noexcept { return arg; }
  bool Done() const noexcept { return (flags & kDoneBit) != 0; }
  bool RetireRequested() const noexcept {
    return (flags & kRetireRequestBit) != 0;
  }
  bool Retired() const noexcept { return (flags & kRetiredBit) != 0; }
  bool HasPhaseNotes() const noexcept { return (flags & kPhaseNotesBit) != 0; }

  void FileTransmit(std::uint64_t payload) noexcept {
    FileTransmitThenSleep(payload, 0);
  }
  /// Transmit `payload`, then sleep `rounds` (≤ kSleepAfterMax) rounds
  /// without a step in between; rounds == 0 is a plain transmit.
  void FileTransmitThenSleep(std::uint64_t payload, Round rounds) noexcept {
    SetPending(ActionKind::kTransmit);
    arg = payload;
    sleep_after = static_cast<std::uint16_t>(rounds);
  }
  void FileListen() noexcept { SetPending(ActionKind::kListen); }
  void FileSleep(Round wake) noexcept {
    SetPending(ActionKind::kSleep);
    arg = wake;
  }
  void MarkDone() noexcept { flags |= kDoneBit; }
  void RequestRetire() noexcept { flags |= kRetireRequestBit; }
  void MarkPhaseNotes() noexcept { flags |= kPhaseNotesBit; }
  void ClearPhaseNotes() noexcept {
    flags = static_cast<std::uint8_t>(flags & ~kPhaseNotesBit);
  }
  /// Retiring consumes the one-shot retire request (Scheduler::Retire).
  void MarkRetired() noexcept {
    flags = static_cast<std::uint8_t>((flags | kRetiredBit) & ~kRetireRequestBit);
  }
  void SetPending(ActionKind kind) noexcept {
    flags = static_cast<std::uint8_t>((flags & ~kPendingMask) |
                                      static_cast<std::uint8_t>(kind));
  }
};

static_assert(sizeof(HotNodeContext) <= kHotContextBytes,
              "hot context outgrew its streamed-line budget (size_budget.hpp)");
static_assert(alignof(HotNodeContext) == alignof(Round),
              "hot context alignment must not pad the parallel array");

/// One phase annotation a node made during its step: level 0 is
/// NodeApi::Phase, level 1 SubPhase. Steps stage these in their shard's
/// buffer (they may run in parallel); the scheduler replays them into the
/// timeline when it files the node, in batch order (Scheduler::FileAction),
/// at the round the step advanced the node to. `base` is viewed, not
/// copied: it must outlive the step's filing, which every protocol's
/// string-literal labels do.
struct PhaseNote {
  NodeId node = kInvalidNode;
  std::uint32_t level = 0;
  std::string_view base;
  std::uint64_t index = 0;
};
using PhaseNoteBuffer = std::vector<PhaseNote>;

/// The cold half: state a resume touches only when the node actually does
/// something beyond being rescheduled. Owned by the Scheduler in an array
/// parallel to the hot one.
struct ColdNodeContext {
  Rng rng{0};

  /// Result of the last kListen action; set by the scheduler before resume.
  Reception last_reception;

  /// Innermost suspended coroutine to resume when the action resolves
  /// (coroutine engine only; flat lanes keep their resume point in the
  /// lane's pc field instead).
  std::coroutine_handle<> resume_point;

  /// This node's energy counters (owned by the scheduler's meter). Protocols
  /// read them to implement the paper's deterministic energy thresholds.
  const NodeEnergy* energy = nullptr;

  /// The phase-annotation buffer of this node's shard (owned by the
  /// scheduler); null when no timeline is attached, which makes
  /// NodeApi::Phase / SubPhase no-ops.
  PhaseNoteBuffer* phase_notes = nullptr;

  NodeId id = kInvalidNode;
};

static_assert(sizeof(ColdNodeContext) <= kColdContextBytes,
              "cold context outgrew its budget (size_budget.hpp)");

/// The two-pointer view over one node's hot and cold halves. Cheap value
/// type: awaitables, NodeApi, and FlatCtx hold it by value (coroutine
/// frames store the 16-byte view, not the state); the Scheduler
/// materializes it on demand from its parallel arrays. Copies refer to the
/// same node.
struct NodeContext {
  HotNodeContext* hot = nullptr;
  ColdNodeContext* cold = nullptr;

  /// Marks the root program finished — the flat engine's terminal step.
  void MarkDone() const noexcept { hot->MarkDone(); }

  /// Stages a phase annotation at the node's current round (NodeApi and
  /// FlatCtx Phase / SubPhase); a no-op without a timeline.
  void NotePhase(std::uint32_t level, std::string_view base,
                 std::uint64_t index) const {
    if (cold->phase_notes != nullptr) {
      cold->phase_notes->push_back({cold->id, level, base, index});
      hot->MarkPhaseNotes();
    }
  }
};

static_assert(sizeof(NodeContext) <= kContextViewBytes,
              "context view outgrew two pointers (size_budget.hpp)");

namespace proc {

/// Lazily-started coroutine task with symmetric-transfer continuation.
/// `Task<T>` is move-only and owns its coroutine frame.
template <typename T>
class [[nodiscard]] Task;

namespace detail {

struct PromiseBase {
  /// Coroutine frames allocate through the pooled frame arena the driving
  /// scheduler installs via FrameArenaScope (heap fallback outside one), so
  /// per-node protocol state is slab-contiguous instead of heap-scattered.
  /// The frame is tagged with its origin, so deallocation routes correctly
  /// even when a different (or no) scope is active at destruction.
  static void* operator new(std::size_t size) { return frame_alloc::Allocate(size); }
  static void operator delete(void* p) noexcept { frame_alloc::Deallocate(p); }

  std::coroutine_handle<> continuation;  // resumed when this task finishes
  std::exception_ptr exception;

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

template <typename T>
struct Promise : PromiseBase {
  std::optional<T> value;
  Task<T> get_return_object();
  void return_value(T v) { value.emplace(std::move(v)); }
};

template <>
struct Promise<void> : PromiseBase {
  Task<void> get_return_object();
  void return_void() noexcept {}
};

}  // namespace detail

template <typename T>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::Promise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) noexcept : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Destroy(); }

  bool Valid() const noexcept { return handle_ != nullptr; }
  bool Done() const noexcept { return !handle_ || handle_.done(); }

  /// Raw handle; used by the scheduler to start the root task.
  Handle RawHandle() const noexcept { return handle_; }

  /// Rethrows the stored exception, if any. Called by the scheduler after a
  /// root task completes.
  void RethrowIfFailed() const {
    if (handle_ && handle_.promise().exception) {
      std::rethrow_exception(handle_.promise().exception);
    }
  }

  /// Awaiting a Task starts it (symmetric transfer) and resumes the awaiter
  /// when it finishes, yielding its return value.
  auto operator co_await() && noexcept {
    struct Awaiter {
      Handle child;
      bool await_ready() const noexcept { return !child || child.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
        child.promise().continuation = parent;
        return child;  // start the child immediately
      }
      T await_resume() {
        if (child.promise().exception) std::rethrow_exception(child.promise().exception);
        if constexpr (!std::is_void_v<T>) {
          return std::move(*child.promise().value);
        }
      }
    };
    return Awaiter{handle_};
  }

 private:
  void Destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
  Handle handle_ = nullptr;
};

namespace detail {
template <typename T>
Task<T> Promise<T>::get_return_object() {
  return Task<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}
inline Task<void> Promise<void>::get_return_object() {
  return Task<void>(std::coroutine_handle<Promise<void>>::from_promise(*this));
}
}  // namespace detail

}  // namespace proc

namespace detail_await {

/// Common awaitable behaviour: record the suspended coroutine so the
/// scheduler can resume the whole stack at the right round.
struct ActionAwaitBase {
  NodeContext ctx;
  void Park(std::coroutine_handle<> h) const noexcept {
    ctx.cold->resume_point = h;
  }
};

struct TransmitAwait : ActionAwaitBase {
  std::uint64_t payload;
  /// The fused post-transmit sleep (NodeApi::TransmitThenSleepFor); 0 for
  /// a plain transmit.
  Round sleep_after = 0;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const noexcept {
    ctx.hot->FileTransmitThenSleep(payload, sleep_after);
    Park(h);
  }
  void await_resume() const noexcept {}
};

struct ListenAwait : ActionAwaitBase {
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const noexcept {
    ctx.hot->FileListen();
    Park(h);
  }
  Reception await_resume() const noexcept { return ctx.cold->last_reception; }
};

struct SleepAwait : ActionAwaitBase {
  Round wake;
  /// Sleeping zero rounds is a no-op that does not suspend.
  bool await_ready() const noexcept { return wake <= ctx.hot->now; }
  void await_suspend(std::coroutine_handle<> h) const noexcept {
    ctx.hot->FileSleep(wake);
    Park(h);
  }
  void await_resume() const noexcept {}
};

}  // namespace detail_await

/// The per-node handle protocols use to act on the radio. Cheap value type;
/// copies refer to the same node.
class NodeApi {
 public:
  NodeApi() = default;
  explicit NodeApi(NodeContext ctx) noexcept : ctx_(ctx) {}

  NodeId Id() const noexcept { return ctx_.cold->id; }

  /// The round in which the next awaited action will execute. Protocols use
  /// this with SleepUntil for the paper's absolute-round synchronization.
  Round Now() const noexcept { return ctx_.hot->now; }

  /// This node's private random stream.
  Rng& Rand() const noexcept { return ctx_.cold->rng; }

  /// Awake rounds this node has paid so far (reads the scheduler's meter).
  std::uint64_t EnergySpent() const noexcept {
    return ctx_.cold->energy != nullptr ? ctx_.cold->energy->Awake() : 0;
  }

  /// Annotates a protocol phase boundary (e.g. Phase("luby-phase", k)) at
  /// this node's current round. All participants of a synchronized phase may
  /// call it; repeats of the open label are merged by the timeline. The
  /// annotation reaches the timeline when the scheduler files this step
  /// (PhaseNote). No-op when no timeline is installed.
  void Phase(std::string_view base,
             std::uint64_t index = obs::PhaseTimeline::kNoIndex) const {
    ctx_.NotePhase(0, base, index);
  }

  /// Annotates a sub-phase (a window inside the current phase, e.g. a
  /// "decay" backoff) without closing the enclosing phase span.
  void SubPhase(std::string_view base,
                std::uint64_t index = obs::PhaseTimeline::kNoIndex) const {
    ctx_.NotePhase(1, base, index);
  }

  /// Spend one awake round transmitting `payload`. The paper's algorithms
  /// are unary and always send 1; baselines send IDs.
  detail_await::TransmitAwait Transmit(std::uint64_t payload = 1) const noexcept {
    return {{ctx_}, payload};
  }

  /// Transmit(payload), then SleepFor(rounds), as one action: the
  /// coroutine resumes once, at round Now() + 1 + rounds. The scheduler
  /// files the sleep itself after the transmit round, so the step that
  /// would only have filed it never runs. Traces, energy and phases are
  /// those of the two-await form (sleeps are not events); `rounds` == 0 is
  /// exactly Transmit(payload). Requires rounds ≤
  /// HotNodeContext::kSleepAfterMax.
  detail_await::TransmitAwait TransmitThenSleepFor(std::uint64_t payload,
                                                   Round rounds) const {
    EMIS_EXPECTS(rounds <= HotNodeContext::kSleepAfterMax,
                 "fused post-transmit sleep exceeds kSleepAfterMax");
    return {{ctx_}, payload, rounds};
  }

  /// Spend one awake round listening; yields what was heard.
  detail_await::ListenAwait Listen() const noexcept { return {{ctx_}}; }

  /// Sleep for `rounds` rounds (free). SleepFor(0) is a no-op.
  detail_await::SleepAwait SleepFor(Round rounds) const noexcept {
    return {{ctx_}, ctx_.hot->now + rounds};
  }

  /// Sleep until the absolute round `round` (free). No-op if already due.
  detail_await::SleepAwait SleepUntil(Round round) const noexcept {
    return {{ctx_}, round};
  }

  /// Reports a terminal decision (joined the MIS, killed by a neighbor, or
  /// otherwise terminated): this node will never transmit or listen again —
  /// it may still sleep and then finish. After the current resume slice the
  /// scheduler drops the node from its residual graph, shrinking every
  /// neighbor's live scan row (see Scheduler::Retire). Idempotent, and
  /// implied anyway by the protocol coroutine finishing; root MIS protocols
  /// call it explicitly so retirement does not depend on wrapper structure.
  void Retire() const noexcept { ctx_.hot->RequestRetire(); }

 private:
  NodeContext ctx_;
};

/// Signature of a protocol entry point: given its NodeApi, produce the root
/// task for one node. Captured state must outlive the scheduler run.
using ProtocolFactory = std::function<proc::Task<void>(NodeApi)>;

}  // namespace emis
