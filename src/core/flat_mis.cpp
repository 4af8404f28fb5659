// Exact flat transcriptions of the coroutine MIS cores.
//
// Every machine here is a protothread: a Step function whose resume point
// is a small integer (`pc`) switched on at entry, with all state that must
// survive a yield stored in a per-node lane struct. The yield macros below
// file one action through FlatCtx and return false; re-entry jumps straight
// back to the yield site (Duff's-device case labels keyed by __LINE__).
//
// Transcription rules (what makes runs bit-identical to the coroutines):
//   * Awaiting a child Task starts the child immediately (symmetric
//     transfer, process.hpp), so a nested coroutine call is equivalent to
//     inlining its body. Sub-machines (backoffs, the competition, the
//     LowDegreeMIS runs) are therefore stepped inline at the call site,
//     with their own pc in the lane.
//   * SleepFor/SleepUntil that are already due do not suspend
//     (SleepAwait::await_ready). FLAT_SLEEP_* mirrors this: it only yields
//     when FlatCtx files a real sleep.
//   * RNG draws happen at the same program points, so each node consumes
//     its Split(v) stream identically.
//   * Loop counters live in the lane, never in locals across yields;
//     quantities recomputed from immutable params (windows, schedules) are
//     locals, recomputed on every re-entry to the same value.
#include "core/flat_mis.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/competition.hpp"
#include "core/contracts.hpp"
#include "core/mis_nocd.hpp"
#include "radio/hugepages.hpp"
#include "radio/size_budget.hpp"

namespace emis {
namespace {

// ---------------------------------------------------------------------------
// Lane width contracts
// ---------------------------------------------------------------------------
//
// The lanes below store loop counters as u16 (and the CD energy budget as
// u32): every persistent field is sized to the largest value the protocol
// can put in it, and these factory-checked bounds are what make the
// narrowing sound — a parameter that could overflow a lane counter is
// rejected at construction instead of silently truncating mid-run. All
// shipped presets (Theory/Practical, core/params.hpp) are O(log n) or
// O(log² n) in these fields, orders of magnitude below the limits.
// Quantities that never persist across a yield (backoff windows, schedules)
// are recomputed locals and need no bound. Lane *sizes* are budgeted
// separately via radio/size_budget.hpp static_asserts at each struct.
constexpr std::uint32_t kCounterMax = 0xffff;     // u16 lane counters
constexpr std::uint64_t kBudgetMax = 0xffffffff;  // u32 CD energy budget

void RequireLaneBounds(const CdParams& p) {
  EMIS_REQUIRE(p.luby_phases <= kCounterMax, "luby_phases exceeds lane counter width");
  EMIS_REQUIRE(p.rank_bits <= kCounterMax, "rank_bits exceeds lane counter width");
  EMIS_REQUIRE(p.repetitions <= kCounterMax, "repetitions exceeds lane counter width");
  EMIS_REQUIRE(p.energy_cap <= kBudgetMax, "energy_cap exceeds lane budget width");
}

void RequireLaneBounds(const SimCdParams& p) {
  EMIS_REQUIRE(p.luby_phases <= kCounterMax, "luby_phases exceeds lane counter width");
  EMIS_REQUIRE(p.rank_bits <= kCounterMax, "rank_bits exceeds lane counter width");
  EMIS_REQUIRE(p.reps <= kCounterMax, "reps exceeds lane counter width");
  EMIS_REQUIRE(p.BittyReps() <= kCounterMax, "bitty_reps exceeds lane counter width");
}

void RequireLaneBounds(const GhaffariParams& p) {
  EMIS_REQUIRE(p.iterations <= kCounterMax, "iterations exceeds lane counter width");
  EMIS_REQUIRE(p.mark_reps <= kCounterMax, "mark_reps exceeds lane counter width");
  EMIS_REQUIRE(p.announce_reps <= kCounterMax,
               "announce_reps exceeds lane counter width");
  EMIS_REQUIRE(p.est_slots <= kCounterMax, "est_slots exceeds lane counter width");
}

void RequireLaneBounds(const NoCdParams& p) {
  EMIS_REQUIRE(p.luby_phases <= kCounterMax, "luby_phases exceeds lane counter width");
  EMIS_REQUIRE(p.rank_bits <= kCounterMax, "rank_bits exceeds lane counter width");
  EMIS_REQUIRE(p.deep_reps <= kCounterMax, "deep_reps exceeds lane counter width");
  EMIS_REQUIRE(p.shallow_reps <= kCounterMax,
               "shallow_reps exceeds lane counter width");
  if (p.low_degree_kind == LowDegreeKind::kGhaffari) {
    RequireLaneBounds(p.low_degree_ghaffari);
  } else {
    RequireLaneBounds(p.low_degree);
  }
}

// Protothread yield macros. Each use must sit on its own source line (the
// line number is the case label). `pc_` is the reference bound by
// FLAT_BEGIN; Step functions return false while suspended, true when the
// (sub-)program has completed.
#define FLAT_BEGIN(pc_field) \
  std::uint16_t& pc_ = (pc_field); \
  switch (pc_) { \
    case 0:

#define FLAT_END() \
  } \
  return true

#define FLAT_TRANSMIT(c, payload) \
  do { \
    (c).Transmit(payload); \
    pc_ = __LINE__; \
    return false; \
    case __LINE__:; \
  } while (0)

#define FLAT_TRANSMIT_THEN_SLEEP(c, payload, rounds) \
  do { \
    (c).TransmitThenSleepFor((payload), (rounds)); \
    pc_ = __LINE__; \
    return false; \
    case __LINE__:; \
  } while (0)

#define FLAT_LISTEN(c) \
  do { \
    (c).Listen(); \
    pc_ = __LINE__; \
    return false; \
    case __LINE__:; \
  } while (0)

#define FLAT_SLEEP_FOR(c, rounds) \
  do { \
    if ((c).SleepFor(rounds)) { \
      pc_ = __LINE__; \
      return false; \
    } \
    [[fallthrough]]; \
    case __LINE__:; \
  } while (0)

#define FLAT_SLEEP_UNTIL(c, round) \
  do { \
    if ((c).SleepUntil(round)) { \
      pc_ = __LINE__; \
      return false; \
    } \
    [[fallthrough]]; \
    case __LINE__:; \
  } while (0)

// Runs a sub-machine to completion: yields out of the enclosing Step while
// the child is suspended. The child's lane pc must be reset to 0 *before*
// this statement (re-entries jump past anything written earlier).
#define FLAT_AWAIT(call) \
  do { \
    pc_ = __LINE__; \
    [[fallthrough]]; \
    case __LINE__: \
      if (!(call)) return false; \
  } while (0)

// ---------------------------------------------------------------------------
// Backoff primitives (flat mirrors of core/backoff.cpp / MarkExchange)
// ---------------------------------------------------------------------------

/// Shared lane for one in-flight backoff call. Callers reset with Start()
/// immediately before each logical call; `heard` is the Rec* return value.
/// Field order packs the per-yield fields (pc, i, x, heard) into the lane's
/// first word: i counts backoff iterations (≤ kCounterMax by the factory
/// contracts), x is a window slot (≤ BackoffWindow ≤ 33, so u8), and only
/// RecDecay's flat listen counter j needs u32 (k · window can reach ~2M).
struct BackoffLane {
  std::uint16_t pc = 0;
  std::uint16_t i = 0;
  std::uint8_t x = 0;
  bool heard = false;
  std::uint32_t j = 0;
  Round end_round = 0;

  void Start() noexcept { pc = 0; }
};
static_assert(sizeof(BackoffLane) <= kBackoffLaneBytes,
              "BackoffLane outgrew its size budget (radio/size_budget.hpp)");

/// A backoff iteration's slot: x ∈ {1..window}, geometric(1/2) capped at
/// the window (core/backoff.cpp).
std::uint8_t DrawSlot(const FlatCtx& c, std::uint32_t window) {
  return static_cast<std::uint8_t>(std::min(c.Rand().GeometricHalf(), window));
}

/// The sleep fused with iteration t.i's transmit: its tail, plus — unless it
/// is the last iteration — the next slot's lead-in, drawn into t.x here.
Round FusedSndESleep(BackoffLane& t, const FlatCtx& c, std::uint32_t k,
                     std::uint32_t window) {
  Round sleep = window - t.x;
  if (t.i + 1u < k) {
    t.x = DrawSlot(c, window);
    sleep += t.x - 1;
  }
  return sleep;
}

/// SndEBackoffPayload(k, delta, payload).
bool StepSndE(BackoffLane& t, const FlatCtx& c, std::uint32_t k,
              std::uint32_t delta, std::uint64_t payload) {
  const std::uint32_t window = BackoffWindow(delta);
  FLAT_BEGIN(t.pc);
  if (k == 0) return true;
  t.x = DrawSlot(c, window);
  FLAT_SLEEP_FOR(c, t.x - 1);
  for (t.i = 0; t.i < k; ++t.i) {
    FLAT_TRANSMIT_THEN_SLEEP(c, payload, FusedSndESleep(t, c, k, window));
  }
  FLAT_END();
}

/// RecEBackoff(k, delta, delta_est) -> t.heard.
bool StepRecE(BackoffLane& t, const FlatCtx& c, std::uint32_t k,
              std::uint32_t delta, std::uint32_t delta_est) {
  const std::uint32_t window = BackoffWindow(delta);
  const std::uint32_t listen_window = std::min(BackoffWindow(delta_est), window);
  FLAT_BEGIN(t.pc);
  t.end_round = c.Now() + BackoffRounds(k, delta);
  t.heard = false;
  for (t.i = 0; t.i < k; ++t.i) {
    for (t.j = 0; t.j < listen_window && !t.heard; ++t.j) {
      FLAT_LISTEN(c);
      t.heard = c.Heard().Busy();
    }
    if (t.heard) break;
    FLAT_SLEEP_UNTIL(c, t.end_round - static_cast<Round>(k - 1 - t.i) * window);
  }
  FLAT_SLEEP_UNTIL(c, t.end_round);
  FLAT_END();
}

/// SndDecay(k, delta).
bool StepSndDecay(BackoffLane& t, const FlatCtx& c, std::uint32_t k,
                  std::uint32_t delta) {
  const std::uint32_t window = BackoffWindow(delta);
  FLAT_BEGIN(t.pc);
  c.SubPhase("decay");
  for (t.i = 0; t.i < k; ++t.i) {
    t.x = DrawSlot(c, window);
    for (t.j = 0; t.j < window; ++t.j) {
      if (t.j < t.x) {
        FLAT_TRANSMIT(c, 1);
      } else {
        FLAT_LISTEN(c);
      }
    }
  }
  FLAT_END();
}

/// RecDecay(k, delta) -> t.heard.
bool StepRecDecay(BackoffLane& t, const FlatCtx& c, std::uint32_t k,
                  std::uint32_t delta) {
  const std::uint32_t total =
      static_cast<std::uint32_t>(BackoffRounds(k, delta));
  FLAT_BEGIN(t.pc);
  c.SubPhase("decay");
  t.heard = false;
  for (t.j = 0; t.j < total; ++t.j) {
    FLAT_LISTEN(c);
    t.heard = t.heard || c.Heard().Busy();
  }
  FLAT_END();
}

/// SndBackoff / RecBackoff style dispatch. The two bodies have disjoint
/// case-label sets, but a given lane only ever runs one of them per call.
bool StepSnd(BackoffLane& t, const FlatCtx& c, BackoffStyle style,
             std::uint32_t k, std::uint32_t delta) {
  return style == BackoffStyle::kEnergyEfficient ? StepSndE(t, c, k, delta, 1)
                                                 : StepSndDecay(t, c, k, delta);
}
bool StepRec(BackoffLane& t, const FlatCtx& c, BackoffStyle style,
             std::uint32_t k, std::uint32_t delta, std::uint32_t delta_est) {
  return style == BackoffStyle::kEnergyEfficient
             ? StepRecE(t, c, k, delta, delta_est)
             : StepRecDecay(t, c, k, delta);
}

/// MarkExchange(k, delta) from core/ghaffari_mis.cpp -> t.heard.
bool StepMarkExchange(BackoffLane& t, const FlatCtx& c, std::uint32_t k,
                      std::uint32_t delta) {
  const std::uint32_t window = BackoffWindow(delta);
  FLAT_BEGIN(t.pc);
  t.end_round = c.Now() + BackoffRounds(k, delta);
  t.heard = false;
  for (t.i = 0; t.i < k && !t.heard; ++t.i) {
    if (c.Rand().Bit()) {
      t.x = DrawSlot(c, window);
      FLAT_SLEEP_FOR(c, t.x - 1);
      FLAT_TRANSMIT(c, 1);
    } else {
      for (t.j = 0; t.j < window; ++t.j) {
        FLAT_LISTEN(c);
        if (c.Heard().Busy()) {
          t.heard = true;
          break;
        }
      }
    }
    FLAT_SLEEP_UNTIL(c, t.end_round - static_cast<Round>(k - 1 - t.i) * window);
  }
  FLAT_SLEEP_UNTIL(c, t.end_round);
  FLAT_END();
}

// ---------------------------------------------------------------------------
// Algorithm 1 (CD / beeping): flat mirror of core/mis_cd.cpp
// ---------------------------------------------------------------------------

// Counters are u16 (phase/j/j2 bound by luby_phases/rank_bits, r by the
// repetition factor — all ≤ kCounterMax by the factory contract); the
// epoch-wide budget is u32 (never read past energy_cap ≤ kBudgetMax: the
// Exhausted pre-check stops incrementing first, and with cap == 0 the
// field is never read at all, so u32 wraparound is unobservable).
struct CdLane {
  std::uint32_t spent = 0;  // Budget::spent, epoch-wide
  std::uint16_t pc = 0;
  std::uint16_t sub_pc = 0;  // Transmit/ListenLogical resume point
  std::uint16_t phase = 0;
  std::uint16_t j = 0;   // rank-bit index
  std::uint16_t j2 = 0;  // losers_keep_listening remainder index
  std::uint16_t r = 0;   // repetition index of the in-flight logical round
  bool heard_anything = false;
  bool lost = false;
  bool busy = false;  // ListenLogical accumulator
  bool ok = false;    // logical round completed within budget
};
static_assert(sizeof(CdLane) <= kCdLaneBytes,
              "CdLane outgrew its size budget (radio/size_budget.hpp)");

class FlatMisCd final : public FlatProtocol {
 public:
  FlatMisCd(CdParams params, std::vector<MisStatus>* out, NodeId num_nodes)
      : params_(params),
        out_(out),
        reps_(std::max(1u, params.repetitions)) {
    RequireLaneBounds(params_);
    ReserveHuge(lanes_, num_nodes);
  }

  void Step(NodeId v, NodeContext ctx) override {
    const FlatCtx c(ctx);
    if (StepNode(lanes_[v], c, &(*out_)[v])) {
      // MisCdNode: api.Retire() then the root coroutine finishes.
      ctx.MarkDone();
    }
  }

  LaneLayout Lanes() const noexcept override {
    return {lanes_.data(), sizeof(CdLane)};
  }

 private:
  bool Exhausted(const CdLane& t) const noexcept {
    return params_.energy_cap != 0 && t.spent >= params_.energy_cap;
  }

  /// TransmitLogical: `reps` physical transmits, charging the budget.
  /// Completes with t.ok = false when the budget ran out first.
  bool StepTransmitLogical(CdLane& t, const FlatCtx& c) {
    FLAT_BEGIN(t.sub_pc);
    t.ok = true;
    for (t.r = 0; t.r < reps_; ++t.r) {
      if (Exhausted(t)) {
        t.ok = false;
        return true;
      }
      ++t.spent;
      FLAT_TRANSMIT(c, 1);
    }
    FLAT_END();
  }

  /// ListenLogical: `reps` physical listens ORed into t.busy.
  bool StepListenLogical(CdLane& t, const FlatCtx& c) {
    FLAT_BEGIN(t.sub_pc);
    t.ok = true;
    t.busy = false;
    for (t.r = 0; t.r < reps_; ++t.r) {
      if (Exhausted(t)) {
        t.ok = false;
        return true;
      }
      ++t.spent;
      FLAT_LISTEN(c);
      t.busy = t.busy || c.Heard().Busy();
    }
    FLAT_END();
  }

  void CappedDecision(const CdLane& t, MisStatus* status) const noexcept {
    *status = t.heard_anything ? MisStatus::kOutMis : MisStatus::kInMis;
  }

  // MisCdNode + MisCdEpoch, inlined (the node wrapper only writes the
  // initial kUndecided and retires at the end).
  bool StepNode(CdLane& t, const FlatCtx& c, MisStatus* status) {
    FLAT_BEGIN(t.pc);
    *status = MisStatus::kUndecided;
    for (t.phase = 0; t.phase < params_.luby_phases; ++t.phase) {
      c.Phase("luby-phase", t.phase);
      t.lost = false;
      for (t.j = 0; t.j < params_.rank_bits; ++t.j) {
        if (Exhausted(t)) {
          CappedDecision(t, status);
          return true;
        }
        if (c.Rand().Bit()) {
          t.sub_pc = 0;
          FLAT_AWAIT(StepTransmitLogical(t, c));
          if (!t.ok) {
            CappedDecision(t, status);
            return true;
          }
        } else {
          t.sub_pc = 0;
          FLAT_AWAIT(StepListenLogical(t, c));
          if (!t.ok) {
            CappedDecision(t, status);
            return true;
          }
          if (t.busy) {
            t.heard_anything = true;
            t.lost = true;
            if (params_.losers_keep_listening) {
              // Naive-Luby baseline: stay awake to the competition's end.
              for (t.j2 = 0; t.j2 < params_.rank_bits - t.j - 1; ++t.j2) {
                t.sub_pc = 0;
                FLAT_AWAIT(StepListenLogical(t, c));
                if (!t.ok) {
                  CappedDecision(t, status);
                  return true;
                }
              }
            } else {
              FLAT_SLEEP_FOR(
                  c, static_cast<Round>(params_.rank_bits - t.j - 1) * reps_);
            }
            break;
          }
        }
      }
      if (Exhausted(t)) {
        CappedDecision(t, status);
        return true;
      }
      if (!t.lost) {
        // Winner: confirm inclusion so neighbors terminate out of the MIS.
        t.sub_pc = 0;
        FLAT_AWAIT(StepTransmitLogical(t, c));
        if (!t.ok) {
          CappedDecision(t, status);
          return true;
        }
        *status = MisStatus::kInMis;
        return true;
      }
      // Loser: final check — did a neighbor win this phase?
      t.sub_pc = 0;
      FLAT_AWAIT(StepListenLogical(t, c));
      if (!t.ok) {
        CappedDecision(t, status);
        return true;
      }
      if (t.busy) {
        t.heard_anything = true;
        *status = MisStatus::kOutMis;
        return true;
      }
    }
    // Phases exhausted while still undecided (probability 1/poly(n)).
    FLAT_END();
  }

  CdParams params_;
  std::vector<MisStatus>* out_;
  std::uint32_t reps_;
  std::vector<CdLane> lanes_;
};

// ---------------------------------------------------------------------------
// Simulated CD-MIS (LowDegreeMIS / Davies-profile / naive no-CD Luby):
// flat mirror of core/simulated_cd_mis.cpp
// ---------------------------------------------------------------------------

// phase/j are bound by luby_phases/rank_bits ≤ kCounterMax (factory
// contract). The sub-machine lane leads so its per-yield word and this
// lane's own counters land on the same cache line.
struct SimCdLane {
  BackoffLane bk;
  Round start = 0;
  std::uint16_t pc = 0;
  std::uint16_t phase = 0;
  std::uint16_t j = 0;
  MisStatus result = MisStatus::kUndecided;
  bool lost = false;

  void Start() noexcept { pc = 0; }
};
static_assert(sizeof(SimCdLane) <= kSimCdLaneBytes,
              "SimCdLane outgrew its size budget (radio/size_budget.hpp)");

/// SimulatedCdMisRun -> t.result.
bool StepSimCd(SimCdLane& t, const FlatCtx& c, const SimCdParams& p) {
  FLAT_BEGIN(t.pc);
  t.start = c.Now();
  for (t.phase = 0; t.phase < p.luby_phases; ++t.phase) {
    if (p.annotate_phases) c.Phase("luby-phase", t.phase);
    t.lost = false;
    for (t.j = 0; t.j < p.rank_bits && !t.lost; ++t.j) {
      if (c.Rand().Bit()) {
        t.bk.Start();
        FLAT_AWAIT(StepSnd(t.bk, c, p.style, p.BittyReps(), p.delta));
      } else {
        t.bk.Start();
        FLAT_AWAIT(StepRec(t.bk, c, p.style, p.BittyReps(), p.delta, p.delta_est));
        if (t.bk.heard) {
          t.lost = true;
          // Sleep out the remaining Bitty phases of this competition.
          FLAT_SLEEP_UNTIL(c, t.start + static_cast<Round>(t.phase) * p.PhaseRounds() +
                                  static_cast<Round>(p.rank_bits) * p.BittyRounds());
        }
      }
    }
    if (!t.lost) {
      // Winner: announce inclusion during the check backoff, then decide.
      t.bk.Start();
      FLAT_AWAIT(StepSnd(t.bk, c, p.style, p.reps, p.delta));
      t.result = MisStatus::kInMis;
      return true;
    }
    t.bk.Start();
    FLAT_AWAIT(StepRec(t.bk, c, p.style, p.reps, p.delta, p.delta_est));
    if (t.bk.heard) {
      t.result = MisStatus::kOutMis;
      return true;
    }
  }
  t.result = MisStatus::kUndecided;
  FLAT_END();
}

class FlatSimulatedCdMis final : public FlatProtocol {
 public:
  FlatSimulatedCdMis(SimCdParams params, std::vector<MisStatus>* out,
                     NodeId num_nodes)
      : params_(params), out_(out) {
    params_.annotate_phases = true;  // standalone contract (Standalone())
    RequireLaneBounds(params_);
    ReserveHuge(lanes_, num_nodes);
  }

  void Step(NodeId v, NodeContext ctx) override {
    const FlatCtx c(ctx);
    SimCdLane& t = lanes_[v];
    if (t.pc == 0) (*out_)[v] = MisStatus::kUndecided;
    if (StepSimCd(t, c, params_)) {
      (*out_)[v] = t.result;
      ctx.MarkDone();
    }
  }

  LaneLayout Lanes() const noexcept override {
    return {lanes_.data(), sizeof(SimCdLane)};
  }

 private:
  SimCdParams params_;
  std::vector<MisStatus>* out_;
  std::vector<SimCdLane> lanes_;
};

// ---------------------------------------------------------------------------
// Ghaffari-style round-efficient MIS: flat mirror of core/ghaffari_mis.cpp
// ---------------------------------------------------------------------------

// iter/slot/heard_slots are bound by iterations/est_slots ≤ kCounterMax
// (factory contract); exponent and level never exceed Levels() =
// CeilLog2(Δ) + 2 ≤ 34 for any u32 Δ, so u8 is sound unconditionally.
struct GhaffariLane {
  BackoffLane bk;
  Round start = 0;
  std::uint16_t pc = 0;
  std::uint16_t iter = 0;
  std::uint16_t slot = 0;
  std::uint16_t heard_slots = 0;
  std::uint8_t exponent = 1;
  std::uint8_t level = 0;
  MisStatus result = MisStatus::kUndecided;
  bool marked = false;
  bool heard_mark = false;
  bool crowded = false;

  void Start() noexcept { pc = 0; }
};
static_assert(sizeof(GhaffariLane) <= kGhaffariLaneBytes,
              "GhaffariLane outgrew its size budget (radio/size_budget.hpp)");

/// GhaffariMisRun -> t.result.
bool StepGhaffari(GhaffariLane& t, const FlatCtx& c, const GhaffariParams& p) {
  const Round iter_rounds = p.IterationRounds();
  const std::uint32_t levels = p.Levels();
  FLAT_BEGIN(t.pc);
  t.start = c.Now();
  t.exponent = 1;  // p_v = 2^-exponent, starting at 1/2
  for (t.iter = 0; t.iter < p.iterations; ++t.iter) {
    if (p.annotate_phases) c.Phase("ghaffari-iter", t.iter);

    // --- 1. Mark + exchange ----------------------------------------------
    t.marked = c.Rand().Bernoulli(std::ldexp(1.0, -static_cast<int>(t.exponent)));
    t.heard_mark = false;
    if (t.marked) {
      t.bk.Start();
      FLAT_AWAIT(StepMarkExchange(t.bk, c, p.mark_reps, p.delta));
      t.heard_mark = t.bk.heard;
    } else {
      FLAT_SLEEP_UNTIL(c, t.start + static_cast<Round>(t.iter) * iter_rounds +
                              p.MarkExchangeRounds());
    }

    // --- 2. Join + announce ----------------------------------------------
    if (t.marked && !t.heard_mark) {
      t.bk.Start();
      FLAT_AWAIT(StepSndE(t.bk, c, p.announce_reps, p.delta, 1));
      t.result = MisStatus::kInMis;
      return true;
    }
    t.bk.Start();
    FLAT_AWAIT(StepRecE(t.bk, c, p.announce_reps, p.delta, p.delta));
    if (t.bk.heard) {
      t.result = MisStatus::kOutMis;
      return true;
    }

    // --- 3. Effective-degree probe ---------------------------------------
    t.crowded = false;
    for (t.level = 0; t.level < levels; ++t.level) {
      t.heard_slots = 0;
      for (t.slot = 0; t.slot < p.est_slots; ++t.slot) {
        if (c.Rand().Bernoulli(
                std::ldexp(1.0, -static_cast<int>(t.exponent + t.level)))) {
          FLAT_TRANSMIT(c, 1);
        } else {
          FLAT_LISTEN(c);
          if (c.Heard().Busy()) ++t.heard_slots;
        }
      }
      if (t.level >= 1 && static_cast<double>(t.heard_slots) >=
                              p.crowded_threshold * p.est_slots) {
        t.crowded = true;
      }
    }
    if (t.crowded) {
      t.exponent =
          static_cast<std::uint8_t>(std::min<std::uint32_t>(t.exponent + 1u, levels));
    } else if (t.exponent > 1) {
      --t.exponent;
    }
    FLAT_SLEEP_UNTIL(c, t.start + static_cast<Round>(t.iter + 1) * iter_rounds);
  }
  t.result = MisStatus::kUndecided;
  FLAT_END();
}

class FlatGhaffariMis final : public FlatProtocol {
 public:
  FlatGhaffariMis(GhaffariParams params, std::vector<MisStatus>* out,
                  NodeId num_nodes)
      : params_(params), out_(out) {
    params_.annotate_phases = true;  // standalone contract (Standalone())
    RequireLaneBounds(params_);
    ReserveHuge(lanes_, num_nodes);
  }

  void Step(NodeId v, NodeContext ctx) override {
    const FlatCtx c(ctx);
    GhaffariLane& t = lanes_[v];
    if (t.pc == 0) (*out_)[v] = MisStatus::kUndecided;
    if (StepGhaffari(t, c, params_)) {
      (*out_)[v] = t.result;
      ctx.MarkDone();
    }
  }

  LaneLayout Lanes() const noexcept override {
    return {lanes_.data(), sizeof(GhaffariLane)};
  }

 private:
  GhaffariParams params_;
  std::vector<MisStatus>* out_;
  std::vector<GhaffariLane> lanes_;
};

// ---------------------------------------------------------------------------
// Algorithm 3 competition + Algorithm 2 epoch: flat mirrors of
// core/competition.cpp and core/mis_nocd.cpp
// ---------------------------------------------------------------------------

// j is bound by rank_bits ≤ kCounterMax (factory contract). The receiver
// listen bound delta_est is NOT stored: it is a pure function of the
// committed flag (Δ before commit, min(Δ, κ log n) after), recomputed as a
// local on every Step re-entry — per-round-derivable state stays out of
// persistent lanes.
struct CompetitionLane {
  BackoffLane bk;
  Round end = 0;
  std::uint16_t pc = 0;
  std::uint16_t j = 0;
  CompetitionOutcome outcome = CompetitionOutcome::kWin;
  bool heard = false;
  bool committed = false;

  void Start() noexcept { pc = 0; }
};
static_assert(sizeof(CompetitionLane) <= kCompetitionLaneBytes,
              "CompetitionLane outgrew its size budget (radio/size_budget.hpp)");

/// Competition(params) -> t.outcome (probe-free path; protocols pass null).
bool StepCompetition(CompetitionLane& t, const FlatCtx& c, const NoCdParams& p) {
  // The commit flag only flips between a Bitty phase's last listen yield
  // and the next FLAT_AWAIT re-entry, and StepRecE reads its listen bound
  // only after its first listen files — so a re-entry always recomputes the
  // value the stored field used to hold before any read can observe it.
  const std::uint32_t delta_est =
      t.committed ? std::min(p.delta, p.commit_degree) : p.delta;
  FLAT_BEGIN(t.pc);
  t.end = c.Now() +
          static_cast<Round>(p.rank_bits) * BackoffRounds(p.deep_reps, p.delta);
  t.heard = false;
  t.committed = false;
  for (t.j = 0; t.j < p.rank_bits; ++t.j) {
    if (c.Rand().Bit()) {
      t.bk.Start();
      FLAT_AWAIT(StepSndE(t.bk, c, p.deep_reps, p.delta, 1));
      continue;
    }
    t.bk.Start();
    FLAT_AWAIT(StepRecE(t.bk, c, p.deep_reps, p.delta, delta_est));
    t.heard = t.heard || t.bk.heard;
    if (t.heard && !t.committed) {
      // Lost: sleep out the remaining Bitty phases.
      FLAT_SLEEP_UNTIL(c, t.end);
      t.outcome = CompetitionOutcome::kLose;
      return true;
    }
    if (!t.heard) {
      t.committed = true;
    }
  }
  // Nodes that heard nothing win, including committed ones (Alg. 3 line 14).
  t.outcome = t.heard ? CompetitionOutcome::kCommit : CompetitionOutcome::kWin;
  FLAT_END();
}

// i is bound by luby_phases ≤ kCounterMax (factory contract). Own control
// word first, then the sub-machine lanes ordered by how often a phase
// touches them (every phase runs the competition; only committed survivors
// reach the LowDegreeMIS lanes at the tail).
struct NoCdEpochLane {
  std::uint16_t pc = 0;
  std::uint16_t i = 0;  // Luby phase index
  CompetitionLane comp;
  BackoffLane bk;
  SimCdLane sim;    // LowDegreeKind::kSimulatedAlg1
  GhaffariLane gh;  // LowDegreeKind::kGhaffari

  void Start() noexcept { pc = 0; }
};
static_assert(sizeof(NoCdEpochLane) <= kNoCdEpochLaneBytes,
              "NoCdEpochLane outgrew its size budget (radio/size_budget.hpp)");

/// MisNoCdEpoch(params, start, in_mis, status). `sched` must equal
/// NoCdSchedule::Of(params) (precomputed once per machine, not per node).
bool StepNoCdEpoch(NoCdEpochLane& t, const FlatCtx& c, const NoCdParams& p,
                   const NoCdSchedule& sched, Round start, bool* in_mis,
                   MisStatus* status) {
  FLAT_BEGIN(t.pc);
  for (t.i = 0; t.i < p.luby_phases; ++t.i) {
    // Theorem 10's deterministic threshold: over budget -> decide and sleep.
    if (p.energy_cap != 0 && !*in_mis && c.EnergySpent() >= p.energy_cap) {
      *status = MisStatus::kOutMis;
      return true;
    }

    if (*in_mis) {
      // MIS nodes sleep through the competition and announce in both deep
      // checks and the shallow check (Alg. 2 lines 4, 7, 15, 26).
      FLAT_SLEEP_UNTIL(c, start + static_cast<Round>(t.i) * sched.phase +
                              sched.CompetitionEnd());
      c.SubPhase("deep-check");
      t.bk.Start();
      FLAT_AWAIT(StepSndE(t.bk, c, p.deep_reps, p.delta, 1));
      t.bk.Start();
      FLAT_AWAIT(StepSndE(t.bk, c, p.deep_reps, p.delta, 1));
      FLAT_SLEEP_UNTIL(c, start + static_cast<Round>(t.i) * sched.phase +
                              sched.LowDegreeEnd());
      c.SubPhase("shallow-check");
      t.bk.Start();
      FLAT_AWAIT(StepSndE(t.bk, c, p.shallow_reps, p.delta, 1));
      continue;
    }
    if (*status != MisStatus::kUndecided) return true;  // decided earlier

    FLAT_SLEEP_UNTIL(c, start + static_cast<Round>(t.i) * sched.phase);
    c.Phase("luby-phase", t.i);
    c.SubPhase("competition");
    t.comp.Start();
    FLAT_AWAIT(StepCompetition(t.comp, c, p));

    if (t.comp.outcome == CompetitionOutcome::kWin) {
      // Deep check A: listen for MIS neighbors before joining (lines 8-11).
      c.SubPhase("deep-check");
      t.bk.Start();
      FLAT_AWAIT(StepRecE(t.bk, c, p.deep_reps, p.delta, p.delta));
      if (t.bk.heard) {
        *status = MisStatus::kOutMis;
        return true;
      }
      *in_mis = true;
      *status = MisStatus::kInMis;
      // Deep check B: announce as a fresh MIS node (lines 14-15).
      t.bk.Start();
      FLAT_AWAIT(StepSndE(t.bk, c, p.deep_reps, p.delta, 1));
      FLAT_SLEEP_UNTIL(c, start + static_cast<Round>(t.i) * sched.phase +
                              sched.LowDegreeEnd());
      c.SubPhase("shallow-check");
      t.bk.Start();
      FLAT_AWAIT(StepSndE(t.bk, c, p.shallow_reps, p.delta, 1));
    } else if (t.comp.outcome == CompetitionOutcome::kCommit) {
      // Committed nodes sleep through deep check A (line 12)...
      FLAT_SLEEP_UNTIL(c, start + static_cast<Round>(t.i) * sched.phase +
                              sched.FirstDeepEnd());
      // ...then deep-check for MIS neighbors, old and fresh (lines 17-20).
      c.SubPhase("deep-check");
      t.bk.Start();
      FLAT_AWAIT(StepRecE(t.bk, c, p.deep_reps, p.delta, p.delta));
      if (t.bk.heard) {
        *status = MisStatus::kOutMis;
        return true;
      }
      // Survivors resolve with LowDegreeMIS inside the T_G window.
      c.SubPhase("low-degree-mis");
      if (p.low_degree_kind == LowDegreeKind::kGhaffari) {
        t.gh.Start();
        FLAT_AWAIT(StepGhaffari(t.gh, c, p.low_degree_ghaffari));
      } else {
        t.sim.Start();
        FLAT_AWAIT(StepSimCd(t.sim, c, p.low_degree));
      }
      {
        const MisStatus sub = p.low_degree_kind == LowDegreeKind::kGhaffari
                                  ? t.gh.result
                                  : t.sim.result;
        if (sub == MisStatus::kInMis) {
          *in_mis = true;
          *status = MisStatus::kInMis;
        } else if (sub == MisStatus::kOutMis) {
          *status = MisStatus::kOutMis;
          return true;  // dominated within the committed subgraph
        }
      }
      FLAT_SLEEP_UNTIL(c, start + static_cast<Round>(t.i) * sched.phase +
                              sched.LowDegreeEnd());
      // Shallow check (lines 26-30).
      c.SubPhase("shallow-check");
      if (*in_mis) {
        t.bk.Start();
        FLAT_AWAIT(StepSndE(t.bk, c, p.shallow_reps, p.delta, 1));
      } else {
        t.bk.Start();
        FLAT_AWAIT(StepRecE(t.bk, c, p.shallow_reps, p.delta, p.delta));
        if (t.bk.heard) {
          *status = MisStatus::kOutMis;
          return true;
        }
      }
    } else {  // CompetitionOutcome::kLose
      // Losers sleep until the shallow check (lines 12, 24), then listen
      // once for an MIS neighbor (lines 28-30).
      FLAT_SLEEP_UNTIL(c, start + static_cast<Round>(t.i) * sched.phase +
                              sched.LowDegreeEnd());
      c.SubPhase("shallow-check");
      t.bk.Start();
      FLAT_AWAIT(StepRecE(t.bk, c, p.shallow_reps, p.delta, p.delta));
      if (t.bk.heard) {
        *status = MisStatus::kOutMis;
        return true;
      }
    }
  }
  // Phases exhausted while undecided (probability 1/poly(n)).
  FLAT_END();
}

class FlatMisNoCd final : public FlatProtocol {
 public:
  FlatMisNoCd(NoCdParams params, std::vector<MisStatus>* out, NodeId num_nodes)
      : params_(params),
        sched_(NoCdSchedule::Of(params)),
        out_(out) {
    RequireLaneBounds(params_);
    ReserveHuge(lanes_, num_nodes);
  }

  void Step(NodeId v, NodeContext ctx) override {
    const FlatCtx c(ctx);
    Lane& t = lanes_[v];
    if (t.epoch.pc == 0 && !t.entered) {
      (*out_)[v] = MisStatus::kUndecided;
      t.in_mis = false;
      t.entered = true;
    }
    if (StepNoCdEpoch(t.epoch, c, params_, sched_, 0, &t.in_mis, &(*out_)[v])) {
      // MisNoCdNode: api.Retire() then the root coroutine finishes.
      ctx.MarkDone();
    }
  }

  LaneLayout Lanes() const noexcept override {
    return {lanes_.data(), sizeof(Lane)};
  }

 private:
  struct Lane {
    bool in_mis = false;
    bool entered = false;
    NoCdEpochLane epoch;
  };
  static_assert(sizeof(Lane) <= kNoCdLaneBytes,
                "FlatMisNoCd::Lane outgrew its size budget (radio/size_budget.hpp)");

  NoCdParams params_;
  NoCdSchedule sched_;
  std::vector<MisStatus>* out_;
  std::vector<Lane> lanes_;
};

// ---------------------------------------------------------------------------
// Unknown-Δ doubling wrapper: flat mirror of core/delta_doubling.cpp
// ---------------------------------------------------------------------------

// g is bound by the guess count and it by verify_reps, both ≤ kCounterMax
// (constructor contract). The verification-loop state (bk and the round
// markers) leads; the epoch sub-lane sits at the tail.
struct DeltaLane {
  BackoffLane bk;
  Round epoch_start = 0;
  Round verify_end = 0;
  std::uint16_t pc = 0;
  std::uint16_t g = 0;   // guess index
  std::uint16_t it = 0;  // verification iteration
  bool in_mis = false;
  NoCdEpochLane epoch;
};
static_assert(sizeof(DeltaLane) <= kDeltaLaneBytes,
              "DeltaLane outgrew its size budget (radio/size_budget.hpp)");

class FlatDeltaDoublingMis final : public FlatProtocol {
 public:
  FlatDeltaDoublingMis(DeltaDoublingParams params, std::vector<MisStatus>* out,
                       NodeId num_nodes)
      : params_(params), out_(out) {
    EMIS_REQUIRE(params_.verify_reps <= kCounterMax,
                 "verify_reps exceeds lane counter width");
    ReserveHuge(lanes_, num_nodes);
    // Per-guess configuration is identical across nodes: derive it once
    // here instead of per node (the coroutine recomputes it per node, but
    // the values are pure functions of params).
    for (const std::uint32_t guess : params_.Guesses()) {
      const NoCdParams epoch = params_.theory_constants
                                   ? NoCdParams::Theory(params_.n, guess)
                                   : NoCdParams::Practical(params_.n, guess);
      RequireLaneBounds(epoch);
      guesses_.push_back(guess);
      epochs_.push_back(epoch);
      scheds_.push_back(NoCdSchedule::Of(epoch));
      verify_rounds_.push_back(static_cast<Round>(params_.verify_reps) *
                               BackoffRounds(1, guess));
      epoch_rounds_.push_back(static_cast<Round>(epoch.luby_phases) *
                              scheds_.back().phase);
    }
    EMIS_REQUIRE(guesses_.size() <= kCounterMax,
                 "guess count exceeds lane counter width");
  }

  void Step(NodeId v, NodeContext ctx) override {
    const FlatCtx c(ctx);
    if (StepNode(lanes_[v], c, &(*out_)[v])) {
      // DeltaDoublingMisNode: api.Retire() then the root finishes.
      ctx.MarkDone();
    }
  }

  LaneLayout Lanes() const noexcept override {
    return {lanes_.data(), sizeof(DeltaLane)};
  }

 private:
  bool StepNode(DeltaLane& t, const FlatCtx& c, MisStatus* status) {
    FLAT_BEGIN(t.pc);
    *status = MisStatus::kUndecided;
    t.in_mis = false;
    t.epoch_start = 0;
    for (t.g = 0; t.g < guesses_.size(); ++t.g) {
      // Spans the verification window; the nested epoch's "luby-phase"
      // annotations take over from there.
      c.Phase("delta-epoch", guesses_[t.g]);
      t.verify_end = t.epoch_start + verify_rounds_[t.g];
      // --- 1. Verification window ---------------------------------------
      if (t.in_mis) {
        for (t.it = 0; t.it < params_.verify_reps && t.in_mis; ++t.it) {
          if (c.Rand().Bit()) {
            t.bk.Start();
            FLAT_AWAIT(StepSndE(t.bk, c, 1, guesses_[t.g], 1));
          } else {
            t.bk.Start();
            FLAT_AWAIT(StepRecE(t.bk, c, 1, guesses_[t.g], guesses_[t.g]));
            if (t.bk.heard) {
              t.in_mis = false;  // independence violation: retry from scratch
              *status = MisStatus::kUndecided;
            }
          }
        }
      }
      FLAT_SLEEP_UNTIL(c, t.verify_end);

      // --- 2. Algorithm 2 epoch with Δ = guess --------------------------
      if (!t.in_mis) *status = MisStatus::kUndecided;
      t.epoch.Start();
      FLAT_AWAIT(StepNoCdEpoch(t.epoch, c, epochs_[t.g], scheds_[t.g],
                               t.verify_end, &t.in_mis, status));
      t.epoch_start = t.verify_end + epoch_rounds_[t.g];
      FLAT_SLEEP_UNTIL(c, t.epoch_start);
    }
    FLAT_END();
  }

  DeltaDoublingParams params_;
  std::vector<MisStatus>* out_;
  std::vector<std::uint32_t> guesses_;
  std::vector<NoCdParams> epochs_;
  std::vector<NoCdSchedule> scheds_;
  std::vector<Round> verify_rounds_;
  std::vector<Round> epoch_rounds_;
  std::vector<DeltaLane> lanes_;
};

// ---------------------------------------------------------------------------
// A lone energy-efficient sender: flat mirror of a root SndEBackoffPayload
// ---------------------------------------------------------------------------

/// One energy-efficient backoff: node `receiver` (kInvalidNode: none) runs
/// RecEBackoff(k, delta, delta_est), every other node the sender.
class FlatEBackoff final : public FlatProtocol {
 public:
  FlatEBackoff(std::uint32_t k, std::uint32_t delta, std::uint64_t payload,
               NodeId receiver, std::uint32_t delta_est, NodeId num_nodes)
      : k_(k), delta_(delta), payload_(payload), receiver_(receiver),
        delta_est_(delta_est), lanes_(num_nodes) {}

  void Step(NodeId v, NodeContext ctx) override {
    const FlatCtx c(ctx);
    const bool done = v == receiver_ ? StepRecE(lanes_[v], c, k_, delta_, delta_est_)
                                     : StepSndE(lanes_[v], c, k_, delta_, payload_);
    if (done) ctx.MarkDone();
  }

  LaneLayout Lanes() const noexcept override {
    return {lanes_.data(), sizeof(BackoffLane)};
  }

 private:
  std::uint32_t k_;
  std::uint32_t delta_;
  std::uint64_t payload_;
  NodeId receiver_;
  std::uint32_t delta_est_;
  std::vector<BackoffLane> lanes_;
};

#undef FLAT_BEGIN
#undef FLAT_END
#undef FLAT_TRANSMIT
#undef FLAT_TRANSMIT_THEN_SLEEP
#undef FLAT_LISTEN
#undef FLAT_SLEEP_FOR
#undef FLAT_SLEEP_UNTIL
#undef FLAT_AWAIT

}  // namespace

std::unique_ptr<FlatProtocol> FlatMisCdProtocol(CdParams params,
                                                std::vector<MisStatus>* out,
                                                NodeId num_nodes) {
  EMIS_EXPECTS(out != nullptr, "output vector required");
  return std::make_unique<FlatMisCd>(params, out, num_nodes);
}

std::unique_ptr<FlatProtocol> FlatMisNoCdProtocol(NoCdParams params,
                                                  std::vector<MisStatus>* out,
                                                  NodeId num_nodes) {
  EMIS_EXPECTS(out != nullptr, "output vector required");
  return std::make_unique<FlatMisNoCd>(params, out, num_nodes);
}

std::unique_ptr<FlatProtocol> FlatSimulatedCdMisProtocol(
    SimCdParams params, std::vector<MisStatus>* out, NodeId num_nodes) {
  EMIS_EXPECTS(out != nullptr, "output vector required");
  return std::make_unique<FlatSimulatedCdMis>(params, out, num_nodes);
}

std::unique_ptr<FlatProtocol> FlatGhaffariMisProtocol(
    GhaffariParams params, std::vector<MisStatus>* out, NodeId num_nodes) {
  EMIS_EXPECTS(out != nullptr, "output vector required");
  return std::make_unique<FlatGhaffariMis>(params, out, num_nodes);
}

std::unique_ptr<FlatProtocol> FlatDeltaDoublingMisProtocol(
    DeltaDoublingParams params, std::vector<MisStatus>* out, NodeId num_nodes) {
  EMIS_REQUIRE(out != nullptr, "output vector required");
  return std::make_unique<FlatDeltaDoublingMis>(params, out, num_nodes);
}

std::unique_ptr<FlatProtocol> FlatSndEBackoffProtocol(std::uint32_t k,
                                                      std::uint32_t delta,
                                                      std::uint64_t payload,
                                                      NodeId num_nodes) {
  EMIS_REQUIRE(k <= kCounterMax, "k exceeds lane counter width");
  return std::make_unique<FlatEBackoff>(k, delta, payload, kInvalidNode, 0, num_nodes);
}

std::unique_ptr<FlatProtocol> FlatEBackoffStarProtocol(std::uint32_t k,
                                                       std::uint32_t delta,
                                                       std::uint32_t delta_est,
                                                       NodeId num_nodes) {
  EMIS_REQUIRE(k <= kCounterMax, "k exceeds lane counter width");
  return std::make_unique<FlatEBackoff>(k, delta, 1, 0, delta_est, num_nodes);
}

}  // namespace emis
