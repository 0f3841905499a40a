// Allocation auditor: process-wide counting operator new/delete hooks plus
// round-granular accounting, turning DESIGN.md §11's "the steady-state
// message path allocates nothing" from a comment into a tested invariant
// (tests/engine_alloc_test.cpp, bench/micro_engines alloc counters).
//
// The hooks replace the global throwing/nothrow/aligned operator new and
// delete families with thin std::malloc wrappers that bump relaxed atomic
// counters (alloc_audit.cpp). They are compiled out — FDLSP_ALLOC_AUDIT 0 —
// under ASan/TSan/MSan, which interpose operator new themselves;
// alloc_audit_enabled() lets tests skip instead of asserting on zeros that
// mean "hooks absent", not "no allocations".
//
// Two consumers:
//   AllocAuditRegion — scoped delta of the global counters, for bracketing
//                      any code region (benchmarks, tests).
//   AllocAudit       — per-round accounting behind the engines' optional
//                      seam (SyncEngine::set_alloc_audit brackets each
//                      round, AsyncEngine::set_alloc_audit each event).
//                      Like SimTrace/FaultPlan it is a null-check when
//                      absent; unlike them it observes only global counters,
//                      so it does NOT force the serial path — sharded
//                      rounds are audited too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

// Hooks are compiled out when a sanitizer owns operator new.
#ifndef FDLSP_ALLOC_AUDIT
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FDLSP_ALLOC_AUDIT 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define FDLSP_ALLOC_AUDIT 0
#else
#define FDLSP_ALLOC_AUDIT 1
#endif
#else
#define FDLSP_ALLOC_AUDIT 1
#endif
#endif

namespace fdlsp {

/// Snapshot of the process-wide allocation counters.
struct AllocCounts {
  std::uint64_t allocations = 0;    ///< operator new calls
  std::uint64_t deallocations = 0;  ///< operator delete calls (non-null)
  std::uint64_t bytes = 0;          ///< total bytes requested from new
};

/// True when the counting hooks are linked in (false under sanitizers).
bool alloc_audit_enabled() noexcept;

/// Current global counters; all-zero when the hooks are compiled out.
AllocCounts alloc_audit_counts() noexcept;

/// Scoped delta of the global counters from construction to each delta()
/// call. Holds no dynamic storage, so it never perturbs its own measurement.
class AllocAuditRegion {
 public:
  AllocAuditRegion() noexcept : start_(alloc_audit_counts()) {}

  /// Counter deltas since construction.
  AllocCounts delta() const noexcept;

 private:
  AllocCounts start_;
};

/// Per-round allocation accounting for the engine seams. begin_round /
/// end_round bracket one dispatch unit (a synchronous round, an async
/// event); the auditor samples the global counters at both edges and folds
/// the delta into the profile below. All state is inline — attaching an
/// auditor adds no allocations of its own.
class AllocAudit {
 public:
  static constexpr std::uint64_t kNoRound = ~std::uint64_t{0};

  AllocAudit() noexcept = default;

  void begin_round() noexcept;
  void end_round() noexcept;

  /// Optionally records each round's allocation count into `history`
  /// (nullptr detaches). Reserve it up front — a push_back that grows the
  /// vector mid-run would perturb the very profile being recorded (the
  /// sample is taken before the push, so the perturbation lands in the
  /// inter-round gap, but the reserve keeps the profile honest).
  void set_history(std::vector<std::uint64_t>* history) noexcept {
    history_ = history;
  }

  /// Rounds bracketed so far.
  std::uint64_t rounds() const noexcept { return rounds_; }
  /// operator new calls observed inside bracketed rounds.
  std::uint64_t total_allocations() const noexcept { return total_; }
  /// Rounds with at least one allocation.
  std::uint64_t allocating_rounds() const noexcept {
    return allocating_rounds_;
  }
  /// 0-based index of the last round that allocated; kNoRound when none did.
  std::uint64_t last_allocating_round() const noexcept {
    return last_allocating_;
  }
  /// Largest single-round allocation count.
  std::uint64_t peak_round_allocations() const noexcept { return peak_; }

 private:
  std::uint64_t rounds_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t allocating_rounds_ = 0;
  std::uint64_t last_allocating_ = kNoRound;
  std::uint64_t peak_ = 0;
  std::uint64_t round_start_ = 0;  // allocation counter at begin_round
  std::vector<std::uint64_t>* history_ = nullptr;  // optional per-round log
};

}  // namespace fdlsp
