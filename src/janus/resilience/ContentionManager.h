//===----------------------------------------------------------------------===//
///
/// \file
/// Contention management for the speculative runtimes.
///
/// The paper's protocol (Figure 7) retries an aborted transaction
/// immediately and forever. Under heavy conflict that is a retry storm:
/// workers burn cycles re-executing doomed attempts, widen each other's
/// conflict windows, and in the worst case starve a long transaction
/// indefinitely (livelock). The contention manager bounds all of this
/// with a three-rung escalation ladder, consulted on every abort:
///
///   1. *Backoff* — retry after an exponentially growing delay with
///      deterministic per-(task, attempt, lane) jitter, decorrelating
///      workers that aborted together without introducing a source of
///      nondeterminism (the simulator charges the same delays as
///      virtual time, keeping simulated runs bit-reproducible).
///   2. *Serial fallback* — after `SpeculativeRetryBudget` aborts the
///      task is starved: it escalates to an irrevocable pessimistic
///      execution under the runtime's commit lock, where it cannot
///      conflict and therefore cannot abort. Guaranteed progress, and
///      Theorem 4.1 ordering is preserved (the fallback still waits for
///      its turn in ordered mode and commits atomically).
///   3. *Failure* — a task whose *body throws* is retried up to
///      `ExceptionRetryBudget` times (the throw may be transient),
///      then surfaced as a structured `TaskFailure` instead of killing
///      the worker thread.
///
/// The abort count doubles as the task's age: every abort raises both
/// its backoff and its priority toward the serial rung, so a starved
/// task always eventually runs alone. This is the hybrid
/// optimistic-then-pessimistic scheme of the transactional-data-
/// structure literature (Proust et al.), specialized to JANUS's
/// commit-lock runtime.
///
/// A manager instance serves one run(); each task is owned by exactly
/// one worker at a time, so per-task state needs no synchronization.
///
//===----------------------------------------------------------------------===//

#ifndef JANUS_RESILIENCE_CONTENTIONMANAGER_H
#define JANUS_RESILIENCE_CONTENTIONMANAGER_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace janus {
namespace resilience {

/// Live contention-pressure signals shared between the engines, the
/// contention manager and a supervising service (janus::serve). All
/// fields are monotone counters except EscalationLevel, which the
/// watchdog raises when lanes stall and decays when progress resumes:
///
///   0 — normal operation;
///   1 — degraded: the CM halves the speculative retry budget so hot
///       tasks reach the guaranteed-progress serial rung sooner;
///   2 — forced serial: every abort escalates straight to the serial
///       fallback (optimism has demonstrably stopped paying off).
///
/// The board outlives any single run(): a long-running service points
/// every batch's ResilienceConfig at the same instance so admission
/// control sees pressure accumulate across batches.
struct PressureBoard {
  std::atomic<uint64_t> CommitTicks{0};      ///< Commits (any engine).
  std::atomic<uint64_t> SerialFallbacks{0};  ///< CM Serial decisions.
  std::atomic<uint32_t> EscalationLevel{0};  ///< 0 / 1 / 2, see above.
};

/// Tunable policy of the escalation ladder.
struct ResilienceConfig {
  /// Aborted speculative attempts a task may accumulate before it
  /// escalates to the irrevocable serial fallback. 0 disables
  /// escalation entirely (retry forever — the paper's behaviour).
  uint32_t SpeculativeRetryBudget = 16;
  /// Thrown attempts before the task is declared failed and surfaced
  /// as a TaskFailure. 0 fails on the first throw.
  uint32_t ExceptionRetryBudget = 2;
  /// First backoff step. Wall-clock microseconds on the threaded
  /// engine; virtual cost units on the simulator. 0 disables backoff.
  uint32_t BackoffBaseMicros = 2;
  /// Exponential backoff cap.
  uint32_t BackoffCapMicros = 512;
  /// Optional shared pressure board. When set, the CM publishes its
  /// Serial/Fail decisions there and consults EscalationLevel before
  /// deciding (level 1 halves the speculative budget, level 2 forces
  /// serial on the first abort). Appended last so existing aggregate
  /// initializers keep compiling. Not owned.
  PressureBoard *Board = nullptr;
};

/// Per-run contention-management state. See the file header.
class ContentionManager {
public:
  enum class Action : uint8_t {
    Retry,  ///< Re-run speculatively after Decision::BackoffMicros.
    Serial, ///< Escalate to the irrevocable serial fallback.
    Fail,   ///< Exception budget exhausted: surface a TaskFailure.
  };

  struct Decision {
    Action Act = Action::Retry;
    uint64_t BackoffMicros = 0; ///< Only meaningful for Retry.
  };

  /// \param NumTasks tasks in the run (ids are 1..NumTasks).
  ContentionManager(ResilienceConfig Config, size_t NumTasks);

  /// Consulted on every speculative abort of task \p Tid (conflict
  /// detected, validation failed, or fault-injected). \p Lane is a
  /// stable executor id (worker slot / simulated core) folded into the
  /// jitter. Never returns Fail.
  Decision onAbort(uint32_t Tid, unsigned Lane);

  /// Consulted when task \p Tid's body threw. Returns Retry (with
  /// backoff) while the exception budget lasts, then Fail.
  Decision onException(uint32_t Tid, unsigned Lane);

  /// Total recorded reconsultations for \p Tid (aborts + throws).
  uint32_t attempts(uint32_t Tid) const;

  const ResilienceConfig &config() const { return Config; }

private:
  struct TaskState {
    uint32_t Aborts = 0;
    uint32_t Throws = 0;
  };

  /// Exponential step for the task's \p AttemptNo-th retry, jittered
  /// deterministically by (Tid, AttemptNo, Lane).
  uint64_t backoffFor(uint32_t Tid, uint32_t AttemptNo,
                      unsigned Lane) const;

  ResilienceConfig Config;
  std::vector<TaskState> TasksState; ///< Indexed by Tid - 1.
};

} // namespace resilience
} // namespace janus

#endif // JANUS_RESILIENCE_CONTENTIONMANAGER_H
