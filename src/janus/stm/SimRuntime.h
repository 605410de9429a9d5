//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic discrete-event simulation of the JANUS protocol on N
/// virtual cores.
///
/// Substitution note (see DESIGN.md): the paper's evaluation ran on a
/// 4-core/8-thread Nehalem machine. This reproduction's build host has
/// a single hardware core, so wall-clock speedup is physically capped
/// at 1x. The simulator executes the *real* protocol — real task
/// bodies, real logs, real snapshots, the real pluggable detectors, the
/// real commutativity cache — and only time is virtual: each
/// transaction attempt costs
///
///     BeginCost + VirtualLocalWork + PerLogOp·|log|
///
/// on its core, detection costs DetectPerOp per operation examined
/// (identical for both detectors, matching §7.1's "write-set is
/// implemented as a subset of its sequence-based counterpart"), and
/// commits serialize on the global write lock for CommitPerOp·|log|.
/// Aborted attempts re-execute from the abort point, so wasted work,
/// lock contention and the resulting speedup/retry *shapes* emerge from
/// the same mechanisms as on real hardware.
///
/// The event loop is sequential and deterministic: identical inputs
/// produce identical schedules, commits, statistics and final states.
///
/// The body runner, each attempt's end record and the contention
/// ladder are the attempt lifecycle shared with the real-thread engine
/// (stm/Attempt.h); this engine carries the ladder's steps out in
/// virtual time — backoff is charged to the core, and a serial fallback
/// re-executes against the current state (the sequential event loop
/// makes that inherently pessimistic). Injected executions stay
/// bit-reproducible.
///
//===----------------------------------------------------------------------===//

#ifndef JANUS_STM_SIMRUNTIME_H
#define JANUS_STM_SIMRUNTIME_H

#include "janus/stm/Attempt.h"
#include "janus/stm/Detector.h"
#include "janus/stm/Replay.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace janus {
namespace stm {

/// Virtual-time costs, in abstract work units.
struct CostModel {
  /// Transaction setup: snapshotting + record creation.
  double BeginCost = 1.0;
  /// Per logged shared access under transactional execution
  /// (instrumentation + privatized access).
  double PerLogOp = 0.8;
  /// Per logged shared access when running the plain sequential loop
  /// (the no-STM baseline the paper's speedups are relative to).
  double SeqPerOp = 0.3;
  /// Detection cost per operation examined (own log + conflict
  /// history); identical for both detectors.
  double DetectPerOp = 0.02;
  /// Commit cost per log operation, paid while holding the global
  /// write lock (serializes commits).
  double CommitPerOp = 0.18;
};

/// Configuration of a simulated run.
struct SimConfig {
  unsigned NumCores = 8;
  bool Ordered = false;
  CostModel Costs;
  /// Record an AuditTrace of every attempt for hindsight auditing.
  bool RecordTrace = false;
  /// Contention-management policy; backoff is charged as virtual time,
  /// keeping injected runs bit-reproducible.
  resilience::ResilienceConfig Resilience = {};
  /// Deterministic fault-injection plan (empty = no faults).
  resilience::FaultPlan Faults = {};
  /// Observability sink (janus::obs); nullptr = no instrumentation.
  /// Span timestamps are *virtual time* — the trace is bit-identical
  /// across runs. Must be provisioned with at least NumCores lanes and
  /// outlive the runtime. Appended last for aggregate initializers.
  obs::Observer *Obs = nullptr;
  /// Cooperative cancellation, consulted at event boundaries. The
  /// simulator checks real (wall-clock) token state, so deadline-driven
  /// cancellation makes a simulated run wall-clock-dependent; plans
  /// that only use explicit cancel() remain reproducible. nullptr =
  /// never cancelled. Not owned; appended last.
  const resilience::CancellationTable *Cancel = nullptr;
  /// Flight recorder (janus::obs::Recorder); nullptr = no recording.
  /// Each virtual core records on its own lane (replayed steps on lane
  /// 0), so provision at least NumCores lanes. Not owned; appended last.
  obs::Recorder *Rec = nullptr;
  /// Forced schedule: when set, run() replays this recorded schedule
  /// deterministically instead of simulating scheduling decisions —
  /// each step executes against its reconstructed entry snapshot and
  /// commits in the recorded dense-clock order. Not owned.
  const ReplaySchedule *Replay = nullptr;
  /// Replay execution problems (a committed step's body throwing, an
  /// out-of-order recorded clock) are appended here instead of
  /// aborting; the divergence check reads them post-hoc. Not owned.
  std::vector<std::string> *ReplayProblems = nullptr;
};

/// Outcome of a simulated run.
struct SimOutcome {
  /// Virtual makespan of the parallel execution.
  double ParallelTime = 0.0;
  /// Virtual duration of the plain sequential loop over the same tasks.
  double SequentialTime = 0.0;
  /// Tasks whose bodies kept throwing past the exception retry budget;
  /// their commit slots were filled by empty placeholder commits.
  std::vector<resilience::TaskFailure> Failures;

  double speedup() const {
    return ParallelTime > 0.0 ? SequentialTime / ParallelTime : 0.0;
  }
};

/// Discrete-event simulator running the Figure 7 protocol on virtual
/// cores.
class SimRuntime {
public:
  SimRuntime(const ObjectRegistry &Reg, ConflictDetector &Detector,
             SimConfig Config);

  void setInitialState(Snapshot S) { Shared = std::move(S); }

  /// Simulates the parallel execution of \p Tasks and, for the speedup
  /// denominator, the plain sequential loop over the same tasks
  /// (starting from the same initial state; the sequential pass does
  /// not disturb the parallel run's final state).
  SimOutcome run(const std::vector<TaskFn> &Tasks);

  /// \returns the shared state after the last simulated parallel run.
  const Snapshot &sharedState() const { return Shared; }

  const RunStats &stats() const { return Stats; }
  RunStats &stats() { return Stats; }

  /// Task ids (1-based) in the order their transactions committed
  /// during the last run. Theorem 4.1: the parallel final state equals
  /// a sequential execution of the tasks in exactly this order.
  const std::vector<uint32_t> &commitOrder() const { return CommitOrder; }

  /// \returns the trace of the last run (empty unless RecordTrace).
  const AuditTrace &trace() const { return Trace; }

private:
  /// Executes one attempt of task \p Idx against the current global
  /// state. \returns the log and the attempt's execution cost. A body
  /// that throws (genuinely or by fault injection at coordinate
  /// (Idx+1, \p AttemptNo)) yields Threw with an empty log.
  struct Attempt {
    TxLogRef Log;
    Snapshot Entry;
    double ExecCost = 0.0;
    uint64_t BeginSeq = 0;
    bool Threw = false;
    std::string ThrowMsg;
  };
  Attempt execute(const std::vector<TaskFn> &Tasks, size_t Idx,
                  uint32_t AttemptNo);

  /// Virtual duration of the plain sequential loop (the speedup
  /// denominator), shared by the simulated and replayed paths.
  double sequentialBaseline(const std::vector<TaskFn> &Tasks);

  /// Forced deterministic re-execution of Config.Replay's schedule.
  SimOutcome runReplay(const std::vector<TaskFn> &Tasks);

  const ObjectRegistry &Reg;
  ConflictDetector &Detector;
  SimConfig Config;

  Snapshot Shared;
  /// The last run's committed logs: History[k - 1] is commit k's.
  std::vector<TxLogRef> History;
  uint64_t CommitSeq = 0;
  std::vector<uint32_t> CommitOrder;
  std::optional<Lifecycle> Life; ///< The run() in progress.
  AuditTrace Trace;
  RunStats Stats;
};

} // namespace stm
} // namespace janus

#endif // JANUS_STM_SIMRUNTIME_H
