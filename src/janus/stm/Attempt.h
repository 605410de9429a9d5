//===----------------------------------------------------------------------===//
///
/// \file
/// The attempt lifecycle both engines share (paper Figure 7): run the
/// body, detect, replay, then commit or retry.
///
/// Detection, replay and commit run in each engine's own time base;
/// this module owns the three jobs around them that do not:
///
///  - **Body runner** (`runBody`, `Lifecycle::run`): RUNSEQUENTIAL with
///    the fault plan's injected throw and exception capture. A body
///    that throws ends its attempt cleanly; the engine discards its log.
///  - **End record** (`AttemptEnd`, `Lifecycle::report`): each finished
///    attempt is one record, written once to every sink that is on —
///    the abort instant (obs spans), the flight recorder (begin, shard
///    acquisitions, terminal event) and the audit `TraceEvent` — so the
///    sinks cannot disagree. A sharded attempt's begin is its earliest
///    shard-acquisition stamp: a commit that ticked the clock before the
///    attempt started can still publish a shard after the attempt
///    acquired it, and must lie inside the attempt's detection window.
///  - **Contention ladder** (`Lifecycle::next`): after an attempt that
///    did not commit, count it, consult the `ContentionManager`, record
///    escalations and cancellations, surface `TaskFailure`s, and return
///    one step — retry after a backoff, escalate to the irrevocable
///    serial fallback, or fill the task's slot with an empty placeholder
///    commit. Each engine carries the step out in its own time base.
///
/// Attempts of a task are numbered 1, 2, ...; a serial or placeholder
/// commit is numbered one past the last attempt that ran. Such commits
/// hold every commit point, so they record no begin: their entry is the
/// state at CommitTime - 1.
///
/// With spans, recording and tracing all off, report() costs three
/// tests: no allocation and no clock read.
///
//===----------------------------------------------------------------------===//

#ifndef JANUS_STM_ATTEMPT_H
#define JANUS_STM_ATTEMPT_H

#include "janus/obs/Obs.h"
#include "janus/obs/Recorder.h"
#include "janus/resilience/Cancellation.h"
#include "janus/resilience/ContentionManager.h"
#include "janus/resilience/FaultPlan.h"
#include "janus/stm/AuditTrace.h"
#include "janus/stm/TxContext.h"

#include <algorithm>
#include <bit>
#include <exception>
#include <string>
#include <utility>
#include <vector>

namespace janus {
namespace stm {

/// Why an attempt ended without committing. The value is the flight
/// recorder's abort code (obs::RecAbort*), also kept in
/// TraceEvent::AbortReason.
enum class Abort : uint32_t {
  None = 0, ///< The attempt committed.
  Conflict = obs::RecAbortConflict,
  Injected = obs::RecAbortInjected,
  Exception = obs::RecAbortException,
  Cancelled = obs::RecAbortCancelled,
};

/// The span note (and attribution row name) of abort code \p Code.
inline const char *abortNote(uint32_t Code) {
  switch (static_cast<Abort>(Code)) {
  case Abort::Conflict:
    return "conflict";
  case Abort::Injected:
    return "injected";
  case Abort::Exception:
    return "exception";
  case Abort::Cancelled:
    return "cancelled";
  case Abort::None:
    break;
  }
  return "unknown";
}

/// The shared empty log: thrown attempts, empty commits and placeholders
/// all reference one immutable instance instead of allocating.
inline const TxLogRef &emptyTxLog() {
  static const TxLogRef Empty = std::make_shared<const TxLog>();
  return Empty;
}

/// RUNSEQUENTIAL: runs \p Task against \p Tx — or, when \p Inject is
/// set, throws an InjectedFault in its place — and ends the attempt
/// either way. \returns false when the body threw, with its what() in
/// *Msg when \p Msg is non-null.
inline bool runBody(const TaskFn &Task, TxContext &Tx, bool Inject = false,
                    std::string *Msg = nullptr) {
  bool Ok = true;
  try {
    if (Inject)
      throw resilience::InjectedFault("injected task exception");
    Task(Tx);
  } catch (const std::exception &E) {
    Ok = false;
    if (Msg)
      *Msg = E.what();
  } catch (...) {
    Ok = false;
    if (Msg)
      *Msg = "unknown exception";
  }
  Tx.endAttempt();
  return Ok;
}

/// One finished attempt, as every sink sees it.
struct AttemptEnd {
  uint32_t Tid = 0;
  uint32_t Attempt = 0;
  unsigned Lane = 0;
  Abort Reason = Abort::None;
  CommitMode Mode = CommitMode::Speculative;
  /// The begin of an attempt that acquired no shard.
  uint64_t Begin = 0;
  /// Commit time, or a conflict abort's detect-end clock.
  uint64_t Clock = 0;
  const TxLogRef *Log = nullptr;
  const Snapshot *Entry = nullptr; ///< Unsharded entry snapshot.
  /// Sharded attempts: the worker's views, indexed by shard, and the
  /// shards the attempt acquired.
  const ShardBackend::View *Views = nullptr;
  uint64_t Mask = 0;
  /// Replayed attempts: the recorded acquisition stamps.
  const std::vector<std::pair<uint32_t, uint64_t>> *Stamps = nullptr;
};

/// One run's attempt lifecycle, shared by the engine's workers: each
/// task is owned by one worker at a time, and every counter is striped.
class Lifecycle {
public:
  enum class Step : uint8_t { Retry, Serial, Placeholder };
  struct Next {
    Step Kind = Step::Retry;
    uint64_t BackoffMicros = 0; ///< Retry only, in the engine's time base.
  };

  /// \p C is the engine's configuration (ShardedConfig or SimConfig).
  template <typename ConfigT>
  Lifecycle(const ConfigT &C, size_t NumTasks, RunStats &Stats)
      : CM(C.Resilience, NumTasks), Faults(C.Faults), Cancel(C.Cancel),
        Stats(Stats), Obs(obs::janusObs(C.Obs)), Rec(obs::janusRec(C.Rec)),
        Trace(C.RecordTrace) {}

  /// The body runner with the fault plan armed at (task, \p Attempt).
  bool run(const TaskFn &Task, TxContext &Tx, uint32_t Attempt,
           std::string *Msg) {
    const bool Inject = Faults.throwTask(Tx.taskId(), Attempt);
    if (Inject)
      ++Stats.FaultsInjected;
    if (runBody(Task, Tx, Inject, Msg))
      return true;
    ++Stats.TaskExceptions;
    return false;
  }

  bool cancelled(uint32_t Tid) const {
    return Cancel && Cancel->status(Tid) != resilience::CancelReason::None;
  }

  /// How a speculative attempt ends before detection: cancellation
  /// subsumes a throw, and a throw preempts an injected abort.
  /// Abort::None sends the attempt on to detection.
  Abort classify(bool Threw, uint32_t Tid, uint32_t Attempt) {
    if (cancelled(Tid))
      return Abort::Cancelled;
    if (Threw)
      return Abort::Exception;
    if (!Faults.forceAbort(Tid, Attempt))
      return Abort::None;
    ++Stats.FaultsInjected;
    return Abort::Injected;
  }

  /// Writes \p E once to every sink that is on; trace events go to
  /// \p Out. \p Now gives the abort instant's timestamp in the engine's
  /// time base and is called only for a sampled abort.
  template <typename NowFn>
  void report(const AttemptEnd &E, std::vector<TraceEvent> &Out,
              NowFn &&Now) const {
    const auto Code = static_cast<uint32_t>(E.Reason);
    if (E.Reason != Abort::None && Obs && Obs->sampled(E.Tid))
      Obs->instant(E.Lane, "abort", E.Tid, E.Attempt, Now(), abortNote(Code));
    if (!Rec && !Trace)
      return;
    uint64_t Begin = E.Mask ? ~uint64_t{0} : E.Begin;
    for (uint64_t M = E.Mask; M; M &= M - 1)
      Begin = std::min(Begin, E.Views[std::countr_zero(M)].Stamp);
    const bool Committed = E.Reason == Abort::None;
    // Only commits and conflicts are decided at a later clock.
    const uint64_t End =
        Committed || E.Reason == Abort::Conflict ? E.Clock : Begin;
    if (Rec) {
      if (E.Mode == CommitMode::Speculative) {
        Rec->record(E.Lane, obs::RecKind::Begin, E.Tid, E.Attempt, Begin);
        for (uint64_t M = E.Mask; M; M &= M - 1) {
          const auto S = static_cast<uint32_t>(std::countr_zero(M));
          Rec->record(E.Lane, obs::RecKind::ShardAcquire, E.Tid, E.Attempt,
                      E.Views[S].Stamp, S);
        }
      }
      Rec->record(E.Lane,
                  Committed ? obs::RecKind::Commit : obs::RecKind::Abort,
                  E.Tid, E.Attempt, End, Code, static_cast<uint8_t>(E.Mode));
    }
    if (!Trace)
      return;
    TraceEvent T{E.Tid, Begin, Committed ? End : 0, Committed, *E.Log,
                 E.Entry ? *E.Entry : Snapshot{}, E.Mode, {}, Code,
                 E.Reason == Abort::Conflict ? End : 0};
    if (E.Stamps)
      T.ShardBegins = *E.Stamps;
    for (uint64_t M = E.Mask; M; M &= M - 1) {
      const auto S = static_cast<uint32_t>(std::countr_zero(M));
      const ShardBackend::View &V = E.Views[S];
      T.ShardBegins.emplace_back(S, V.Stamp);
      if ((E.Mask & (E.Mask - 1)) == 0)
        T.Entry = V.Entry;
      else
        V.Entry.forEach([&T](const Location &L, const Value &Val) {
          T.Entry.setInPlace(L, Val);
        });
    }
    Out.push_back(std::move(T));
  }

  /// The contention ladder after attempt \p Attempt of task \p Tid ended
  /// without committing (a cancellation seen before attempt k passes
  /// k - 1). \p Msg is a thrown body's what(); \p Clock stamps the
  /// escalation or cancel event. A Serial or Placeholder step commits
  /// as attempt \p Attempt + 1.
  Next next(uint32_t Tid, uint32_t Attempt, unsigned Lane, Abort Why,
            const std::string &Msg,
            std::vector<resilience::TaskFailure> &Failures, uint64_t Clock) {
    using resilience::CancelReason;
    if (Why == Abort::Cancelled) {
      CancelReason CR = Cancel ? Cancel->status(Tid) : CancelReason::None;
      if (CR == CancelReason::None)
        CR = CancelReason::Shutdown; // Unreachable guard.
      ++Stats.TaskFailures;
      ++Stats.CancelledTasks;
      Failures.push_back(resilience::TaskFailure{
          Tid, Attempt, resilience::toString(CR),
          CR == CancelReason::Shutdown
              ? resilience::TaskFailure::Kind::Shutdown
              : resilience::TaskFailure::Kind::Deadline});
      if (Rec)
        Rec->record(Lane, obs::RecKind::Cancel, Tid, Attempt, Clock,
                    static_cast<uint32_t>(CR));
      return {Step::Placeholder};
    }
    using Action = resilience::ContentionManager::Action;
    if (Why == Abort::Exception) {
      resilience::ContentionManager::Decision D = CM.onException(Tid, Lane);
      if (D.Act == Action::Retry)
        return {Step::Retry, D.BackoffMicros};
      fail(Tid, Attempt, Msg, Failures);
      return {Step::Placeholder};
    }
    ++Stats.Retries;
    resilience::ContentionManager::Decision D = CM.onAbort(Tid, Lane);
    if (D.Act == Action::Retry)
      return {Step::Retry, D.BackoffMicros};
    ++Stats.SerialFallbacks;
    if (Rec)
      Rec->record(Lane, obs::RecKind::Escalation, Tid, Attempt, Clock);
    return {Step::Serial};
  }

  /// Surfaces a task whose body threw past its budget, or whose serial
  /// fallback (attempt \p Attempt) threw; its slot becomes a placeholder.
  void fail(uint32_t Tid, uint32_t Attempt, const std::string &Msg,
            std::vector<resilience::TaskFailure> &Failures) {
    ++Stats.TaskFailures;
    Failures.push_back(resilience::TaskFailure{Tid, Attempt, Msg});
  }

private:
  resilience::ContentionManager CM;
  const resilience::FaultPlan &Faults;
  const resilience::CancellationTable *Cancel;
  RunStats &Stats;
  obs::Observer *const Obs;
  obs::Recorder *const Rec;
  const bool Trace;
};

} // namespace stm
} // namespace janus

#endif // JANUS_STM_ATTEMPT_H
