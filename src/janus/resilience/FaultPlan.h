//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fault injection for the speculative runtimes.
///
/// A `FaultPlan` is a declarative list of faults keyed by (task id,
/// attempt number) coordinates — the only coordinates that are stable
/// across thread interleavings, which is what makes an injected run
/// repeatable: the same plan applied twice produces the same forced
/// aborts, the same injected exceptions and the same escalation
/// decisions on both engines. The runtimes consult the plan at four
/// choke points:
///
///   - `forceAbort`    — the attempt is aborted as if the detector had
///                       found a conflict (before detection runs);
///   - `throwTask`     — the attempt raises an `InjectedFault` in place
///                       of the task body, exercising the
///                       exception-abort path;
///   - `commitDelay`   — the commit is delayed (wall-clock microseconds
///                       on the threaded engine, virtual cost units on
///                       the simulator), widening conflict windows;
///   - `satConflictBudget` — the trainer's SAT cross-check budget
///                       (TrainerConfig::SatConflictBudget) is clamped,
///                       forcing "unknown → be conservative" outcomes.
///                       The cross-check runs only when
///                       TrainerConfig::VerifyWithSat is set (off by
///                       default); otherwise the clamp changes nothing.
///
/// Plan grammar (also accepted via the `JANUS_FAULTS` environment
/// variable; clauses separated by `;`):
///
///   spec      := clause (';' clause)*
///   clause    := 'abort' coords
///              | 'throw' coords
///              | 'delay' coords '=' N     (microseconds / cost units)
///              | 'acquiredelay' tcoords '=' N  (µs between shard locks)
///              | 'shed' ccoords           (admission-time shed)
///              | 'satbudget' '=' N        (CDCL conflict budget)
///   coords    := tcoords | ccoords
///   tcoords   := '@' tid '.' attempt      (each a number or '*')
///   ccoords   := '@' client ':' sub       (each a number or '*')
///
/// Task coordinates (`tid.attempt`) are consulted by the engines; the
/// service-level coordinates (`client:sub`, 1-based submission sequence
/// per client) are consulted only by janus::serve, which translates a
/// matching submission's abort/throw/delay clauses into task-coordinate
/// clauses for the batch it lands in. `matches()` therefore skips
/// client-coordinate clauses entirely — an engine can never misread a
/// client id as a task id. `shed` is meaningful only with client
/// coordinates (it fails the admission decision, producing a structured
/// Overloaded reply); `acquiredelay` only with task coordinates (it
/// stalls a cross-shard commit between shard-lock acquisitions, the
/// torn-commit window).
///
/// Example: JANUS_FAULTS="abort@*.1;throw@2.1;delay@*.2=50;satbudget=4"
/// force-aborts every task's first attempt, makes task 2's first
/// attempt throw, delays every second attempt's commit by 50 units and
/// clamps the (opt-in) SAT cross-check to 4 conflicts. A service chaos plan
/// like "shed@*:7;throw@3:1;acquiredelay@*.1=200" sheds every client's
/// 7th submission, injects a throw into client 3's first submission and
/// opens a 200µs torn-commit window on every first attempt.
///
//===----------------------------------------------------------------------===//

#ifndef JANUS_RESILIENCE_FAULTPLAN_H
#define JANUS_RESILIENCE_FAULTPLAN_H

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace janus {
namespace resilience {

/// The exception type raised by `throw` fault clauses. Distinct from
/// client exception types so tests can tell an injected failure from a
/// genuine one; the runtimes treat both identically.
class InjectedFault : public std::runtime_error {
public:
  explicit InjectedFault(const std::string &What)
      : std::runtime_error(What) {}
};

/// A task the runtime gave up on: its body kept throwing past the
/// exception retry budget, its deadline expired, or the service is
/// shutting down. The task's slot in the commit order is filled by an
/// empty placeholder commit (so ordered successors and the dense
/// history clock advance); its effects are absent from the final state.
struct TaskFailure {
  /// Why the runtime gave up. Declared before the members so the
  /// defaulted FailKind can follow the existing aggregate-init fields.
  enum class Kind : uint8_t {
    Exception, ///< Body kept throwing past the exception budget.
    Deadline,  ///< Cooperative cancellation: deadline expired.
    Shutdown,  ///< Cooperative cancellation: service drain/shutdown.
  };
  uint32_t Tid = 0;      ///< 1-based task id.
  uint32_t Attempts = 0; ///< Attempts made, including the failing one.
  std::string Reason;    ///< what() of the last exception / cancel reason.
  Kind FailKind = Kind::Exception; ///< Appended last: three-field
                                   ///< aggregate inits keep compiling.
};

inline const char *toString(TaskFailure::Kind K) {
  switch (K) {
  case TaskFailure::Kind::Exception:
    return "exception";
  case TaskFailure::Kind::Deadline:
    return "deadline";
  case TaskFailure::Kind::Shutdown:
    return "shutdown";
  }
  return "?";
}

/// One parsed fault clause.
struct FaultAction {
  enum class Kind : uint8_t {
    ForceAbort,   ///< Abort the attempt before detection.
    ThrowTask,    ///< Raise InjectedFault in place of the task body.
    DelayCommit,  ///< Delay the commit by Arg units.
    SatBudget,    ///< Clamp the SAT cross-check conflict budget to Arg.
    Shed,         ///< Fail admission (client coords only; janus::serve).
    AcquireDelay, ///< Stall Arg µs between cross-shard lock acquires.
  };
  Kind K = Kind::ForceAbort;
  uint32_t Tid = 0;     ///< 1-based task id; 0 matches every task.
                        ///< With ClientCoords: 1-based client id.
  uint32_t Attempt = 0; ///< 1-based attempt; 0 matches every attempt.
                        ///< With ClientCoords: 1-based submission seq.
  uint64_t Arg = 0;     ///< Delay units / conflict budget.
  bool ClientCoords = false; ///< Coordinates are (client, submission):
                             ///< consulted by the service, invisible to
                             ///< the engine-level queries.
};

/// An immutable, queryable set of fault clauses. Cheap to copy into
/// runtime configurations; an empty plan answers every query negatively
/// at the cost of one vector-empty check.
class FaultPlan {
public:
  FaultPlan() = default;

  bool empty() const { return Actions.empty(); }

  /// Parses \p Spec per the header grammar. \returns nullopt on a
  /// malformed spec, with a diagnostic in \p Err when provided.
  static std::optional<FaultPlan> parse(const std::string &Spec,
                                        std::string *Err = nullptr);

  /// Loads the plan from the `JANUS_FAULTS` environment variable.
  /// Unset or empty yields an empty plan; a malformed spec is reported
  /// once on stderr and ignored (a bad fault spec must never take down
  /// a production process).
  static FaultPlan fromEnv();

  /// \returns true when the plan force-aborts this (task, attempt).
  bool forceAbort(uint32_t Tid, uint32_t Attempt) const {
    return matches(FaultAction::Kind::ForceAbort, Tid, Attempt) != nullptr;
  }

  /// \returns true when the plan injects an exception into this
  /// (task, attempt).
  bool throwTask(uint32_t Tid, uint32_t Attempt) const {
    return matches(FaultAction::Kind::ThrowTask, Tid, Attempt) != nullptr;
  }

  /// \returns the commit delay for this (task, attempt), 0 when none.
  uint64_t commitDelay(uint32_t Tid, uint32_t Attempt) const {
    const FaultAction *A =
        matches(FaultAction::Kind::DelayCommit, Tid, Attempt);
    return A ? A->Arg : 0;
  }

  /// \returns the SAT conflict-budget clamp, if the plan has one.
  std::optional<uint64_t> satConflictBudget() const;

  /// \returns the microseconds to stall between successive shard-lock
  /// acquisitions of a cross-shard commit for this (task, attempt), 0
  /// when none. Consulted by the sharded engine only; this is the
  /// window in which a torn commit would be observable if two-phase
  /// publication were broken.
  uint64_t acquireDelay(uint32_t Tid, uint32_t Attempt) const {
    const FaultAction *A =
        matches(FaultAction::Kind::AcquireDelay, Tid, Attempt);
    return A ? A->Arg : 0;
  }

  /// \returns true when the plan sheds this (client, submission) at
  /// admission time. Service-level query; engines never see it.
  bool shedSubmission(uint32_t Client, uint32_t Sub) const {
    return clientMatch(FaultAction::Kind::Shed, Client, Sub) != nullptr;
  }

  /// \returns the first client-coordinate clause of kind \p K matching
  /// (client, submission), or nullptr. Used by janus::serve to
  /// translate service-level chaos clauses into per-batch task-level
  /// plans.
  const FaultAction *clientMatch(FaultAction::Kind K, uint32_t Client,
                                 uint32_t Sub) const;

  /// Appends a clause. Lets the service assemble per-batch plans
  /// programmatically (translated from client-coordinate clauses).
  void add(const FaultAction &A) { Actions.push_back(A); }

  /// Re-renders the plan in the input grammar (diagnostics).
  std::string toString() const;

  const std::vector<FaultAction> &actions() const { return Actions; }

private:
  const FaultAction *matches(FaultAction::Kind K, uint32_t Tid,
                             uint32_t Attempt) const;

  std::vector<FaultAction> Actions;
};

} // namespace resilience
} // namespace janus

#endif // JANUS_RESILIENCE_FAULTPLAN_H
