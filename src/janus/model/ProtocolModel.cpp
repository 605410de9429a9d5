#include "janus/model/ProtocolModel.h"

#include "janus/symbolic/LocOp.h"

using namespace janus;
using namespace janus::model;
using namespace janus::stm;

TxLog model::evaluateScript(const Script &S, const Snapshot &Entry) {
  TxLog Log;
  Log.reserve(S.size());
  Snapshot Private = Entry;
  int64_t LastRead = 0;
  for (const ScriptOp &Op : S) {
    LogEntry Out = Op.Entry;
    if (Op.Computed)
      Out.Op = symbolic::LocOp::write(Value::of(Op.Mul * LastRead + Op.Off));
    if (Out.Op.Kind == symbolic::LocOpKind::Read) {
      Out.Op.ReadResult = snapshotValue(Private, Out.Loc);
      if (Out.Op.ReadResult.isInt())
        LastRead = Out.Op.ReadResult.asInt();
    }
    applyOp(Private, Out.Loc, Out.Op);
    Log.push_back(std::move(Out));
  }
  return Log;
}

namespace {

/// Status of one scripted transaction during exploration.
struct TaskState {
  enum class Phase : uint8_t { Pending, Running, Committed };
  Phase Ph = Phase::Pending;
  Snapshot Entry;       ///< Valid when Running.
  size_t BeginSeq = 0;  ///< History length at begin.
  unsigned Aborts = 0;
};

/// One exploration node (copied down the DFS — the structures are
/// persistent or small).
struct World {
  Snapshot Store;
  std::vector<TxLogRef> History;      ///< Committed logs, in order.
  std::vector<uint32_t> CommitOrder;  ///< 1-based task ids.
  std::vector<TaskState> Tasks;
};

class Explorer {
public:
  Explorer(const std::vector<Script> &Scripts, ConflictDetector &Detector,
           const ObjectRegistry &Reg, const Snapshot &Initial,
           ModelConfig Config)
      : Scripts(Scripts), Detector(Detector), Reg(Reg), Config(Config) {
    Root.Store = Initial;
    Root.Tasks.resize(Scripts.size());
    InitialStore = Initial;
  }

  ModelResult run() {
    explore(Root);
    return Result;
  }

private:
  void violation(ModelResult &R, bool ModelResult::*Flag,
                 const std::string &Text) {
    R.*Flag = false;
    if (R.FirstViolation.empty())
      R.FirstViolation = Text;
  }

  /// Checks a completed schedule: final state == commit-order replay.
  void checkComplete(const World &W) {
    ++Result.SchedulesExplored;
    Snapshot Replayed = InitialStore;
    for (uint32_t Tid : W.CommitOrder) {
      applyLog(Replayed, evaluateScript(Scripts[Tid - 1], Replayed));
    }
    if (!(Replayed == W.Store))
      violation(Result, &ModelResult::SerializabilityHeld,
                "final state differs from commit-order replay");
    if (Config.Ordered) {
      for (size_t I = 0; I != W.CommitOrder.size(); ++I)
        if (W.CommitOrder[I] != I + 1) {
          violation(Result, &ModelResult::SerializabilityHeld,
                    "ordered run committed out of task order");
          break;
        }
    }
  }

  void explore(const World &W) {
    if (Result.SchedulesExplored >= Config.MaxSchedules) {
      Result.Exhausted = true;
      return;
    }

    bool AnyEnabled = false;

    // Event: Start(i).
    for (size_t I = 0; I != W.Tasks.size(); ++I) {
      if (W.Tasks[I].Ph != TaskState::Phase::Pending)
        continue;
      AnyEnabled = true;
      World Next = W;
      Next.Tasks[I].Ph = TaskState::Phase::Running;
      Next.Tasks[I].Entry = W.Store;
      Next.Tasks[I].BeginSeq = W.History.size();
      explore(Next);
      if (Result.Exhausted)
        return;
    }

    // Event: AttemptCommit(i).
    for (size_t I = 0; I != W.Tasks.size(); ++I) {
      if (W.Tasks[I].Ph != TaskState::Phase::Running)
        continue;
      if (Config.Ordered) {
        // A transaction may attempt its commit only when every
        // predecessor committed (Figure 7's wait).
        bool PredecessorsDone = true;
        for (size_t J = 0; J != I; ++J)
          PredecessorsDone &=
              W.Tasks[J].Ph == TaskState::Phase::Committed;
        if (!PredecessorsDone)
          continue;
      }
      AnyEnabled = true;

      TxLog Log = evaluateScript(Scripts[I], W.Tasks[I].Entry);
      std::vector<TxLogRef> Window(W.History.begin() +
                                       static_cast<long>(W.Tasks[I].BeginSeq),
                                   W.History.end());
      bool Conflict = Detector.detectConflicts(
          W.Tasks[I].Entry, Log, Window, Reg);

      World Next = W;
      if (Conflict) {
        ++Result.AbortEvents;
        if (Window.empty())
          violation(Result, &ModelResult::ValidityHeld,
                    "abort with empty conflict history (task " +
                        std::to_string(I + 1) + ")");
        if (++Next.Tasks[I].Aborts > Config.MaxRetriesPerTask) {
          violation(Result, &ModelResult::TerminationHeld,
                    "task " + std::to_string(I + 1) +
                        " exceeded its retry budget");
          continue;
        }
        // Back to Pending: the re-begin becomes a separate Start event,
        // so schedules where other transactions run between the abort
        // and the retry are explored too.
        Next.Tasks[I].Ph = TaskState::Phase::Pending;
        explore(Next);
      } else {
        ++Result.CommitEvents;
        Next.Tasks[I].Ph = TaskState::Phase::Committed;
        applyLog(Next.Store, Log);
        Next.History.push_back(std::make_shared<const TxLog>(Log));
        Next.CommitOrder.push_back(static_cast<uint32_t>(I + 1));
        explore(Next);
      }
      if (Result.Exhausted)
        return;
    }

    if (!AnyEnabled)
      checkComplete(W);
  }

  const std::vector<Script> &Scripts;
  ConflictDetector &Detector;
  const ObjectRegistry &Reg;
  ModelConfig Config;
  World Root;
  Snapshot InitialStore;
  ModelResult Result;
};

} // namespace

ModelResult model::exploreProtocol(const std::vector<Script> &Scripts,
                                   ConflictDetector &Detector,
                                   const ObjectRegistry &Reg,
                                   const Snapshot &Initial,
                                   ModelConfig Config) {
  Explorer E(Scripts, Detector, Reg, Initial, Config);
  return E.run();
}
