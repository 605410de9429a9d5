#include "janus/analysis/Serializability.h"

#include "janus/stm/Snapshot.h"

#include <set>
#include <unordered_map>
#include <unordered_set>

using namespace janus;
using namespace janus::analysis;
using stm::TraceEvent;
using symbolic::LocOpKind;

namespace {

/// Accumulates which transactions wrote each location and which
/// transactions exercised a declared relaxation, across both the
/// recorded parallel logs and the replayed serial logs.
struct TaintIndex {
  std::unordered_set<uint32_t> RelaxedTids;
  std::unordered_map<Location, std::set<uint32_t>> Writers;

  void addLog(uint32_t Tid, const stm::TxLog &Log,
              const ObjectRegistry &Reg) {
    for (const stm::LogEntry &E : Log) {
      const RelaxationSpec &Relax = Reg.info(E.Loc.Obj).Relax;
      if (E.Op.Kind == LocOpKind::Read) {
        if (Relax.TolerateRAW)
          RelaxedTids.insert(Tid);
        continue;
      }
      Writers[E.Loc].insert(Tid);
      if (Relax.TolerateWAW)
        RelaxedTids.insert(Tid);
    }
  }

  /// A divergence is sanctioned when the location's own object is
  /// relaxed or some transaction that wrote it took a relaxed access
  /// (the stale value then flowed into the write).
  bool sanctioned(const Location &Loc, const ObjectRegistry &Reg) const {
    const RelaxationSpec &Relax = Reg.info(Loc.Obj).Relax;
    if (Relax.TolerateRAW || Relax.TolerateWAW)
      return true;
    auto It = Writers.find(Loc);
    if (It == Writers.end())
      return false;
    for (uint32_t Tid : It->second)
      if (RelaxedTids.count(Tid))
        return true;
    return false;
  }
};

} // namespace

SerializabilityReport
analysis::checkSerializability(const stm::AuditTrace &Trace,
                               const std::vector<stm::TaskFn> &Tasks,
                               const ObjectRegistry &Reg) {
  SerializabilityReport Report;
  if (!Trace.Recorded)
    return Report;
  Report.Checked = true;

  std::vector<const TraceEvent *> Committed = Trace.committedInOrder();

  // --- Schedule sanity: each task commits exactly once. ---------------
  std::unordered_set<uint32_t> Seen;
  for (const TraceEvent *E : Committed) {
    if (E->Tid == 0 || E->Tid > Tasks.size())
      Report.ScheduleIssues.push_back("committed unknown task id " +
                                      std::to_string(E->Tid));
    else if (!Seen.insert(E->Tid).second)
      Report.ScheduleIssues.push_back("task " + std::to_string(E->Tid) +
                                      " committed more than once");
  }
  for (uint32_t Tid = 1; Tid <= Tasks.size(); ++Tid)
    if (!Seen.count(Tid))
      Report.ScheduleIssues.push_back("task " + std::to_string(Tid) +
                                      " never committed");

  // --- Reference serial execution in commit order. --------------------
  TaintIndex Taint;
  stm::Snapshot State = Trace.Initial;
  for (const TraceEvent *E : Committed) {
    if (E->Tid == 0 || E->Tid > Tasks.size())
      continue;
    if (E->Mode == stm::CommitMode::Placeholder) {
      // A permanently failed task: the runtime committed an empty
      // placeholder (no effects), so the reference execution skips the
      // body too — replaying it would charge the run with effects the
      // run deliberately excluded. Serial-fallback commits, by
      // contrast, carry real logs and replay normally.
      ++Report.TxReplayed;
      continue;
    }
    stm::TxContext Tx(State, E->Tid, Reg);
    try {
      Tasks[E->Tid - 1](Tx);
    } catch (const std::exception &Ex) {
      // The run committed this task, so its body must not throw under
      // replay; a throw means the body is nondeterministic in a way
      // the audit cannot verify.
      Tx.endAttempt();
      Report.ScheduleIssues.push_back(
          "task " + std::to_string(E->Tid) +
          " threw during replay despite committing in the run: " +
          Ex.what());
      continue;
    } catch (...) {
      Tx.endAttempt();
      Report.ScheduleIssues.push_back(
          "task " + std::to_string(E->Tid) +
          " threw during replay despite committing in the run");
      continue;
    }
    Tx.endAttempt();
    stm::applyLog(State, Tx.log());
    ++Report.TxReplayed;
    Taint.addLog(E->Tid, Tx.log(), Reg);
    if (E->Log)
      Taint.addLog(E->Tid, *E->Log, Reg);
  }

  // --- Diff the serial result against the recorded final state. -------
  auto Record = [&](const Location &Loc, const Value &Expected,
                    const Value &Actual) {
    Divergence D;
    D.Loc = Loc;
    D.LocName = Reg.locationName(Loc);
    D.Expected = Expected;
    D.Actual = Actual;
    D.Relaxed = Taint.sanctioned(Loc, Reg);
    Report.Divergences.push_back(std::move(D));
  };
  State.forEach([&](const Location &Loc, const Value &Expected) {
    const Value *Actual = Trace.Final.find(Loc);
    Value A = Actual ? *Actual : Value::absent();
    if (A != Expected)
      Record(Loc, Expected, A);
  });
  Trace.Final.forEach([&](const Location &Loc, const Value &Actual) {
    if (!State.find(Loc))
      Record(Loc, Value::absent(), Actual);
  });
  return Report;
}
