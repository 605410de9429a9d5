#include "janus/conflict/Explain.h"

#include "janus/conflict/SequenceDetector.h"

using namespace janus;
using namespace janus::conflict;
using namespace janus::symbolic;

std::string ConflictExplanation::toString() const {
  if (!Conflicting)
    return "no conflict";
  return "conflict at " + LocationName + ": " + Reason + " (mine: " +
         MineSeq + "; theirs: " + TheirsSeq + ")";
}

/// Explains one location's judgment; \returns empty string when the
/// sequences commute under \p Checks.
static std::string explainLocation(const Value &Entry, const LocOpSeq &Mine,
                                   const LocOpSeq &Theirs,
                                   ChecksSpec Checks) {
  SeqEval AloneMine = evalSequence(Entry, Mine);
  SeqEval AloneTheirs = evalSequence(Entry, Theirs);
  SeqEval MineAfterTheirs = evalSequence(AloneTheirs.Final, Mine);
  SeqEval TheirsAfterMine = evalSequence(AloneMine.Final, Theirs);

  if (Checks.SameReadA)
    for (size_t I = 0, E = AloneMine.Reads.size(); I != E; ++I)
      if (AloneMine.Reads[I] != MineAfterTheirs.Reads[I])
        return "SAMEREAD violated: my read #" + std::to_string(I) +
               " observes " + AloneMine.Reads[I].toString() +
               " without the history vs " +
               MineAfterTheirs.Reads[I].toString() + " after it";
  if (Checks.SameReadB)
    for (size_t I = 0, E = AloneTheirs.Reads.size(); I != E; ++I)
      if (AloneTheirs.Reads[I] != TheirsAfterMine.Reads[I])
        return "SAMEREAD violated: history read #" + std::to_string(I) +
               " observes " + AloneTheirs.Reads[I].toString() + " vs " +
               TheirsAfterMine.Reads[I].toString() + " after me";
  if (Checks.Commute &&
      TheirsAfterMine.Final != MineAfterTheirs.Final)
    return "COMMUTE violated: final " + TheirsAfterMine.Final.toString() +
           " (mine first) vs " + MineAfterTheirs.Final.toString() +
           " (history first)";
  return std::string();
}

ConflictExplanation
conflict::explainConflict(const stm::Snapshot &Entry, const stm::TxLog &Mine,
                          const std::vector<stm::TxLogRef> &Committed,
                          const ObjectRegistry &Reg) {
  ConflictExplanation Out;
  if (Committed.empty())
    return Out;

  // The detector's own common domain, in its order.
  for (const CommonLocation &C : decomposeCommon(Mine, Committed)) {
    ChecksSpec Checks = checksFor(Reg.info(C.Loc.Obj).Relax);
    Value EntryVal = stm::snapshotValue(Entry, C.Loc);
    std::string Reason = explainLocation(EntryVal, C.Mine, C.Theirs, Checks);
    if (Reason.empty())
      continue;
    Out.Conflicting = true;
    Out.Loc = C.Loc;
    Out.LocationName = Reg.locationName(C.Loc);
    Out.MineSeq = sequenceToString(C.Mine);
    Out.TheirsSeq = sequenceToString(C.Theirs);
    Out.Reason = std::move(Reason);
    return Out;
  }
  return Out;
}
