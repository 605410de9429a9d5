//===----------------------------------------------------------------------===//
///
/// \file
/// Shared-state snapshots.
///
/// The shared store maps locations to values. Snapshots are fully
/// persistent (paper §4.1 "Versioning"): CREATETRANSACTION copies the
/// global state into the transaction's SharedSnapshot and
/// SharedPrivatized in O(1), and private writes never disturb other
/// versions. Every write here is in place (PersistentMap::setInPlace):
/// a version that keeps writing path-copies a node the first time only,
/// and writes its own copies in place after that.
///
//===----------------------------------------------------------------------===//

#ifndef JANUS_STM_SNAPSHOT_H
#define JANUS_STM_SNAPSHOT_H

#include "janus/persist/PersistentMap.h"
#include "janus/stm/Log.h"
#include "janus/support/Location.h"
#include "janus/support/Value.h"
#include "janus/symbolic/LocOp.h"

namespace janus {
namespace stm {

/// A persistent view of the entire shared store.
using Snapshot = persist::PersistentMap<Location, Value>;

/// \returns the value at \p Loc, or Absent when the location was never
/// written.
inline Value snapshotValue(const Snapshot &S, const Location &Loc) {
  const Value *V = S.find(Loc);
  return V ? *V : Value::absent();
}

/// Applies one per-location operation to \p S in place (a Read changes
/// nothing).
inline void applyOp(Snapshot &S, const Location &Loc,
                    const symbolic::LocOp &Op) {
  if (Op.Kind != symbolic::LocOpKind::Read)
    S.setInPlace(Loc, symbolic::applyLocOp(snapshotValue(S, Loc), Op));
}

/// \returns \p S with one per-location operation applied, leaving \p S
/// unchanged: the persistent form of applyOp, for a caller that keeps
/// the version it started from.
inline Snapshot applyToSnapshot(const Snapshot &S, const Location &Loc,
                                const symbolic::LocOp &Op) {
  Snapshot Out = S;
  applyOp(Out, Loc, Op);
  return Out;
}

/// Accepts every log entry: applyLog's default filter.
struct EveryEntry {
  bool operator()(const LogEntry &) const { return true; }
};

/// Applies the entries of \p Log that \p Keep accepts to \p S in place,
/// in log order. This is how a log reaches a state everywhere: replay
/// at commit, the simulator's commits and replays, the sequential
/// baseline and training.
template <typename Filter = EveryEntry>
void applyLog(Snapshot &S, const TxLog &Log, Filter Keep = {}) {
  for (const LogEntry &E : Log)
    if (Keep(E))
      applyOp(S, E.Loc, E.Op);
}

} // namespace stm
} // namespace janus

#endif // JANUS_STM_SNAPSHOT_H
