//===----------------------------------------------------------------------===//
///
/// \file
/// DECOMPOSE: dependence-based decomposition of histories (Figure 8).
///
/// Sequence-based detection with projection reasons about the
/// per-location subsequences of a history. DECOMPOSE reconstructs them
/// from the logged read/write sets alone — the dynamic context needed
/// is the same as in write-set detection (paper §5.3). Private
/// locations (accessed by only one of the two histories) are safely
/// ignored, so detection decomposes only the common domain
/// (decomposeCommon); the whole decompositions serve the auditor.
///
//===----------------------------------------------------------------------===//

#ifndef JANUS_CONFLICT_DECOMPOSE_H
#define JANUS_CONFLICT_DECOMPOSE_H

#include "janus/stm/Log.h"
#include "janus/symbolic/LocOp.h"

#include <map>
#include <vector>

namespace janus {
namespace conflict {

/// Per-location operation sequences, ordered by location for
/// deterministic iteration.
using Decomposition = std::map<Location, symbolic::LocOpSeq>;

/// Splits one log into its per-location subsequences.
Decomposition decompose(const stm::TxLog &Log);

/// Splits a committed history — the concatenation of \p Logs in commit
/// order — into its per-location subsequences (Lemma 5.2 extends to
/// multiple committing transactions).
Decomposition decomposeAll(const std::vector<stm::TxLogRef> &Logs);

/// One location of the common domain: the attempt's operations there
/// and the committed window's, each in log (commit) order.
struct CommonLocation {
  Location Loc;
  symbolic::LocOpSeq Mine;
  symbolic::LocOpSeq Theirs;
};

/// DECOMPOSE over the common domain only (Figure 8 analyzes
/// loc ∈ DOM(mt) ∩ DOM(mc)): every location both \p Mine and
/// \p Window touch, in ascending location order, with the sequences
/// decompose(Mine) and decomposeAll(Window) give there. A location only
/// one side touched is never collected.
std::vector<CommonLocation>
decomposeCommon(const stm::TxLog &Mine,
                const std::vector<stm::TxLogRef> &Window);

} // namespace conflict
} // namespace janus

#endif // JANUS_CONFLICT_DECOMPOSE_H
