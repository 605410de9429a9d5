//===----------------------------------------------------------------------===//
///
/// \file
/// Execution and detection statistics.
///
/// These counters back the paper's evaluation: commits vs retries
/// (Figure 10's retries-to-transactions ratio), conflict-query cache
/// hits/misses (Figure 11), and the detector activity examined by the
/// micro-benchmarks.
///
/// Counters are *striped* (see janus/support/Striped.h): each one
/// spreads its updates over several cache-line-aligned slots indexed by
/// a per-thread stripe id, and aggregates them on read.
///
//===----------------------------------------------------------------------===//

#ifndef JANUS_STM_STATS_H
#define JANUS_STM_STATS_H

#include "janus/support/Striped.h"

#include <cstdint>

namespace janus {
namespace stm {

// The striping primitives predate support/Striped.h and were hoisted
// there so janus::obs can share them; existing stm:: spellings stay
// valid.
using janus::CacheLineSize;
using janus::StripedCounter;
using janus::threadStripeId;

/// Counters maintained by a runtime across one run() call.
/// Thread-safe; read them after run() returns.
struct RunStats {
  StripedCounter Tasks;
  StripedCounter Commits;
  StripedCounter Retries;            ///< Aborted attempts.
  StripedCounter ConflictChecks;     ///< DETECTCONFLICTS calls.
  StripedCounter ValidationFailures; ///< COMMIT-time now!=tcheck.
  StripedCounter EscapedAccesses;    ///< Out-of-tx accesses seen.
  StripedCounter SerialFallbacks;    ///< Tasks escalated to serial.
  StripedCounter TaskExceptions;     ///< Attempts ended by a throw.
  StripedCounter TaskFailures;       ///< Tasks surfaced as failed.
  StripedCounter FaultsInjected;     ///< FaultPlan actions applied.
  StripedCounter CrossShardCommits;  ///< Commits touching >1 shard.
  StripedCounter EmptyCommits;       ///< Empty-log fast-path commits.
  StripedCounter CancelledTasks;     ///< Deadline/shutdown cancellations.

  void reset() {
    Tasks.reset();
    Commits.reset();
    Retries.reset();
    ConflictChecks.reset();
    ValidationFailures.reset();
    EscapedAccesses.reset();
    SerialFallbacks.reset();
    TaskExceptions.reset();
    TaskFailures.reset();
    FaultsInjected.reset();
    CrossShardCommits.reset();
    EmptyCommits.reset();
    CancelledTasks.reset();
  }

  /// Accumulates \p R's counters into this one (a facade's cumulative
  /// statistics over its runs).
  void add(const RunStats &R) {
    Tasks += R.Tasks.load();
    Commits += R.Commits.load();
    Retries += R.Retries.load();
    ConflictChecks += R.ConflictChecks.load();
    ValidationFailures += R.ValidationFailures.load();
    EscapedAccesses += R.EscapedAccesses.load();
    SerialFallbacks += R.SerialFallbacks.load();
    TaskExceptions += R.TaskExceptions.load();
    TaskFailures += R.TaskFailures.load();
    FaultsInjected += R.FaultsInjected.load();
    CrossShardCommits += R.CrossShardCommits.load();
    EmptyCommits += R.EmptyCommits.load();
    CancelledTasks += R.CancelledTasks.load();
  }

  /// Figure 10's metric: overall retries over the number of
  /// transactions.
  double retryRatio() const {
    uint64_t C = Commits.load();
    return C ? static_cast<double>(Retries.load()) / static_cast<double>(C)
             : 0.0;
  }
};

/// Counters maintained by a conflict detector. A "query" is one
/// per-location sequence-pair commutativity question.
struct DetectorStats {
  StripedCounter PairQueries;    ///< Per-location queries issued.
  StripedCounter SpecHits;       ///< Answered by a per-ADT spec table.
  StripedCounter SpecAbstains;   ///< Spec consulted but abstained.
  StripedCounter CacheHits;      ///< Answered from the cache.
  StripedCounter CacheMisses;    ///< No matching cache entry.
  StripedCounter OnlineChecks;   ///< Answered by online evaluation.
  StripedCounter WriteSetChecks; ///< Fell back to write-set.
  StripedCounter ConflictsFound;
  /// Signature-memo hits that reused an interned abstraction (and its
  /// pre-rendered signature), skipping re-canonicalization.
  StripedCounter SignatureInternHits;

  void reset() {
    PairQueries.reset();
    SpecHits.reset();
    SpecAbstains.reset();
    CacheHits.reset();
    CacheMisses.reset();
    OnlineChecks.reset();
    WriteSetChecks.reset();
    ConflictsFound.reset();
    SignatureInternHits.reset();
  }
};

} // namespace stm
} // namespace janus

#endif // JANUS_STM_STATS_H
