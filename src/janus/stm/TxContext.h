//===----------------------------------------------------------------------===//
///
/// \file
/// The transaction execution context.
///
/// RUNSEQUENTIAL (Figure 7) executes a task's program against the
/// transaction record: reads and writes go to the privatized copy of
/// the shared state (`SharedPrivatized`), every access is appended to
/// the log, and the entry snapshot (`SharedSnapshot`) is kept for
/// conflict detection. Tasks never touch global state directly; the
/// ADT handles in `janus::adt` route every shared access through this
/// context, which plays the role of the paper's automatically inserted
/// instrumentation hooks (§7.1).
///
/// A context is *active* from construction until the runtime calls
/// endAttempt() (after the task body returns). Accesses made through an
/// inactive context escape the protocol — they are neither logged nor
/// replayed — and are flagged by the debug-mode escape instrumentation
/// (see Escape.h and `janus::analysis`).
///
//===----------------------------------------------------------------------===//

#ifndef JANUS_STM_TXCONTEXT_H
#define JANUS_STM_TXCONTEXT_H

#include "janus/stm/Escape.h"
#include "janus/stm/Log.h"
#include "janus/stm/Snapshot.h"
#include "janus/stm/Stats.h"

#include <functional>

namespace janus {
namespace stm {

/// Backend for location-sharded execution (ShardedRuntime): routes each
/// location to a power-of-two shard and materializes per-shard entry
/// snapshots lazily, on the attempt's first touch of that shard. The
/// backend owns the view storage (per-worker scratch, reset between
/// attempts) so the sharded read/write hot path allocates nothing.
class ShardBackend {
public:
  /// One shard as this attempt sees it.
  struct View {
    Snapshot Entry;     ///< Shard slice of the state at acquisition.
    Snapshot Private;   ///< Privatized copy the attempt mutates.
    uint64_t Stamp = 0; ///< Global clock stamp at acquisition.
    bool Acquired = false;
  };

  virtual ~ShardBackend() = default;

  /// Number of shards; always a power of two.
  virtual uint32_t shardCount() const = 0;

  /// Per-attempt view slots, at least shardCount() entries.
  virtual View *views() = 0;

  /// Materializes views()[S] for the bound attempt (first touch):
  /// hazard-protects the shard's published state and fills Entry,
  /// Private, Stamp, and Acquired.
  virtual void acquire(uint32_t S) = 0;
};

/// Per-attempt transaction state handed to the task body.
class TxContext {
public:
  /// \param Entry the shared state at transaction begin (O(1) copy).
  /// \param Tid 1-based task identifier.
  /// \param Reg the shared-object registry.
  /// \param Stats optional runtime counters; escape flags are counted
  ///        there in addition to the process-wide registry.
  TxContext(Snapshot Entry, uint32_t Tid, const ObjectRegistry &Reg,
            RunStats *Stats = nullptr)
      : Entry(std::move(Entry)), Private(this->Entry), Tid(Tid), Reg(Reg),
        Stats(Stats) {}

  /// Sharded-mode context: accesses route to per-shard views acquired
  /// lazily from \p Backend instead of one whole-space snapshot.
  TxContext(ShardBackend &Backend, uint32_t Tid, const ObjectRegistry &Reg,
            RunStats *Stats = nullptr)
      : Tid(Tid), Reg(Reg), Stats(Stats), Shards(&Backend),
        ShardViews(Backend.views()),
        ShardIndexMask(Backend.shardCount() - 1) {}

  // --- Client API (used by the ADT handles) ---------------------------

  /// Reads \p Loc from the privatized state; logs the access.
  Value read(const Location &Loc);

  /// Writes \p V to \p Loc in the privatized state; logs the access.
  void write(const Location &Loc, Value V);

  /// Adds \p Delta to the integer value at \p Loc (absent counts as 0);
  /// logs the access as a semantic Add so the commutativity machinery
  /// can treat it as a reduction.
  void add(const Location &Loc, int64_t Delta);

  /// Accounts \p Units of non-shared computation. Ignored by the
  /// threaded runtime; the simulator charges it to the owning core
  /// (the "local work performed by the transaction" that amortizes
  /// privatization costs, §7.2).
  void localWork(double Units) { VirtualCost += Units; }

  /// \returns the 1-based task identifier.
  uint32_t taskId() const { return Tid; }

  const ObjectRegistry &registry() const { return Reg; }

  /// ADT escape instrumentation: records the precise access point so
  /// that an out-of-transaction access is attributed to the ADT method
  /// that made it rather than the raw context call. Compiles to nothing
  /// when escape checks are off.
  void guard(const char *Where) const {
#if JANUS_ESCAPE_CHECKS
    if (!Active)
      PendingEscapeWhere = Where;
#else
    (void)Where;
#endif
  }

  // --- Runtime API -----------------------------------------------------

  /// Marks the end of the transaction attempt: the task body has
  /// returned and the runtime owns the log from here on. Any later
  /// client access through this context is an escape.
  void endAttempt() { Active = false; }

  /// \returns true while the attempt is executing (before endAttempt).
  bool inActiveAttempt() const { return Active; }

  /// Unsharded contexts only — sharded attempts have one entry
  /// snapshot per acquired shard (ShardBackend::View::Entry).
  const Snapshot &entrySnapshot() const { return Entry; }
  const Snapshot &privatizedState() const { return Private; }
  const TxLog &log() const { return Log; }
  double virtualCost() const { return VirtualCost; }

  /// Sharded mode: bitmask of shard indices this attempt touched
  /// (shard counts are capped at 64). Zero for unsharded contexts and
  /// for attempts that made no shared access.
  uint64_t accessedShards() const { return AccessedMask; }

  /// \returns whether this context routes through a ShardBackend.
  bool sharded() const { return Shards != nullptr; }

private:
  /// Reports one escaped access (slow path; only reached when the
  /// context is inactive and checks are compiled in).
  void flagEscape(const char *Fallback);

  /// The privatized state \p Loc lives in: the whole-space copy for
  /// unsharded contexts, else the owning shard's view (acquired on
  /// first touch).
  Snapshot &stateFor(const Location &Loc) {
    if (!Shards)
      return Private;
    // One shard owns every location: skip hashing the key.
    uint32_t S = ShardIndexMask ? shardIndexOf(Loc, ShardIndexMask + 1) : 0;
    ShardBackend::View &V = ShardViews[S];
    if (!V.Acquired) {
      Shards->acquire(S);
      AccessedMask |= uint64_t{1} << S;
    }
    return V.Private;
  }

  Snapshot Entry;   ///< SharedSnapshot: state at Begin.
  Snapshot Private; ///< SharedPrivatized: state seen by this attempt.
  TxLog Log;
  uint32_t Tid;
  const ObjectRegistry &Reg;
  RunStats *Stats = nullptr;
  double VirtualCost = 0.0;
  bool Active = true;
  /// Access point recorded by guard() for escape attribution.
  mutable const char *PendingEscapeWhere = nullptr;
  ShardBackend *Shards = nullptr;             ///< Null = unsharded.
  ShardBackend::View *ShardViews = nullptr;   ///< Cached Shards->views().
  uint32_t ShardIndexMask = 0;                ///< shardCount() - 1.
  uint64_t AccessedMask = 0;
};

/// A task body: the paper's (prog, o̅ → v̅) pair, closed over its
/// initial data values.
using TaskFn = std::function<void(TxContext &)>;

} // namespace stm
} // namespace janus

#endif // JANUS_STM_TXCONTEXT_H
