//===----------------------------------------------------------------------===//
///
/// \file
/// The JANUS parallelization protocol on real threads (paper Figure 7),
/// with a location-sharded commit pipeline.
///
/// DOPARALLEL runs the input tasks asynchronously until the pool is
/// drained, retrying each task until it commits. Each attempt:
///   1. CREATETRANSACTION — distributed over the shards the body
///      touches: the first access to a location in shard s
///      hazard-protects s's atomically published state and copies its
///      slice (O(1), persistent). No lock: publication is a pointer
///      swap, begins are pointer loads.
///   2. RUNSEQUENTIAL — run the task body against the privatized
///      slices.
///   3. If ordered, wait for the task's turn (all preceding tasks
///      committed): the committer of task t opens task t+1's turn in a
///      32-bit turn word after it has published, and wakes that word's
///      one waiter.
///   4. Loop, per touched shard: read `now` from the published state;
///      extend the transaction's committed-history window to
///      (begin, now] by walking the shard's state chain from the last
///      state it has seen (lock-free, incremental across rounds);
///      DETECTCONFLICTS — on conflict, abort (retry from the start).
///      Otherwise replay the log onto the published slice *outside* any
///      lock, then COMMIT: under the shard mutexes, re-validate that
///      every published state is still the one the replay started from,
///      and swap in new states that carry the new slices and the log.
///      The exclusive section is a clock bump plus pointer stores.
///
/// The object space is partitioned into N location-keyed shards (power
/// of two, routed by `shardIndexOf(Location)`), each owning its own
///
///  - chain of published states, one per commit that touched the shard,
///    each carrying the shard's snapshot slice, a *dense per-shard
///    version* (one bump per such commit) and that commit's log: the
///    chain is the shard's committed history,
///  - commit mutex (the shard's commit point).
///
/// One shard (the JanusConfig default) is the single commit point:
/// every commit publishes through one pointer.
/// More shards remove that bottleneck for disjoint footprints.
/// Detection runs per acquired shard against the shard's own history
/// window — sound because conflict detection decomposes per location
/// (paper §5.3), and a location's committed operations live exactly in
/// its shard's chain.
///
/// Commit:
///  - **Empty** transactions (no shared access) touch no shard at all:
///    one global-clock bump, allocation-free.
///  - **Single-shard** transactions (the common case) validate and
///    publish under only their shard's mutex.
///  - **Cross-shard** transactions run a deterministic-order two-phase
///    acquire — lock every touched shard's mutex in ascending shard
///    order (a global order, so no deadlock), validate all, publish
///    all, unlock in reverse.
///
/// Every committed transaction — empty, single-, or cross-shard —
/// stamps one tick of a dense global clock (`Clock.fetch_add(1)`), so
/// the total commit order of Theorem 4.1 is independent of the shard
/// count, while per-shard histories stay dense in their own version
/// space. The auditor
/// reconstructs the total order from the global stamps and refines
/// per-location begin points from the recorded shard-acquisition
/// stamps (`TraceEvent::ShardBegins`).
///
/// State lifetime is epoch-style, per shard: workers advertise the
/// shard states they begin from in per-(worker, shard) hazard slots
/// (validated store-then-recheck publication, all seq_cst); a
/// committer recycles through a per-shard pool the chain prefix no
/// hazard references, and with each state the log it carries: no live
/// transaction can still query it (the log reclamation of §7.2). trim()
/// recycles all but the published state of a quiesced engine. See
/// ShardedRuntime.cpp for the Dekker-style argument.
///
/// Locks: the shard CommitMutexes are the engine's only mutexes, taken
/// in ascending shard order. Turns are awaited before any shard lock is
/// taken and opened after all are released, so no thread waits for a
/// turn while it holds a lock its predecessor needs.
///
/// Theorem 4.1: with a sound and valid detector this terminates, and
/// ordered runs reach the sequential final state while unordered runs
/// reach the final state of their commit order.
///
/// The body runner, each attempt's end record (spans, flight recorder,
/// audit trace) and the contention ladder are the shared attempt
/// lifecycle (stm/Attempt.h). This engine carries the ladder's steps
/// out in wall-clock time: a backoff wait, or a serial fallback or
/// placeholder commit under every shard lock. Trace events go to
/// per-worker buffers merged into an `AuditTrace` when run() returns.
///
/// Workers are a pool owned by the runtime: the first run with more
/// than one worker spawns NumThreads - 1 threads, which park on their
/// slot's wake word (std::atomic wait) between runs. A run wakes only
/// the slots it uses (min(NumThreads, tasks)) and the calling thread
/// works as slot 0, so a one-task run wakes no thread; the caller then
/// waits on the count of slots still draining. The destructor stops and
/// joins the pool.
///
//===----------------------------------------------------------------------===//

#ifndef JANUS_STM_SHARDEDRUNTIME_H
#define JANUS_STM_SHARDEDRUNTIME_H

#include "janus/stm/Attempt.h"
#include "janus/stm/Detector.h"

#include <array>
#include <atomic>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace janus {
namespace stm {

/// Configuration of a real-thread runtime. Ordered, Faults, Cancel and
/// Resilience.Board are the per-run parameters (setRunParams).
struct ShardedConfig {
  /// Worker slots: the caller of run() plus NumThreads - 1 pool threads.
  unsigned NumThreads = 4;
  /// Location-keyed shards. Rounded up to a power of two and clamped
  /// to [1, MaxShards]; shard routing is `shardIndexOf(Loc, N)`.
  unsigned NumShards = 8;
  /// In-order execution flag: commit in task order (Figure 7
  /// `ordered`).
  bool Ordered = false;
  /// Record an AuditTrace of every attempt for hindsight auditing.
  bool RecordTrace = false;
  /// Contention-management policy.
  resilience::ResilienceConfig Resilience = {};
  /// Deterministic fault-injection plan (empty = no faults).
  resilience::FaultPlan Faults = {};
  /// Observability sink; nullptr = no instrumentation. Must be
  /// provisioned with at least NumThreads lanes and outlive the
  /// runtime.
  obs::Observer *Obs = nullptr;
  /// Cooperative cancellation (janus::serve deadlines / drain),
  /// consulted at attempt boundaries and inside backoff waits; a
  /// cancelled task fails with a placeholder commit. nullptr = never
  /// cancelled. Not owned; appended last (aggregate initializers).
  const resilience::CancellationTable *Cancel = nullptr;
  /// Flight recorder (janus::obs::Recorder): per-lane begin/abort/
  /// commit/shard-acquire events with dense-clock stamps, replayable
  /// via `janus replay`. Must be provisioned with at least NumThreads
  /// lanes and outlive the runtime. nullptr = no recording. Not
  /// owned; appended last.
  obs::Recorder *Rec = nullptr;
};

/// Runs task sets under optimistic synchronization with per-shard
/// commit points and a pluggable conflict detector.
class ShardedRuntime {
public:
  /// Hard cap on the shard count: a transaction's accessed-shard set
  /// is a single uint64_t bitmask.
  static constexpr uint32_t MaxShards = 64;

  /// \param Reg shared-object registry (must outlive the runtime).
  /// \param Detector conflict-detection algorithm (must outlive the
  ///        runtime).
  ShardedRuntime(const ObjectRegistry &Reg, ConflictDetector &Detector,
                 ShardedConfig Config);
  ~ShardedRuntime();

  ShardedRuntime(const ShardedRuntime &) = delete;
  ShardedRuntime &operator=(const ShardedRuntime &) = delete;

  /// Sets the initial configuration of the shared state (split across
  /// the shards by location routing; O(1) at one shard).
  void setInitialState(Snapshot S);

  /// Executes \p Tasks to completion (DOPARALLEL). Task ids are their
  /// 1-based positions. May be called repeatedly; state, history and
  /// the dense global clock persist between calls.
  void run(const std::vector<TaskFn> &Tasks);

  /// Replaces the per-run parameters — in-order commit, the fault plan,
  /// the cancellation table and the pressure board — for the next
  /// run() and later ones. Call between runs only: each run reads them
  /// at its start.
  void setRunParams(bool Ordered, resilience::FaultPlan Faults,
                    const resilience::CancellationTable *Cancel,
                    resilience::PressureBoard *Board);

  /// Drops what the runs so far retain: every shard state (and its
  /// log) but the published one, and every commitOrder() entry. Call
  /// between runs only (a quiesced engine: no transaction can query a
  /// window that starts before now). A long-lived caller trims after
  /// each run to keep the commit order bounded.
  void trim();

  /// \returns the shared state after the last run, merged across
  /// shards under all shard mutexes (a cross-shard-consistent cut;
  /// O(1) at one shard).
  Snapshot sharedState() const;

  const RunStats &stats() const { return Stats; }
  RunStats &stats() { return Stats; }

  /// The effective (clamped, power-of-two) shard count.
  uint32_t numShards() const { return NumShards; }

  /// Committed logs a live attempt could still collect, summed over
  /// shards: each shard's states after its oldest retained one.
  size_t historySize() const;

  /// Task ids (1-based) in global commit order over every run since
  /// construction or the last trim() (merged from per-worker buffers,
  /// sorted by the dense global clock stamps). The parallel final state equals a sequential
  /// execution in this order (Theorem 4.1).
  std::vector<uint32_t> commitOrder() const;

  /// \returns the recorded trace (empty unless RecordTrace was set).
  /// Call only after run() has returned.
  const AuditTrace &trace() const { return Trace; }

  /// Tasks of the last run() whose bodies kept throwing past the
  /// exception retry budget, or were cancelled. Their slots in the
  /// commit order were filled by empty placeholder commits; their
  /// effects are absent from the final state. Call only after run()
  /// has returned.
  const std::vector<resilience::TaskFailure> &failures() const {
    return Failures;
  }

private:
  /// One shard's atomically swapped image: the global clock stamp of
  /// the commit that published it, the shard's dense version, the
  /// shard's snapshot slice, and that commit's log (the shard's share;
  /// null for a state no commit published). Immutable once published
  /// but for Newer; chained oldest→newest, the chain is the shard's
  /// committed history and its recycling order.
  struct ShardState {
    uint64_t GlobalTime = 0;
    uint64_t Version = 0;
    Snapshot State;
    TxLogRef Log;
    /// Written under the shard's mutex, before the newer state is
    /// published; read lock-free only by a window walk (runTask) that
    /// loaded a state newer than this one.
    ShardState *Newer = nullptr;
  };

  /// One location-keyed shard: its commit point, published state
  /// chain, and recycled-state pool.
  struct alignas(CacheLineSize) Shard {
    /// Mutable: sharedState()/historySize() are logically const but
    /// must hold the commit points for a consistent cut.
    mutable std::mutex CommitMutex;
    std::atomic<ShardState *> Published{nullptr};
    /// Oldest state still allocated; chain head for epoch recycling.
    /// Mutated only under CommitMutex (and the destructor).
    ShardState *Oldest = nullptr;
    /// Retired ShardStates for reuse; commit-path allocations are
    /// pool hits in steady state. Guarded by CommitMutex.
    std::vector<ShardState *> Pool;
  };

  /// Per-(worker, shard) scratch carried across the validation rounds
  /// of one attempt: the acquired entry state, the latest validated
  /// state, the collected history window, and the shard's share of
  /// the transaction's log.
  struct AttemptShard {
    /// Latest state this round runs against; the entry state's hazard
    /// keeps it allocated, so pointer identity against Published is
    /// exact while it is set.
    ShardState *Now = nullptr;
    /// Shard version at acquisition. Identity of *past* states is
    /// tracked by version, never by pointer: pool recycling can reuse
    /// an address, but a shard's versions are never reused.
    uint64_t EntryVersion = 0;
    std::vector<TxLogRef> OpsC; ///< Collected shard window.
    /// The log as this shard detects, replays and records it: the whole
    /// log of a single-shard attempt, else its projection (projectLog).
    TxLogRef Log;
    TxLog Projection; ///< Builds Log; kept for its capacity.
    /// The walk's cursor: the state up to which OpsC is collected and
    /// detection already ran (a round that loads it again saw no new
    /// commits in this shard). The entry state or newer, so the entry
    /// hazard keeps it allocated.
    const ShardState *Detected = nullptr;
    Snapshot Replayed;        ///< Log applied onto version ReplayedVersion.
    uint64_t ReplayedVersion = 0; ///< 0 = Replayed not yet valid.

    /// Back to "not acquired", keeping the vectors' capacity. The one
    /// reset: releaseAttempt runs it at the end of every attempt, so
    /// acquireShard finds the scratch clean.
    void reset() {
      Now = nullptr;
      EntryVersion = 0;
      OpsC.clear();
      Log.reset();
      Projection.clear();
      Detected = nullptr;
      Replayed = Snapshot{};
      ReplayedVersion = 0;
    }
  };

  /// Per-worker runtime state, cache-line padded.
  struct alignas(CacheLineSize) WorkerSlot {
    /// Hazard slots, one per shard: the published ShardState this
    /// worker's current attempt begins from in that shard (null =
    /// none). Committers must not recycle a state a slot references,
    /// nor any newer one.
    std::array<std::atomic<ShardState *>, MaxShards> Hazards{};
    /// Per-shard view slots handed to TxContext (ShardBackend
    /// storage); reset between attempts so attempts allocate nothing.
    std::vector<ShardBackend::View> Views;
    std::vector<AttemptShard> Attempt; ///< Parallel to Views.
    std::vector<TraceEvent> Events;
    std::vector<resilience::TaskFailure> Failures;
    /// (global commit stamp, task id) pairs; merged and sorted into
    /// the global commit order on demand.
    std::vector<std::pair<uint64_t, uint32_t>> CommitLog;
    /// Ordered mode: the turn word of the tasks whose id is this slot's
    /// index modulo the slot count. It holds the id of the last such
    /// task whose turn opened this run (0 = none yet). Other threads
    /// write both words, so they sit on a cache line of their own.
    alignas(CacheLineSize) std::atomic<uint32_t> Turn{0};
    /// Parks the slot's pool thread between runs: a run that wants the
    /// slot (or the destructor) bumps this generation and notifies.
    std::atomic<uint32_t> Wake{0};
  };

  /// TxContext's view of one attempt: routes lazy shard acquisition
  /// into the runtime.
  struct AttemptBackend final : ShardBackend {
    AttemptBackend(ShardedRuntime &RT, WorkerSlot &Worker)
        : RT(RT), Worker(Worker) {}
    uint32_t shardCount() const override { return RT.NumShards; }
    View *views() override { return Worker.Views.data(); }
    void acquire(uint32_t S) override { RT.acquireShard(S, Worker); }
    ShardedRuntime &RT;
    WorkerSlot &Worker;
  };

  /// One speculative attempt. \returns why it did not commit
  /// (Abort::None when it did), with a thrown body's what() in
  /// \p ThrowMsg.
  Abort runTask(const TaskFn &Task, uint32_t Tid, uint32_t Attempt,
                unsigned Lane, WorkerSlot &Worker, std::string &ThrowMsg);

  /// Irrevocable serial fallback (\p Task set) or placeholder commit,
  /// numbered \p Attempt: locks *every* shard mutex, so it is a
  /// superset of any speculative committer's lock set and cannot
  /// deadlock against one.
  void commitSerial(const TaskFn *Task, uint32_t Tid, uint32_t Attempt,
                    unsigned Lane, WorkerSlot &Worker);

  /// Lazy shard acquisition (ShardBackend::acquire): publishes the
  /// hazard, copies the shard slice into the worker's view, and
  /// starts the shard's history window at the entry state.
  void acquireShard(uint32_t S, WorkerSlot &Worker);

  /// Clears hazards and resets views/attempt scratch for every shard
  /// in \p Mask (end of attempt, any outcome).
  void releaseAttempt(WorkerSlot &Worker, uint64_t Mask);

  /// Gives every shard in \p Mask its share of \p Log (AttemptShard::
  /// Log): all of it when it is the only shard, else its projection —
  /// exactly that shard's operations, in program order, which is what
  /// its published state and other transactions' detection windows
  /// carry.
  void projectLog(const TxLogRef &Log, uint64_t Mask, WorkerSlot &Worker);

  /// The lock set: takes the commit mutexes of the shards in \p Mask in
  /// ascending index order — the one global lock order, so no two lock
  /// sets deadlock — and reads each one's published state into
  /// \p Cur[S]. \p StallMicros stalls between successive locks (the
  /// torn-commit probe).
  void lockShards(uint64_t Mask, ShardState **Cur,
                  uint64_t StallMicros = 0) const;
  /// Releases lockShards(\p Mask)'s mutexes, in reverse order.
  void unlockShards(uint64_t Mask) const;

  /// Publishes \p State as shard \p S's next state after \p Cur, its
  /// published state; the caller holds the shard's mutex. A commit
  /// passes its \p Committer, stamp and log: the new state carries the
  /// log at the next shard version, and the committer's own hazard is
  /// dropped before recycling. setInitialState passes none and keeps
  /// \p Cur's version and stamp, with no log.
  void publish(uint32_t S, ShardState *Cur, Snapshot State,
               WorkerSlot *Committer = nullptr, uint64_t CommitTime = 0,
               TxLogRef Log = nullptr);

  /// COMMIT under the held lock set (\p Cur from lockShards): one tick
  /// of the global clock, then every shard in \p Mask publishes its
  /// Replayed state and records its Log. \returns the commit time.
  uint64_t commitShards(uint64_t Mask, ShardState *const *Cur,
                        WorkerSlot &Worker);

  /// Every commit's tail, after its locks are released: the commit
  /// stamp, the counters, the commit (or serial) span and commit
  /// latency when \p Sampled, the end record, the opening of the next
  /// ordered turn, and the release of the shards in \p Acquired. The
  /// span starts at \p SpanTs and the latency at \p LatencyTs.
  void finishCommit(const AttemptEnd &End, uint64_t Acquired,
                    WorkerSlot &Worker, bool Sampled, double SpanTs,
                    double LatencyTs);

  /// Opens task \p Tid's ordered-mode turn: stores \p Tid in the turn
  /// word of slot Tid mod NumThreads and wakes the word's waiter, if any.
  void openTurn(uint32_t Tid);
  /// Blocks the calling worker until its ordered-mode commit turn is
  /// open (every preceding task of the run committed). No-op when
  /// unordered. A sampled attempt that does wait records a "turn-wait"
  /// span.
  void waitForTurn(uint32_t Tid, uint32_t Attempt, unsigned Lane,
                   bool Sampled);

  /// Recycles the prefix of shard \p S's state chain, up to its
  /// published state \p Cur, that no worker hazard references, with
  /// the logs those states carry. Caller holds the shard's CommitMutex,
  /// *after* publishing \p Cur.
  void recycleShardStates(uint32_t S, ShardState *Cur);

  /// Pops a pooled ShardState (or allocates). Caller holds the
  /// shard's CommitMutex.
  ShardState *allocState(Shard &Sh);

  /// One worker's share of DOPARALLEL: claims tasks of the run in
  /// progress and retries each until it commits, until none is left.
  /// The lifecycle catches every body's exception; anything else that
  /// escapes ends the program on every slot alike, so the caller never
  /// unwinds while pool threads still read its tasks.
  void drain(unsigned Slot) noexcept;

  /// A pool thread's life: park until a run wakes slot \p Slot, drain
  /// it, report idle; return once the runtime stops.
  void poolLoop(unsigned Slot);

  const ObjectRegistry &Reg;
  ConflictDetector &Detector;
  ShardedConfig Config;
  uint32_t NumShards;
  uint64_t AllShards; ///< The mask of every shard.

  /// The dense global commit clock: every commit (empty, single- or
  /// cross-shard, serial, placeholder) is exactly one fetch_add.
  std::atomic<uint64_t> Clock{1};

  std::vector<Shard> Shards;
  std::vector<WorkerSlot> Workers;

  std::optional<Lifecycle> Life; ///< The run() in progress.
  std::vector<resilience::TaskFailure> Failures;
  /// The run() in progress: its tasks and the next unclaimed index.
  const std::vector<TaskFn> *RunTasks = nullptr;
  std::atomic<size_t> NextTask{0};

  /// Per-shard commit/abort counters (janus::obs metrics registry);
  /// empty when observability is off. Pre-created in the constructor
  /// so the hot path never touches the registry mutex.
  std::vector<obs::Counter *> ShardCommitCounters;
  std::vector<obs::Counter *> ShardAbortCounters;

  AuditTrace Trace;
  RunStats Stats;

  /// Woken slots still draining the run in progress; run() waits on it
  /// and the slot that brings it to 0 notifies.
  std::atomic<unsigned> Busy{0};
  std::atomic<bool> Stopping{false}; ///< Set by the destructor.
  /// Threads for worker slots 1..NumThreads-1, spawned at the first
  /// multi-worker run. Declared last: they use every member above.
  std::vector<std::thread> Pool;
};

} // namespace stm
} // namespace janus

#endif // JANUS_STM_SHARDEDRUNTIME_H
