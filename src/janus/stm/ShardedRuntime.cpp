#include "janus/stm/ShardedRuntime.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <thread>

using namespace janus;
using namespace janus::stm;

/// Contention backoff. sleep_for on a zero/tiny duration still costs a
/// syscall, so very short waits spin-yield instead.
static void backoff(uint64_t Micros) {
  if (Micros == 0)
    return;
  if (Micros < 50) {
    auto Until =
        std::chrono::steady_clock::now() + std::chrono::microseconds(Micros);
    while (std::chrono::steady_clock::now() < Until)
      std::this_thread::yield();
    return;
  }
  std::this_thread::sleep_for(std::chrono::microseconds(Micros));
}

/// Backoff that honours cooperative cancellation: sleeps in short
/// slices, re-checking the task's token between them, so a deadline or
/// shutdown cannot be stretched by a capped-but-long contention wait.
static void cancellableBackoff(uint64_t Micros,
                               const resilience::CancellationTable *Cancel,
                               uint32_t Tid) {
  if (!Cancel) {
    backoff(Micros);
    return;
  }
  while (Micros > 0 &&
         Cancel->status(Tid) == resilience::CancelReason::None) {
    uint64_t Slice = std::min<uint64_t>(Micros, 500);
    backoff(Slice);
    Micros -= Slice;
  }
}

/// Rounds the requested shard count up to a power of two in
/// [1, MaxShards] (shard routing masks the location hash).
static uint32_t normalizeShardCount(unsigned Requested) {
  uint32_t N = Requested ? static_cast<uint32_t>(Requested) : 1;
  N = std::min(N, ShardedRuntime::MaxShards);
  uint32_t P = 1;
  while (P < N)
    P <<= 1;
  return P;
}

ShardedRuntime::ShardedRuntime(const ObjectRegistry &Reg,
                               ConflictDetector &Detector,
                               ShardedConfig Config)
    : Reg(Reg), Detector(Detector), Config(Config),
      NumShards(normalizeShardCount(Config.NumShards)),
      AllShards(~uint64_t{0} >> (64 - NumShards)), Shards(NumShards),
      Workers(std::max(1u, Config.NumThreads)) {
  JANUS_ASSERT(Config.NumThreads >= 1, "need at least one thread");
  for (Shard &Sh : Shards) {
    // Version 0 is "nothing committed here yet".
    Sh.Oldest = new ShardState{/*GlobalTime=*/1, /*Version=*/0, Snapshot{},
                               nullptr, nullptr};
    Sh.Published.store(Sh.Oldest, std::memory_order_release);
  }
  for (WorkerSlot &W : Workers) {
    W.Views.resize(NumShards);
    W.Attempt.resize(NumShards);
  }
  Trace.Shards = NumShards;
  if (obs::Observer *O = obs::janusObs(Config.Obs)) {
    // Pre-create the per-shard instruments (registry creation takes a
    // mutex; lookups here keep it off the commit path).
    ShardCommitCounters.reserve(NumShards);
    ShardAbortCounters.reserve(NumShards);
    for (uint32_t S = 0; S != NumShards; ++S) {
      const std::string Prefix = "stm.shard." + std::to_string(S);
      ShardCommitCounters.push_back(
          &O->metrics().counter(Prefix + ".commits"));
      ShardAbortCounters.push_back(&O->metrics().counter(Prefix + ".aborts"));
    }
  }
}

ShardedRuntime::~ShardedRuntime() {
  Stopping.store(true, std::memory_order_relaxed);
  for (WorkerSlot &W : Workers) {
    W.Wake.fetch_add(1, std::memory_order_release);
    W.Wake.notify_one();
  }
  for (std::thread &T : Pool)
    T.join();
  for (Shard &Sh : Shards) {
    ShardState *S = Sh.Oldest;
    while (S) {
      ShardState *N = S->Newer;
      delete S;
      S = N;
    }
    for (ShardState *P : Sh.Pool)
      delete P;
  }
}

void ShardedRuntime::setInitialState(Snapshot S) {
  // Split the store by location routing, then swap every shard's slice
  // under all shard mutexes. This is meant for configuration *before*
  // running: a swap preserves each shard's version, so an attempt in
  // flight across the swap could conflate the old and new slices. One
  // shard owns every location, so it takes the store as is (O(1)).
  std::vector<Snapshot> Parts(NumShards);
  if (NumShards == 1)
    Parts[0] = std::move(S);
  else
    S.forEach([this, &Parts](const Location &L, const Value &V) {
      uint32_t Idx = shardIndexOf(L, NumShards);
      Parts[Idx].setInPlace(L, V);
    });
  ShardState *Cur[MaxShards] = {};
  lockShards(AllShards, Cur);
  for (uint32_t I = 0; I != NumShards; ++I)
    publish(I, Cur[I], std::move(Parts[I]));
  unlockShards(AllShards);
}

Snapshot ShardedRuntime::sharedState() const {
  // A cross-shard-consistent cut needs every shard's commit point held
  // at once: a cross-shard commit publishes its shards while holding
  // all their mutexes, so it is either entirely visible here or not at
  // all. Shard key sets are disjoint, so the merge starts from shard
  // 0's slice (O(1) at one shard) and inserts the others into it.
  ShardState *Cur[MaxShards] = {};
  lockShards(AllShards, Cur);
  Snapshot Out = Cur[0]->State;
  for (uint32_t I = 1; I != NumShards; ++I)
    Cur[I]->State.forEach([&Out](const Location &L, const Value &V) {
      Out.setInPlace(L, V);
    });
  unlockShards(AllShards);
  return Out;
}

void ShardedRuntime::setRunParams(bool Ordered, resilience::FaultPlan Faults,
                                  const resilience::CancellationTable *Cancel,
                                  resilience::PressureBoard *Board) {
  Config.Ordered = Ordered;
  Config.Faults = std::move(Faults);
  Config.Cancel = Cancel;
  Config.Resilience.Board = Board;
}

void ShardedRuntime::trim() {
  // Quiesced, no worker holds a hazard: recycling keeps only each
  // shard's published state, and no window can start below it.
  for (uint32_t S = 0; S != NumShards; ++S) {
    std::lock_guard<std::mutex> Guard(Shards[S].CommitMutex);
    recycleShardStates(S, Shards[S].Published.load(std::memory_order_relaxed));
  }
  for (WorkerSlot &W : Workers)
    W.CommitLog.clear();
}

size_t ShardedRuntime::historySize() const {
  size_t Total = 0;
  for (uint32_t I = 0; I != NumShards; ++I) {
    std::lock_guard<std::mutex> Guard(Shards[I].CommitMutex);
    const ShardState *P = Shards[I].Published.load(std::memory_order_relaxed);
    Total += static_cast<size_t>(P->Version - Shards[I].Oldest->Version);
  }
  return Total;
}

std::vector<uint32_t> ShardedRuntime::commitOrder() const {
  // Per-worker (stamp, tid) buffers merged by the dense global clock.
  // Call after run() has returned (the buffers are worker-private).
  std::vector<std::pair<uint64_t, uint32_t>> All;
  for (const WorkerSlot &W : Workers)
    All.insert(All.end(), W.CommitLog.begin(), W.CommitLog.end());
  std::sort(All.begin(), All.end());
  std::vector<uint32_t> Out;
  Out.reserve(All.size());
  for (const auto &[Stamp, Tid] : All)
    Out.push_back(Tid);
  return Out;
}

void ShardedRuntime::acquireShard(uint32_t S, WorkerSlot &Worker) {
  Shard &Sh = Shards[S];
  std::atomic<ShardState *> &Hz = Worker.Hazards[S];
  // Validated hazard publication. The committer publishes its
  // successor (seq_cst store) and only then scans the hazard slots
  // (seq_cst loads); we store the hazard (seq_cst) and then re-load
  // Published (seq_cst). In the seq_cst total order either the
  // committer's scan sees our slot — and keeps the state — or our
  // re-load sees the newer publication and we retry. Either way we
  // never dereference a recycled state. (The slot may transiently
  // name a stale pointer; committers compare hazards against live
  // chain members only and never dereference slot values.)
  ShardState *P = nullptr;
  do {
    P = Sh.Published.load(std::memory_order_seq_cst);
    Hz.store(P, std::memory_order_seq_cst);
  } while (Sh.Published.load(std::memory_order_seq_cst) != P);
  ShardBackend::View &V = Worker.Views[S];
  V.Entry = P->State; // O(1) persistent copy of the shard slice.
  V.Private = V.Entry;
  V.Stamp = P->GlobalTime;
  V.Acquired = true;
  // The rest of the scratch is clean: releaseAttempt reset it.
  AttemptShard &A = Worker.Attempt[S];
  A.Now = P;
  A.Detected = P;
  A.EntryVersion = P->Version;
}

void ShardedRuntime::releaseAttempt(WorkerSlot &Worker, uint64_t Mask) {
  for (uint64_t M = Mask; M; M &= M - 1) {
    const auto S = static_cast<uint32_t>(std::countr_zero(M));
    // The seq_cst clear is what recycling synchronizes with: a
    // committer that observes it may rewrite the state we just used.
    Worker.Hazards[S].store(nullptr, std::memory_order_seq_cst);
    Worker.Views[S] = ShardBackend::View{};
    Worker.Attempt[S].reset();
  }
}

void ShardedRuntime::projectLog(const TxLogRef &Log, uint64_t Mask,
                                WorkerSlot &Worker) {
  if ((Mask & (Mask - 1)) == 0) {
    if (Mask)
      Worker.Attempt[std::countr_zero(Mask)].Log = Log;
    return;
  }
  for (const LogEntry &E : *Log)
    Worker.Attempt[shardIndexOf(E.Loc, NumShards)].Projection.push_back(E);
  for (uint64_t M = Mask; M; M &= M - 1) {
    AttemptShard &A = Worker.Attempt[std::countr_zero(M)];
    A.Log = std::make_shared<const TxLog>(A.Projection);
  }
}

void ShardedRuntime::lockShards(uint64_t Mask, ShardState **Cur,
                                uint64_t StallMicros) const {
  for (uint64_t M = Mask; M; M &= M - 1) {
    const auto S = static_cast<uint32_t>(std::countr_zero(M));
    Shards[S].CommitMutex.lock();
    Cur[S] = Shards[S].Published.load(std::memory_order_relaxed);
    // Torn-commit probe (fault injection): stall between successive
    // shard-lock acquisitions — the window in which a broken two-phase
    // protocol would let readers observe a partial publication. The
    // torn-commit test drives concurrent readers through exactly this
    // gap.
    if (StallMicros && (M & (M - 1)))
      backoff(StallMicros);
  }
}

void ShardedRuntime::unlockShards(uint64_t Mask) const {
  for (uint64_t M = Mask; M;) {
    const auto S = static_cast<uint32_t>(63 - std::countl_zero(M));
    Shards[S].CommitMutex.unlock();
    M &= ~(uint64_t{1} << S);
  }
}

void ShardedRuntime::publish(uint32_t S, ShardState *Cur, Snapshot State,
                             WorkerSlot *Committer, uint64_t CommitTime,
                             TxLogRef Log) {
  Shard &Sh = Shards[S];
  ShardState *Next = allocState(Sh);
  Next->State = std::move(State);
  Next->Log = std::move(Log);
  Next->Newer = nullptr;
  Next->Version = Committer ? Cur->Version + 1 : Cur->Version;
  Next->GlobalTime = Committer ? CommitTime : Cur->GlobalTime;
  // The link is written before Next is published: a walk that loads
  // Next (or a newer state) from Published reads it race-free.
  Cur->Newer = Next;
  Sh.Published.store(Next, std::memory_order_seq_cst);
  // A committer drops its own hazard before recycling, so its entry
  // state is recycled now, while its view still references the slice:
  // the slice is then freed by releaseAttempt, after the turn handoff,
  // not by the next committer under its lock.
  if (Committer)
    Committer->Hazards[S].store(nullptr, std::memory_order_seq_cst);
  recycleShardStates(S, Next);
}

uint64_t ShardedRuntime::commitShards(uint64_t Mask, ShardState *const *Cur,
                                      WorkerSlot &Worker) {
  const uint64_t CommitTime = Clock.fetch_add(1, std::memory_order_seq_cst) + 1;
  for (uint64_t M = Mask; M; M &= M - 1) {
    const auto S = static_cast<uint32_t>(std::countr_zero(M));
    AttemptShard &A = Worker.Attempt[S];
    publish(S, Cur[S], std::move(A.Replayed), &Worker, CommitTime,
            std::move(A.Log));
  }
  return CommitTime;
}

void ShardedRuntime::finishCommit(const AttemptEnd &End, uint64_t Acquired,
                                  WorkerSlot &Worker, bool Sampled,
                                  double SpanTs, double LatencyTs) {
  obs::Observer *const O = obs::janusObs(Config.Obs);
  if (End.Mask & (End.Mask - 1))
    ++Stats.CrossShardCommits;
  Worker.CommitLog.emplace_back(End.Clock, End.Tid);
  if (O && !ShardCommitCounters.empty())
    for (uint64_t M = End.Mask; M; M &= M - 1)
      ++*ShardCommitCounters[std::countr_zero(M)];
  if (Sampled) {
    const double EndTs = O->nowUs();
    const double Dur = EndTs - SpanTs;
    if (End.Mode != CommitMode::Speculative)
      O->span(End.Lane, "serial", End.Tid, End.Attempt, SpanTs, Dur, "clock",
              static_cast<double>(End.Clock),
              End.Mode == CommitMode::Placeholder ? "placeholder"
                                                  : "fallback");
    else if (End.Mask)
      O->span(End.Lane, "commit", End.Tid, End.Attempt, SpanTs, Dur, "shards",
              static_cast<double>(std::popcount(End.Mask)));
    else
      O->span(End.Lane, "commit", End.Tid, End.Attempt, SpanTs, Dur, "clock",
              static_cast<double>(End.Clock));
    O->commitLatency().record(EndTs - LatencyTs);
  }
  Life->report(End, Worker.Events, [O] { return O->nowUs(); });
  // Open the successor's turn after the publish, so it validates
  // against this commit, and before freeing the attempt's private
  // copies: in ordered mode the successor waits on exactly this call.
  if (Config.Ordered)
    openTurn(End.Tid + 1);
  releaseAttempt(Worker, Acquired);
}

void ShardedRuntime::openTurn(uint32_t Tid) {
  std::atomic<uint32_t> &Word = Workers[Tid % Workers.size()].Turn;
  Word.store(Tid, std::memory_order_release);
  Word.notify_one();
}

void ShardedRuntime::waitForTurn(uint32_t Tid, uint32_t Attempt,
                                 unsigned Lane, bool Sampled) {
  if (!Config.Ordered)
    return;
  // Task Tid's turn opens when task Tid - 1 has committed, after its
  // publish (finishCommit), so reading Tid here (acquire) makes every
  // earlier commit visible. Within a run a word only moves forward, to
  // a later turn at the same index, so 32-bit equality is exact. The
  // unfinished tasks of an ordered run are consecutive and at most one
  // per slot, so they wait on distinct words: notify_one wakes exactly
  // the successor. (libstdc++ futex-waits directly only on 4-byte
  // atomics; a wider word would wait on a shared proxy, where every
  // notify is a broadcast.)
  std::atomic<uint32_t> &Word = Workers[Tid % Workers.size()].Turn;
  uint32_t Seen = Word.load(std::memory_order_acquire);
  if (Seen == Tid)
    return;
  obs::Observer *const O = obs::janusObs(Config.Obs);
  const double EntryTs = Sampled ? O->nowUs() : 0.0;
  do {
    Word.wait(Seen, std::memory_order_acquire);
    Seen = Word.load(std::memory_order_acquire);
  } while (Seen != Tid);
  if (Sampled)
    O->span(Lane, "turn-wait", Tid, Attempt, EntryTs, O->nowUs() - EntryTs);
}

ShardedRuntime::ShardState *ShardedRuntime::allocState(Shard &Sh) {
  if (!Sh.Pool.empty()) {
    ShardState *S = Sh.Pool.back();
    Sh.Pool.pop_back();
    return S;
  }
  return new ShardState();
}

void ShardedRuntime::recycleShardStates(uint32_t S, ShardState *Cur) {
  Shard &Sh = Shards[S];
  // Recycle the unreferenced chain prefix. The walk stops at the first
  // hazarded state, so a hazard keeps its state *and every newer one*
  // allocated — an attempt's validation rounds read newer states under
  // the hazard it published at acquisition. Hazard slots are compared
  // by address against live chain members only — a slot transiently
  // naming an already-recycled pointer can at worst alias a live
  // state and delay its recycling, never resurrect a dead one.
  while (Sh.Oldest != Cur) {
    ShardState *Candidate = Sh.Oldest;
    bool Hazarded = false;
    for (WorkerSlot &W : Workers) {
      if (W.Hazards[S].load(std::memory_order_seq_cst) == Candidate) {
        Hazarded = true;
        break;
      }
    }
    if (Hazarded)
      break;
    Sh.Oldest = Candidate->Newer;
    // Drop the slice and the log now: every window that could still
    // collect the log starts at a hazarded state older than this one.
    // Reading the cleared hazard above happens-after the owner's last
    // use, so these writes cannot race it.
    Candidate->State = Snapshot{};
    Candidate->Log.reset();
    Candidate->Newer = nullptr;
    Sh.Pool.push_back(Candidate);
  }
}

Abort ShardedRuntime::runTask(const TaskFn &Task, uint32_t Tid,
                              uint32_t Attempt, unsigned Lane,
                              WorkerSlot &Worker, std::string &ThrowMsg) {
  obs::Observer *const O = obs::janusObs(Config.Obs);
  const bool Sampled = O && O->sampled(Tid);
  const double AttemptTs = Sampled ? O->nowUs() : 0.0;
  // CREATETRANSACTION is distributed: no shard is touched until the
  // body's first access routes there (TxContext::stateFor →
  // acquireShard). The clock here is the begin of an attempt that ends
  // up touching no shard at all.
  const uint64_t ClockAtBegin = Clock.load(std::memory_order_acquire);

  AttemptBackend Backend(*this, Worker);
  TxContext Tx(Backend, Tid, Reg, &Stats);
  const double BodyTs = Sampled ? O->nowUs() : 0.0;
  const bool Threw = !Life->run(Task, Tx, Attempt, &ThrowMsg);
  const uint64_t Mask = Tx.accessedShards();
  if (Sampled) {
    O->span(Lane, "begin", Tid, Attempt, AttemptTs, BodyTs - AttemptTs,
            "clock", static_cast<double>(ClockAtBegin));
    O->span(Lane, "body", Tid, Attempt, BodyTs, O->nowUs() - BodyTs, "shards",
            static_cast<double>(std::popcount(Mask)));
  }
  const TxLogRef Log = Threw || Tx.log().empty()
                           ? emptyTxLog()
                           : std::make_shared<const TxLog>(Tx.log());
  // The end record reads the views' acquisition stamps, so every exit
  // reports before releaseAttempt.
  AttemptEnd End{Tid, Attempt, Lane, Abort::None, CommitMode::Speculative,
                 ClockAtBegin, 0, &Log, nullptr, Worker.Views.data(), Mask};
  auto Now = [O] { return O->nowUs(); };

  // Cancelled, thrown and injected aborts end before the ordered wait: a
  // doomed attempt must not occupy its commit turn.
  End.Reason = Life->classify(Threw, Tid, Attempt);
  if (End.Reason != Abort::None) {
    Life->report(End, Worker.Events, Now);
    releaseAttempt(Worker, Mask);
    return End.Reason;
  }

  // Ordered mode: wait for all preceding tasks to commit.
  waitForTurn(Tid, Attempt, Lane, Sampled);

  if (uint64_t Delay = Config.Faults.commitDelay(Tid, Attempt)) {
    ++Stats.FaultsInjected;
    backoff(Delay);
  }

  // Empty fast path: a transaction that touched no shard validates
  // vacuously and publishes nothing — its commit is one atomic tick
  // of the global clock, keeping the total order (and ordered-mode
  // turn arithmetic) dense. Allocation-free: the log reference above
  // is the shared empty log.
  if (Mask == 0) {
    const double CommitTs = Sampled ? O->nowUs() : 0.0;
    End.Clock = Clock.fetch_add(1, std::memory_order_seq_cst) + 1;
    ++Stats.EmptyCommits;
    finishCommit(End, Mask, Worker, Sampled, CommitTs, AttemptTs);
    return Abort::None;
  }

  // Once per attempt: each shard's history (and its detection window
  // for other transactions) carries exactly that shard's operations.
  projectLog(Log, Mask, Worker);
  while (true) {
    // DETECTCONFLICTS per touched shard, each against its own entry
    // snapshot and its own incremental window — sound because
    // detection decomposes per location (§5.3) and a location's
    // committed ops live exactly in its shard's history.
    for (uint64_t M = Mask; M; M &= M - 1) {
      const auto S = static_cast<uint32_t>(std::countr_zero(M));
      AttemptShard &A = Worker.Attempt[S];
      // Refresh the shard's published state. The hazard acquireShard
      // published stays on the entry state for the whole attempt, and
      // recycling frees only the chain prefix older than a hazarded
      // state, so this state (the entry state or a newer one) stays
      // allocated without a hazard store per round.
      // JANUS_LINT_ALLOW(snapshot-hazard-scope): the entry hazard covers
      // every newer state of the shard's chain.
      ShardState *P = Shards[S].Published.load(std::memory_order_acquire);
      A.Now = P;
      if (P == A.Detected)
        continue; // No new commits in this shard since the last round.
      const double DetectTs = Sampled ? O->nowUs() : 0.0;
      // Extend the window from the cursor to P along the chain, in
      // commit order. Every link read belongs to a state older than P,
      // written before P's publication, and no state from the entry on
      // is recycled while the entry hazard holds; P's own link (still
      // being written by the next committer) is never read.
      for (const ShardState *At = A.Detected; At != P;) {
        JANUS_ASSERT(At->Version < P->Version,
                     "history walk passed the published state");
        const ShardState *Next = At->Newer;
        JANUS_ASSERT(Next != nullptr && Next->Version == At->Version + 1,
                     "committed history not dense: a state in a live "
                     "window was recycled");
        A.OpsC.push_back(Next->Log);
        At = Next;
      }
      ++Stats.ConflictChecks;
      const bool C =
          Detector.detectConflicts(Worker.Views[S].Entry, *A.Log, A.OpsC, Reg);
      A.Detected = P;
      if (Sampled) {
        double Dur = O->nowUs() - DetectTs;
        O->detectLatency().record(Dur);
        O->span(Lane, "detect", Tid, Attempt, DetectTs, Dur, "window",
                static_cast<double>(A.OpsC.size()));
      }
      if (!C)
        continue;
      if (O && !ShardAbortCounters.empty())
        ++*ShardAbortCounters[S];
      // Detect-end clock: the conflicting commit's global stamp is at
      // most the clock read here (it published before detection saw
      // it), so replay's window (begin, detect-end] covers it.
      End.Reason = Abort::Conflict;
      End.Clock = Clock.load(std::memory_order_acquire);
      Life->report(End, Worker.Events, Now);
      releaseAttempt(Worker, Mask);
      return Abort::Conflict;
    }

    // REPLAYLOGGEDOPERATIONS per shard, outside every lock. When the
    // shard has not advanced since acquisition, the privatized view
    // already *is* entry-plus-log — an O(1) reuse that keeps the
    // single-shard fast path free of a second replay walk.
    const double ReplayTs = Sampled ? O->nowUs() : 0.0;
    for (uint64_t M = Mask; M; M &= M - 1) {
      const auto S = static_cast<uint32_t>(std::countr_zero(M));
      AttemptShard &A = Worker.Attempt[S];
      const uint64_t NowVer = A.Now->Version;
      if (A.ReplayedVersion == NowVer && NowVer != 0)
        continue; // Still valid from the previous round.
      if (NowVer == A.EntryVersion) {
        A.Replayed = Worker.Views[S].Private;
      } else {
        A.Replayed = A.Now->State;
        applyLog(A.Replayed, *A.Log);
      }
      A.ReplayedVersion = NowVer;
    }
    if (Sampled)
      O->span(Lane, "replay", Tid, Attempt, ReplayTs, O->nowUs() - ReplayTs,
              "ops", static_cast<double>(Log->size()));

    // COMMIT: two-phase acquire over exactly the touched shards, in the
    // global lock order the serial fallback shares. Validate all by
    // pointer identity — exact here: A.Now is the hazarded entry state
    // or newer, so it cannot have been recycled and re-published — then
    // stamp one global clock tick, publish all, unlock.
    const double CommitTs = Sampled ? O->nowUs() : 0.0;
    const uint64_t Stall = Config.Faults.acquireDelay(Tid, Attempt);
    if (Stall)
      Stats.FaultsInjected += std::popcount(Mask) - 1;
    ShardState *Cur[MaxShards] = {};
    lockShards(Mask, Cur, Stall);
    bool Valid = true;
    for (uint64_t M = Mask; M && Valid; M &= M - 1) {
      const auto S = static_cast<uint32_t>(std::countr_zero(M));
      Valid = Cur[S] == Worker.Attempt[S].Now;
    }
    if (!Valid) {
      // An ordered attempt validates after its turn opened: every
      // predecessor had published, and no successor commits before it.
      JANUS_ASSERT(!Config.Ordered, "ordered validation failed");
      unlockShards(Mask);
      ++Stats.ValidationFailures;
      if (Sampled)
        O->instant(Lane, "validate-fail", Tid, Attempt, CommitTs);
      continue;
    }
    End.Clock = commitShards(Mask, Cur, Worker);
    unlockShards(Mask);
    finishCommit(End, Mask, Worker, Sampled, CommitTs, AttemptTs);
    return Abort::None;
  }
}

void ShardedRuntime::commitSerial(const TaskFn *Task, uint32_t Tid,
                                  uint32_t Attempt, unsigned Lane,
                                  WorkerSlot &Worker) {
  obs::Observer *const O = obs::janusObs(Config.Obs);
  const bool Sampled = O && O->sampled(Tid);
  const double SerialTs = Sampled ? O->nowUs() : 0.0;

  // Ordered mode: wait for the turn *before* taking any lock — the
  // predecessor's commit needs its shard mutexes.
  waitForTurn(Tid, Attempt, Lane, Sampled);

  // Lock *every* shard: a strict superset of any speculative
  // committer's lock set, in the same global order, so no deadlock —
  // and with all commit points held, execution here is irrevocable
  // (nothing can invalidate it).
  ShardState *Cur[MaxShards] = {};
  lockShards(AllShards, Cur);

  uint64_t Mask = 0;
  TxLogRef Log = emptyTxLog(); // Placeholder: no effects survive.
  CommitMode Mode = Task ? CommitMode::Serial : CommitMode::Placeholder;
  if (Task) {
    AttemptBackend Backend(*this, Worker);
    TxContext Tx(Backend, Tid, Reg, &Stats);
    std::string ThrowMsg;
    if (Life->run(*Task, Tx, Attempt, &ThrowMsg)) {
      Log = std::make_shared<const TxLog>(Tx.log());
    } else {
      Life->fail(Tid, Attempt, ThrowMsg, Worker.Failures);
      Mode = CommitMode::Placeholder;
    }
    Mask = Tx.accessedShards();
  }
  // Acquired under the full lock set, each privatized view is
  // entry-plus-log of its shard's live state: it is what commits.
  const uint64_t Effects = Mode == CommitMode::Placeholder ? 0 : Mask;
  projectLog(Log, Effects, Worker);
  for (uint64_t M = Effects; M; M &= M - 1) {
    const auto S = static_cast<uint32_t>(std::countr_zero(M));
    Worker.Attempt[S].Replayed = Worker.Views[S].Private;
  }
  const uint64_t CommitTime = commitShards(Effects, Cur, Worker);
  unlockShards(AllShards);
  finishCommit(AttemptEnd{Tid, Attempt, Lane, Abort::None, Mode,
                          CommitTime - 1, CommitTime, &Log, nullptr,
                          Worker.Views.data(), Effects},
               Mask, Worker, Sampled, SerialTs, SerialTs);
}

void ShardedRuntime::drain(unsigned Slot) noexcept {
  const std::vector<TaskFn> &Tasks = *RunTasks;
  WorkerSlot &W = Workers[Slot];
  obs::Observer *const O = obs::janusObs(Config.Obs);
  while (true) {
    size_t Idx = NextTask.fetch_add(1, std::memory_order_relaxed);
    if (Idx >= Tasks.size())
      return;
    const uint32_t Tid = static_cast<uint32_t>(Idx + 1);
    for (uint32_t Attempt = 1;; ++Attempt) {
      // A task cancelled at the attempt boundary has made one attempt
      // fewer than this one.
      const bool Cancelled = Life->cancelled(Tid);
      std::string ThrowMsg;
      const Abort Why = Cancelled ? Abort::Cancelled
                                  : runTask(Tasks[Idx], Tid, Attempt, Slot,
                                            W, ThrowMsg);
      if (Why == Abort::None)
        break;
      const uint32_t Made = Cancelled ? Attempt - 1 : Attempt;
      const Lifecycle::Next N =
          Life->next(Tid, Made, Slot, Why, ThrowMsg, W.Failures,
                     Clock.load(std::memory_order_acquire));
      if (N.Kind != Lifecycle::Step::Retry) {
        const bool Serial = N.Kind == Lifecycle::Step::Serial;
        commitSerial(Serial ? &Tasks[Idx] : nullptr, Tid, Made + 1, Slot, W);
        break;
      }
      if (!O || !O->sampled(Tid)) {
        cancellableBackoff(N.BackoffMicros, Config.Cancel, Tid);
        continue;
      }
      double Ts = O->nowUs();
      cancellableBackoff(N.BackoffMicros, Config.Cancel, Tid);
      double Dur = O->nowUs() - Ts;
      O->backoffWait().record(Dur);
      O->span(Slot, "backoff", Tid, Attempt, Ts, Dur, "requested_us",
              static_cast<double>(N.BackoffMicros), "retry");
    }
    ++Stats.Commits;
    if (Config.Resilience.Board)
      Config.Resilience.Board->CommitTicks.fetch_add(
          1, std::memory_order_relaxed);
  }
}

void ShardedRuntime::poolLoop(unsigned Slot) {
  std::atomic<uint32_t> &Wake = Workers[Slot].Wake;
  // The word reads 0 until the first run that wants this slot, which
  // comes after the spawn; it is read again before Busy drops, since
  // the next run may bump it as soon as Busy reaches 0.
  for (uint32_t Seen = 0;;) {
    Wake.wait(Seen, std::memory_order_acquire);
    Seen = Wake.load(std::memory_order_acquire);
    if (Stopping.load(std::memory_order_relaxed))
      return;
    drain(Slot);
    // run() may return, and the runtime start its destruction, as soon
    // as Busy reads 0. The late notify is still safe: the destructor
    // joins the pool before Busy is destroyed.
    if (Busy.fetch_sub(1, std::memory_order_acq_rel) == 1)
      Busy.notify_one();
  }
}

void ShardedRuntime::run(const std::vector<TaskFn> &Tasks) {
  Stats.Tasks += Tasks.size();
  Life.emplace(Config, Tasks.size(), Stats);
  Failures.clear();
  if (Config.RecordTrace) {
    Trace.Recorded = true;
    Trace.Initial = sharedState();
    Trace.Events.clear();
  }
  // Ordered turns count task ids from 1 in every run: each word starts
  // the run closed, and task 1's turn is open.
  for (WorkerSlot &W : Workers)
    W.Turn.store(0, std::memory_order_relaxed);
  openTurn(1);
  RunTasks = &Tasks;
  NextTask.store(0, std::memory_order_relaxed);

  // Wake slots 1..N-1 of the parked pool (spawned at the first
  // multi-worker run; a spawn that threw is resumed by the next run
  // rather than leaving a slot without its thread); the caller drains
  // as slot 0.
  const unsigned N = std::min<unsigned>(Config.NumThreads,
                                        std::max<size_t>(Tasks.size(), 1));
  if (N > 1) {
    while (Pool.size() + 1 < Workers.size())
      Pool.emplace_back(&ShardedRuntime::poolLoop, this,
                        static_cast<unsigned>(Pool.size() + 1));
    Busy.store(N - 1, std::memory_order_relaxed);
    for (unsigned I = 1; I != N; ++I) {
      Workers[I].Wake.fetch_add(1, std::memory_order_release);
      Workers[I].Wake.notify_one();
    }
  }
  drain(0);
  // Every woken slot's decrement releases its share of the run.
  for (unsigned B; (B = Busy.load(std::memory_order_acquire)) != 0;)
    Busy.wait(B, std::memory_order_acquire);
  RunTasks = nullptr;

  if (Config.RecordTrace) {
    for (WorkerSlot &W : Workers) {
      for (TraceEvent &E : W.Events)
        Trace.Events.push_back(std::move(E));
      W.Events.clear();
    }
    Trace.Final = sharedState();
  }
  for (WorkerSlot &W : Workers) {
    for (resilience::TaskFailure &F : W.Failures)
      Failures.push_back(std::move(F));
    W.Failures.clear();
  }
  std::sort(Failures.begin(), Failures.end(),
            [](const resilience::TaskFailure &A,
               const resilience::TaskFailure &B) { return A.Tid < B.Tid; });
}
