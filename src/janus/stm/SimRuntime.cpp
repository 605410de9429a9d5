#include "janus/stm/SimRuntime.h"

#include <map>
#include <queue>

using namespace janus;
using namespace janus::stm;

SimRuntime::SimRuntime(const ObjectRegistry &Reg, ConflictDetector &Detector,
                       SimConfig Config)
    : Reg(Reg), Detector(Detector), Config(Config) {
  JANUS_ASSERT(Config.NumCores >= 1, "need at least one core");
}

SimRuntime::Attempt SimRuntime::execute(const std::vector<TaskFn> &Tasks,
                                        size_t Idx, uint32_t AttemptNo) {
  Attempt A;
  A.BeginSeq = CommitSeq;
  A.Entry = Shared;
  TxContext Tx(Shared, static_cast<uint32_t>(Idx + 1), Reg, &Stats);
  A.Threw = !Life->run(Tasks[Idx], Tx, AttemptNo, &A.ThrowMsg);
  // A thrown attempt's partial log is discarded — exception safety
  // means no effect of the doomed body can ever reach the shared state.
  A.Log = A.Threw ? emptyTxLog() : std::make_shared<const TxLog>(Tx.log());
  A.ExecCost = Config.Costs.BeginCost + Tx.virtualCost() +
               Config.Costs.PerLogOp * static_cast<double>(A.Log->size());
  return A;
}

double SimRuntime::sequentialBaseline(const std::vector<TaskFn> &Tasks) {
  Snapshot State = Shared;
  double Time = 0.0;
  for (size_t I = 0, E = Tasks.size(); I != E; ++I) {
    TxContext Tx(State, static_cast<uint32_t>(I + 1), Reg);
    // The baseline only provides the speedup denominator; a task that
    // throws contributes the work it did before failing and no state
    // change (matching the parallel engine, where a failed task's
    // effects never reach the shared state).
    const bool Ok = runBody(Tasks[I], Tx);
    Time += Tx.virtualCost() +
            Config.Costs.SeqPerOp * static_cast<double>(Tx.log().size());
    if (Ok)
      State = Tx.privatizedState();
  }
  return Time;
}

SimOutcome SimRuntime::run(const std::vector<TaskFn> &Tasks) {
  if (Config.Replay)
    return runReplay(Tasks);
  Stats.Tasks += Tasks.size();
  SimOutcome Outcome;
  Outcome.SequentialTime = sequentialBaseline(Tasks);

  // ---- Parallel simulation. ------------------------------------------
  History.clear();
  CommitOrder.clear();
  CommitSeq = 0;
  Life.emplace(Config, Tasks.size(), Stats);
  if (Config.RecordTrace) {
    Trace.Recorded = true;
    Trace.Initial = Shared;
    Trace.Events.clear();
  }
  double LockFreeAt = 0.0;
  uint32_t NextOrderedTid = 1;

  struct CoreTask {
    size_t TaskIdx = 0;
    Attempt Att;
    bool Busy = false;
    uint32_t AttemptNo = 0;
    /// How the task will commit: the contention ladder flips this to
    /// Serial (irrevocable, no detection) or Placeholder (failed task,
    /// empty log).
    CommitMode Mode = CommitMode::Speculative;
    /// Virtual start time of the in-flight attempt (obs commit
    /// latency: begin-to-publication).
    double AttStart = 0.0;
  };
  std::vector<CoreTask> Cores(Config.NumCores);

  // Observability (janus::obs): spans carry *virtual* timestamps, so a
  // simulated trace is bit-identical across runs. Folds away under
  // JANUS_OBS=OFF exactly as on the threaded engine.
  obs::Observer *const O = obs::janusObs(Config.Obs);

  // Completion events: (time, tiebreak, core). Processed in time order;
  // the tiebreak keeps the schedule deterministic.
  using Event = std::tuple<double, uint64_t, unsigned>;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> Events;
  uint64_t EventSeq = 0;

  // Parked ordered-mode transactions: Tid -> (core, ready time).
  std::map<uint32_t, std::pair<unsigned, double>> Parked;

  size_t NextTask = 0;
  double MakeSpan = 0.0;

  // Runs the task's next attempt on Core from virtual time Start: its
  // body span and its completion event.
  auto Execute = [&](unsigned Core, CoreTask &CT, double Start) {
    CT.Att = execute(Tasks, CT.TaskIdx, ++CT.AttemptNo);
    CT.AttStart = Start;
    const auto Tid = static_cast<uint32_t>(CT.TaskIdx + 1);
    if (O && O->sampled(Tid))
      O->span(Core, "body", Tid, CT.AttemptNo, Start, CT.Att.ExecCost);
    Events.emplace(Start + CT.Att.ExecCost, EventSeq++, Core);
  };

  auto StartTask = [&](unsigned Core, double Time) {
    if (NextTask >= Tasks.size())
      return;
    CoreTask &CT = Cores[Core];
    CT.TaskIdx = NextTask++;
    CT.AttemptNo = 0;
    CT.Mode = CommitMode::Speculative;
    CT.Busy = true;
    Execute(Core, CT, Time);
  };

  // An attempt that did not commit, at virtual time At: its end record,
  // then the ladder's step — a retry after backoff charged as virtual
  // time (\returns true), or the serial or placeholder commit that
  // ends the task.
  auto EndAttempt = [&](unsigned Core, CoreTask &CT, Abort Why, double At,
                        uint64_t DetectEnd) {
    const auto Tid = static_cast<uint32_t>(CT.TaskIdx + 1);
    Life->report(AttemptEnd{Tid, CT.AttemptNo, Core, Why,
                            CommitMode::Speculative, CT.Att.BeginSeq,
                            DetectEnd, &CT.Att.Log, &CT.Att.Entry},
                 Trace.Events, [At] { return At; });
    const Lifecycle::Next N = Life->next(Tid, CT.AttemptNo, Core, Why,
                                         CT.Att.ThrowMsg, Outcome.Failures,
                                         CommitSeq);
    if (N.Kind == Lifecycle::Step::Retry) {
      const auto Wait = static_cast<double>(N.BackoffMicros);
      if (N.BackoffMicros && O && O->sampled(Tid)) {
        O->span(Core, "backoff", Tid, CT.AttemptNo, At, Wait, "requested_us",
                Wait, "retry");
        O->backoffWait().record(Wait);
      }
      Execute(Core, CT, At + Wait);
      return true;
    }
    ++CT.AttemptNo;
    CT.Mode = N.Kind == Lifecycle::Step::Serial ? CommitMode::Serial
                                             : CommitMode::Placeholder;
    CT.Att.Log = emptyTxLog(); // Serial re-executes; placeholders commit none.
    return false;
  };

  for (unsigned C = 0; C != Config.NumCores; ++C)
    StartTask(C, 0.0);

  while (!Events.empty()) {
    auto [Time, Seq, Core] = Events.top();
    Events.pop();
    (void)Seq;
    CoreTask &CT = Cores[Core];
    JANUS_ASSERT(CT.Busy, "event for idle core");
    uint32_t Tid = static_cast<uint32_t>(CT.TaskIdx + 1);

    // Cancelled, thrown and injected aborts end before the turn wait: a
    // retrying task must not occupy its commit turn. A parked attempt
    // is classified again when its turn comes (cancellation may have
    // fired meanwhile).
    if (CT.Mode == CommitMode::Speculative) {
      Abort Why = Life->classify(CT.Att.Threw, Tid, CT.AttemptNo);
      if (Why != Abort::None && EndAttempt(Core, CT, Why, Time, 0))
        continue;
    }

    // Ordered mode: wait for this transaction's turn.
    if (Config.Ordered && Tid != NextOrderedTid) {
      JANUS_ASSERT(Tid > NextOrderedTid, "predecessor turn already passed");
      Parked.emplace(Tid, std::make_pair(Core, Time));
      continue;
    }

    Attempt &Att = CT.Att;
    double CommitAt = std::max(Time, LockFreeAt);

    if (CT.Mode == CommitMode::Speculative) {
      // Detection cost: proportional to the operations examined,
      // identical for both detectors (§7.1).
      size_t Examined = Att.Log->size();
      std::vector<TxLogRef> Window;
      for (size_t I = Att.BeginSeq; I != History.size(); ++I) {
        Window.push_back(History[I]);
        Examined += History[I]->size();
      }
      double DetectCost =
          Config.Costs.DetectPerOp * static_cast<double>(Examined);
      CommitAt = std::max(Time + DetectCost, LockFreeAt);

      ++Stats.ConflictChecks;
      bool Conflict = Detector.detectConflicts(Att.Entry, *Att.Log, Window, Reg);
      if (O && O->sampled(Tid)) {
        O->detectLatency().record(DetectCost);
        O->span(Core, "detect", Tid, CT.AttemptNo, Time, DetectCost,
                "window", static_cast<double>(Window.size()));
      }
      // The detect-end clock is the current commit count — the upper
      // bound of the window this attempt conflicted with.
      if (Conflict &&
          EndAttempt(Core, CT, Abort::Conflict, CommitAt, CommitSeq))
        continue;
    }

    if (CT.Mode == CommitMode::Serial) {
      // Irrevocable serial fallback: re-execute against the *current*
      // state and commit without detection. The event loop is
      // sequential, so nothing can commit between this execution and
      // its commit — inherently pessimistic, cannot abort; and in
      // ordered mode this point is only reached on the task's turn.
      Att = execute(Tasks, CT.TaskIdx, CT.AttemptNo);
      CT.AttStart = Time;
      CommitAt = std::max(Time + Att.ExecCost, LockFreeAt);
      if (Att.Threw) {
        Life->fail(Tid, CT.AttemptNo, Att.ThrowMsg, Outcome.Failures);
        CT.Mode = CommitMode::Placeholder; // Log already empty.
      }
      if (O && O->sampled(Tid))
        O->span(Core, "serial", Tid, CT.AttemptNo, Time, Att.ExecCost,
                "clock", static_cast<double>(CommitSeq + 1),
                CT.Mode == CommitMode::Placeholder ? "placeholder"
                                                   : "fallback");
    }

    // Fault injection: delay the commit by virtual units, widening the
    // window in which later attempts must detect against this one.
    if (uint64_t Delay = Config.Faults.commitDelay(Tid, CT.AttemptNo)) {
      ++Stats.FaultsInjected;
      CommitAt += static_cast<double>(Delay);
    }

    // Commit: replay the log on global memory while holding the write
    // lock; commits serialize on LockFreeAt. Serial and placeholder
    // commits begin at the state they commit onto.
    const uint64_t Begin =
        CT.Mode == CommitMode::Speculative ? Att.BeginSeq : CommitSeq;
    ++CommitSeq;
    CommitOrder.push_back(Tid);
    applyLog(Shared, *Att.Log);
    History.push_back(Att.Log);
    Life->report(AttemptEnd{Tid, CT.AttemptNo, Core, Abort::None, CT.Mode,
                            Begin, CommitSeq, &Att.Log, &Att.Entry},
                 Trace.Events, [] { return 0.0; });
    double CommitEnd =
        CommitAt +
        Config.Costs.CommitPerOp * static_cast<double>(Att.Log->size());
    if (O && O->sampled(Tid)) {
      O->span(Core, "commit", Tid, CT.AttemptNo, CommitAt,
              CommitEnd - CommitAt, "clock",
              static_cast<double>(CommitSeq));
      // Commit latency = begin-to-publication of the winning attempt,
      // in virtual units on this engine.
      O->commitLatency().record(CommitEnd - CT.AttStart);
    }
    LockFreeAt = CommitEnd;
    MakeSpan = std::max(MakeSpan, CommitEnd);
    ++Stats.Commits;
    if (Config.Resilience.Board)
      Config.Resilience.Board->CommitTicks.fetch_add(
          1, std::memory_order_relaxed);
    Cores[Core].Busy = false;

    if (Config.Ordered) {
      ++NextOrderedTid;
      auto It = Parked.find(NextOrderedTid);
      if (It != Parked.end()) {
        // The successor finished executing earlier; it may attempt its
        // commit as soon as this commit completes.
        Events.emplace(std::max(It->second.second, CommitEnd), EventSeq++,
                       It->second.first);
        Parked.erase(It);
      }
    }

    StartTask(Core, CommitEnd);
  }

  JANUS_ASSERT(Parked.empty(), "ordered run left parked transactions");
  JANUS_ASSERT(NextTask == Tasks.size(), "tasks left unscheduled");
  if (Config.RecordTrace)
    Trace.Final = Shared;
  Outcome.ParallelTime = MakeSpan;
  return Outcome;
}

SimOutcome SimRuntime::runReplay(const std::vector<TaskFn> &Tasks) {
  const ReplaySchedule &Sched = *Config.Replay;
  Stats.Tasks += Tasks.size();
  SimOutcome Outcome;
  Outcome.SequentialTime = sequentialBaseline(Tasks);

  auto Problem = [this](std::string Msg) {
    if (Config.ReplayProblems)
      Config.ReplayProblems->push_back(std::move(Msg));
  };

  History.clear();
  CommitOrder.clear();
  CommitSeq = 0;
  Life.emplace(Config, Tasks.size(), Stats);
  if (Config.RecordTrace) {
    Trace.Recorded = true;
    Trace.Initial = Shared;
    Trace.Events.clear();
    Trace.Shards = Sched.Shards;
  }

  // Persistent snapshots at every commit clock: StateAt[k] is the
  // global state after commit k (StateAt[0] = initial). With History's
  // replayed logs, they are what entry reconstruction below reads;
  // Snapshot copies are O(1), so keeping them all is cheap.
  std::vector<Snapshot> StateAt{Shared};

  obs::Observer *const O = obs::janusObs(Config.Obs);
  double VirtualNow = 0.0;

  // Reconstructs the entry snapshot a recorded attempt observed. For
  // unsharded attempts that is simply the state at its begin clock.
  // A sharded attempt saw each acquired shard at that shard's own
  // acquisition stamp: start from the state at the earliest stamp and
  // re-apply, from each later commit k, exactly the operations whose
  // location routes to a shard acquired at stamp >= k — per-location
  // detection decomposition (§5.3) run in reverse.
  auto EntryFor = [&](const ReplayStep &S, bool *Ok) -> Snapshot {
    *Ok = true;
    if (S.ShardStamps.empty()) {
      if (S.Begin >= StateAt.size()) {
        Problem("task " + std::to_string(S.Tid) + " attempt " +
                std::to_string(S.Attempt) + ": begin clock " +
                std::to_string(S.Begin) + " exceeds replayed commits");
        *Ok = false;
        return StateAt.back();
      }
      return StateAt[S.Begin];
    }
    uint64_t MinStamp = ~uint64_t{0}, MaxStamp = 0;
    for (const auto &[Shard, Stamp] : S.ShardStamps) {
      MinStamp = std::min(MinStamp, Stamp);
      MaxStamp = std::max(MaxStamp, Stamp);
    }
    if (MaxStamp >= StateAt.size()) {
      Problem("task " + std::to_string(S.Tid) + " attempt " +
              std::to_string(S.Attempt) + ": shard stamp " +
              std::to_string(MaxStamp) + " exceeds replayed commits");
      *Ok = false;
      return StateAt.back();
    }
    auto StampOf = [&](uint32_t Shard) -> uint64_t {
      for (const auto &[Sh, Stamp] : S.ShardStamps)
        if (Sh == Shard)
          return Stamp;
      return MinStamp; // Unacquired shard: never read; base state is fine.
    };
    Snapshot E = StateAt[MinStamp];
    for (uint64_t K = MinStamp + 1; K <= MaxStamp; ++K)
      applyLog(E, *History[K - 1], [&](const LogEntry &LE) {
        return StampOf(shardIndexOf(LE.Loc, Sched.Shards)) >= K;
      });
    return E;
  };

  // Executes one forced attempt against \p Entry — no fault injection
  // (the recording already decided every outcome), no detection. A body
  // that throws is a replay problem (\p What names the step's kind) and
  // yields the empty log.
  auto ExecuteAt = [&](const ReplayStep &S, const Snapshot &Entry,
                       const char *What) -> TxLogRef {
    TxContext Tx(Entry, S.Tid, Reg, &Stats);
    std::string Msg;
    const bool Ok = runBody(Tasks[S.Tid - 1], Tx, false, &Msg);
    VirtualNow += Config.Costs.BeginCost + Tx.virtualCost() +
                  Config.Costs.PerLogOp * static_cast<double>(Tx.log().size());
    if (Ok)
      return std::make_shared<const TxLog>(Tx.log());
    Problem("task " + std::to_string(S.Tid) + " attempt " +
            std::to_string(S.Attempt) + " threw while replaying a " + What +
            " attempt: " + Msg);
    return emptyTxLog();
  };

  for (const ReplayStep &S : Sched.Steps) {
    if (S.Tid == 0 || S.Tid > Tasks.size()) {
      Problem("schedule names task " + std::to_string(S.Tid) +
              " but the workload has " + std::to_string(Tasks.size()));
      continue;
    }
    const double StepTs = VirtualNow;

    if (!S.Committed) {
      // Injected, exception and cancellation aborts are not
      // re-executed: their outcomes were forced from outside the
      // protocol and carry no schedule information. Conflict aborts
      // *are* re-executed at their reconstructed entry — the
      // divergence check needs their logs to confirm the recorded
      // conflict had a real footprint overlap.
      if (S.AbortReason != obs::RecAbortConflict)
        continue;
      bool Ok = false;
      const Snapshot Entry = EntryFor(S, &Ok);
      const TxLogRef Log = ExecuteAt(S, Entry, "conflict-aborted");
      ++Stats.Retries;
      if (O && O->sampled(S.Tid))
        O->span(0, "body", S.Tid, S.Attempt, StepTs, VirtualNow - StepTs);
      Life->report(AttemptEnd{S.Tid, S.Attempt, 0, Abort::Conflict,
                              CommitMode::Speculative, S.Begin, S.End, &Log,
                              &Entry, nullptr, 0, &S.ShardStamps},
                   Trace.Events, [&] { return VirtualNow; });
      continue;
    }

    // Committed step: the dense clock advances by exactly one.
    const auto Mode = static_cast<CommitMode>(S.Mode);
    if (S.CommitTime != CommitSeq + 1)
      Problem("task " + std::to_string(S.Tid) + ": recorded commit clock " +
              std::to_string(S.CommitTime) + " arrived at replay clock " +
              std::to_string(CommitSeq + 1));
    TxLogRef Log;
    Snapshot Entry;
    if (Mode == CommitMode::Placeholder) {
      // The recorded task failed permanently; nothing executes.
      Log = emptyTxLog();
      Entry = StateAt.back();
      Life->fail(S.Tid, S.Attempt,
                 "recorded placeholder (task failed when recorded)",
                 Outcome.Failures);
    } else {
      bool Ok = false;
      if (Mode == CommitMode::Serial) {
        // Serial fallback executed under the full commit lock: its
        // entry is exactly the predecessor's published state.
        Entry = StateAt[S.CommitTime - 1 < StateAt.size() ? S.CommitTime - 1
                                                          : StateAt.size() - 1];
        ++Stats.SerialFallbacks;
      } else {
        Entry = EntryFor(S, &Ok);
      }
      // A body that throws commits the empty log, keeping the clock
      // dense; the divergence check surfaces the problem.
      Log = ExecuteAt(S, Entry, "committed");
    }

    ++CommitSeq;
    CommitOrder.push_back(S.Tid);
    Snapshot Next = StateAt.back();
    applyLog(Next, *Log);
    StateAt.push_back(Next);
    Shared = std::move(Next);
    History.push_back(Log);
    ++Stats.Commits;
    Life->report(AttemptEnd{S.Tid, S.Attempt, 0, Abort::None, Mode, S.Begin,
                            CommitSeq, &Log, &Entry, nullptr, 0,
                            &S.ShardStamps},
                 Trace.Events, [] { return 0.0; });
    if (O && O->sampled(S.Tid)) {
      const char *SpanName =
          Mode == CommitMode::Speculative ? "commit" : "serial";
      O->span(0, SpanName, S.Tid, S.Attempt, StepTs,
              std::max(VirtualNow - StepTs, 0.0), "clock",
              static_cast<double>(CommitSeq),
              Mode == CommitMode::Placeholder ? "placeholder" : nullptr);
      O->commitLatency().record(std::max(VirtualNow - StepTs, 0.0));
    }
    VirtualNow +=
        Config.Costs.CommitPerOp * static_cast<double>(Log->size());
  }

  if (CommitSeq != Sched.MaxTid)
    Problem("replay committed " + std::to_string(CommitSeq) +
            " transactions; the recording holds " +
            std::to_string(Sched.MaxTid));
  if (Config.RecordTrace)
    Trace.Final = Shared;
  Outcome.ParallelTime = VirtualNow;
  return Outcome;
}
