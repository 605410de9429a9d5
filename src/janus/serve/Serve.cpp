#include "janus/serve/Serve.h"

#include "janus/analysis/Auditor.h"
#include "janus/support/Assert.h"
#include "janus/support/Json.h"

#include <algorithm>
#include <chrono>

using namespace janus;
using namespace janus::serve;

using resilience::CancelReason;
using resilience::CancelToken;

/// Deficit round-robin quantum: submissions per lane per pass.
static constexpr uint32_t DrrQuantum = 4;

/// Shed gate: intake is shed while serial fallbacks exceed this share of
/// the commits over the watchdog window (the engine has gone mostly
/// pessimistic).
static constexpr double ShedSerialShare = 0.5;

const char *janus::serve::toString(ReplyStatus S) {
  switch (S) {
  case ReplyStatus::Committed:
    return "committed";
  case ReplyStatus::Failed:
    return "failed";
  case ReplyStatus::Deadline:
    return "deadline";
  case ReplyStatus::Overloaded:
    return "overloaded";
  case ReplyStatus::Cancelled:
    return "cancelled";
  }
  return "?";
}

Service::Service(core::Janus &J, std::vector<stm::TaskFn> TaskPool,
                 ServeConfig Config)
    : J(J), TaskPool(std::move(TaskPool)), Config(Config),
      ServicePlan(J.config().Faults) {
  JANUS_ASSERT(!this->TaskPool.empty(), "service needs a non-empty task pool");
  JANUS_ASSERT(this->Config.BatchMax >= 1, "BatchMax must be >= 1");
  // Engines tick commits into the board; the CM reads the escalation
  // level the watchdog writes. The board outlives every batch, so
  // pressure accumulates across batches the way a service needs.
  J.setPressureBoard(&Board);
  if (obs::Observer *O = J.observer()) {
    obs::MetricsRegistry &M = O->metrics();
    CtrSubmissions = &M.counter("serve.submissions");
    CtrSheds = &M.counter("serve.sheds");
    CtrCommitted = &M.counter("serve.committed");
    CtrDeadline = &M.counter("serve.deadline_failures");
    CtrEscalations = &M.counter("serve.watchdog_escalations");
    CtrDrained = &M.counter("serve.drained_inflight");
    CtrBatches = &M.counter("serve.batches");
  }
}

Service::~Service() {
  // serve() joins the watchdog on its way out; this only matters for a
  // service destroyed without serve() having completed normally.
  Done.store(true, std::memory_order_release);
  if (Watchdog.joinable())
    Watchdog.join();
  J.setPressureBoard(nullptr);
  J.setCancellations(nullptr);
}

void Service::setReplySink(std::function<void(const Reply &)> SinkIn) {
  std::lock_guard<std::mutex> G(ReplyMutex);
  Sink = std::move(SinkIn);
}

void Service::replyOut(const Reply &R) {
  std::lock_guard<std::mutex> G(ReplyMutex);
  Replies.fetch_add(1, std::memory_order_relaxed);
  if (Sink)
    Sink(R);
}

void Service::shed(uint64_t Client, uint64_t SubId, const char *Why) {
  Sheds.fetch_add(1, std::memory_order_relaxed);
  if (CtrSheds)
    CtrSheds->add(1);
  tallyReply(Client, ReplyStatus::Overloaded, /*Admitted=*/false);
  replyOut(Reply{Client, SubId, ReplyStatus::Overloaded, Why});
}

void Service::tallyReply(uint64_t Client, ReplyStatus S, bool Admitted) {
  std::lock_guard<std::mutex> G(AdmMutex);
  ClientAdmission &C = Admissions[Client];
  if (Admitted) {
    JANUS_ASSERT(C.Pending > 0, "reply without admission");
    --C.Pending;
  }
  switch (S) {
  case ReplyStatus::Committed:
    ++C.Committed;
    break;
  case ReplyStatus::Failed:
    ++C.Failed;
    break;
  case ReplyStatus::Deadline:
    ++C.Deadlines;
    break;
  case ReplyStatus::Overloaded:
    ++C.Sheds;
    break;
  case ReplyStatus::Cancelled:
    ++C.Cancelled;
    break;
  }
}

bool Service::submit(uint64_t Client, uint64_t SubId, uint32_t TaskIndex,
                     int64_t DeadlineRelUs) {
  Received.fetch_add(1, std::memory_order_relaxed);
  if (CtrSubmissions)
    CtrSubmissions->add(1);

  // Cheap rejections first — nothing here admits, so a false negative
  // on the racy reads only costs one shed under churn.
  uint32_t Seq = 0;
  const char *Why = nullptr;
  if (Stopping.load(std::memory_order_acquire))
    Why = "stopping";
  else if (Queue.sizeApprox() >= Config.QueueCap)
    Why = "queue full";
  else if (Board.EscalationLevel.load(std::memory_order_acquire) >= 2)
    Why = "forced-serial escalation";
  else if (ShedGate.load(std::memory_order_acquire))
    Why = "pressure";

  {
    std::lock_guard<std::mutex> G(AdmMutex);
    ClientAdmission &C = Admissions[Client];
    Seq = ++C.Seq; // Every submission gets a chaos coordinate, shed or not.
    if (!Why && ServicePlan.shedSubmission(static_cast<uint32_t>(Client), Seq))
      Why = "injected";
    // Re-check under the lock: requestStop() takes AdmMutex after
    // setting Stopping, so once it returns no further admission can
    // slip in — pendingTotal()==0 then really means "fully drained".
    if (!Why && Stopping.load(std::memory_order_acquire))
      Why = "stopping";
    if (!Why && C.Pending >= Config.LaneCap)
      Why = "client lane full";
    if (!Why)
      ++C.Pending;
  }
  if (Why) {
    shed(Client, SubId, Why);
    return false;
  }

  Submission S;
  S.Client = Client;
  S.SubId = SubId;
  S.Seq = Seq;
  S.TaskIndex = TaskIndex;
  S.DeadlineUs = DeadlineRelUs > 0 ? CancelToken::nowUs() + DeadlineRelUs : 0;
  Queue.push(std::move(S));
  return true;
}

void Service::requestStop() {
  bool Expected = false;
  if (Stopping.compare_exchange_strong(Expected, true,
                                       std::memory_order_acq_rel)) {
    DrainStartUs.store(CancelToken::nowUs(), std::memory_order_release);
    // Admission fence: submit() re-checks Stopping under AdmMutex, so
    // after this lock cycles, the set of admitted submissions is fixed.
    std::lock_guard<std::mutex> G(AdmMutex);
  }
}

uint64_t Service::pendingTotal() {
  std::lock_guard<std::mutex> G(AdmMutex);
  uint64_t N = 0;
  for (const auto &KV : Admissions)
    N += KV.second.Pending;
  return N;
}

void Service::drainQueueIntoLanes() {
  Submission S;
  while (Queue.pop(S))
    Lanes[S.Client].Q.push_back(std::move(S));
}

size_t Service::buildBatch(std::vector<Submission> &Batch) {
  // Deficit round-robin: each pass tops every non-empty lane's deficit
  // up by the quantum and takes up to that many submissions, so a
  // client that floods its lane gets the same per-pass share as one
  // that trickles.
  bool AnyQueued = true;
  while (Batch.size() < Config.BatchMax && AnyQueued) {
    AnyQueued = false;
    for (auto &KV : Lanes) {
      Lane &L = KV.second;
      if (L.Q.empty()) {
        L.Deficit = 0; // No banking credit while idle.
        continue;
      }
      L.Deficit += DrrQuantum;
      while (L.Deficit > 0 && !L.Q.empty() &&
             Batch.size() < Config.BatchMax) {
        Submission S = std::move(L.Q.front());
        L.Q.pop_front();
        --L.Deficit;
        if (S.DeadlineUs != 0 && CancelToken::nowUs() >= S.DeadlineUs) {
          // Already expired: fail at dequeue, don't burn an attempt.
          DeadlineFailures.fetch_add(1, std::memory_order_relaxed);
          if (CtrDeadline)
            CtrDeadline->add(1);
          tallyReply(S.Client, ReplyStatus::Deadline);
          replyOut(Reply{S.Client, S.SubId, ReplyStatus::Deadline,
                         "deadline exceeded before start"});
          continue;
        }
        Batch.push_back(std::move(S));
      }
      if (!L.Q.empty())
        AnyQueued = true;
    }
  }
  return Batch.size();
}

void Service::runBatch(std::vector<Submission> &Batch) {
  const size_t N = Batch.size();

  // Per-batch cancellation table: task ids are 1-based batch positions.
  resilience::CancellationTable Table(N);
  for (size_t I = 0; I != N; ++I)
    if (Batch[I].DeadlineUs != 0)
      Table.task(static_cast<uint32_t>(I + 1))
          ->setDeadlineUs(Batch[I].DeadlineUs);

  // Translate the chaos plan's client-coordinate abort/throw/delay
  // clauses into task coordinates for this batch. Attempt is pinned to
  // 1: the injected fault fires once and the retry machinery takes over.
  resilience::FaultPlan BatchPlan = ServicePlan;
  using FK = resilience::FaultAction::Kind;
  for (size_t I = 0; I != N; ++I) {
    for (FK K : {FK::ForceAbort, FK::ThrowTask, FK::DelayCommit}) {
      const resilience::FaultAction *A = ServicePlan.clientMatch(
          K, static_cast<uint32_t>(Batch[I].Client), Batch[I].Seq);
      if (!A)
        continue;
      resilience::FaultAction T;
      T.K = K;
      T.Tid = static_cast<uint32_t>(I + 1);
      T.Attempt = 1;
      T.Arg = A->Arg;
      BatchPlan.add(T);
    }
  }

  std::vector<stm::TaskFn> Tasks;
  Tasks.reserve(N);
  for (const Submission &S : Batch)
    Tasks.push_back(TaskPool[S.TaskIndex % TaskPool.size()]);

  // Flight recorder: tag each batch member with its (client, sub id)
  // on the auxiliary lane, so a dump triggered mid-service carries the
  // mapping from engine task ids back to client submissions.
  if (obs::Recorder *R = obs::janusRec(J.recorder()))
    for (size_t I = 0; I != N; ++I)
      R->record(R->lanes() - 1, obs::RecKind::ServeTag,
                static_cast<uint32_t>(I + 1), /*Attempt=*/0,
                /*Clock=*/Batch[I].SubId,
                static_cast<uint32_t>(Batch[I].Client));

  {
    std::lock_guard<std::mutex> G(ActiveMutex);
    ActiveTable = &Table;
    // The hard stop may already have fired between batches.
    if (HardCancelled.load(std::memory_order_acquire))
      Table.global().cancel(CancelReason::Shutdown);
  }
  BatchInFlight.store(true, std::memory_order_release);
  J.setFaults(std::move(BatchPlan));
  J.setCancellations(&Table);
  core::RunOutcome Out =
      Config.Ordered ? J.runInOrder(Tasks) : J.runOutOfOrder(Tasks);
  J.setCancellations(nullptr);
  BatchInFlight.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> G(ActiveMutex);
    ActiveTable = nullptr;
  }
  Batches.fetch_add(1, std::memory_order_relaxed);
  if (CtrBatches)
    CtrBatches->add(1);

  if (Config.Audit && J.lastTrace().Recorded) {
    analysis::AuditReport AR = analysis::audit(J.lastTrace(), Tasks,
                                               J.registry());
    if (!AR.clean()) {
      AuditViolations.fetch_add(1, std::memory_order_relaxed);
      // Anomaly trigger: snapshot the flight recorder while the batch
      // that violated its audit is still in the ring (scheduler
      // thread, engine quiesced).
      if (Config.DumpFn)
        Config.DumpFn("audit-violation");
    }
  }

  // Exactly one terminal reply per batch member, keyed by task id.
  std::vector<const resilience::TaskFailure *> ByTid(N, nullptr);
  for (const resilience::TaskFailure &F : Out.Failures)
    if (F.Tid >= 1 && F.Tid <= N)
      ByTid[F.Tid - 1] = &F;
  for (size_t I = 0; I != N; ++I) {
    const Submission &S = Batch[I];
    const resilience::TaskFailure *F = ByTid[I];
    if (!F) {
      CommittedN.fetch_add(1, std::memory_order_relaxed);
      if (CtrCommitted)
        CtrCommitted->add(1);
      tallyReply(S.Client, ReplyStatus::Committed);
      replyOut(Reply{S.Client, S.SubId, ReplyStatus::Committed, {}});
      continue;
    }
    switch (F->FailKind) {
    case resilience::TaskFailure::Kind::Deadline:
      DeadlineFailures.fetch_add(1, std::memory_order_relaxed);
      if (CtrDeadline)
        CtrDeadline->add(1);
      tallyReply(S.Client, ReplyStatus::Deadline);
      replyOut(Reply{S.Client, S.SubId, ReplyStatus::Deadline, F->Reason});
      break;
    case resilience::TaskFailure::Kind::Shutdown:
      DrainedInflight.fetch_add(1, std::memory_order_relaxed);
      if (CtrDrained)
        CtrDrained->add(1);
      tallyReply(S.Client, ReplyStatus::Cancelled);
      replyOut(Reply{S.Client, S.SubId, ReplyStatus::Cancelled, F->Reason});
      break;
    case resilience::TaskFailure::Kind::Exception:
      FailedN.fetch_add(1, std::memory_order_relaxed);
      tallyReply(S.Client, ReplyStatus::Failed);
      replyOut(Reply{S.Client, S.SubId, ReplyStatus::Failed, F->Reason});
      break;
    }
  }
}

void Service::failBacklog() {
  drainQueueIntoLanes();
  for (auto &KV : Lanes) {
    Lane &L = KV.second;
    while (!L.Q.empty()) {
      Submission S = std::move(L.Q.front());
      L.Q.pop_front();
      DrainedInflight.fetch_add(1, std::memory_order_relaxed);
      if (CtrDrained)
        CtrDrained->add(1);
      tallyReply(S.Client, ReplyStatus::Cancelled);
      replyOut(
          Reply{S.Client, S.SubId, ReplyStatus::Cancelled,
                "drain hard deadline"});
    }
  }
}

void Service::serve() {
  Done.store(false, std::memory_order_release);
  Watchdog = std::thread([this] { watchdogLoop(); });

  int64_t LastMetricsUs = CancelToken::nowUs();
  auto MetricsTick = [&] {
    if (Config.MetricsPeriodUs <= 0 || !Config.MetricsSink)
      return;
    int64_t Now = CancelToken::nowUs();
    if (Now - LastMetricsUs < Config.MetricsPeriodUs)
      return;
    LastMetricsUs = Now;
    if (const obs::Observer *O = J.observer())
      Config.MetricsSink(O->metricsJson());
  };

  // Flight-recorder dump triggers, polled here only: the scheduler
  // thread between batches is the one place the engine is quiesced, so
  // Recorder::snapshot() inside DumpFn races with nothing.
  auto PollDumps = [&] {
    if (!Config.DumpFn)
      return;
    if (Config.DumpFlag &&
        Config.DumpFlag->exchange(false, std::memory_order_acq_rel))
      Config.DumpFn("sigusr2");
    if (WantDump.exchange(false, std::memory_order_acq_rel))
      Config.DumpFn("watchdog");
  };

  std::vector<Submission> Batch;
  while (true) {
    if (Config.StopFlag &&
        Config.StopFlag->load(std::memory_order_acquire))
      requestStop();
    if (HardCancelled.load(std::memory_order_acquire))
      break; // The post-loop sweep fails the backlog.
    PollDumps();
    drainQueueIntoLanes();
    {
      // Lane-depth snapshot for rollupJson(): the only window into the
      // scheduler-private Lanes map.
      std::lock_guard<std::mutex> G(RollupMutex);
      LaneDepths.clear();
      for (const auto &KV : Lanes)
        LaneDepths[KV.first] = KV.second.Q.size();
    }
    Batch.clear();
    if (buildBatch(Batch) != 0) {
      runBatch(Batch);
      MetricsTick();
      continue;
    }
    // Nothing runnable. Drained means: admission fenced off AND every
    // admitted submission has been replied to (mid-push submissions
    // still count in Pending, so they are waited for, not dropped).
    if (Stopping.load(std::memory_order_acquire) && pendingTotal() == 0)
      break;
    MetricsTick();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  // Hard-cancel sweep: fail whatever is still admitted. A producer that
  // won admission just before the stop may be mid-push, so loop until
  // the pending count reaches zero — Stopping guarantees it only drops.
  while (pendingTotal() != 0) {
    drainQueueIntoLanes();
    failBacklog();
    if (pendingTotal() != 0)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  Done.store(true, std::memory_order_release);
  Watchdog.join();

  // Final dump so a metrics poller sees the end-of-life totals.
  if (Config.MetricsPeriodUs > 0 && Config.MetricsSink)
    if (const obs::Observer *O = J.observer())
      Config.MetricsSink(O->metricsJson());
}

void Service::watchdogLoop() {
  uint64_t LastTicks = Board.CommitTicks.load(std::memory_order_relaxed);
  uint64_t LastSerial = Board.SerialFallbacks.load(std::memory_order_relaxed);
  int64_t LastProgressUs = CancelToken::nowUs();
  while (!Done.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(Config.WatchdogPeriodUs));
    int64_t Now = CancelToken::nowUs();
    uint64_t Ticks = Board.CommitTicks.load(std::memory_order_relaxed);
    uint64_t Serial = Board.SerialFallbacks.load(std::memory_order_relaxed);
    uint64_t TickDelta = Ticks - LastTicks;
    uint64_t SerialDelta = Serial - LastSerial;
    LastTicks = Ticks;
    LastSerial = Serial;

    // Stall ladder: no commit progress while a batch is in flight
    // escalates one level per stall window; progress decays one level
    // per sample, so a recovered engine earns its budget back.
    if (TickDelta > 0) {
      LastProgressUs = Now;
      uint32_t L = Board.EscalationLevel.load(std::memory_order_acquire);
      if (L > 0)
        Board.EscalationLevel.store(L - 1, std::memory_order_release);
    } else if (BatchInFlight.load(std::memory_order_acquire) &&
               Now - LastProgressUs >= Config.StallEscalateUs) {
      uint32_t L = Board.EscalationLevel.load(std::memory_order_acquire);
      if (L < 2) {
        Board.EscalationLevel.store(L + 1, std::memory_order_release);
        WatchdogEscalations.fetch_add(1, std::memory_order_relaxed);
        if (CtrEscalations)
          CtrEscalations->add(1);
        // Anomaly trigger: ask the scheduler to dump the flight
        // recorder once the stalled batch (the anomaly itself) has
        // finished and the engine is quiesced.
        WantDump.store(true, std::memory_order_release);
      }
      LastProgressUs = Now; // Re-arm for the next rung.
    }

    // Pressure gate: shed new work while serial fallbacks dominate the
    // commit mix — the engine has gone pessimistic and more intake
    // would only lengthen the convoy.
    if (TickDelta > 0)
      ShedGate.store(static_cast<double>(SerialDelta) >
                         ShedSerialShare * static_cast<double>(TickDelta),
                     std::memory_order_release);

    // Drain hard deadline: cancel the in-flight batch via the global
    // token; the scheduler fails the rest of the backlog.
    if (Stopping.load(std::memory_order_acquire) &&
        !HardCancelled.load(std::memory_order_acquire)) {
      int64_t DS = DrainStartUs.load(std::memory_order_acquire);
      if (DS != 0 && Now - DS >= Config.DrainHardUs) {
        HardCancelled.store(true, std::memory_order_release);
        std::lock_guard<std::mutex> G(ActiveMutex);
        if (ActiveTable)
          ActiveTable->global().cancel(CancelReason::Shutdown);
      }
    }
  }
}

ServeReport Service::report() const {
  ServeReport R;
  R.Received = Received.load(std::memory_order_relaxed);
  R.Sheds = Sheds.load(std::memory_order_relaxed);
  R.Committed = CommittedN.load(std::memory_order_relaxed);
  R.Failed = FailedN.load(std::memory_order_relaxed);
  R.DeadlineFailures = DeadlineFailures.load(std::memory_order_relaxed);
  R.DrainedInflight = DrainedInflight.load(std::memory_order_relaxed);
  R.WatchdogEscalations =
      WatchdogEscalations.load(std::memory_order_relaxed);
  R.Batches = Batches.load(std::memory_order_relaxed);
  R.Replies = Replies.load(std::memory_order_relaxed);
  R.AuditViolations = AuditViolations.load(std::memory_order_relaxed);
  R.DrainedInTime = !HardCancelled.load(std::memory_order_relaxed);
  return R;
}

std::string Service::rollupJson() const {
  JsonWriter W;
  W.beginObject();
  W.field("schema_version", JsonSchemaVersion);
  W.key("clients");
  W.beginArray();
  {
    std::lock_guard<std::mutex> G(AdmMutex);
    for (const auto &[Client, C] : Admissions) {
      W.beginObject();
      W.field("client", static_cast<uint64_t>(Client));
      W.field("seq", static_cast<uint64_t>(C.Seq));
      W.field("pending", static_cast<uint64_t>(C.Pending));
      W.field("sheds", C.Sheds);
      W.field("committed", C.Committed);
      W.field("failed", C.Failed);
      W.field("deadline", C.Deadlines);
      W.field("cancelled", C.Cancelled);
      W.endObject();
    }
  }
  W.endArray();
  W.key("lanes");
  W.beginArray();
  {
    std::lock_guard<std::mutex> G(RollupMutex);
    for (const auto &[Client, Depth] : LaneDepths) {
      W.beginObject();
      W.field("client", static_cast<uint64_t>(Client));
      W.field("depth", static_cast<uint64_t>(Depth));
      W.endObject();
    }
  }
  W.endArray();
  W.field("queue_depth", static_cast<uint64_t>(Queue.sizeApprox()));
  W.field("watchdog_level", static_cast<uint64_t>(Board.EscalationLevel.load(
                                std::memory_order_acquire)));
  W.field("shed_gate", ShedGate.load(std::memory_order_acquire));
  W.field("batches", Batches.load(std::memory_order_relaxed));
  W.field("sheds", Sheds.load(std::memory_order_relaxed));
  W.field("deadline_failures",
          DeadlineFailures.load(std::memory_order_relaxed));
  W.endObject();
  return W.str();
}
