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
    // In ReplyStatus order.
    CtrReplies = {&M.counter("serve.committed"), &M.counter("serve.failed"),
                  &M.counter("serve.deadline_failures"),
                  &M.counter("serve.sheds"),
                  &M.counter("serve.drained_inflight")};
    CtrEscalations = &M.counter("serve.watchdog_escalations");
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

void Service::tally(ClientRecord &C, ReplyStatus S) {
  if (S != ReplyStatus::Overloaded) {
    JANUS_ASSERT(C.Pending > 0, "reply without admission");
    --C.Pending;
  }
  const size_t I = static_cast<size_t>(S);
  ++C.Tally[I];
  if (CtrReplies[I])
    CtrReplies[I]->add(1);
}

void Service::replyOut(std::span<const Reply> Rs) {
  // One acquisition per reply, so a producer's shed reply waits for at
  // most one sink call, not a whole batch's.
  for (const Reply &R : Rs) {
    std::lock_guard<std::mutex> G(ReplyMutex);
    Replies.fetch_add(1, std::memory_order_relaxed);
    if (Sink)
      Sink(R);
  }
}

bool Service::submit(uint64_t Client, uint64_t SubId, uint32_t TaskIndex,
                     int64_t DeadlineRelUs) {
  if (CtrSubmissions)
    CtrSubmissions->add(1);
  const int64_t DeadlineUs =
      DeadlineRelUs > 0 ? CancelToken::nowUs() + DeadlineRelUs : 0;

  const char *Why = nullptr;
  {
    std::lock_guard<std::mutex> G(AdmMutex);
    ClientRecord &C = Clients[Client];
    // Every submission gets a chaos coordinate, shed or not.
    const uint32_t Seq = ++C.Seq;
    // Stopping is read under the lock: requestStop() cycles AdmMutex
    // after setting it, so once it returns no admission can slip in.
    if (Stopping.load(std::memory_order_acquire))
      Why = "stopping";
    else if (Queued >= Config.QueueCap)
      Why = "queue full";
    else if (Board.EscalationLevel.load(std::memory_order_acquire) >= 2)
      Why = "forced-serial escalation";
    else if (ShedGate.load(std::memory_order_acquire))
      Why = "pressure";
    else if (ServicePlan.shedSubmission(static_cast<uint32_t>(Client), Seq))
      Why = "injected";
    else if (C.Pending >= Config.LaneCap)
      Why = "client lane full";
    if (!Why) {
      ++C.Pending;
      ++Queued;
      C.Lane.push_back(Submission{Client, SubId, Seq, TaskIndex, DeadlineUs});
      Admitted.notify_one();
      return true;
    }
    tally(C, ReplyStatus::Overloaded);
  }
  const Reply R{Client, SubId, ReplyStatus::Overloaded, Why};
  replyOut({&R, 1});
  return false;
}

void Service::retireClient(uint64_t Client) {
  std::lock_guard<std::mutex> G(AdmMutex);
  auto It = Clients.find(Client);
  if (It == Clients.end() || It->second.Pending != 0)
    return;
  const ClientRecord &C = It->second;
  ++RetiredClients;
  RetiredReceived += C.Seq;
  for (size_t I = 0; I != NumStatuses; ++I)
    RetiredTally[I] += C.Tally[I];
  Clients.erase(It);
}

void Service::requestStop() {
  bool Expected = false;
  if (Stopping.compare_exchange_strong(Expected, true,
                                       std::memory_order_acq_rel)) {
    DrainStartUs.store(CancelToken::nowUs(), std::memory_order_release);
    // Admission fence: submit() reads Stopping under AdmMutex, so
    // after this lock cycles, the set of admitted submissions is fixed.
    std::lock_guard<std::mutex> G(AdmMutex);
    Admitted.notify_one(); // An idle scheduler sees the drain now.
  }
}

void Service::buildBatch(std::vector<Submission> &Batch,
                         std::vector<Reply> &Expired) {
  // Deficit round-robin: each pass tops every non-empty lane's deficit
  // up by the quantum and takes up to that many submissions, so a
  // client that floods its lane gets the same per-pass share as one
  // that trickles.
  while (Batch.size() + Expired.size() < Config.BatchMax && Queued != 0) {
    for (auto &KV : Clients) {
      ClientRecord &C = KV.second;
      if (C.Lane.empty()) {
        C.Deficit = 0; // No banking credit while idle.
        continue;
      }
      C.Deficit += DrrQuantum;
      while (C.Deficit > 0 && !C.Lane.empty() &&
             Batch.size() + Expired.size() < Config.BatchMax) {
        Submission S = std::move(C.Lane.front());
        C.Lane.pop_front();
        --C.Deficit;
        --Queued;
        if (S.DeadlineUs != 0 && CancelToken::nowUs() >= S.DeadlineUs) {
          // Already expired: fail at dequeue, don't burn an attempt.
          tally(C, ReplyStatus::Deadline);
          Expired.push_back(Reply{S.Client, S.SubId, ReplyStatus::Deadline,
                                  "deadline exceeded before start"});
          continue;
        }
        Batch.push_back(std::move(S));
      }
    }
  }
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

  // A batch is audited exactly when its trace was recorded (RecordTrace
  // on the Janus config).
  if (J.lastTrace().Recorded) {
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

  // Exactly one terminal reply per batch member, keyed by task id; the
  // batch's replies are tallied under one AdmMutex acquisition.
  std::vector<const resilience::TaskFailure *> ByTid(N, nullptr);
  for (const resilience::TaskFailure &F : Out.Failures)
    if (F.Tid >= 1 && F.Tid <= N)
      ByTid[F.Tid - 1] = &F;
  std::vector<Reply> Rs;
  Rs.reserve(N);
  for (size_t I = 0; I != N; ++I) {
    Reply R{Batch[I].Client, Batch[I].SubId, ReplyStatus::Committed, {}};
    if (const resilience::TaskFailure *F = ByTid[I]) {
      switch (F->FailKind) {
      case resilience::TaskFailure::Kind::Deadline:
        R.Status = ReplyStatus::Deadline;
        break;
      case resilience::TaskFailure::Kind::Shutdown:
        R.Status = ReplyStatus::Cancelled;
        break;
      case resilience::TaskFailure::Kind::Exception:
        R.Status = ReplyStatus::Failed;
        break;
      }
      R.Detail = F->Reason;
    }
    Rs.push_back(std::move(R));
  }
  {
    std::lock_guard<std::mutex> G(AdmMutex);
    for (const Reply &R : Rs)
      tally(Clients[R.Client], R.Status);
  }
  replyOut(Rs);
}

void Service::failBacklog() {
  std::vector<Reply> Rs;
  {
    std::lock_guard<std::mutex> G(AdmMutex);
    for (auto &KV : Clients) {
      for (const Submission &S : KV.second.Lane) {
        tally(KV.second, ReplyStatus::Cancelled);
        Rs.push_back(Reply{S.Client, S.SubId, ReplyStatus::Cancelled,
                           "drain hard deadline"});
      }
      KV.second.Lane.clear();
    }
    Queued = 0;
  }
  replyOut(Rs);
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
  std::vector<Reply> Expired;
  while (true) {
    if (Config.StopFlag &&
        Config.StopFlag->load(std::memory_order_acquire))
      requestStop();
    if (HardCancelled.load(std::memory_order_acquire))
      break; // The sweep below fails the backlog.
    PollDumps();
    Batch.clear();
    Expired.clear();
    size_t Left = 0;
    bool Fenced = false;
    {
      std::lock_guard<std::mutex> G(AdmMutex);
      buildBatch(Batch, Expired);
      Left = Queued;
      Fenced = Stopping.load(std::memory_order_acquire);
    }
    replyOut(Expired);
    if (!Batch.empty()) {
      runBatch(Batch);
    } else if (Left == 0) {
      // Nothing runnable. Drained means nothing queued with admission
      // fenced off: Stopping was read under the lock admission reads it
      // under, so no later submission can be admitted, and no batch is
      // in flight between iterations.
      if (Fenced)
        break;
      // Wait for admission or the drain. The period still serves the
      // flags nothing notifies: StopFlag and DumpFlag (set by signal
      // handlers), HardCancelled, WantDump and the metrics tick.
      std::unique_lock<std::mutex> G(AdmMutex);
      Admitted.wait_for(G, std::chrono::microseconds(200), [this] {
        return Queued != 0 || Stopping.load(std::memory_order_acquire);
      });
    }
    MetricsTick();
  }

  // Hard-cancel sweep: fail whatever is still queued (nothing, after a
  // graceful drain). Admission and the lane append are one critical
  // section and Stopping is set, so one pass leaves nothing behind.
  failBacklog();

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
  {
    std::lock_guard<std::mutex> G(AdmMutex);
    R.Received = RetiredReceived;
    std::array<uint64_t, NumStatuses> Tally = RetiredTally;
    for (const auto &KV : Clients) {
      R.Received += KV.second.Seq;
      for (size_t I = 0; I != NumStatuses; ++I)
        Tally[I] += KV.second.Tally[I];
    }
    auto Count = [&Tally](ReplyStatus S) {
      return Tally[static_cast<size_t>(S)];
    };
    R.Committed = Count(ReplyStatus::Committed);
    R.Failed = Count(ReplyStatus::Failed);
    R.DeadlineFailures = Count(ReplyStatus::Deadline);
    R.Sheds = Count(ReplyStatus::Overloaded);
    R.DrainedInflight = Count(ReplyStatus::Cancelled);
  }
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
  std::lock_guard<std::mutex> G(AdmMutex);
  uint64_t Sheds = RetiredTally[static_cast<size_t>(ReplyStatus::Overloaded)];
  uint64_t Deadlines = RetiredTally[static_cast<size_t>(ReplyStatus::Deadline)];
  W.key("clients");
  W.beginArray();
  for (const auto &[Client, C] : Clients) {
    W.beginObject();
    W.field("client", static_cast<uint64_t>(Client));
    W.field("seq", static_cast<uint64_t>(C.Seq));
    W.field("pending", static_cast<uint64_t>(C.Pending));
    W.field("sheds", C.count(ReplyStatus::Overloaded));
    W.field("committed", C.count(ReplyStatus::Committed));
    W.field("failed", C.count(ReplyStatus::Failed));
    W.field("deadline", C.count(ReplyStatus::Deadline));
    W.field("cancelled", C.count(ReplyStatus::Cancelled));
    W.endObject();
    Sheds += C.count(ReplyStatus::Overloaded);
    Deadlines += C.count(ReplyStatus::Deadline);
  }
  W.endArray();
  W.key("lanes");
  W.beginArray();
  for (const auto &[Client, C] : Clients) {
    W.beginObject();
    W.field("client", static_cast<uint64_t>(Client));
    W.field("depth", static_cast<uint64_t>(C.Lane.size()));
    W.endObject();
  }
  W.endArray();
  W.field("retired_clients", RetiredClients);
  W.field("queue_depth", static_cast<uint64_t>(Queued));
  W.field("watchdog_level", static_cast<uint64_t>(Board.EscalationLevel.load(
                                std::memory_order_acquire)));
  W.field("shed_gate", ShedGate.load(std::memory_order_acquire));
  W.field("batches", Batches.load(std::memory_order_relaxed));
  W.field("sheds", Sheds);
  W.field("deadline_failures", Deadlines);
  W.endObject();
  return W.str();
}
