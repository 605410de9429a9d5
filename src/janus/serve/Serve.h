//===----------------------------------------------------------------------===//
///
/// \file
/// janus::serve — a long-running, overload-safe transaction service.
///
/// The batch API (core::Janus::run*) assumes someone hands it a task
/// vector and waits. A deployment at the ROADMAP's scale instead sees
/// an unbounded stream of submissions from many clients, and must stay
/// *live* when optimism stops paying off: retry storms, hot shards,
/// stuck lanes, and offered load beyond capacity. This service wraps
/// one Janus instance with the four robustness mechanisms that turn
/// "runs fast when lucky" into "degrades instead of collapsing":
///
///  1. **Admission control & backpressure.** Producers push into a
///     lock-free MPSC queue (SubmissionQueue.h) with a hard cap; each
///     client additionally has a pending-work cap, and the scheduler
///     serves client lanes by deficit round-robin so one chatty client
///     cannot starve the rest. When the queue is full, a lane is full,
///     the watchdog's pressure gate is up, or the escalation level has
///     hit forced-serial, new work is *shed* with a structured
///     `Overloaded` reply instead of queueing unboundedly.
///
///  2. **Deadlines & cancellation.** A submission may carry a
///     deadline. It is propagated into the engines through a
///     per-batch `resilience::CancellationTable` consulted at attempt
///     boundaries and inside backoff waits; expired work surfaces as a
///     `Deadline` TaskFailure whose commit slot is filled by the
///     existing placeholder mechanism, so the dense clock (Theorem
///     4.1) and ordered-mode handoff are untouched. Already-expired
///     submissions are failed at dequeue without burning an engine
///     attempt.
///
///  3. **Watchdog & stall detection.** A supervisor thread samples the
///     shared `PressureBoard` commit tick. No progress while a batch
///     is in flight escalates the contention-manager ladder
///     (EscalationLevel 0→1→2: halve the speculative budget, then
///     force serial fallback on first abort); progress decays it. The
///     same thread computes a windowed serial-fallback share that
///     raises the admission shed gate when the engine is mostly
///     running pessimistically — more intake would only deepen the
///     hole.
///
///  4. **Graceful drain.** requestStop() (or the external stop flag,
///     typically set by a SIGTERM/SIGINT handler — it is just an
///     atomic store) stops admission; the scheduler drains queued
///     work normally. A hard drain deadline, enforced by the
///     watchdog, cancels the in-flight batch via the table's global
///     token (Shutdown) and fails the rest with `Cancelled` replies,
///     so shutdown is bounded in time and every submission still gets
///     exactly one terminal reply.
///
/// The whole service runs under the FaultPlan chaos grammar extended
/// with `(client, submission)` coordinates: `shed@C:S` fails admission
/// deterministically, and `abort/throw/delay@C:S` are translated into
/// task-coordinate clauses for the batch the submission lands in.
///
/// Threading model: any number of producer threads call submit();
/// serve() runs the scheduler in its caller's thread and owns the
/// Janus instance for its duration; one internal watchdog thread
/// touches only atomics (and the active batch's cancellation table,
/// under a mutex). The reply sink is invoked under a mutex — from
/// producer threads for sheds, from the scheduler for everything else.
///
//===----------------------------------------------------------------------===//

#ifndef JANUS_SERVE_SERVE_H
#define JANUS_SERVE_SERVE_H

#include "janus/core/Janus.h"
#include "janus/resilience/Cancellation.h"
#include "janus/resilience/ContentionManager.h"
#include "janus/resilience/FaultPlan.h"
#include "janus/serve/SubmissionQueue.h"

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace janus {
namespace serve {

/// Terminal disposition of one submission. Every accepted or rejected
/// submission receives exactly one reply.
enum class ReplyStatus : uint8_t {
  Committed,  ///< Transaction committed; effects are in the state.
  Failed,     ///< Task body kept throwing; placeholder-committed.
  Deadline,   ///< Deadline expired (before or during execution).
  Overloaded, ///< Shed at admission (backpressure / chaos plan).
  Cancelled,  ///< Shutdown cancelled it (drain hard deadline).
};

const char *toString(ReplyStatus S);

/// One unit of work submitted by a client: run TaskPool[TaskIndex].
struct Submission {
  uint64_t Client = 0;   ///< Client id (frontend connection, thread...).
  uint64_t SubId = 0;    ///< Client-chosen correlation id.
  uint32_t Seq = 0;      ///< 1-based per-client sequence (chaos coord).
  uint32_t TaskIndex = 0;///< Index into the service's task pool.
  int64_t DeadlineUs = 0;///< Absolute (CancelToken::nowUs), 0 = none.
};

/// The terminal reply streamed back for one submission.
struct Reply {
  uint64_t Client = 0;
  uint64_t SubId = 0;
  ReplyStatus Status = ReplyStatus::Committed;
  std::string Detail; ///< Failure reason / shed cause; empty on commit.
};

/// Service tuning. Defaults suit tests; the CLI exposes the knobs.
struct ServeConfig {
  /// Max submissions per engine batch.
  uint32_t BatchMax = 32;
  /// Global submission-queue cap; admissions beyond it are shed.
  uint32_t QueueCap = 1024;
  /// Per-client pending cap (queued + in batch); beyond it: shed.
  uint32_t LaneCap = 256;
  /// Run batches in task order (runInOrder) instead of out-of-order.
  bool Ordered = false;
  /// Audit every recorded batch trace (requires RecordTrace on the
  /// Janus config); violations are counted in the report.
  bool Audit = false;
  /// Drain hard deadline: after requestStop(), in-flight work is
  /// cancelled and the backlog failed once this much time has passed.
  int64_t DrainHardUs = 2000000;
  /// Watchdog sampling period.
  int64_t WatchdogPeriodUs = 20000;
  /// No commit progress for this long (batch in flight) escalates the
  /// contention-manager ladder one level.
  int64_t StallEscalateUs = 200000;
  /// External stop flag (e.g. set by a signal handler); polled by the
  /// scheduler. nullptr = requestStop() only.
  const std::atomic<bool> *StopFlag = nullptr;
  /// Periodic live metrics dump: every this many µs the scheduler
  /// hands Observer::metricsJson() to MetricsSink. 0 = off.
  int64_t MetricsPeriodUs = 0;
  std::function<void(const std::string &)> MetricsSink;
  /// Flight-recorder dump hook. Invoked on the scheduler thread with
  /// no batch in flight (the engine quiesced), when a trigger fires:
  /// DumpFlag ("sigusr2"), a watchdog escalation ("watchdog"), or an
  /// unclean batch audit ("audit-violation"). The argument names the
  /// trigger; the callback typically snapshots the recorder to a
  /// `.jrec` file. Unset = no dumps.
  std::function<void(const char *Reason)> DumpFn;
  /// External dump request (e.g. set by a SIGUSR2 handler); polled by
  /// the scheduler between batches and cleared when consumed.
  /// nullptr = triggered dumps only.
  std::atomic<bool> *DumpFlag = nullptr;
};

/// What happened over one serve() lifetime. Reply accounting is the
/// liveness invariant: clean() demands every submission got exactly
/// one terminal reply and every audit came back clean.
struct ServeReport {
  uint64_t Received = 0;         ///< submit() calls.
  uint64_t Sheds = 0;            ///< Overloaded at admission.
  uint64_t Committed = 0;
  uint64_t Failed = 0;           ///< Exception-failed tasks.
  uint64_t DeadlineFailures = 0; ///< Deadline replies (pre-drop + engine).
  uint64_t DrainedInflight = 0;  ///< Cancelled by the drain hard stop.
  uint64_t WatchdogEscalations = 0;
  uint64_t Batches = 0;
  uint64_t Replies = 0;          ///< Terminal replies sent.
  uint64_t AuditViolations = 0;  ///< Batches whose audit was unclean.
  bool DrainedInTime = true;     ///< Drain beat the hard deadline.

  bool clean() const {
    return Replies == Received && AuditViolations == 0;
  }
};

/// The long-running service. Construct, setReplySink(), start
/// producers calling submit(), run serve() (blocking), requestStop()
/// to drain. See the file header for the model.
class Service {
public:
  /// \param J configured Janus instance (trained, objects registered).
  ///        The service owns its fault plan and cancellation pointer
  ///        between serve() start and return.
  /// \param TaskPool submissions name tasks by index into this pool
  ///        (out-of-range indexes are taken modulo the pool size).
  Service(core::Janus &J, std::vector<stm::TaskFn> TaskPool,
          ServeConfig Config);
  ~Service();

  Service(const Service &) = delete;
  Service &operator=(const Service &) = delete;

  /// Sink for terminal replies. Invoked under an internal mutex; keep
  /// it fast. Must be set before serve() if replies matter.
  void setReplySink(std::function<void(const Reply &)> Sink);

  /// Thread-safe admission. \returns true when queued, false when shed
  /// (an Overloaded reply has already been emitted). \p DeadlineRelUs
  /// is relative to now; 0 = no deadline.
  bool submit(uint64_t Client, uint64_t SubId, uint32_t TaskIndex,
              int64_t DeadlineRelUs = 0);

  /// Runs the scheduler loop in the calling thread until stop + drain
  /// complete. Starts (and joins) the watchdog thread.
  void serve();

  /// Stops admission and begins the drain. Thread-safe; callable from
  /// a signal handler's flag-polling thread or any producer.
  void requestStop();

  bool stopping() const { return Stopping.load(std::memory_order_acquire); }

  /// Live pressure signals (shared with the contention manager).
  resilience::PressureBoard &pressure() { return Board; }

  /// Stable snapshot; call after serve() returns for final numbers.
  ServeReport report() const;

  /// Per-client / per-lane rollups as a JSON object (schema_version'd;
  /// see DESIGN.md §12): per client the admission sequence, pending
  /// count, and terminal-outcome tallies; per lane the queue depth
  /// snapshotted at the last batch boundary; plus the global queue
  /// depth, watchdog escalation level, and shed-gate state.
  /// Thread-safe; composable into the metrics socket reply.
  std::string rollupJson() const;

private:
  struct Lane {
    std::deque<Submission> Q;
    uint32_t Deficit = 0;
  };

  struct ClientAdmission {
    uint32_t Seq = 0;     ///< Submissions seen (chaos coordinate).
    uint32_t Pending = 0; ///< Queued or in the current batch.
    // Per-client terminal-outcome rollups (metrics schema v3).
    uint64_t Sheds = 0;
    uint64_t Committed = 0;
    uint64_t Failed = 0;
    uint64_t Deadlines = 0;
    uint64_t Cancelled = 0;
  };

  /// Emits the terminal reply for \p R (exactly once per submission).
  void replyOut(const Reply &R);
  /// Sheds \p Client's submission \p SubId: counts it and emits the
  /// Overloaded reply.
  void shed(uint64_t Client, uint64_t SubId, const char *Why);
  /// Tallies a terminal outcome into the client's rollup counters and,
  /// for an \p Admitted submission, retires it from the client's
  /// pending count — one AdmMutex acquisition per terminal reply.
  void tallyReply(uint64_t Client, ReplyStatus S, bool Admitted = true);

  /// Moves everything the MPSC queue currently holds into the lanes.
  void drainQueueIntoLanes();
  /// Builds the next batch by deficit round-robin, pre-dropping
  /// submissions whose deadline already expired. \returns batch size.
  size_t buildBatch(std::vector<Submission> &Batch);
  /// Runs one batch through the engine and replies to each member.
  void runBatch(std::vector<Submission> &Batch);
  /// Fails every queued submission with a Cancelled reply (drain hard
  /// deadline passed).
  void failBacklog();

  /// Admitted-but-unreplied submissions (the drain-completion
  /// predicate).
  uint64_t pendingTotal();

  void watchdogLoop();

  core::Janus &J;
  std::vector<stm::TaskFn> TaskPool;
  ServeConfig Config;
  /// The service-level chaos plan (client-coordinate clauses included),
  /// captured from the Janus config at construction.
  resilience::FaultPlan ServicePlan;
  resilience::PressureBoard Board;

  MpscQueue<Submission> Queue;
  std::map<uint64_t, Lane> Lanes; ///< Scheduler-thread only.

  mutable std::mutex AdmMutex; ///< Guards Admissions.
  std::map<uint64_t, ClientAdmission> Admissions;

  /// Lane queue depths, snapshotted by the scheduler at batch
  /// boundaries so rollupJson() never touches the scheduler-private
  /// Lanes map. Guarded by RollupMutex.
  mutable std::mutex RollupMutex;
  std::map<uint64_t, size_t> LaneDepths;

  std::mutex ReplyMutex; ///< Guards Sink + reply counters.
  std::function<void(const Reply &)> Sink;

  std::atomic<bool> Stopping{false};
  std::atomic<bool> Done{false};       ///< serve() finished (watchdog exit).
  std::atomic<bool> HardCancelled{false};
  std::atomic<int64_t> DrainStartUs{0};
  std::atomic<bool> ShedGate{false};
  std::atomic<bool> BatchInFlight{false};
  /// Watchdog → scheduler dump handoff: the watchdog only sets the
  /// flag; the scheduler consumes it between batches (quiesced) and
  /// invokes DumpFn("watchdog").
  std::atomic<bool> WantDump{false};

  /// The in-flight batch's cancellation table, for the watchdog's
  /// drain hard stop. Guarded by ActiveMutex (set/cleared by the
  /// scheduler, cancelled by the watchdog).
  std::mutex ActiveMutex;
  resilience::CancellationTable *ActiveTable = nullptr;

  std::thread Watchdog;

  // Report counters. Relaxed atomics: read precisely only after
  // serve() returns.
  std::atomic<uint64_t> Received{0}, Sheds{0}, CommittedN{0}, FailedN{0},
      DeadlineFailures{0}, DrainedInflight{0}, WatchdogEscalations{0},
      Batches{0}, Replies{0}, AuditViolations{0};

  // Pre-resolved obs counters (nullptr when obs is disabled).
  obs::Counter *CtrSubmissions = nullptr;
  obs::Counter *CtrSheds = nullptr;
  obs::Counter *CtrCommitted = nullptr;
  obs::Counter *CtrDeadline = nullptr;
  obs::Counter *CtrEscalations = nullptr;
  obs::Counter *CtrDrained = nullptr;
  obs::Counter *CtrBatches = nullptr;
};

} // namespace serve
} // namespace janus

#endif // JANUS_SERVE_SERVE_H
