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
///  1. **Admission control & backpressure.** Each client has a lane,
///     and the lanes are the only queue: submit() appends an admitted
///     submission to its client's lane inside the one critical section
///     that also takes its chaos sequence number, and the scheduler
///     builds each batch by deficit round-robin over the lanes under
///     the same mutex, so one chatty client cannot starve the rest.
///     When the lanes together hold the queue cap, the client's
///     pending count is at its cap, the watchdog's pressure gate is
///     up, or the escalation level has hit forced-serial, new work is
///     *shed* with a structured `Overloaded` reply instead of queueing
///     unboundedly.
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
/// under a mutex). Every terminal reply is counted once, in its
/// client's record under the admission mutex, and then handed to the
/// reply sink outside it — from producer threads for sheds, from the
/// scheduler for everything else.
///
//===----------------------------------------------------------------------===//

#ifndef JANUS_SERVE_SERVE_H
#define JANUS_SERVE_SERVE_H

#include "janus/core/Janus.h"
#include "janus/resilience/Cancellation.h"
#include "janus/resilience/ContentionManager.h"
#include "janus/resilience/FaultPlan.h"

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <span>
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
  /// Global submission-queue cap: admitted submissions not yet in a
  /// batch, across all lanes; admissions beyond it are shed.
  uint32_t QueueCap = 1024;
  /// Per-client pending cap (queued + in batch); beyond it: shed.
  uint32_t LaneCap = 256;
  /// Run batches in task order (runInOrder) instead of out-of-order.
  bool Ordered = false;
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
/// one terminal reply and every audit came back clean (a batch is
/// audited when the Janus config records traces).
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

  /// Forgets \p Client, whose submissions are all answered: its
  /// tallies fold into one aggregate that report() and rollupJson()
  /// still count, and its record (lane, sequence number) goes. For a
  /// transport whose client ids are never reused once their connection
  /// has closed; in-process ids stay, so their chaos coordinates keep
  /// counting. A client that still has a submission pending keeps its
  /// record.
  void retireClient(uint64_t Client);

  /// Live pressure signals (shared with the contention manager).
  resilience::PressureBoard &pressure() { return Board; }

  /// Stable snapshot; call after serve() returns for final numbers.
  ServeReport report() const;

  /// Per-client / per-lane rollups as a JSON object (schema_version'd;
  /// see DESIGN.md §12): per client the admission sequence, pending
  /// count, and terminal-outcome tallies; per lane its queue depth;
  /// plus the global queue depth, watchdog escalation level, and
  /// shed-gate state. Thread-safe; composable into the metrics socket
  /// reply.
  std::string rollupJson() const;

private:
  static constexpr size_t NumStatuses =
      static_cast<size_t>(ReplyStatus::Cancelled) + 1;

  /// One client's lane and its accounting, guarded by AdmMutex.
  struct ClientRecord {
    std::deque<Submission> Lane; ///< Admitted, not yet in a batch.
    uint32_t Deficit = 0;        ///< Deficit round-robin credit.
    uint32_t Seq = 0;            ///< Submissions seen (chaos coordinate).
    uint32_t Pending = 0;        ///< In the lane or in the current batch.
    /// Terminal replies by ReplyStatus: each reply's only tally.
    std::array<uint64_t, NumStatuses> Tally{};

    uint64_t count(ReplyStatus S) const {
      return Tally[static_cast<size_t>(S)];
    }
  };

  /// Counts a terminal reply of status \p S in \p C, retiring an
  /// admitted submission from C's pending count, and bumps the
  /// status's serve.* counter. Caller holds AdmMutex.
  void tally(ClientRecord &C, ReplyStatus S);
  /// Hands terminal replies to the sink. Never called under AdmMutex.
  void replyOut(std::span<const Reply> Rs);

  /// Builds the next batch by deficit round-robin, popping at most
  /// BatchMax submissions; those whose deadline already expired go to
  /// \p Expired with their Deadline reply. Caller holds AdmMutex.
  void buildBatch(std::vector<Submission> &Batch, std::vector<Reply> &Expired);
  /// Runs one batch through the engine and replies to each member.
  void runBatch(std::vector<Submission> &Batch);
  /// Fails every queued submission with a Cancelled reply (drain hard
  /// deadline passed).
  void failBacklog();

  void watchdogLoop();

  core::Janus &J;
  std::vector<stm::TaskFn> TaskPool;
  ServeConfig Config;
  /// The service-level chaos plan (client-coordinate clauses included),
  /// captured from the Janus config at construction.
  resilience::FaultPlan ServicePlan;
  resilience::PressureBoard Board;

  mutable std::mutex AdmMutex; ///< Guards Clients, Queued and Retired*.
  /// Wakes the idle scheduler: submit() notifies when it admits, and
  /// requestStop() after its admission fence. Paired with AdmMutex.
  std::condition_variable Admitted;
  std::map<uint64_t, ClientRecord> Clients;
  size_t Queued = 0; ///< Submissions in all lanes (QueueCap counts these).
  /// Retired clients, folded: how many, their submissions and their
  /// terminal replies by ReplyStatus.
  uint64_t RetiredClients = 0, RetiredReceived = 0;
  std::array<uint64_t, NumStatuses> RetiredTally{};

  std::mutex ReplyMutex; ///< Guards Sink.
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

  // Report counters the client tallies do not hold. Relaxed atomics:
  // read precisely only after serve() returns. Replies counts sink
  // calls, the evidence clean() compares with the tallied submissions.
  std::atomic<uint64_t> WatchdogEscalations{0}, Batches{0}, Replies{0},
      AuditViolations{0};

  // Pre-resolved obs counters (nullptr when obs is disabled); the
  // terminal-reply counters are indexed by ReplyStatus.
  obs::Counter *CtrSubmissions = nullptr;
  std::array<obs::Counter *, NumStatuses> CtrReplies{};
  obs::Counter *CtrEscalations = nullptr;
  obs::Counter *CtrBatches = nullptr;
};

} // namespace serve
} // namespace janus

#endif // JANUS_SERVE_SERVE_H
