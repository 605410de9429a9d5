//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for janus::serve — the long-running, overload-safe submission
/// service — and its foundations: the cooperative cancellation tokens,
/// the (client, submission) chaos coordinates, and the engine-level
/// deadline plumbing.
///
/// The load-bearing invariant throughout: every submission receives
/// exactly one terminal reply (committed / failed / deadline /
/// overloaded / cancelled), whatever the service is going through —
/// overload, chaos injection, deadline storms, or a drain hard stop.
/// The client lanes are the service's only queue, so the intake's own
/// checks live here too: concurrent producers lose nothing and keep
/// their per-client order, the queue cap counts every queued
/// submission, and report(), rollupJson() and the serve.* counters
/// agree status by status. The socket frontend forgets a connection
/// once it has closed and its last reply has been routed.
///
//===----------------------------------------------------------------------===//

#include "janus/serve/Frontend.h"
#include "janus/serve/Serve.h"
#include "janus/stm/Detector.h"
#include "janus/stm/ShardedRuntime.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <iterator>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

using namespace janus;
using namespace janus::serve;
using namespace janus::core;
using resilience::CancelReason;
using resilience::CancelToken;
using resilience::CancellationTable;

namespace {

/// A Janus instance on the threaded engine with write-set detection (no
/// training needed) and one counter object; the task pool increments it.
struct ServiceWorld {
  Janus J;
  Location Counter;
  std::vector<stm::TaskFn> Pool;

  explicit ServiceWorld(unsigned Threads = 2, bool Obs = false)
      : J(makeConfig(Threads, Obs)) {
    Counter = Location(J.registry().registerObject("counter"));
    Location C = Counter;
    Pool.push_back([C](stm::TxContext &Tx) { Tx.add(C, 1); });
  }

  static JanusConfig makeConfig(unsigned Threads, bool Obs) {
    JanusConfig Cfg;
    Cfg.Engine = EngineKind::Threaded;
    Cfg.Detector = DetectorKind::WriteSet;
    Cfg.Threads = Threads;
    Cfg.Obs.Enabled = Obs;
    return Cfg;
  }

  int64_t counterValue() const {
    Value V = J.valueAt(Counter);
    return V.isInt() ? V.asInt() : 0; // Absent until first commit.
  }
};

/// Reply collector: thread-safe sink recording every terminal reply.
struct ReplyLog {
  std::mutex M;
  std::vector<Reply> All;

  std::function<void(const Reply &)> sink() {
    return [this](const Reply &R) {
      std::lock_guard<std::mutex> G(M);
      All.push_back(R);
    };
  }

  size_t count(ReplyStatus S) {
    std::lock_guard<std::mutex> G(M);
    size_t N = 0;
    for (const Reply &R : All)
      N += R.Status == S ? 1 : 0;
    return N;
  }

  /// True when every (client, subid) appears exactly once.
  bool exactlyOnce() {
    std::lock_guard<std::mutex> G(M);
    std::set<std::pair<uint64_t, uint64_t>> Seen;
    for (const Reply &R : All)
      if (!Seen.insert({R.Client, R.SubId}).second)
        return false;
    return true;
  }
};

/// Sums \p Field over the "clients" array of a rollupJson() object.
uint64_t sumClientField(const std::string &Json, const std::string &Field) {
  const size_t Begin = Json.find("\"clients\":[");
  const size_t End = Json.find("\"lanes\":[");
  const std::string Key = "\"" + Field + "\":";
  uint64_t Sum = 0;
  for (size_t At = Json.find(Key, Begin); At < End;
       At = Json.find(Key, At + 1))
    Sum += std::stoull(Json.substr(At + Key.size()));
  return Sum;
}

} // namespace

// ---------------------------------------------------------------------------
// Cancellation tokens.
// ---------------------------------------------------------------------------

TEST(CancellationTest, DeadlineExpiryAndFirstCancelWins) {
  CancelToken T;
  EXPECT_EQ(T.status(), CancelReason::None);
  T.setDeadlineUs(CancelToken::nowUs() - 1); // Already past.
  EXPECT_EQ(T.status(), CancelReason::Deadline);

  CancelToken U;
  U.cancel(CancelReason::Deadline);
  U.cancel(CancelReason::Shutdown); // Late reason must not overwrite.
  EXPECT_EQ(U.status(), CancelReason::Deadline);
}

TEST(CancellationTest, GlobalShutdownDominatesPerTaskTokens) {
  CancellationTable Table(3);
  EXPECT_EQ(Table.status(2), CancelReason::None);
  Table.task(2)->setDeadlineUs(CancelToken::nowUs() - 1);
  EXPECT_EQ(Table.status(2), CancelReason::Deadline);
  EXPECT_EQ(Table.status(1), CancelReason::None);
  Table.global().cancel(CancelReason::Shutdown);
  EXPECT_EQ(Table.status(1), CancelReason::Shutdown);
  EXPECT_EQ(Table.status(2), CancelReason::Shutdown);
  // Out-of-range ids see only the global token.
  EXPECT_EQ(Table.status(99), CancelReason::Shutdown);
  EXPECT_EQ(Table.task(99), nullptr);
}

// ---------------------------------------------------------------------------
// Client-coordinate chaos clauses.
// ---------------------------------------------------------------------------

TEST(FaultPlanClientCoordsTest, ParsesRoundTripsAndStaysEngineInvisible) {
  std::string Err;
  std::optional<resilience::FaultPlan> P = resilience::FaultPlan::parse(
      "shed@*:7;throw@3:1;acquiredelay@*.1=200", &Err);
  ASSERT_TRUE(P.has_value()) << Err;

  // Admission-time queries.
  EXPECT_TRUE(P->shedSubmission(4, 7));
  EXPECT_TRUE(P->shedSubmission(1, 7));
  EXPECT_FALSE(P->shedSubmission(4, 8));
  using FK = resilience::FaultAction::Kind;
  EXPECT_NE(P->clientMatch(FK::ThrowTask, 3, 1), nullptr);
  EXPECT_EQ(P->clientMatch(FK::ThrowTask, 3, 2), nullptr);
  EXPECT_EQ(P->clientMatch(FK::ThrowTask, 2, 1), nullptr);

  // Engine isolation: a client-coordinate throw must never fire as a
  // task-coordinate throw, even at numerically identical coordinates.
  EXPECT_FALSE(P->throwTask(3, 1));
  EXPECT_EQ(P->acquireDelay(5, 1), 200u); // Task coords still work.

  // Round trip through the grammar.
  std::optional<resilience::FaultPlan> Q =
      resilience::FaultPlan::parse(P->toString(), &Err);
  ASSERT_TRUE(Q.has_value()) << P->toString() << ": " << Err;
  EXPECT_EQ(Q->toString(), P->toString());

  // Malformed coordinate mixes are rejected.
  EXPECT_FALSE(resilience::FaultPlan::parse("shed@1.2", &Err).has_value());
  EXPECT_FALSE(
      resilience::FaultPlan::parse("acquiredelay@1:2=5", &Err).has_value());
}

// ---------------------------------------------------------------------------
// Service behaviour.
// ---------------------------------------------------------------------------

TEST(ServiceTest, EverySubmissionCommitsAndGetsOneReply) {
  ServiceWorld World;
  ServeConfig SC;
  SC.BatchMax = 8;
  Service S(World.J, World.Pool, SC);
  ReplyLog Log;
  S.setReplySink(Log.sink());

  const int N = 40;
  for (int I = 0; I != N; ++I)
    EXPECT_TRUE(S.submit(/*Client=*/1 + (I % 3), /*SubId=*/I, 0));
  S.requestStop();
  S.serve();

  ServeReport R = S.report();
  EXPECT_TRUE(R.clean());
  EXPECT_EQ(R.Received, uint64_t(N));
  EXPECT_EQ(R.Committed, uint64_t(N));
  EXPECT_EQ(R.Replies, uint64_t(N));
  EXPECT_TRUE(R.DrainedInTime);
  EXPECT_TRUE(Log.exactlyOnce());
  EXPECT_EQ(Log.count(ReplyStatus::Committed), size_t(N));
  EXPECT_EQ(World.counterValue(), N);
}

TEST(ServiceTest, BatchesRunOnceOnTheLiveEngine) {
  // Every body execution is an engine attempt: no batch is executed a
  // second time for a sequential baseline.
  ServiceWorld World(/*Threads=*/4);
  std::atomic<uint64_t> Bodies{0};
  Location C = World.Counter;
  std::vector<stm::TaskFn> Pool{[C, &Bodies](stm::TxContext &Tx) {
    Bodies.fetch_add(1, std::memory_order_relaxed);
    Tx.add(C, 1);
  }};
  ServeConfig SC;
  SC.BatchMax = 16;
  Service S(World.J, Pool, SC);

  const int N = 64;
  for (int I = 0; I != N; ++I)
    EXPECT_TRUE(S.submit(/*Client=*/1 + (I % 4), /*SubId=*/I, 0));
  S.requestStop();
  S.serve();

  EXPECT_EQ(S.report().Committed, uint64_t(N));
  const stm::RunStats &RS = World.J.runStats();
  EXPECT_EQ(RS.Commits.load(), uint64_t(N));
  EXPECT_EQ(Bodies.load(std::memory_order_relaxed),
            RS.Commits.load() + RS.Retries.load());
  EXPECT_EQ(World.counterValue(), N);
}

TEST(ServiceTest, ExpiredDeadlinesGetDeadlineReplies) {
  ServiceWorld World;
  Service S(World.J, World.Pool, ServeConfig{});
  ReplyLog Log;
  S.setReplySink(Log.sink());

  // 1µs deadlines, long expired by the time the scheduler dequeues.
  for (int I = 0; I != 10; ++I)
    S.submit(1, I, 0, /*DeadlineRelUs=*/1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  S.requestStop();
  S.serve();

  ServeReport R = S.report();
  EXPECT_TRUE(R.clean());
  EXPECT_EQ(R.DeadlineFailures, 10u);
  EXPECT_EQ(Log.count(ReplyStatus::Deadline), 10u);
  EXPECT_EQ(World.counterValue(), 0);
}

TEST(ServiceTest, QueueAndLaneCapsShedOverloaded) {
  ServiceWorld World;
  ServeConfig SC;
  SC.QueueCap = 8;
  SC.LaneCap = 64;
  Service S(World.J, World.Pool, SC);
  ReplyLog Log;
  S.setReplySink(Log.sink());

  // Flood before the scheduler runs: everything past the queue cap is
  // shed with a structured Overloaded reply, immediately.
  const int N = 50;
  int Admitted = 0;
  for (int I = 0; I != N; ++I)
    Admitted += S.submit(1, I, 0) ? 1 : 0;
  EXPECT_EQ(Admitted, 8);
  ServeReport Mid = S.report();
  EXPECT_EQ(Mid.Sheds, uint64_t(N - Admitted));
  EXPECT_EQ(Log.count(ReplyStatus::Overloaded), size_t(N - Admitted));

  S.requestStop();
  S.serve();
  ServeReport R = S.report();
  EXPECT_TRUE(R.clean());
  EXPECT_EQ(R.Replies, uint64_t(N));
  EXPECT_TRUE(Log.exactlyOnce());

  // Per-client lane cap, independently of the global queue.
  ServiceWorld World2;
  ServeConfig SC2;
  SC2.QueueCap = 1024;
  SC2.LaneCap = 4;
  Service S2(World2.J, World2.Pool, SC2);
  ReplyLog Log2;
  S2.setReplySink(Log2.sink());
  for (int I = 0; I != 10; ++I)
    S2.submit(7, I, 0);
  EXPECT_EQ(S2.report().Sheds, 6u);
  S2.requestStop();
  S2.serve();
  EXPECT_TRUE(S2.report().clean());
}

TEST(ServiceTest, QueueCapCountsSubmissionsAlreadyInLanes) {
  // One engine thread and one-task batches: while the first task
  // blocks, the three submissions behind it wait in the lane, and they
  // count against the queue cap.
  ServiceWorld World(/*Threads=*/1);
  std::atomic<bool> Started{false}, Release{false};
  Location C = World.Counter;
  World.Pool.push_back([C, &Started, &Release](stm::TxContext &Tx) {
    Started.store(true);
    while (!Release.load())
      std::this_thread::yield();
    Tx.add(C, 1);
  });
  ServeConfig SC;
  SC.BatchMax = 1;
  SC.QueueCap = 4;
  SC.StallEscalateUs = 60000000; // The blocked task is no stall here.
  Service S(World.J, World.Pool, SC);
  ReplyLog Log;
  S.setReplySink(Log.sink());

  EXPECT_TRUE(S.submit(1, 0, /*TaskIndex=*/1)); // The blocking task.
  for (int I = 1; I != 4; ++I)
    EXPECT_TRUE(S.submit(1, I, 0));
  std::thread Runner([&S] { S.serve(); });
  while (!Started.load())
    std::this_thread::yield();

  // Three queued: exactly one more fits under the cap.
  EXPECT_TRUE(S.submit(1, 4, 0));
  EXPECT_FALSE(S.submit(1, 5, 0));
  EXPECT_NE(S.rollupJson().find("\"queue_depth\":4"), std::string::npos)
      << S.rollupJson();
  Release.store(true);
  S.requestStop();
  Runner.join();

  ServeReport R = S.report();
  EXPECT_TRUE(R.clean());
  EXPECT_EQ(R.Committed, 5u);
  EXPECT_EQ(R.Sheds, 1u);
  EXPECT_EQ(Log.count(ReplyStatus::Overloaded), 1u);
  EXPECT_EQ(World.counterValue(), 5);
}

TEST(ServiceTest, ConcurrentProducersKeepPerClientOrder) {
  // Four producers submit numbered work for their own client while the
  // scheduler runs. Every task adds to its own cell, so nothing aborts
  // and no pressure gate sheds; both caps are above the load.
  ServiceWorld World(/*Threads=*/4);
  const int Producers = 4, PerProducer = 2500;
  ObjectId Cells = World.J.registry().registerObject("cells", "cells.elem");
  World.Pool.clear();
  for (int I = 0; I != Producers * PerProducer; ++I)
    World.Pool.push_back(
        [Cells, I](stm::TxContext &Tx) { Tx.add(Location(Cells, I), 1); });
  ServeConfig SC;
  SC.BatchMax = 16;
  SC.QueueCap = Producers * PerProducer;
  SC.LaneCap = PerProducer;
  Service S(World.J, World.Pool, SC);
  ReplyLog Log;
  S.setReplySink(Log.sink());

  std::thread Runner([&S] { S.serve(); });
  std::vector<std::thread> Ts;
  for (int P = 0; P != Producers; ++P)
    Ts.emplace_back([&S, P] {
      for (int I = 0; I != PerProducer; ++I)
        EXPECT_TRUE(S.submit(uint64_t(P + 1), uint64_t(I),
                             uint32_t(P * PerProducer + I)));
    });
  for (std::thread &T : Ts)
    T.join();
  S.requestStop();
  Runner.join();

  ServeReport R = S.report();
  EXPECT_TRUE(R.clean());
  EXPECT_EQ(R.Committed, uint64_t(Producers * PerProducer));
  EXPECT_EQ(R.Sheds, 0u);
  EXPECT_TRUE(Log.exactlyOnce());
  // Each client's replies arrive in its submission order.
  std::vector<uint64_t> Next(Producers + 1, 0);
  for (const Reply &Rp : Log.All) {
    ASSERT_EQ(Rp.Status, ReplyStatus::Committed);
    EXPECT_EQ(Rp.SubId, Next[Rp.Client]) << "client " << Rp.Client;
    Next[Rp.Client] = Rp.SubId + 1;
  }
  for (int P = 1; P <= Producers; ++P)
    EXPECT_EQ(Next[P], uint64_t(PerProducer));
  for (int I = 0; I != Producers * PerProducer; ++I)
    ASSERT_EQ(World.J.valueAt(Location(Cells, I)), Value::of(int64_t(1)))
        << "cell " << I;
}

TEST(ServiceTest, ChaosPlanShedsDeterministically) {
  ServiceWorld World;
  {
    std::string Err;
    std::optional<resilience::FaultPlan> Plan =
        resilience::FaultPlan::parse("shed@1:2", &Err);
    ASSERT_TRUE(Plan.has_value()) << Err;
    World.J.setFaults(std::move(*Plan));
  }
  Service S(World.J, World.Pool, ServeConfig{});
  ReplyLog Log;
  S.setReplySink(Log.sink());

  // Client 1's second submission is shed by the plan; client 2's is not.
  EXPECT_TRUE(S.submit(1, 100, 0));
  EXPECT_FALSE(S.submit(1, 101, 0));
  EXPECT_TRUE(S.submit(2, 200, 0));
  EXPECT_TRUE(S.submit(2, 201, 0));
  S.requestStop();
  S.serve();

  ServeReport R = S.report();
  EXPECT_TRUE(R.clean());
  EXPECT_EQ(R.Sheds, 1u);
  EXPECT_EQ(R.Committed, 3u);
  EXPECT_EQ(Log.count(ReplyStatus::Overloaded), 1u);
}

TEST(ServiceTest, DrainHardDeadlineCancelsTheBacklog) {
  ServiceWorld World;
  // A slow task pool so the backlog outlives the (immediate) hard stop.
  Location C = World.Counter;
  World.Pool.clear();
  World.Pool.push_back([C](stm::TxContext &Tx) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    Tx.add(C, 1);
  });
  ServeConfig SC;
  SC.BatchMax = 2;
  SC.DrainHardUs = 1000; // 1ms: expires while the backlog is deep.
  SC.WatchdogPeriodUs = 500;
  Service S(World.J, World.Pool, SC);
  ReplyLog Log;
  S.setReplySink(Log.sink());

  const int N = 60;
  for (int I = 0; I != N; ++I)
    S.submit(1 + (I % 2), I, 0);
  S.requestStop();
  S.serve();

  ServeReport R = S.report();
  EXPECT_TRUE(R.clean());
  EXPECT_EQ(R.Replies, uint64_t(N));
  EXPECT_FALSE(R.DrainedInTime);
  EXPECT_GT(R.DrainedInflight, 0u);
  EXPECT_EQ(Log.count(ReplyStatus::Cancelled), size_t(R.DrainedInflight));
  EXPECT_TRUE(Log.exactlyOnce());
}

TEST(ServiceTest, WatchdogEscalatesOnStalledProgress) {
  ServiceWorld World;
  // One long-running task: no commit ticks while it runs, so the
  // watchdog must walk the escalation ladder.
  Location C = World.Counter;
  World.Pool.clear();
  World.Pool.push_back([C](stm::TxContext &Tx) {
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    Tx.add(C, 1);
  });
  ServeConfig SC;
  SC.WatchdogPeriodUs = 2000;
  SC.StallEscalateUs = 10000;
  Service S(World.J, World.Pool, SC);
  ReplyLog Log;
  S.setReplySink(Log.sink());

  S.submit(1, 0, 0);
  S.requestStop();
  S.serve();

  ServeReport R = S.report();
  EXPECT_TRUE(R.clean());
  EXPECT_GE(R.WatchdogEscalations, 1u);
  EXPECT_EQ(R.Committed, 1u);
  // Progress after the batch decays the level back down (never stuck
  // at forced-serial with a healthy engine).
  EXPECT_LE(S.pressure().EscalationLevel.load(), 2u);
}

// The headline invariant under fire: concurrent producers, chaos plan
// injecting aborts, throws, delays and sheds, deadlines on some
// submissions — exactly one terminal reply each, and the service stays
// up through all of it.
TEST(ServiceTest, ExactlyOneReplyPerSubmissionUnderChaos) {
  ServiceWorld World(/*Threads=*/4);
  {
    std::string Err;
    std::optional<resilience::FaultPlan> Plan = resilience::FaultPlan::parse(
        "abort@*.1;delay@*.2=2;shed@*:5;throw@2:3", &Err);
    ASSERT_TRUE(Plan.has_value()) << Err;
    World.J.setFaults(std::move(*Plan));
  }
  ServeConfig SC;
  SC.BatchMax = 16;
  SC.DrainHardUs = 10000000; // Generous: the drain must finish clean.
  Service S(World.J, World.Pool, SC);
  ReplyLog Log;
  S.setReplySink(Log.sink());

  const int Producers = 3, PerProducer = 120;
  std::vector<std::thread> Ts;
  for (int P = 0; P != Producers; ++P)
    Ts.emplace_back([&S, P] {
      for (int I = 0; I != PerProducer; ++I) {
        // Every 7th submission carries a tight-but-feasible deadline.
        S.submit(uint64_t(P + 1), uint64_t(I),
                 /*TaskIndex=*/uint32_t(I),
                 /*DeadlineRelUs=*/(I % 7 == 0) ? 50000 : 0);
        if (I % 16 == 0)
          std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });

  std::thread Runner([&S] { S.serve(); });
  for (std::thread &T : Ts)
    T.join();
  S.requestStop();
  Runner.join();

  ServeReport R = S.report();
  EXPECT_TRUE(R.clean()) << "received=" << R.Received
                         << " replies=" << R.Replies;
  EXPECT_EQ(R.Received, uint64_t(Producers * PerProducer));
  EXPECT_GT(R.Sheds, 0u);     // shed@*:5 fired per client.
  EXPECT_GT(R.Committed, 0u);
  EXPECT_TRUE(Log.exactlyOnce());
  // Terminal statuses partition the replies.
  EXPECT_EQ(Log.count(ReplyStatus::Committed) +
                Log.count(ReplyStatus::Failed) +
                Log.count(ReplyStatus::Deadline) +
                Log.count(ReplyStatus::Overloaded) +
                Log.count(ReplyStatus::Cancelled),
            size_t(R.Replies));
}

// Every status at once — commits, exhausted throws, expired deadlines,
// sheds and a drain hard stop — and the three places that count
// replies agree on each: report(), the per-client tallies in
// rollupJson(), and the serve.* obs counters.
TEST(ServiceTest, ReportRollupAndCountersAgreeStatusByStatus) {
  ServiceWorld World(/*Threads=*/2, /*Obs=*/true);
  {
    std::string Err;
    std::optional<resilience::FaultPlan> Plan =
        resilience::FaultPlan::parse("shed@1:3", &Err);
    ASSERT_TRUE(Plan.has_value()) << Err;
    World.J.setFaults(std::move(*Plan));
  }
  std::atomic<bool> Blocked{false}, Release{false};
  Location C = World.Counter;
  World.Pool.push_back( // 1: always throws.
      [](stm::TxContext &) { throw std::runtime_error("boom"); });
  World.Pool.push_back([C, &Blocked, &Release](stm::TxContext &Tx) {
    Blocked.store(true); // 2: holds its batch until the hard stop.
    while (!Release.load())
      std::this_thread::yield();
    Tx.add(C, 1);
  });
  ServeConfig SC;
  SC.BatchMax = 1;
  SC.DrainHardUs = 1000;
  SC.WatchdogPeriodUs = 500;
  SC.StallEscalateUs = 60000000;
  Service S(World.J, World.Pool, SC);
  ReplyLog Log;
  S.setReplySink(Log.sink());

  // One client's lane, served in order: three commits (the 3rd
  // submission is shed by the plan), two failures, two expired
  // deadlines, the blocker, then a backlog the hard stop cancels.
  const uint32_t Tasks[] = {0, 0, 0, 0, 1, 1, 0, 0, 2, 0, 0, 0, 0};
  for (uint64_t I = 0; I != std::size(Tasks); ++I)
    S.submit(1, I, Tasks[I], /*DeadlineRelUs=*/(I == 6 || I == 7) ? 1 : 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  std::thread Runner([&S] { S.serve(); });
  while (!Blocked.load())
    std::this_thread::yield();
  S.requestStop();
  while (S.report().DrainedInTime)
    std::this_thread::yield();
  Release.store(true);
  Runner.join();

  ServeReport R = S.report();
  EXPECT_TRUE(R.clean());
  EXPECT_FALSE(R.DrainedInTime);
  EXPECT_EQ(R.Received, std::size(Tasks));
  const std::string Rollup = S.rollupJson();
  obs::MetricsRegistry &M = World.J.observer()->metrics();
  struct Row {
    ReplyStatus Status;
    uint64_t Report;
    const char *RollupField;
    const char *Counter;
  };
  for (const Row &Rw : {
           Row{ReplyStatus::Committed, R.Committed, "committed",
               "serve.committed"},
           Row{ReplyStatus::Failed, R.Failed, "failed", "serve.failed"},
           Row{ReplyStatus::Deadline, R.DeadlineFailures, "deadline",
               "serve.deadline_failures"},
           Row{ReplyStatus::Overloaded, R.Sheds, "sheds", "serve.sheds"},
           Row{ReplyStatus::Cancelled, R.DrainedInflight, "cancelled",
               "serve.drained_inflight"},
       }) {
    SCOPED_TRACE(toString(Rw.Status));
    EXPECT_EQ(Rw.Report, Log.count(Rw.Status));
    EXPECT_EQ(sumClientField(Rollup, Rw.RollupField), Rw.Report);
    EXPECT_EQ(M.counter(Rw.Counter).load(), Rw.Report);
  }
  EXPECT_GE(R.Committed, 3u);
  EXPECT_EQ(R.Failed, 2u);
  EXPECT_EQ(R.DeadlineFailures, 2u);
  EXPECT_EQ(R.Sheds, 1u);
  EXPECT_GE(R.DrainedInflight, 4u);
  EXPECT_EQ(M.counter("serve.submissions").load(), R.Received);
}

namespace {

/// A blocking line client for the frontend's AF_UNIX socket.
class LineClient {
public:
  explicit LineClient(const std::string &Path) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
    Connected =
        Fd >= 0 && ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                             sizeof(Addr)) == 0;
  }
  ~LineClient() {
    if (Fd >= 0)
      ::close(Fd);
  }
  LineClient(const LineClient &) = delete;
  LineClient &operator=(const LineClient &) = delete;

  bool connected() const { return Connected; }

  bool send(const std::string &Line) {
    const std::string Out = Line + "\n";
    return ::send(Fd, Out.data(), Out.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(Out.size());
  }

  /// The next line, or "" once the connection has closed.
  std::string readLine() {
    size_t Pos;
    while ((Pos = Buffer.find('\n')) == std::string::npos) {
      char Chunk[256];
      ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
      if (N <= 0)
        return std::string();
      Buffer.append(Chunk, static_cast<size_t>(N));
    }
    std::string Line = Buffer.substr(0, Pos);
    Buffer.erase(0, Pos + 1);
    return Line;
  }

private:
  int Fd = -1;
  bool Connected = false;
  std::string Buffer;
};

/// Client records in a rollupJson() object.
size_t rollupClients(const std::string &Json) {
  const size_t End = Json.find("\"lanes\":[");
  size_t N = 0;
  for (size_t At = Json.find("\"seq\":"); At < End;
       At = Json.find("\"seq\":", At + 1))
    ++N;
  return N;
}

} // namespace

TEST(SocketFrontendTest, ClosedConnectionsAreReapedAndTheirClientsRetired) {
  // 200 sequential connections each submit once, await the reply and
  // quit. The frontend must not keep a Conn (and an unjoined reader)
  // per connection it ever accepted, nor the service a client record,
  // while report() still counts every retired client's replies.
  ServiceWorld World;
  ServeConfig SC;
  SC.BatchMax = 4;
  Service S(World.J, World.Pool, SC);
  const std::string Path = ::testing::TempDir() + "janus_serve_reap_" +
                           std::to_string(::getpid()) + ".sock";
  SocketFrontend F(S, Path);
  S.setReplySink([&F](const Reply &R) { F.route(R); });
  std::string Err;
  ASSERT_TRUE(F.start(&Err)) << Err;
  std::thread Runner([&S] { S.serve(); });

  const int N = 200;
  int Replies = 0;
  for (int I = 0; I != N; ++I) {
    LineClient C(Path);
    ASSERT_TRUE(C.connected()) << "connection " << I;
    EXPECT_EQ(C.readLine().rfind("hello ", 0), 0u);
    ASSERT_TRUE(C.send("submit 7 0"));
    EXPECT_EQ(C.readLine(), "reply 7 committed") << "connection " << I;
    ++Replies;
    ASSERT_TRUE(C.send("quit"));
    EXPECT_EQ(C.readLine(), ""); // The frontend closes on quit.
  }
  EXPECT_LE(F.connectionsHeld(), 10u);
  EXPECT_LE(rollupClients(S.rollupJson()), 10u);

  S.requestStop();
  Runner.join();
  F.stop();
  EXPECT_EQ(F.connectionsHeld(), 0u);
  EXPECT_EQ(F.connectionsAccepted(), uint64_t(N));
  ServeReport R = S.report();
  EXPECT_TRUE(R.clean());
  EXPECT_EQ(R.Received, uint64_t(Replies));
  EXPECT_EQ(R.Committed, uint64_t(Replies));
  EXPECT_EQ(R.Replies, uint64_t(Replies));
  const std::string Rollup = S.rollupJson();
  EXPECT_EQ(rollupClients(Rollup), 0u);
  EXPECT_NE(Rollup.find("\"retired_clients\":200"), std::string::npos)
      << Rollup;
  EXPECT_EQ(World.counterValue(), N);
}

// ---------------------------------------------------------------------------
// Engine-level deadline plumbing (below the service).
// ---------------------------------------------------------------------------

TEST(ThreadedCancellationTest, ExpiredDeadlineFailsTaskKeepingClockDense) {
  ObjectRegistry Reg;
  ObjectId Counter = Reg.registerObject("counter");
  stm::WriteSetDetector D;
  stm::ShardedConfig Cfg;
  Cfg.NumShards = 1;
  Cfg.NumThreads = 2;
  CancellationTable Table(4);
  Table.task(2)->setDeadlineUs(CancelToken::nowUs() - 1); // Pre-expired.
  Cfg.Cancel = &Table;
  stm::ShardedRuntime R(Reg, D, Cfg);

  std::vector<stm::TaskFn> Tasks(4, [Counter](stm::TxContext &Tx) {
    Tx.add(Location(Counter), 1);
  });
  R.run(Tasks);

  // Task 2 fails with a Deadline kind; the other three commit real
  // effects; the placeholder keeps the clock dense (4 commit ticks).
  ASSERT_EQ(R.failures().size(), 1u);
  EXPECT_EQ(R.failures()[0].Tid, 2u);
  EXPECT_EQ(R.failures()[0].FailKind,
            resilience::TaskFailure::Kind::Deadline);
  EXPECT_EQ(R.stats().CancelledTasks.load(), 1u);
  EXPECT_EQ(R.stats().Commits.load(), 4u);
  EXPECT_EQ(R.commitOrder().size(), 4u);
  EXPECT_EQ(stm::snapshotValue(R.sharedState(), Location(Counter)).asInt(),
            3);
}
