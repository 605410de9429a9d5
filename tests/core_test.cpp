//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the Janus façade (paper §7.1 API): configuration, the
/// train-then-run pipeline, both engines, both detectors, cache
/// export/import, and the Figure 1 motivating example end to end.
///
//===----------------------------------------------------------------------===//

#include "janus/adt/TxCounter.h"
#include "janus/adt/TxVar.h"
#include "janus/core/Janus.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

using namespace janus;
using namespace janus::core;
using stm::TaskFn;
using stm::TxContext;

namespace {

/// Builds the Figure 1 work-accumulation tasks: each item adds its
/// weight, processes, and (on success) subtracts it again.
std::vector<TaskFn> figure1Tasks(adt::TxCounter Work, int NumItems,
                                 int FailEvery = 0) {
  std::vector<TaskFn> Tasks;
  for (int I = 1; I <= NumItems; ++I) {
    bool Fails = FailEvery && I % FailEvery == 0;
    Tasks.push_back([Work, I, Fails](TxContext &Tx) {
      Work.add(Tx, I);     // work += weightOf(item)
      Tx.localWork(5.0);   // processItem(item)
      if (!Fails)
        Work.sub(Tx, I);   // item processed successfully
    });
  }
  return Tasks;
}

} // namespace

TEST(JanusTest, DefaultsAreSequenceSimulated) {
  Janus J;
  EXPECT_EQ(J.config().Detector, DetectorKind::Sequence);
  EXPECT_EQ(J.config().Engine, EngineKind::Simulated);
  EXPECT_NE(J.sequenceDetector(), nullptr);
  EXPECT_EQ(J.detector().name(), "sequence");
}

TEST(JanusTest, WriteSetConfiguration) {
  JanusConfig Cfg;
  Cfg.Detector = DetectorKind::WriteSet;
  Janus J(Cfg);
  EXPECT_EQ(J.sequenceDetector(), nullptr);
  EXPECT_EQ(J.detector().name(), "write-set");
}

TEST(JanusTest, Figure1EndToEnd) {
  JanusConfig Cfg;
  Cfg.Threads = 8;
  Janus J(Cfg);
  adt::TxCounter Work = adt::TxCounter::create(J.registry(), "work");

  // Training: small item list.
  J.train(figure1Tasks(Work, 4));
  EXPECT_GT(J.trainStats().CachedEntries, 0u);

  // Production: all items succeed, so work nets to zero; with
  // sequence-based detection there are no retries at all.
  RunOutcome O = J.runOutOfOrder(figure1Tasks(Work, 40));
  EXPECT_EQ(J.valueAt(Work.location()), Value::of(int64_t(0)));
  EXPECT_EQ(J.runStats().Retries.load(), 0u);
  EXPECT_EQ(J.runStats().Commits.load(), 40u);
  EXPECT_GT(O.speedup(), 1.0); // 8 simulated cores, mostly local work.
}

TEST(JanusTest, Figure1WriteSetSerializes) {
  JanusConfig Cfg;
  Cfg.Threads = 8;
  Cfg.Detector = DetectorKind::WriteSet;
  Janus J(Cfg);
  adt::TxCounter Work = adt::TxCounter::create(J.registry(), "work");
  RunOutcome O = J.runOutOfOrder(figure1Tasks(Work, 40));
  EXPECT_EQ(J.valueAt(Work.location()), Value::of(int64_t(0)));
  // Write-set detection aborts overlapping add transactions.
  EXPECT_GT(J.runStats().Retries.load(), 0u);
  // And the sequence version beats it.
  JanusConfig SeqCfg;
  SeqCfg.Threads = 8;
  Janus JS(SeqCfg);
  adt::TxCounter Work2 = adt::TxCounter::create(JS.registry(), "work");
  JS.train(figure1Tasks(Work2, 4));
  RunOutcome OS = JS.runOutOfOrder(figure1Tasks(Work2, 40));
  EXPECT_GT(OS.speedup(), O.speedup());
}

TEST(JanusTest, FailedItemsLeavePendingWork) {
  Janus J;
  adt::TxCounter Work = adt::TxCounter::create(J.registry(), "work");
  J.train(figure1Tasks(Work, 4));
  // Every third item fails: its weight stays accumulated.
  J.runOutOfOrder(figure1Tasks(Work, 30, /*FailEvery=*/3));
  int64_t Expected = 0;
  for (int I = 3; I <= 30; I += 3)
    Expected += I;
  EXPECT_EQ(J.valueAt(Work.location()), Value::of(Expected));
}

TEST(JanusTest, OrderedRunsMatchSequentialState) {
  for (EngineKind Engine : {EngineKind::Simulated, EngineKind::Threaded}) {
    JanusConfig Cfg;
    Cfg.Engine = Engine;
    Cfg.Threads = 4;
    Janus J(Cfg);
    adt::TxIntVar Last = adt::TxIntVar::create(J.registry(), "last");
    std::vector<TaskFn> Tasks;
    for (int I = 1; I <= 20; ++I)
      Tasks.push_back([Last, I](TxContext &Tx) { Last.set(Tx, I); });
    J.runInOrder(Tasks);
    EXPECT_EQ(J.valueAt(Last.location()), Value::of(int64_t(20)))
        << "engine " << static_cast<int>(Engine);
  }
}

TEST(JanusTest, SetInitialSeedsState) {
  Janus J;
  adt::TxIntVar X = adt::TxIntVar::create(J.registry(), "x");
  J.setInitial(X.location(), Value::of(int64_t(100)));
  J.runOutOfOrder({[X](TxContext &Tx) {
    int64_t V = X.get(Tx);
    X.set(Tx, V + 1);
  }});
  EXPECT_EQ(J.valueAt(X.location()), Value::of(int64_t(101)));
}

TEST(JanusTest, TrainingDoesNotDisturbSharedState) {
  Janus J;
  adt::TxCounter Work = adt::TxCounter::create(J.registry(), "work");
  J.train({[Work](TxContext &Tx) { Work.add(Tx, 99); }});
  EXPECT_EQ(J.valueAt(Work.location()), Value::absent());
}

TEST(JanusTest, CacheExportImportRoundTrip) {
  Janus A;
  adt::TxCounter Work = adt::TxCounter::create(A.registry(), "work");
  A.train(figure1Tasks(Work, 4));
  std::string Exported = A.exportCache();
  EXPECT_GT(A.cache()->size(), 0u);

  // A fresh instance imports the training artifact and hits the cache
  // without any training of its own.
  Janus B;
  adt::TxCounter Work2 = adt::TxCounter::create(B.registry(), "work");
  ASSERT_TRUE(B.importCache(Exported));
  EXPECT_EQ(B.cache()->size(), A.cache()->size());
  B.runOutOfOrder(figure1Tasks(Work2, 20));
  EXPECT_EQ(B.runStats().Retries.load(), 0u);
  EXPECT_GT(B.detectorStats().CacheHits.load(), 0u);
}

TEST(JanusTest, CacheImportBetweenRunsReachesTheDetector) {
  // The detector keeps the cache's answer per query across runs; a
  // cache imported after a run must answer the next run's queries.
  Janus A;
  adt::TxCounter WorkA = adt::TxCounter::create(A.registry(), "work");
  A.train(figure1Tasks(WorkA, 4));

  Janus B;
  adt::TxCounter Work = adt::TxCounter::create(B.registry(), "work");
  B.runOutOfOrder(figure1Tasks(Work, 20));
  EXPECT_EQ(B.detectorStats().CacheHits.load(), 0u);
  EXPECT_GT(B.detectorStats().CacheMisses.load(), 0u);

  ASSERT_TRUE(B.importCache(A.exportCache()));
  const uint64_t Retries = B.runStats().Retries.load();
  B.runOutOfOrder(figure1Tasks(Work, 20));
  EXPECT_GT(B.detectorStats().CacheHits.load(), 0u);
  EXPECT_EQ(B.runStats().Retries.load(), Retries);
}

TEST(JanusTest, SatBudgetClauseClampsTheOptInSatCrossCheck) {
  // A `satbudget` fault clause clamps the trainer's SAT conflict
  // budget. Only the SAT cross-check reads that budget, and it runs
  // only when Training.VerifyWithSat is on (it is off by default).
  std::string Err;
  std::optional<resilience::FaultPlan> Plan =
      resilience::FaultPlan::parse("satbudget=4", &Err);
  ASSERT_TRUE(Plan.has_value()) << Err;
  JanusConfig Cfg;
  Cfg.Faults = *Plan;

  Janus Off(Cfg);
  EXPECT_EQ(Off.config().Training.SatConflictBudget, 4u);
  adt::TxCounter WorkOff = adt::TxCounter::create(Off.registry(), "work");
  Off.train(figure1Tasks(WorkOff, 4));
  EXPECT_EQ(Off.trainStats().SatCrossChecks, 0u);

  Cfg.Training.VerifyWithSat = true;
  Janus On(Cfg);
  EXPECT_EQ(On.config().Training.SatConflictBudget, 4u);
  adt::TxCounter WorkOn = adt::TxCounter::create(On.registry(), "work");
  On.train(figure1Tasks(WorkOn, 4));
  EXPECT_GT(On.trainStats().SatCrossChecks, 0u);
}

TEST(JanusTest, OnlineFallbackAvoidsRetriesWithoutTraining) {
  JanusConfig Cfg;
  Cfg.Sequence.OnlineFallback = true;
  Janus J(Cfg);
  adt::TxCounter Work = adt::TxCounter::create(J.registry(), "work");
  // No training at all: every query misses, but the online check is
  // precise.
  J.runOutOfOrder(figure1Tasks(Work, 20));
  EXPECT_EQ(J.runStats().Retries.load(), 0u);
  EXPECT_GT(J.detectorStats().OnlineChecks.load(), 0u);
}

// ---------------------------------------------------------------------------
// The live real-thread engine (DESIGN.md §11.6): one engine per Janus,
// its pool parked between runs, its state kept across runs, and each
// task executed once per attempt.
// ---------------------------------------------------------------------------

namespace {

/// The real-thread engine with write-set detection (no training).
JanusConfig threadedConfig(unsigned Shards) {
  JanusConfig Cfg;
  Cfg.Engine = EngineKind::Threaded;
  Cfg.Detector = DetectorKind::WriteSet;
  Cfg.Threads = 4;
  Cfg.Shards = Shards;
  return Cfg;
}

/// Holds each body until \p N distinct threads have entered one, so
/// that every worker slot of a run takes a task. A wait that times out
/// opens the gate for good: bodies that run one after another on a
/// single thread must not each wait again.
class ThreadGate {
public:
  explicit ThreadGate(size_t N) : N(N) {}

  void arrive() {
    std::unique_lock<std::mutex> Guard(M);
    Seen.insert(std::this_thread::get_id());
    Cv.notify_all();
    if (!Cv.wait_for(Guard, std::chrono::seconds(5),
                     [this] { return Open || Seen.size() >= N; })) {
      Open = true;
      Cv.notify_all();
    }
  }

  size_t seen() {
    std::lock_guard<std::mutex> Guard(M);
    return Seen.size();
  }

private:
  const size_t N;
  std::mutex M;
  std::condition_variable Cv;
  std::set<std::thread::id> Seen;
  bool Open = false;
};

/// Set by a body on the thread that runs it.
thread_local bool ThreadMarked = false;

} // namespace

TEST(LiveEngineTest, BodiesRunOncePerAttempt) {
  for (unsigned Shards : {1u, 4u}) {
    for (bool Ordered : {true, false}) {
      Janus J(threadedConfig(Shards));
      ObjectId Slots = J.registry().registerObject("slots", "slots.elem");
      Location Sum(J.registry().registerObject("sum"));
      std::atomic<uint64_t> Bodies{0};
      std::vector<TaskFn> Tasks;
      for (int I = 0; I != 64; ++I)
        Tasks.push_back([&Bodies, Slots, Sum, I](TxContext &Tx) {
          Bodies.fetch_add(1, std::memory_order_relaxed);
          Tx.write(Location(Slots, I), Value::of(int64_t(I)));
          if (I % 4 == 0)
            Tx.add(Sum, 1);
        });
      for (int Run = 0; Run != 2; ++Run) {
        RunOutcome O = Ordered ? J.runInOrder(Tasks) : J.runOutOfOrder(Tasks);
        EXPECT_TRUE(O.Failures.empty());
        EXPECT_EQ(O.SequentialTime, 0.0); // No baseline pass.
        EXPECT_GT(O.ParallelTime, 0.0);
      }
      const stm::RunStats &RS = J.runStats();
      EXPECT_EQ(RS.Tasks.load(), 128u) << Shards << Ordered;
      EXPECT_EQ(RS.Commits.load(), 128u) << Shards << Ordered;
      EXPECT_EQ(Bodies.load(std::memory_order_relaxed),
                RS.Commits.load() + RS.Retries.load())
          << Shards << Ordered;
      EXPECT_EQ(J.valueAt(Sum), Value::of(int64_t(32)));
    }
  }
}

TEST(LiveEngineTest, TimeSequentialRunsEachBodyOnceOnACopy) {
  Janus J(threadedConfig(1));
  Location Sum(J.registry().registerObject("sum"));
  std::atomic<uint64_t> Bodies{0};
  std::vector<TaskFn> Tasks(
      16, [&Bodies, Sum](TxContext &Tx) {
        Bodies.fetch_add(1, std::memory_order_relaxed);
        Tx.add(Sum, 1);
      });
  J.runOutOfOrder(Tasks);
  const uint64_t Before = Bodies.load(std::memory_order_relaxed);
  EXPECT_GE(J.timeSequential(Tasks), 0.0);
  EXPECT_EQ(Bodies.load(std::memory_order_relaxed), Before + 16);
  EXPECT_EQ(J.valueAt(Sum), Value::of(int64_t(16))); // Undisturbed.
}

TEST(LiveEngineTest, PoolThreadsAreReusedAcrossRuns) {
  Janus J(threadedConfig(1));
  ObjectId Slots = J.registry().registerObject("slots", "slots.elem");
  ThreadGate Gate(4);
  std::atomic<int> Unmarked{0};
  auto MakeTasks = [&](bool First) {
    std::vector<TaskFn> Tasks;
    for (int I = 0; I != 64; ++I)
      Tasks.push_back([&, First, I](TxContext &Tx) {
        if (First) {
          Gate.arrive();
          ThreadMarked = true;
        } else if (!ThreadMarked) {
          Unmarked.fetch_add(1, std::memory_order_relaxed);
        }
        Tx.write(Location(Slots, I), Value::of(int64_t(I)));
      });
    return Tasks;
  };
  J.runOutOfOrder(MakeTasks(/*First=*/true));
  ASSERT_EQ(Gate.seen(), 4u); // Every slot of run 1 ran a body.
  J.runOutOfOrder(MakeTasks(/*First=*/false));
  J.runOutOfOrder(MakeTasks(/*First=*/false));
  EXPECT_EQ(Unmarked.load(std::memory_order_relaxed), 0);
}

TEST(LiveEngineTest, StateFlowsBetweenFacadeAndLiveEngine) {
  for (unsigned Shards : {1u, 4u}) {
    Janus J(threadedConfig(Shards));
    ObjectId Slots = J.registry().registerObject("slots", "slots.elem");
    Location Sum(J.registry().registerObject("sum"));
    std::vector<TaskFn> Tasks;
    for (int I = 0; I != 16; ++I)
      Tasks.push_back([Slots, Sum, I](TxContext &Tx) {
        Tx.add(Sum, 1);
        Tx.add(Location(Slots, I), I);
      });
    J.runOutOfOrder(Tasks);

    // After a run, every reader sees its final state.
    EXPECT_EQ(J.valueAt(Sum), Value::of(int64_t(16))) << Shards;
    EXPECT_EQ(stm::snapshotValue(J.sharedState(), Location(Slots, 3)),
              Value::of(int64_t(3)))
        << Shards;
    Value Trained = Value::absent();
    J.train({[&Trained, Sum](TxContext &Tx) { Trained = Tx.read(Sum); }});
    EXPECT_EQ(Trained, Value::of(int64_t(16))) << Shards;

    // A setInitial between runs reaches the next run.
    J.setInitial(Sum, Value::of(int64_t(100)));
    J.runOutOfOrder(Tasks);
    EXPECT_EQ(J.valueAt(Sum), Value::of(int64_t(116))) << Shards;
    EXPECT_EQ(J.valueAt(Location(Slots, 5)), Value::of(int64_t(10)))
        << Shards;
  }
}

TEST(LiveEngineTest, ConsecutiveOrderedRunsReachTheSequentialState) {
  for (unsigned Shards : {1u, 4u}) {
    Janus J(threadedConfig(Shards));
    ObjectId Slots = J.registry().registerObject("slots", "slots.elem");
    Location Acc(J.registry().registerObject("acc"));
    Location Last(J.registry().registerObject("last"));
    // Acc's update does not commute, so only the task order reaches
    // the sequential value.
    auto Step = [](int64_t V, int64_t I) { return (V * 3 + I) % 1000003; };
    int64_t Expected = 0;
    for (int Run = 0; Run != 50; ++Run) {
      std::vector<TaskFn> Tasks;
      for (int I = 1; I <= 16; ++I)
        Tasks.push_back([=](TxContext &Tx) {
          Value V = Tx.read(Acc);
          Tx.write(Acc, Value::of(Step(V.isInt() ? V.asInt() : 0, I)));
          Tx.write(Last, Value::of(int64_t(Run * 100 + I)));
          Tx.add(Location(Slots, I), 1);
        });
      RunOutcome O = J.runInOrder(Tasks);
      ASSERT_TRUE(O.Failures.empty());
      for (int I = 1; I <= 16; ++I)
        Expected = Step(Expected, I);
      ASSERT_EQ(J.valueAt(Acc), Value::of(Expected))
          << "shards " << Shards << ", run " << Run;
      ASSERT_EQ(J.valueAt(Last), Value::of(int64_t(Run * 100 + 16)));
      ASSERT_EQ(J.valueAt(Location(Slots, 7)), Value::of(int64_t(Run + 1)));
    }
  }
}

TEST(LiveEngineTest, DestroyedBeforeAnyRunExits) {
  Janus J(threadedConfig(4));
  J.registry().registerObject("x");
  EXPECT_EQ(J.runStats().Tasks.load(), 0u);
}

TEST(LiveEngineTest, DestroyedWithParkedWorkersExits) {
  Janus J(threadedConfig(4));
  Location Sum(J.registry().registerObject("sum"));
  J.runOutOfOrder(
      std::vector<TaskFn>(32, [Sum](TxContext &Tx) { Tx.add(Sum, 1); }));
  EXPECT_EQ(J.valueAt(Sum), Value::of(int64_t(32)));
  // The pool's three workers are parked; the destructor must wake and
  // join them.
}

TEST(LiveEngineTest, BodyThrowingOnAPoolThreadSurfacesAsTaskFailure) {
  Janus J(threadedConfig(1));
  ObjectId Slots = J.registry().registerObject("slots", "slots.elem");
  const std::thread::id Caller = std::this_thread::get_id();
  ThreadGate Gate(4);
  std::mutex M;
  std::set<uint32_t> Thrown;
  std::vector<TaskFn> Tasks;
  for (int I = 0; I != 16; ++I)
    Tasks.push_back([&, I](TxContext &Tx) {
      Gate.arrive();
      Tx.write(Location(Slots, I), Value::of(int64_t(1)));
      if (std::this_thread::get_id() == Caller)
        return;
      {
        std::lock_guard<std::mutex> Guard(M);
        Thrown.insert(Tx.taskId());
      }
      throw std::runtime_error("pool body failed");
    });
  RunOutcome O = J.runOutOfOrder(Tasks);
  ASSERT_FALSE(Thrown.empty());
  std::set<uint32_t> Failed;
  for (const resilience::TaskFailure &F : O.Failures) {
    Failed.insert(F.Tid);
    EXPECT_EQ(F.Reason, "pool body failed");
  }
  EXPECT_EQ(Failed, Thrown);
  // A failed task's effects are absent; the caller's tasks committed.
  for (int I = 0; I != 16; ++I)
    EXPECT_EQ(J.valueAt(Location(Slots, I)).isInt(),
              Thrown.count(static_cast<uint32_t>(I + 1)) == 0)
        << I;
}
