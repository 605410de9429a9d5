//===----------------------------------------------------------------------===//
///
/// \file
/// Unit, integration and property tests for the STM runtime (paper §4):
/// transaction contexts, logs, the write-set detector, the threaded
/// protocol of Figure 7 and the deterministic virtual-time simulator.
///
//===----------------------------------------------------------------------===//

#include "janus/stm/Attempt.h"
#include "janus/stm/Detector.h"
#include "janus/stm/SimRuntime.h"
#include "janus/stm/ShardedRuntime.h"
#include "janus/support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <tuple>

using namespace janus;
using namespace janus::stm;
using symbolic::LocOp;
using symbolic::LocOpKind;

namespace {

/// Common fixture state: a registry with a couple of scalar objects.
struct World {
  ObjectRegistry Reg;
  ObjectId Work, Flag, Arr;
  World() {
    Work = Reg.registerObject("work");
    Flag = Reg.registerObject("flag");
    Arr = Reg.registerObject("arr", "arr.elem");
  }
};

} // namespace

// ---------------------------------------------------------------------------
// TxContext.
// ---------------------------------------------------------------------------

TEST(TxContextTest, ReadsSeeOwnWrites) {
  World W;
  TxContext Tx(Snapshot(), 1, W.Reg);
  Location L(W.Work);
  EXPECT_EQ(Tx.read(L), Value::absent());
  Tx.write(L, Value::of(5));
  EXPECT_EQ(Tx.read(L), Value::of(5));
  Tx.add(L, 3);
  EXPECT_EQ(Tx.read(L), Value::of(8));
}

TEST(TxContextTest, EntrySnapshotIsImmutable) {
  World W;
  Snapshot Init;
  Init = Init.set(Location(W.Work), Value::of(10));
  TxContext Tx(Init, 1, W.Reg);
  Tx.write(Location(W.Work), Value::of(99));
  EXPECT_EQ(snapshotValue(Tx.entrySnapshot(), Location(W.Work)),
            Value::of(10));
  EXPECT_EQ(snapshotValue(Tx.privatizedState(), Location(W.Work)),
            Value::of(99));
}

TEST(TxContextTest, LogRecordsAllAccessesInOrder) {
  World W;
  TxContext Tx(Snapshot(), 1, W.Reg);
  Location L(W.Work);
  Tx.read(L);
  Tx.add(L, 2);
  Tx.write(L, Value::of(7));
  ASSERT_EQ(Tx.log().size(), 3u);
  EXPECT_EQ(Tx.log()[0].Op.Kind, LocOpKind::Read);
  EXPECT_EQ(Tx.log()[1].Op.Kind, LocOpKind::Add);
  EXPECT_EQ(Tx.log()[2].Op.Kind, LocOpKind::Write);
  EXPECT_EQ(Tx.log()[2].Op.Operand, Value::of(7));
  // The logged read result is the observed value.
  EXPECT_EQ(Tx.log()[0].Op.ReadResult, Value::absent());
}

TEST(TxContextTest, LocalWorkAccumulates) {
  World W;
  TxContext Tx(Snapshot(), 1, W.Reg);
  Tx.localWork(2.5);
  Tx.localWork(1.5);
  EXPECT_DOUBLE_EQ(Tx.virtualCost(), 4.0);
}

TEST(AccessSetsTest, AddCountsAsReadAndWrite) {
  World W;
  TxLog Log{{Location(W.Work), LocOp::add(1)},
            {Location(W.Flag), LocOp::read()},
            {Location(W.Arr, 3), LocOp::write(Value::of(1))}};
  AccessSets S = accessSets(Log);
  EXPECT_TRUE(S.Read.count(Location(W.Work)));
  EXPECT_TRUE(S.Write.count(Location(W.Work)));
  EXPECT_TRUE(S.Read.count(Location(W.Flag)));
  EXPECT_FALSE(S.Write.count(Location(W.Flag)));
  EXPECT_TRUE(S.Write.count(Location(W.Arr, 3)));
}

// ---------------------------------------------------------------------------
// Write-set detector.
// ---------------------------------------------------------------------------

TEST(WriteSetDetectorTest, EmptyHistoryNeverConflicts) {
  World W;
  WriteSetDetector D;
  TxLog Mine{{Location(W.Work), LocOp::write(Value::of(1))}};
  EXPECT_FALSE(D.detectConflicts(Snapshot(), Mine, {}, W.Reg));
}

TEST(WriteSetDetectorTest, WriteWriteAndReadWriteConflict) {
  World W;
  WriteSetDetector D;
  Location L(W.Work);
  auto LogOf = [](std::initializer_list<LogEntry> Es) {
    return std::make_shared<const TxLog>(Es);
  };
  TxLog MyWrite{{L, LocOp::write(Value::of(1))}};
  TxLog MyRead{{L, LocOp::read()}};

  EXPECT_TRUE(D.detectConflicts(Snapshot(), MyWrite,
                                {LogOf({{L, LocOp::write(Value::of(2))}})},
                                W.Reg));
  EXPECT_TRUE(D.detectConflicts(Snapshot(), MyRead,
                                {LogOf({{L, LocOp::write(Value::of(2))}})},
                                W.Reg));
  EXPECT_TRUE(D.detectConflicts(Snapshot(), MyWrite,
                                {LogOf({{L, LocOp::read()}})}, W.Reg));
  // Read-read does not conflict.
  EXPECT_FALSE(D.detectConflicts(Snapshot(), MyRead,
                                 {LogOf({{L, LocOp::read()}})}, W.Reg));
  // Disjoint locations do not conflict.
  EXPECT_FALSE(D.detectConflicts(
      Snapshot(), MyWrite, {LogOf({{Location(W.Flag), LocOp::write(Value::of(2))}})},
      W.Reg));
}

TEST(WriteSetDetectorTest, AddIsAReadModifyWrite) {
  World W;
  WriteSetDetector D;
  Location L(W.Work);
  TxLog MyAdd{{L, LocOp::add(1)}};
  auto Their = std::make_shared<const TxLog>(TxLog{{L, LocOp::add(2)}});
  // The write-set heuristic cannot see that adds commute.
  EXPECT_TRUE(D.detectConflicts(Snapshot(), MyAdd, {Their}, W.Reg));
}

// ---------------------------------------------------------------------------
// The real-thread engine at one shard (Figure 7).
// ---------------------------------------------------------------------------

TEST(OneShardRuntimeTest, SingleTaskCommits) {
  World W;
  WriteSetDetector D;
  ShardedRuntime R(W.Reg, D,
                   ShardedConfig{.NumThreads = 1, .NumShards = 1});
  R.run({[&W](TxContext &Tx) { Tx.write(Location(W.Work), Value::of(42)); }});
  EXPECT_EQ(snapshotValue(R.sharedState(), Location(W.Work)), Value::of(42));
  EXPECT_EQ(R.stats().Commits.load(), 1u);
  EXPECT_EQ(R.stats().Retries.load(), 0u);
}

TEST(OneShardRuntimeTest, AtomicityOfReadModifyWrite) {
  // The classic lost-update test: N tasks each read x and write x+1.
  // Under any interleaving the final value must be N.
  World W;
  WriteSetDetector D;
  ShardedRuntime R(W.Reg, D,
                   ShardedConfig{.NumThreads = 4, .NumShards = 1});
  const int N = 60;
  std::vector<TaskFn> Tasks;
  for (int I = 0; I != N; ++I)
    Tasks.push_back([&W](TxContext &Tx) {
      Location L(W.Work);
      Value V = Tx.read(L);
      int64_t Cur = V.isAbsent() ? 0 : V.asInt();
      Tx.write(L, Value::of(Cur + 1));
    });
  R.run(Tasks);
  EXPECT_EQ(snapshotValue(R.sharedState(), Location(W.Work)), Value::of(N));
  EXPECT_EQ(R.stats().Commits.load(), static_cast<uint64_t>(N));
}

TEST(OneShardRuntimeTest, SemanticAddsReplayCorrectly) {
  World W;
  WriteSetDetector D;
  ShardedRuntime R(W.Reg, D,
                   ShardedConfig{.NumThreads = 4, .NumShards = 1});
  const int N = 50;
  std::vector<TaskFn> Tasks;
  for (int I = 0; I != N; ++I)
    Tasks.push_back([&W, I](TxContext &Tx) {
      Tx.add(Location(W.Work), I + 1);
    });
  R.run(Tasks);
  EXPECT_EQ(snapshotValue(R.sharedState(), Location(W.Work)),
            Value::of(N * (N + 1) / 2));
}

TEST(OneShardRuntimeTest, OrderedRunMatchesSequentialFinalState) {
  // Tasks write their id to a shared cell; in-order execution must end
  // with the last task's id, exactly like the sequential loop.
  for (unsigned Threads : {1u, 2u, 4u}) {
    World W;
    WriteSetDetector D;
    ShardedRuntime R(W.Reg, D,
                     ShardedConfig{.NumThreads = Threads, .NumShards = 1,
                                   .Ordered = true});
    const int N = 25;
    std::vector<TaskFn> Tasks;
    for (int I = 1; I <= N; ++I)
      Tasks.push_back([&W, I](TxContext &Tx) {
        Tx.write(Location(W.Flag), Value::of(I));
        Tx.add(Location(W.Work), I);
      });
    R.run(Tasks);
    EXPECT_EQ(snapshotValue(R.sharedState(), Location(W.Flag)), Value::of(N))
        << Threads << " threads";
    EXPECT_EQ(snapshotValue(R.sharedState(), Location(W.Work)),
              Value::of(N * (N + 1) / 2));
  }
}

TEST(OneShardRuntimeTest, StatePersistsAcrossRuns) {
  World W;
  WriteSetDetector D;
  ShardedRuntime R(
      W.Reg, D,
      ShardedConfig{.NumThreads = 2, .NumShards = 1, .Ordered = true});
  R.run({[&W](TxContext &Tx) { Tx.add(Location(W.Work), 5); }});
  R.run({[&W](TxContext &Tx) { Tx.add(Location(W.Work), 7); },
         [&W](TxContext &Tx) { Tx.add(Location(W.Work), 1); }});
  EXPECT_EQ(snapshotValue(R.sharedState(), Location(W.Work)), Value::of(13));
  EXPECT_EQ(R.stats().Commits.load(), 3u);
}

TEST(OneShardRuntimeTest, LogReclamationBoundsHistory) {
  World W;
  WriteSetDetector D;
  ShardedRuntime R(W.Reg, D,
                   ShardedConfig{.NumThreads = 1, .NumShards = 1});
  std::vector<TaskFn> Tasks;
  for (int I = 0; I != 30; ++I)
    Tasks.push_back([&W](TxContext &Tx) { Tx.add(Location(W.Work), 1); });
  R.run(Tasks);
  // With a single thread no transaction overlaps another, so every log
  // is reclaimable as soon as it commits.
  EXPECT_LE(R.historySize(), 1u);
  EXPECT_EQ(snapshotValue(R.sharedState(), Location(W.Work)), Value::of(30));
}

/// Property: across thread counts and seeds, runs on one runtime reach
/// the sequential final state of their commit order, which is task
/// order when ordered, with every failed task's effects left out. The
/// runs take 1, T-1, T and 3T tasks (T threads) and alternate ordered
/// and unordered, so turn and wake words carry over from run to run.
/// Odd seeds spread the locations over 4 shards and add a fault plan:
/// forced aborts, delayed commits, task 2 escalating to the serial
/// fallback and task 3 throwing past its retry budget, so serial and
/// placeholder commits take turns too.
class ThreadedSerializability
    : public ::testing::TestWithParam<std::tuple<unsigned, uint64_t>> {};

TEST_P(ThreadedSerializability, OrderedEqualsSequential) {
  auto [Threads, Seed] = GetParam();
  Rng R(Seed);
  World W;
  const bool Faulty = Seed % 2 == 1;
  ShardedConfig Cfg{.NumThreads = Threads, .NumShards = Faulty ? 4u : 1u};
  resilience::FaultPlan Plan;
  if (Faulty) {
    Cfg.Resilience.SpeculativeRetryBudget = 2;
    Plan = *resilience::FaultPlan::parse(
        "abort@*.1;abort@2.*;delay@*.2=20;throw@3.*", nullptr);
  }
  WriteSetDetector D;
  ShardedRuntime Par(W.Reg, D, Cfg);

  struct Step {
    int Kind; // 0 read, 1 write, 2 add
    int LocIdx;
    int64_t Val;
  };
  auto MakeTask = [&W](const std::vector<Step> &P) -> TaskFn {
    return [&W, &P](TxContext &Tx) {
      Location Locs[3] = {Location(W.Work), Location(W.Flag),
                          Location(W.Arr, 0)};
      for (const Step &S : P) {
        if (S.Kind == 0)
          Tx.read(Locs[S.LocIdx]);
        else if (S.Kind == 1)
          Tx.write(Locs[S.LocIdx], Value::of(S.Val));
        else
          Tx.add(Locs[S.LocIdx], S.Val);
      }
    };
  };

  Snapshot Ref; // The sequential reference, carried across runs.
  bool Ordered = true;
  for (uint32_t N : {1u, Threads - 1, Threads, 3 * Threads}) {
    for (int Mode = 0; Mode != 2; ++Mode, Ordered = !Ordered) {
      SCOPED_TRACE(testing::Message() << N << " tasks, "
                                      << (Ordered ? "ordered" : "unordered"));
      // Random programs over three locations.
      std::vector<std::vector<Step>> Programs(N);
      for (std::vector<Step> &P : Programs)
        for (int J = 0, E = 1 + static_cast<int>(R.below(5)); J != E; ++J)
          P.push_back(Step{static_cast<int>(R.below(3)),
                           static_cast<int>(R.below(3)), R.range(-5, 5)});
      std::vector<TaskFn> Tasks;
      for (const auto &P : Programs)
        Tasks.push_back(MakeTask(P));

      Par.stats().reset();
      Par.setRunParams(Ordered, Plan, nullptr, nullptr);
      Par.run(Tasks);
      const std::vector<uint32_t> Order = Par.commitOrder();
      Par.trim(); // The next run's commit order starts empty.

      // Dense: each task commits exactly once, in task order if ordered.
      std::vector<uint32_t> Dense(N), Sorted = Order;
      for (uint32_t I = 0; I != N; ++I)
        Dense[I] = I + 1;
      std::sort(Sorted.begin(), Sorted.end());
      EXPECT_EQ(Sorted, Dense);
      if (Ordered) {
        EXPECT_EQ(Order, Dense);
        EXPECT_EQ(Par.stats().ValidationFailures.load(), 0u);
      }
      std::vector<uint32_t> Failed;
      for (const resilience::TaskFailure &F : Par.failures())
        Failed.push_back(F.Tid);
      EXPECT_EQ(Failed, Faulty && N >= 3 ? std::vector<uint32_t>{3}
                                         : std::vector<uint32_t>{});
      if (Faulty && N >= 2) {
        EXPECT_GT(Par.stats().SerialFallbacks.load(), 0u);
      }

      for (uint32_t Tid : Order) {
        if (std::count(Failed.begin(), Failed.end(), Tid))
          continue;
        TxContext Tx(Ref, Tid, W.Reg);
        Tasks[Tid - 1](Tx);
        Ref = Tx.privatizedState();
      }
      EXPECT_TRUE(Par.sharedState() == Ref);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ThreadedSerializability,
    ::testing::Combine(::testing::Values(2u, 4u, 8u, 16u),
                       ::testing::Values(1u, 2u, 3u)));

/// The pool's last act on a run (the Busy notify) can come after run()
/// returned: build a pooled runtime, run it once and destroy it, many
/// times, so the sanitizer build sees that race with the destructor.
TEST(OneShardRuntimeTest, PoolSurvivesTeardownRightAfterARun) {
  World W;
  std::vector<TaskFn> Tasks(
      8, [&W](TxContext &Tx) { Tx.add(Location(W.Work), 1); });
  for (int I = 0; I != 200; ++I) {
    WriteSetDetector D;
    ShardedRuntime R(W.Reg, D,
                     ShardedConfig{.NumThreads = 4, .NumShards = 1,
                                   .Ordered = I % 2 == 0});
    R.run(Tasks);
    ASSERT_EQ(snapshotValue(R.sharedState(), Location(W.Work)), Value::of(8));
  }
}

// ---------------------------------------------------------------------------
// Simulator.
// ---------------------------------------------------------------------------

TEST(SimRuntimeTest, FinalStateMatchesThreadedSemantics) {
  World W;
  WriteSetDetector D;
  SimConfig C;
  C.NumCores = 4;
  SimRuntime R(W.Reg, D, C);
  const int N = 40;
  std::vector<TaskFn> Tasks;
  for (int I = 0; I != N; ++I)
    Tasks.push_back([&W](TxContext &Tx) {
      Location L(W.Work);
      Value V = Tx.read(L);
      Tx.write(L, Value::of((V.isAbsent() ? 0 : V.asInt()) + 1));
    });
  SimOutcome O = R.run(Tasks);
  EXPECT_EQ(snapshotValue(R.sharedState(), Location(W.Work)), Value::of(N));
  EXPECT_GT(O.ParallelTime, 0.0);
  EXPECT_GT(O.SequentialTime, 0.0);
  EXPECT_EQ(R.stats().Commits.load(), static_cast<uint64_t>(N));
  // Contended read-modify-write tasks abort under write-set detection.
  EXPECT_GT(R.stats().Retries.load(), 0u);
}

TEST(SimRuntimeTest, DeterministicAcrossRuns) {
  auto RunOnce = [](uint64_t &Retries, double &Par, Value &Final) {
    World W;
    WriteSetDetector D;
    SimConfig C;
    C.NumCores = 8;
    SimRuntime R(W.Reg, D, C);
    std::vector<TaskFn> Tasks;
    for (int I = 0; I != 30; ++I)
      Tasks.push_back([&W, I](TxContext &Tx) {
        Tx.localWork(static_cast<double>(I % 5));
        Value V = Tx.read(Location(W.Work));
        Tx.write(Location(W.Work),
                 Value::of((V.isAbsent() ? 0 : V.asInt()) + 1));
      });
    SimOutcome O = R.run(Tasks);
    Retries = R.stats().Retries.load();
    Par = O.ParallelTime;
    Final = snapshotValue(R.sharedState(), Location(W.Work));
  };
  uint64_t R1, R2;
  double P1, P2;
  Value F1, F2;
  RunOnce(R1, P1, F1);
  RunOnce(R2, P2, F2);
  EXPECT_EQ(R1, R2);
  EXPECT_DOUBLE_EQ(P1, P2);
  EXPECT_EQ(F1, F2);
}

TEST(SimRuntimeTest, DisjointTasksScaleWithCores) {
  // Tasks touching disjoint locations never conflict; more cores must
  // shorten the makespan substantially.
  auto MakeSpan = [](unsigned Cores) {
    World W;
    WriteSetDetector D;
    SimConfig C;
    C.NumCores = Cores;
    SimRuntime R(W.Reg, D, C);
    std::vector<TaskFn> Tasks;
    for (int I = 0; I != 64; ++I)
      Tasks.push_back([&W, I](TxContext &Tx) {
        Tx.localWork(20.0);
        Tx.write(Location(W.Arr, I), Value::of(I));
      });
    return R.run(Tasks).ParallelTime;
  };
  double T1 = MakeSpan(1), T4 = MakeSpan(4), T8 = MakeSpan(8);
  EXPECT_GT(T1 / T4, 3.0);
  EXPECT_GT(T4 / T8, 1.5);
}

TEST(SimRuntimeTest, ContendedTasksDoNotScale) {
  // All tasks read-modify-write one location: write-set detection
  // serializes them and wasted retries make 8 cores no better than ~1.
  auto Speedup = [](unsigned Cores) {
    World W;
    WriteSetDetector D;
    SimConfig C;
    C.NumCores = Cores;
    SimRuntime R(W.Reg, D, C);
    std::vector<TaskFn> Tasks;
    for (int I = 0; I != 40; ++I)
      Tasks.push_back([&W](TxContext &Tx) {
        Tx.localWork(5.0);
        Value V = Tx.read(Location(W.Work));
        Tx.write(Location(W.Work),
                 Value::of((V.isAbsent() ? 0 : V.asInt()) + 1));
      });
    return R.run(Tasks).speedup();
  };
  EXPECT_LT(Speedup(8), 1.2);
}

TEST(SimRuntimeTest, OrderedSimMatchesSequentialFinalState) {
  World W;
  WriteSetDetector D;
  SimConfig C;
  C.NumCores = 4;
  C.Ordered = true;
  SimRuntime R(W.Reg, D, C);
  const int N = 20;
  std::vector<TaskFn> Tasks;
  for (int I = 1; I <= N; ++I)
    Tasks.push_back([&W, I](TxContext &Tx) {
      Tx.write(Location(W.Flag), Value::of(I));
    });
  R.run(Tasks);
  EXPECT_EQ(snapshotValue(R.sharedState(), Location(W.Flag)), Value::of(N));
  EXPECT_EQ(R.stats().Commits.load(), static_cast<uint64_t>(N));
}

TEST(SimRuntimeTest, SpeedupReflectsInstrumentationOverheadOnOneCore) {
  // On a single core the parallel version pays STM overhead with no
  // parallelism: speedup must be below 1.
  World W;
  WriteSetDetector D;
  SimConfig C;
  C.NumCores = 1;
  SimRuntime R(W.Reg, D, C);
  std::vector<TaskFn> Tasks;
  for (int I = 0; I != 20; ++I)
    Tasks.push_back([&W, I](TxContext &Tx) {
      Tx.localWork(2.0);
      Tx.write(Location(W.Arr, I), Value::of(I));
    });
  SimOutcome O = R.run(Tasks);
  EXPECT_LT(O.speedup(), 1.0);
}

// ---------------------------------------------------------------------------
// Additional protocol edge cases.
// ---------------------------------------------------------------------------

TEST(OneShardRuntimeTest, HighThreadCountStress) {
  World W;
  WriteSetDetector D;
  ShardedRuntime R(W.Reg, D,
                   ShardedConfig{.NumThreads = 8, .NumShards = 1});
  const int N = 200;
  std::vector<TaskFn> Tasks;
  for (int I = 0; I != N; ++I)
    Tasks.push_back([&W, I](TxContext &Tx) {
      // Mix of private and shared work.
      Tx.write(Location(W.Arr, I), Value::of(I));
      Value V = Tx.read(Location(W.Work));
      Tx.write(Location(W.Work), Value::of((V.isAbsent() ? 0 : V.asInt()) + 1));
    });
  R.run(Tasks);
  EXPECT_EQ(snapshotValue(R.sharedState(), Location(W.Work)), Value::of(N));
  for (int I = 0; I != N; ++I)
    EXPECT_EQ(snapshotValue(R.sharedState(), Location(W.Arr, I)),
              Value::of(I));
}

TEST(OneShardRuntimeTest, CommitOrderCoversEveryTaskExactlyOnce) {
  World W;
  WriteSetDetector D;
  ShardedRuntime R(W.Reg, D,
                   ShardedConfig{.NumThreads = 4, .NumShards = 1});
  const int N = 40;
  std::vector<TaskFn> Tasks;
  for (int I = 0; I != N; ++I)
    Tasks.push_back([&W](TxContext &Tx) { Tx.add(Location(W.Work), 1); });
  R.run(Tasks);
  std::vector<uint32_t> Order = R.commitOrder();
  ASSERT_EQ(Order.size(), static_cast<size_t>(N));
  std::vector<bool> Seen(N + 1, false);
  for (uint32_t Tid : Order) {
    ASSERT_GE(Tid, 1u);
    ASSERT_LE(Tid, static_cast<uint32_t>(N));
    EXPECT_FALSE(Seen[Tid]) << "task committed twice";
    Seen[Tid] = true;
  }
}

TEST(SimRuntimeTest, EmptyTaskListIsANoop) {
  World W;
  WriteSetDetector D;
  SimConfig C;
  SimRuntime R(W.Reg, D, C);
  SimOutcome O = R.run({});
  EXPECT_EQ(O.ParallelTime, 0.0);
  EXPECT_EQ(O.SequentialTime, 0.0);
  EXPECT_EQ(R.stats().Commits.load(), 0u);
}

TEST(SimRuntimeTest, TasksWithEmptyLogsCommitImmediately) {
  World W;
  WriteSetDetector D;
  SimConfig C;
  C.NumCores = 2;
  SimRuntime R(W.Reg, D, C);
  std::vector<TaskFn> Tasks(5, [](TxContext &Tx) { Tx.localWork(1.0); });
  SimOutcome O = R.run(Tasks);
  EXPECT_EQ(R.stats().Commits.load(), 5u);
  EXPECT_EQ(R.stats().Retries.load(), 0u);
  EXPECT_GT(O.ParallelTime, 0.0);
}

TEST(SimRuntimeTest, CostModelKnobsShiftTheBalance) {
  // Raising the sequential per-op cost (i.e. lowering the relative
  // instrumentation overhead) must increase the measured speedup.
  auto SpeedupWith = [](double SeqPerOp) {
    World W;
    WriteSetDetector D;
    SimConfig C;
    C.NumCores = 8;
    C.Costs.SeqPerOp = SeqPerOp;
    SimRuntime R(W.Reg, D, C);
    std::vector<TaskFn> Tasks;
    for (int I = 0; I != 32; ++I)
      Tasks.push_back([&W, I](TxContext &Tx) {
        Tx.localWork(5.0);
        Tx.write(Location(W.Arr, I), Value::of(I));
      });
    return R.run(Tasks).speedup();
  };
  EXPECT_LT(SpeedupWith(0.1), SpeedupWith(0.8));
}

TEST(SimRuntimeTest, OrderedRunWithConflictsStillCommitsInOrder) {
  World W;
  WriteSetDetector D;
  SimConfig C;
  C.NumCores = 4;
  C.Ordered = true;
  SimRuntime R(W.Reg, D, C);
  const int N = 15;
  std::vector<TaskFn> Tasks;
  for (int I = 1; I <= N; ++I)
    Tasks.push_back([&W, I](TxContext &Tx) {
      Value V = Tx.read(Location(W.Work));
      Tx.write(Location(W.Work),
               Value::of((V.isAbsent() ? 0 : V.asInt()) + I));
    });
  R.run(Tasks);
  EXPECT_EQ(snapshotValue(R.sharedState(), Location(W.Work)),
            Value::of(N * (N + 1) / 2));
  std::vector<uint32_t> Order = R.commitOrder();
  for (size_t I = 0; I != Order.size(); ++I)
    EXPECT_EQ(Order[I], I + 1);
}

// ---------------------------------------------------------------------------
// Audit trace recording (consumed by janus::analysis).
// ---------------------------------------------------------------------------

TEST(SimRuntimeTest, TraceIsOffByDefault) {
  World W;
  WriteSetDetector D;
  SimRuntime R(W.Reg, D, SimConfig{});
  R.run({[&](TxContext &Tx) { Tx.add(Location(W.Work), 1); }});
  EXPECT_FALSE(R.trace().Recorded);
  EXPECT_TRUE(R.trace().Events.empty());
}

TEST(SimRuntimeTest, TraceRecordsAbortThenRetryWithFreshLogs) {
  // Contended read-modify-writes force aborts under the write-set
  // detector. Every attempt — aborted or committed — must appear in the
  // trace with its own log, and each aborted task must eventually
  // commit with a re-executed (re-read) log, not the stale one.
  World W;
  WriteSetDetector D;
  SimConfig C;
  C.NumCores = 4;
  C.RecordTrace = true;
  SimRuntime R(W.Reg, D, C);
  Location L(W.Work);
  std::vector<TaskFn> Tasks(12, [&](TxContext &Tx) {
    Value V = Tx.read(L);
    Tx.write(L, Value::of((V.isAbsent() ? 0 : V.asInt()) + 1));
  });
  R.run(Tasks);

  const AuditTrace &T = R.trace();
  ASSERT_TRUE(T.Recorded);
  EXPECT_GT(T.abortedCount(), 0u);
  EXPECT_EQ(T.committedInOrder().size(), 12u);
  EXPECT_EQ(T.Events.size(), 12u + T.abortedCount());
  EXPECT_EQ(snapshotValue(T.Final, L), Value::of(int64_t(12)));

  for (const TraceEvent &E : T.Events) {
    ASSERT_TRUE(E.Log != nullptr);
    if (E.Committed)
      continue;
    EXPECT_EQ(E.CommitTime, 0u);
    // The retry that finally commits carries a distinct log object:
    // aborted logs stay valid for post-mortem inspection.
    const TraceEvent *Commit = nullptr;
    for (const TraceEvent &E2 : T.Events)
      if (E2.Committed && E2.Tid == E.Tid)
        Commit = &E2;
    ASSERT_TRUE(Commit != nullptr);
    EXPECT_NE(Commit->Log.get(), E.Log.get());
    EXPECT_GT(Commit->BeginTime, E.BeginTime);
  }
}

TEST(OneShardRuntimeTest, TraceCoversEveryTaskExactlyOnce) {
  World W;
  WriteSetDetector D;
  ShardedRuntime R(W.Reg, D,
                   ShardedConfig{.NumThreads = 4, .NumShards = 1,
                                 .RecordTrace = true});
  Location L(W.Work);
  std::vector<TaskFn> Tasks(32, [&](TxContext &Tx) { Tx.add(L, 1); });
  R.run(Tasks);

  const AuditTrace &T = R.trace();
  ASSERT_TRUE(T.Recorded);
  auto Committed = T.committedInOrder();
  ASSERT_EQ(Committed.size(), 32u);
  std::vector<bool> Seen(33, false);
  for (const TraceEvent *E : Committed) {
    ASSERT_GE(E->Tid, 1u);
    ASSERT_LE(E->Tid, 32u);
    EXPECT_FALSE(Seen[E->Tid]);
    Seen[E->Tid] = true;
  }
  EXPECT_EQ(snapshotValue(T.Final, L), Value::of(int64_t(32)));
  EXPECT_EQ(snapshotValue(R.sharedState(), L), Value::of(int64_t(32)));
}

TEST(OneShardRuntimeTest, TraceResetsBetweenRuns) {
  World W;
  WriteSetDetector D;
  ShardedRuntime R(W.Reg, D,
                   ShardedConfig{.NumThreads = 2, .NumShards = 1,
                                 .RecordTrace = true});
  Location L(W.Work);
  std::vector<TaskFn> Tasks(5, [&](TxContext &Tx) { Tx.add(L, 1); });
  R.run(Tasks);
  R.run(Tasks);
  // The trace describes the last run only: 5 commits starting from the
  // first run's final state.
  EXPECT_EQ(R.trace().committedInOrder().size(), 5u);
  EXPECT_EQ(snapshotValue(R.trace().Initial, L), Value::of(int64_t(5)));
  EXPECT_EQ(snapshotValue(R.trace().Final, L), Value::of(int64_t(10)));
}

TEST(OneShardRuntimeTest, ConcurrentReclamationNeverDropsVisibleLogs) {
  // Races state recycling, which frees each recycled state's log,
  // against many in-flight windows: read-modify-writes of a few cells
  // keep transactions walking their windows across validation rounds
  // while other commits recycle the chain behind them. A window that
  // lost a log misses a conflict, and the missed conflict loses an
  // increment; a recycled state inside a live window trips the walk's
  // density assertion. Either way the test fails rather than passing
  // silently.
  World W;
  WriteSetDetector D;
  ShardedRuntime R(W.Reg, D,
                   ShardedConfig{.NumThreads = 8, .NumShards = 1});
  const int N = 512, Cells = 8, Runs = 4;
  std::vector<TaskFn> Tasks;
  for (int I = 0; I != N; ++I)
    Tasks.push_back([&W, I](TxContext &Tx) {
      Location L(W.Arr, I % Cells);
      Value V = Tx.read(L);
      std::this_thread::yield(); // Let other attempts commit meanwhile.
      Tx.write(L, Value::of((V.isAbsent() ? 0 : V.asInt()) + 1));
      Tx.add(Location(W.Work), 1);
    });
  for (int Run = 0; Run != Runs; ++Run)
    R.run(Tasks); // Recycling continues across runs.

  Snapshot Final = R.sharedState();
  for (int C = 0; C != Cells; ++C)
    EXPECT_EQ(snapshotValue(Final, Location(W.Arr, C)),
              Value::of(int64_t(Runs * N / Cells)))
        << "cell " << C;
  EXPECT_EQ(snapshotValue(Final, Location(W.Work)),
            Value::of(int64_t(Runs * N)));
  EXPECT_EQ(R.stats().Commits.load(), static_cast<uint64_t>(Runs * N));
  // Every task committed exactly once per run.
  std::vector<int> PerTid(N + 1, 0);
  for (uint32_t Tid : R.commitOrder())
    ++PerTid[Tid];
  for (int I = 1; I <= N; ++I)
    EXPECT_EQ(PerTid[I], Runs);
  // With every transaction finished, the final commit recycled the
  // whole chain behind itself.
  EXPECT_LE(R.historySize(), 8u);
}

TEST(OneShardRuntimeTest, HistoryStaysBoundedWithoutTrim) {
  // Recycling drops a log with its state, during the run: a long run on
  // a contended shard retains only what live attempts could still
  // query, not one log per commit until a trim.
  World W;
  WriteSetDetector D;
  ShardedRuntime R(W.Reg, D,
                   ShardedConfig{.NumThreads = 4, .NumShards = 1});
  const int N = 2000;
  std::vector<TaskFn> Tasks(
      N, [&W](TxContext &Tx) { Tx.add(Location(W.Work), 1); });
  R.run(Tasks);
  EXPECT_EQ(snapshotValue(R.sharedState(), Location(W.Work)), Value::of(N));
  EXPECT_LT(R.historySize(), static_cast<size_t>(N / 100));
}

// ---------------------------------------------------------------------------
// The shared attempt lifecycle (stm/Attempt.h).
// ---------------------------------------------------------------------------

namespace {

/// (kind, task, attempt, abort reason, commit mode) of every recorded
/// event except shard acquisitions: what both engines must agree on.
using StreamKey = std::tuple<uint8_t, uint32_t, uint32_t, uint32_t, uint8_t>;

std::vector<StreamKey> streamOf(const obs::Recorder &R) {
  std::vector<StreamKey> Out;
  for (const obs::RecEvent &E : R.snapshot()) {
    const auto Kind = static_cast<obs::RecKind>(E.Kind);
    if (Kind == obs::RecKind::ShardAcquire)
      continue;
    Out.emplace_back(E.Kind, E.Tid, E.Attempt,
                     Kind == obs::RecKind::Abort ? E.Aux : 0,
                     Kind == obs::RecKind::Commit ? E.Mode : 0);
  }
  return Out;
}

/// Configures either engine for the stream-parity run: one worker,
/// forced first-attempt aborts that escalate at once, and task 3
/// throwing on every attempt past its exception budget.
template <typename ConfigT> void parityConfig(ConfigT &C, obs::Recorder &R) {
  std::string Err;
  std::optional<resilience::FaultPlan> P =
      resilience::FaultPlan::parse("abort@*.1;throw@3.*", &Err);
  ASSERT_TRUE(P.has_value()) << Err;
  C.Faults = *P;
  C.Resilience.SpeculativeRetryBudget = 1;
  C.Rec = &R;
}

} // namespace

TEST(AttemptLifecycleTest, BothEnginesRecordTheSameStream) {
  World W;
  WriteSetDetector D;
  std::vector<TaskFn> Tasks;
  for (int I = 1; I <= 5; ++I)
    Tasks.push_back([&W, I](TxContext &Tx) { Tx.add(Location(W.Work), I); });

  obs::Recorder SimRec(obs::RecorderConfig{true}, 2);
  SimConfig SC;
  SC.NumCores = 1;
  parityConfig(SC, SimRec);
  SimRuntime Sim(W.Reg, D, SC);
  SimOutcome SO = Sim.run(Tasks);

  obs::Recorder ShardRec(obs::RecorderConfig{true}, 2);
  ShardedConfig TC;
  TC.NumThreads = 1;
  TC.NumShards = 1;
  parityConfig(TC, ShardRec);
  ShardedRuntime Threads(W.Reg, D, TC);
  Threads.run(Tasks);

  const std::vector<StreamKey> SimStream = streamOf(SimRec);
  EXPECT_EQ(SimStream, streamOf(ShardRec));
  // Task 1: its forced abort escalates, and the serial commit is
  // numbered one past the aborted attempt, with no begin of its own.
  using K = obs::RecKind;
  const auto U = [](K Kind) { return static_cast<uint8_t>(Kind); };
  ASSERT_GE(SimStream.size(), 4u);
  EXPECT_EQ(SimStream[0], StreamKey(U(K::Begin), 1, 1, 0, 0));
  EXPECT_EQ(SimStream[1],
            StreamKey(U(K::Abort), 1, 1, obs::RecAbortInjected, 0));
  EXPECT_EQ(SimStream[2], StreamKey(U(K::Escalation), 1, 1, 0, 0));
  EXPECT_EQ(SimStream[3],
            StreamKey(U(K::Commit), 1, 2, 0,
                      static_cast<uint8_t>(CommitMode::Serial)));
  // Task 3 failed after three thrown attempts; its placeholder is the
  // fourth, on both engines.
  EXPECT_NE(std::find(SimStream.begin(), SimStream.end(),
                      StreamKey(U(K::Commit), 3, 4, 0,
                                static_cast<uint8_t>(CommitMode::Placeholder))),
            SimStream.end());
  ASSERT_EQ(SO.Failures.size(), 1u);
  ASSERT_EQ(Threads.failures().size(), 1u);
  EXPECT_EQ(SO.Failures[0].Attempts, Threads.failures()[0].Attempts);
  EXPECT_EQ(snapshotValue(Sim.sharedState(), Location(W.Work)),
            snapshotValue(Threads.sharedState(), Location(W.Work)));
}

TEST(AttemptLifecycleTest, ShardedBeginIsTheEarliestStampInEverySink) {
  // An attempt that read the clock at 9, then acquired shards whose
  // published states were stamped 5 and 3: a commit between 3 and 9
  // may still lie in its detection window, so every sink must begin
  // it at 3.
  World W;
  obs::Recorder Rec(obs::RecorderConfig{true}, 1);
  ShardedConfig C;
  C.RecordTrace = true;
  C.Rec = &Rec;
  RunStats Stats;
  Lifecycle Life(C, /*NumTasks=*/1, Stats);
  std::vector<ShardBackend::View> Views(4);
  Views[1].Entry = Snapshot().set(Location(W.Work), Value::of(1));
  Views[1].Stamp = 5;
  Views[2].Entry = Snapshot().set(Location(W.Flag), Value::of(2));
  Views[2].Stamp = 3;
  const TxLogRef Log = emptyTxLog();
  std::vector<TraceEvent> Out;
  Life.report(AttemptEnd{1, 1, 0, Abort::Conflict, CommitMode::Speculative,
                         /*Begin=*/9, /*Clock=*/12, &Log, nullptr,
                         Views.data(), /*Mask=*/0b110},
              Out, [] { return 0.0; });

  std::vector<obs::RecEvent> Events = Rec.snapshot();
  ASSERT_EQ(Events.size(), 4u); // Begin, two acquisitions, abort.
  EXPECT_EQ(Events[0].Kind, static_cast<uint8_t>(obs::RecKind::Begin));
  EXPECT_EQ(Events[0].Clock, 3u);
  EXPECT_EQ(Events[3].Kind, static_cast<uint8_t>(obs::RecKind::Abort));
  EXPECT_EQ(Events[3].Clock, 12u);
  EXPECT_EQ(Events[3].Aux, obs::RecAbortConflict);
  ASSERT_EQ(Out.size(), 1u);
  const TraceEvent &T = Out[0];
  EXPECT_EQ(T.BeginTime, Events[0].Clock);
  EXPECT_EQ(T.ShardBegins,
            (std::vector<std::pair<uint32_t, uint64_t>>{{1, 5}, {2, 3}}));
  EXPECT_EQ(T.AbortReason, obs::RecAbortConflict);
  EXPECT_EQ(T.DetectEnd, 12u);
  EXPECT_EQ(snapshotValue(T.Entry, Location(W.Work)), Value::of(1));
  EXPECT_EQ(snapshotValue(T.Entry, Location(W.Flag)), Value::of(2));
}
