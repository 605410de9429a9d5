//===----------------------------------------------------------------------===//
///
/// \file
/// Unit and property tests for the conflict module: DECOMPOSE, the
/// online CONFLICT test of Figure 8, the commutativity cache (incl.
/// serialization round-trips) and the sequence-based detector's
/// fallback chain.
///
//===----------------------------------------------------------------------===//

#include "janus/adt/TxMap.h"
#include "janus/conflict/CommutativityCache.h"
#include "janus/conflict/Decompose.h"
#include "janus/conflict/Explain.h"
#include "janus/conflict/OnlineConflict.h"
#include "janus/conflict/SequenceDetector.h"
#include "janus/conflict/SpecTable.h"
#include "janus/support/Rng.h"

#include <gtest/gtest.h>

#include <thread>

using namespace janus;
using namespace janus::conflict;
using namespace janus::symbolic;
using stm::LogEntry;
using stm::TxLog;
using stm::TxLogRef;

namespace {

TxLogRef logOf(std::initializer_list<LogEntry> Entries) {
  return std::make_shared<const TxLog>(Entries);
}

} // namespace

// ---------------------------------------------------------------------------
// DECOMPOSE.
// ---------------------------------------------------------------------------

TEST(DecomposeTest, SplitsByLocationPreservingOrder) {
  ObjectId A{1}, B{2};
  TxLog Log{{Location(A), LocOp::add(1)},
            {Location(B), LocOp::write(Value::of(5))},
            {Location(A), LocOp::add(-1)},
            {Location(A, 3), LocOp::read()}};
  Decomposition D = decompose(Log);
  EXPECT_EQ(D.size(), 3u);
  ASSERT_EQ(D[Location(A)].size(), 2u);
  EXPECT_EQ(D[Location(A)][0], LocOp::add(1));
  EXPECT_EQ(D[Location(A)][1], LocOp::add(-1));
  EXPECT_EQ(D[Location(B)].size(), 1u);
  EXPECT_EQ(D[Location(A, 3)].size(), 1u);
}

TEST(DecomposeTest, ConcatenatesCommittedLogsInOrder) {
  ObjectId A{1};
  auto L1 = logOf({{Location(A), LocOp::write(Value::of(1))}});
  auto L2 = logOf({{Location(A), LocOp::write(Value::of(2))}});
  Decomposition D = decomposeAll({L1, L2});
  ASSERT_EQ(D[Location(A)].size(), 2u);
  EXPECT_EQ(D[Location(A)][0].Operand, Value::of(1));
  EXPECT_EQ(D[Location(A)][1].Operand, Value::of(2));
}

// ---------------------------------------------------------------------------
// Online CONFLICT (Figure 8).
// ---------------------------------------------------------------------------

TEST(OnlineConflictTest, AddsNeverConflict) {
  LocOpSeq Mine{LocOp::add(3)};
  LocOpSeq Theirs{LocOp::add(-7)};
  EXPECT_FALSE(conflictOnline(Value::of(0), Mine, Theirs));
}

TEST(OnlineConflictTest, IdentityVsIdentityNoConflict) {
  LocOpSeq Mine{LocOp::add(4), LocOp::add(-4)};
  LocOpSeq Theirs{LocOp::add(9), LocOp::add(-9)};
  EXPECT_FALSE(conflictOnline(Value::of(10), Mine, Theirs));
}

TEST(OnlineConflictTest, ReadVsWriteConflictsUnlessValueRestored) {
  LocOpSeq Mine{LocOp::read()};
  LocOpSeq SameWrite{LocOp::write(Value::of(5))};
  LocOpSeq OtherWrite{LocOp::write(Value::of(6))};
  EXPECT_FALSE(conflictOnline(Value::of(5), Mine, SameWrite));
  EXPECT_TRUE(conflictOnline(Value::of(5), Mine, OtherWrite));
}

TEST(OnlineConflictTest, EqualWritesDoNotConflict) {
  LocOpSeq Mine{LocOp::write(Value::of("black"))};
  LocOpSeq Theirs{LocOp::write(Value::of("black"))};
  EXPECT_FALSE(conflictOnline(Value::absent(), Mine, Theirs));
  LocOpSeq Other{LocOp::write(Value::of("white"))};
  EXPECT_TRUE(conflictOnline(Value::absent(), Mine, Other));
}

TEST(OnlineConflictTest, SameReadCatchesControlFlowDependence) {
  // The paper's §5.3 counterexample: COMMUTE alone is insufficient —
  // a read whose value differs between orders must conflict even if the
  // final value agrees.
  LocOpSeq Mine{LocOp::read(), LocOp::write(Value::of(1))};
  LocOpSeq Theirs{LocOp::write(Value::of(1))};
  // Final value is 1 in both orders (COMMUTE holds), but Mine's read
  // sees 0 vs 1.
  EXPECT_TRUE(conflictOnline(Value::of(0), Mine, Theirs));
}

TEST(OnlineConflictTest, RelaxationsDropChecks) {
  LocOpSeq Mine{LocOp::read()};
  LocOpSeq Theirs{LocOp::write(Value::of(6))};
  ChecksSpec RelaxRAW;
  RelaxRAW.SameReadA = RelaxRAW.SameReadB = false;
  EXPECT_FALSE(conflictOnline(Value::of(5), Mine, Theirs, RelaxRAW));

  LocOpSeq W1{LocOp::write(Value::of(1))};
  LocOpSeq W2{LocOp::write(Value::of(2))};
  ChecksSpec RelaxWAW;
  RelaxWAW.Commute = false;
  EXPECT_FALSE(conflictOnline(Value::of(0), W1, W2, RelaxWAW));
  EXPECT_TRUE(conflictOnline(Value::of(0), W1, W2));
}

// ---------------------------------------------------------------------------
// Cache.
// ---------------------------------------------------------------------------

TEST(CommutativityCacheTest, InsertLookup) {
  CommutativityCache C;
  CacheKey K{"work", "[A(p1), A(-p1)]+", "[A(p1), A(-p1)]+"};
  EXPECT_EQ(C.lookup(K), std::nullopt);
  C.insert(K, Condition::valid());
  ASSERT_TRUE(C.lookup(K).has_value());
  EXPECT_TRUE(C.lookup(K)->isValid());
  EXPECT_EQ(C.size(), 1u);
  // Distinct keys are distinct entries.
  CacheKey K2 = K;
  K2.TheirsSig = "W(p1)";
  EXPECT_EQ(C.lookup(K2), std::nullopt);
}

TEST(CommutativityCacheTest, SerializationRoundTrip) {
  CommutativityCache C;
  C.insert(CacheKey{"work", "A(p1)", "A(p1)"}, Condition::valid());
  C.insert(CacheKey{"flag", "W(q1)", "W(q1)"}, Condition::never());
  Condition Conditional = Condition::valid();
  Conditional.requireEqual(Term::opaqueSym(1),
                           Term::opaqueSym(1 + TheirParamOffset));
  Conditional.requireEqual(Term::intSym(EntrySym),
                           Term::constant(Value::of(7)));
  C.insert(CacheKey{"pixel", "W(q1)", "W(q2)"}, Conditional);

  std::string Text = C.serialize();
  CommutativityCache D;
  ASSERT_TRUE(D.deserializeInto(Text));
  EXPECT_EQ(D.size(), 3u);
  EXPECT_TRUE(D.lookup(CacheKey{"work", "A(p1)", "A(p1)"})->isValid());
  EXPECT_TRUE(D.lookup(CacheKey{"flag", "W(q1)", "W(q1)"})->isNever());
  auto Cond = D.lookup(CacheKey{"pixel", "W(q1)", "W(q2)"});
  ASSERT_TRUE(Cond.has_value());
  EXPECT_TRUE(Cond->isConditional());
  EXPECT_EQ(Cond->atoms().size(), 2u);
  // Re-serialization is stable.
  EXPECT_EQ(D.serialize(), Text);
}

TEST(CommutativityCacheTest, DeserializeRejectsGarbage) {
  CommutativityCache C;
  EXPECT_FALSE(C.deserializeInto("not a cache"));
  EXPECT_FALSE(C.deserializeInto("janus-commutativity-cache v1\nbogus"));
  EXPECT_TRUE(C.deserializeInto("janus-commutativity-cache v1\n"));
  EXPECT_EQ(C.size(), 0u);
}

// ---------------------------------------------------------------------------
// Sequence detector fallback chain.
// ---------------------------------------------------------------------------

namespace {

struct DetectorWorld {
  ObjectRegistry Reg;
  ObjectId Work;
  std::shared_ptr<CommutativityCache> Cache;
  DetectorWorld() : Cache(std::make_shared<CommutativityCache>()) {
    Work = Reg.registerObject("work");
  }
};

} // namespace

TEST(SequenceDetectorTest, EmptyHistoryNeverConflicts) {
  DetectorWorld W;
  SequenceDetector D(W.Cache);
  TxLog Mine{{Location(W.Work), LocOp::add(1)}};
  EXPECT_FALSE(D.detectConflicts(stm::Snapshot(), Mine, {}, W.Reg));
}

TEST(SequenceDetectorTest, MissWithWriteSetFallbackIsConservative) {
  DetectorWorld W;
  SequenceDetectorConfig Cfg;
  Cfg.OnlineFallback = false;
  SequenceDetector D(W.Cache, Cfg);
  TxLog Mine{{Location(W.Work), LocOp::add(1)}};
  auto Theirs = logOf({{Location(W.Work), LocOp::add(2)}});
  // Empty cache: write-set fallback flags the add/add pair.
  EXPECT_TRUE(D.detectConflicts(stm::Snapshot(), Mine, {Theirs}, W.Reg));
  EXPECT_EQ(D.stats().CacheMisses.load(), 1u);
  EXPECT_EQ(D.stats().WriteSetChecks.load(), 1u);
}

TEST(SequenceDetectorTest, MissWithOnlineFallbackIsPrecise) {
  DetectorWorld W;
  SequenceDetectorConfig Cfg;
  Cfg.OnlineFallback = true;
  SequenceDetector D(W.Cache, Cfg);
  TxLog Mine{{Location(W.Work), LocOp::add(1)}};
  auto Theirs = logOf({{Location(W.Work), LocOp::add(2)}});
  EXPECT_FALSE(D.detectConflicts(stm::Snapshot(), Mine, {Theirs}, W.Reg));
  EXPECT_EQ(D.stats().OnlineChecks.load(), 1u);
}

TEST(SequenceDetectorTest, CacheHitAnswersQuery) {
  DetectorWorld W;
  SequenceDetector D(W.Cache);
  TxLog Mine{{Location(W.Work), LocOp::add(1)}};
  auto Theirs = logOf({{Location(W.Work), LocOp::add(2)}});

  // Populate the cache the way the trainer would.
  PairQuery Q = buildPairQuery("work", {LocOp::add(1)}, {LocOp::add(2)},
                               /*UseAbstraction=*/true);
  W.Cache->insert(Q.Key, Condition::valid());

  EXPECT_FALSE(D.detectConflicts(stm::Snapshot(), Mine, {Theirs}, W.Reg));
  EXPECT_EQ(D.stats().CacheHits.load(), 1u);
  EXPECT_EQ(D.stats().CacheMisses.load(), 0u);
}

TEST(SequenceDetectorTest, CachedNeverConditionConflicts) {
  DetectorWorld W;
  SequenceDetector D(W.Cache);
  TxLog Mine{{Location(W.Work), LocOp::write(Value::of(1))}};
  auto Theirs = logOf({{Location(W.Work), LocOp::write(Value::of(2))}});
  PairQuery Q = buildPairQuery("work", {LocOp::write(Value::of(1))},
                               {LocOp::write(Value::of(2))}, true);
  W.Cache->insert(Q.Key, Condition::never());
  EXPECT_TRUE(D.detectConflicts(stm::Snapshot(), Mine, {Theirs}, W.Reg));
}

TEST(SequenceDetectorTest, ConditionalEntryEvaluatesBindings) {
  // Equal-writes: cache "W(q1) vs W(q2) commute iff q1 == q2".
  DetectorWorld W;
  SequenceDetector D(W.Cache);
  PairQuery Q = buildPairQuery("work", {LocOp::write(Value::of("a"))},
                               {LocOp::write(Value::of("b"))}, true);
  Condition Cond = Condition::valid();
  Cond.requireEqual(Term::opaqueSym(1),
                    Term::opaqueSym(1 + TheirParamOffset));
  W.Cache->insert(Q.Key, Cond);

  auto Check = [&](const char *MineVal, const char *TheirVal) {
    TxLog Mine{{Location(W.Work), LocOp::write(Value::of(MineVal))}};
    auto Theirs = logOf({{Location(W.Work), LocOp::write(Value::of(TheirVal))}});
    return D.detectConflicts(stm::Snapshot(), Mine, {Theirs}, W.Reg);
  };
  EXPECT_FALSE(Check("black", "black")); // Equal writes commute.
  EXPECT_TRUE(Check("black", "white"));  // Different values conflict.
}

TEST(SequenceDetectorTest, UniqueQueryTracking) {
  DetectorWorld W;
  SequenceDetector D(W.Cache);
  TxLog Mine{{Location(W.Work), LocOp::add(1)}};
  auto Theirs = logOf({{Location(W.Work), LocOp::add(2)}});
  // The same query repeated counts once (Figure 11 methodology).
  for (int I = 0; I != 5; ++I)
    D.detectConflicts(stm::Snapshot(), Mine, {Theirs}, W.Reg);
  EXPECT_EQ(D.uniqueQueries(), 1u);
  EXPECT_EQ(D.uniqueMisses(), 1u);
  EXPECT_EQ(D.stats().CacheMisses.load(), 5u);
  D.resetUniqueQueryTracking();
  EXPECT_EQ(D.uniqueQueries(), 0u);
}

TEST(SequenceDetectorTest, RelaxedObjectsUseRelaxedChecks) {
  // maxColor-style spurious reads: with tolerate-RAW, a pure read never
  // conflicts with a write (online fallback path).
  DetectorWorld W;
  ObjectId MaxColor = W.Reg.registerObject(
      "maxColor", "", RelaxationSpec{/*TolerateRAW=*/true,
                                     /*TolerateWAW=*/false});
  SequenceDetectorConfig Cfg;
  Cfg.OnlineFallback = true;
  SequenceDetector D(W.Cache, Cfg);
  TxLog Mine{{Location(MaxColor), LocOp::read()}};
  auto Theirs = logOf({{Location(MaxColor), LocOp::write(Value::of(7))}});
  stm::Snapshot S;
  S = S.set(Location(MaxColor), Value::of(3));
  EXPECT_FALSE(D.detectConflicts(S, Mine, {Theirs}, W.Reg));
}

// ---------------------------------------------------------------------------
// Property: the online CONFLICT answer matches brute-force two-order
// evaluation across random sequences, and sequence detection is never
// *less* precise than write-set when falling back online.
// ---------------------------------------------------------------------------

namespace {

LocOpSeq randomSeq(Rng &R) {
  LocOpSeq Seq;
  for (int I = 0, E = 1 + static_cast<int>(R.below(4)); I != E; ++I) {
    switch (R.below(3)) {
    case 0:
      Seq.push_back(LocOp::read());
      break;
    case 1:
      Seq.push_back(LocOp::add(R.range(-3, 3)));
      break;
    default:
      Seq.push_back(LocOp::write(Value::of(R.range(0, 4))));
      break;
    }
  }
  return Seq;
}

bool bruteForceCommute(const Value &Entry, const LocOpSeq &A,
                       const LocOpSeq &B) {
  SeqEval AloneA = evalSequence(Entry, A);
  SeqEval AloneB = evalSequence(Entry, B);
  SeqEval AAfterB = evalSequence(AloneB.Final, A);
  SeqEval BAfterA = evalSequence(AloneA.Final, B);
  return BAfterA.Final == AAfterB.Final && AloneA.Reads == AAfterB.Reads &&
         AloneB.Reads == BAfterA.Reads;
}

} // namespace

class OnlineConflictProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OnlineConflictProperty, MatchesBruteForce) {
  Rng R(GetParam());
  for (int Iter = 0; Iter != 400; ++Iter) {
    LocOpSeq A = randomSeq(R), B = randomSeq(R);
    Value Entry = Value::of(R.range(-3, 3));
    EXPECT_EQ(conflictOnline(Entry, A, B),
              !bruteForceCommute(Entry, A, B))
        << "iteration " << Iter;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnlineConflictProperty,
                         ::testing::Values(3, 5, 7, 11));

TEST(SequenceDetectorTest, SignatureMemoDoesNotChangeVerdicts) {
  // The memoized detector must give the answers and the cache-hit
  // accounting of the unmemoized query (buildPairQuery + cache lookup +
  // condition evaluation), query by query.
  DetectorWorld W;
  PairQuery Q = buildPairQuery("work", {LocOp::add(1), LocOp::add(-1)},
                               {LocOp::add(2), LocOp::add(-2)}, true);
  W.Cache->insert(Q.Key, Condition::valid());
  SequenceDetector D(W.Cache);

  uint64_t ReferenceHits = 0;
  for (int I = 0; I != 20; ++I) {
    LocOpSeq MineSeq{LocOp::add(I + 1), LocOp::add(-(I + 1))};
    LocOpSeq TheirsSeq{LocOp::add(5), LocOp::add(-5)};
    TxLog Mine{{Location(W.Work), MineSeq[0]}, {Location(W.Work), MineSeq[1]}};
    auto Theirs = logOf({{Location(W.Work), TheirsSeq[0]},
                         {Location(W.Work), TheirsSeq[1]}});
    bool V1 = D.detectConflicts(stm::Snapshot(), Mine, {Theirs}, W.Reg);

    PairQuery Ref = buildPairQuery("work", MineSeq, TheirsSeq, true);
    std::optional<Condition> Cond = W.Cache->lookup(Ref.Key);
    ASSERT_TRUE(Cond.has_value()) << "iteration " << I;
    ++ReferenceHits;
    Bindings B = Ref.Binds;
    B[EntrySym] = Value::absent();
    std::optional<bool> Commutes = Cond->evaluate(B);
    ASSERT_TRUE(Commutes.has_value()) << "iteration " << I;
    bool V2 = !*Commutes;
    EXPECT_EQ(V1, V2) << "iteration " << I;
    EXPECT_FALSE(V1);
  }
  EXPECT_EQ(D.stats().CacheHits.load(), ReferenceHits);
}

TEST(SequenceDetectorTest, CacheChangesReachTheNextQuery) {
  // The detector keeps the cache's answer per query. Every later change
  // to the cache must reach the next query: a stale "commutes" would
  // be unsound, and a stale miss would cost needless retries.
  DetectorWorld W;
  SequenceDetector D(W.Cache);
  TxLog Mine{{Location(W.Work), LocOp::write(Value::of(1))}};
  auto Theirs = logOf({{Location(W.Work), LocOp::write(Value::of(2))}});
  auto Detect = [&] {
    return D.detectConflicts(stm::Snapshot(), Mine, {Theirs}, W.Reg);
  };
  PairQuery Q = buildPairQuery("work", {LocOp::write(Value::of(1))},
                               {LocOp::write(Value::of(2))}, true);

  // Empty cache: a miss, answered by the write-set test.
  EXPECT_TRUE(Detect());
  EXPECT_EQ(D.stats().CacheMisses.load(), 1u);

  // The query that missed hits after an insert.
  W.Cache->insert(Q.Key, Condition::valid());
  EXPECT_FALSE(Detect());
  EXPECT_EQ(D.stats().CacheHits.load(), 1u);

  // deserializeInto replaces the entry with never: the query now
  // conflicts, answered from the cache rather than the fallback.
  CommutativityCache Replacement;
  Replacement.insert(Q.Key, Condition::never());
  ASSERT_TRUE(W.Cache->deserializeInto(Replacement.serialize()));
  EXPECT_TRUE(Detect());
  EXPECT_EQ(D.stats().CacheHits.load(), 2u);
  EXPECT_EQ(D.stats().WriteSetChecks.load(), 1u);

  // Figure 11: one query, and it stays a unique miss after the fill.
  EXPECT_EQ(D.uniqueQueries(), 1u);
  EXPECT_EQ(D.uniqueMisses(), 1u);
  EXPECT_EQ(D.missedQueryKeys(), std::vector<std::string>{Q.Key.toString()});
}

TEST(SequenceDetectorTest, ConcurrentQueriesCountAsOneThreadDoes) {
  // One detector shared by four threads over one set of queries keeps
  // the Figure 11 counts of a single thread running the same set.
  DetectorWorld W;
  std::vector<std::pair<TxLog, TxLogRef>> Queries;
  for (int K = 0; K != 6; ++K) {
    std::string Class = "class" + std::to_string(K);
    ObjectId Obj = W.Reg.registerObject("obj" + std::to_string(K), Class);
    LocOpSeq MineSeq{LocOp::add(K + 1)};
    LocOpSeq TheirsSeq{LocOp::write(Value::of(K))};
    Queries.emplace_back(TxLog{{Location(Obj), MineSeq[0]}},
                         logOf({{Location(Obj), TheirsSeq[0]}}));
    if (K % 2 == 0)
      W.Cache->insert(buildPairQuery(Class, MineSeq, TheirsSeq, true).Key,
                      Condition::never());
  }
  auto Run = [&](SequenceDetector &D, int Threads) {
    std::vector<std::thread> Pool;
    for (int T = 0; T != Threads; ++T)
      Pool.emplace_back([&, T] {
        for (int Rep = 0; Rep != 50; ++Rep)
          for (size_t I = 0; I != Queries.size(); ++I) {
            const auto &[Mine, Theirs] = Queries[(I + T) % Queries.size()];
            EXPECT_TRUE(
                D.detectConflicts(stm::Snapshot(), Mine, {Theirs}, W.Reg));
          }
      });
    for (std::thread &Th : Pool)
      Th.join();
  };
  SequenceDetector One(W.Cache), Four(W.Cache);
  Run(One, 1);
  Run(Four, 4);
  EXPECT_EQ(One.uniqueQueries(), 6u);
  EXPECT_EQ(One.uniqueMisses(), 3u);
  EXPECT_EQ(Four.uniqueQueries(), One.uniqueQueries());
  EXPECT_EQ(Four.uniqueMisses(), One.uniqueMisses());
  EXPECT_EQ(Four.missedQueryKeys(), One.missedQueryKeys());
  EXPECT_EQ(Four.stats().CacheHits.load(), 4 * One.stats().CacheHits.load());
  EXPECT_EQ(Four.stats().CacheMisses.load(),
            4 * One.stats().CacheMisses.load());
}

TEST(SequenceDetectorTest, MemoDistinguishesReadResults) {
  // Two sequences with identical kinds/operands but different read
  // results symbolize differently (read-plus patterns); the memo key
  // must not conflate them.
  DetectorWorld W;
  SequenceDetectorConfig Cfg;
  Cfg.OnlineFallback = true;
  SequenceDetector D(W.Cache, Cfg);

  stm::Snapshot S5;
  S5 = S5.set(Location(W.Work), Value::of(int64_t(5)));
  // Mine reads 5 and writes 6 (read-plus). Theirs writes 6 as well:
  // equal writes + consistent read ⇒ no conflict.
  TxLog MineA{{Location(W.Work), LocOp::read(Value::of(int64_t(5)))},
              {Location(W.Work), LocOp::write(Value::of(int64_t(6)))}};
  auto TheirsSame = logOf({{Location(W.Work), LocOp::write(Value::of(int64_t(6)))}});
  // Read 5 then their write 6: my read differs across orders → conflict.
  EXPECT_TRUE(D.detectConflicts(S5, MineA, {TheirsSame}, W.Reg));

  // Identical ops but the read observed 6 (snapshot already 6): in both
  // orders my read sees 6 and both final writes agree → no conflict.
  stm::Snapshot S6;
  S6 = S6.set(Location(W.Work), Value::of(int64_t(6)));
  TxLog MineB{{Location(W.Work), LocOp::read(Value::of(int64_t(6)))},
              {Location(W.Work), LocOp::write(Value::of(int64_t(6)))}};
  EXPECT_FALSE(D.detectConflicts(S6, MineB, {TheirsSame}, W.Reg));
}

// ---------------------------------------------------------------------------
// Edge cases: empty logs, single-op sequences, self-conflicting
// transactions and log reuse across an abort/retry.
// ---------------------------------------------------------------------------

TEST(OnlineConflictTest, EmptySequencesNeverConflict) {
  EXPECT_FALSE(conflictOnline(Value::of(3), {}, {}));
  EXPECT_FALSE(conflictOnline(Value::of(3), {}, {LocOp::write(Value::of(9))}));
  EXPECT_FALSE(conflictOnline(Value::of(3), {LocOp::write(Value::of(9))}, {}));
}

TEST(SequenceDetectorTest, EmptyMineLogNeverConflicts) {
  DetectorWorld W;
  SequenceDetectorConfig Cfg;
  Cfg.OnlineFallback = true;
  SequenceDetector D(W.Cache, Cfg);
  TxLog Empty;
  auto Theirs = logOf({{Location(W.Work), LocOp::write(Value::of(1))}});
  EXPECT_FALSE(D.detectConflicts(stm::Snapshot(), Empty, {Theirs}, W.Reg));
  // Empty committed window: nothing to conflict with either.
  TxLog Mine{{Location(W.Work), LocOp::write(Value::of(2))}};
  EXPECT_FALSE(D.detectConflicts(stm::Snapshot(), Mine, {}, W.Reg));
  // An empty committed log inside a non-empty window is also inert.
  EXPECT_FALSE(D.detectConflicts(stm::Snapshot(), Mine, {logOf({})}, W.Reg));
}

TEST(OnlineConflictTest, SingleOpPairs) {
  Value E = Value::of(int64_t(4));
  // Read/read: insensitive to order.
  EXPECT_FALSE(conflictOnline(E, {LocOp::read()}, {LocOp::read()}));
  // Equal single writes commute; different ones do not.
  EXPECT_FALSE(conflictOnline(E, {LocOp::write(Value::of(7))},
                              {LocOp::write(Value::of(7))}));
  EXPECT_TRUE(conflictOnline(E, {LocOp::write(Value::of(7))},
                             {LocOp::write(Value::of(8))}));
  // Single adds always commute.
  EXPECT_FALSE(conflictOnline(E, {LocOp::add(2)}, {LocOp::add(-9)}));
  // Read vs write: conflicts unless the write restores the entry value.
  EXPECT_TRUE(conflictOnline(E, {LocOp::read()}, {LocOp::write(Value::of(5))}));
  EXPECT_FALSE(conflictOnline(E, {LocOp::read()},
                              {LocOp::write(Value::of(int64_t(4)))}));
}

TEST(OnlineConflictTest, SelfConflictingSequence) {
  // A read-modify-write run against a copy of itself: whichever copy
  // goes second reads the other's write, so SAMEREAD fails — a
  // transaction's log can conflict with its own kind.
  Value E = Value::of(int64_t(0));
  symbolic::LocOpSeq Rmw{LocOp::read(Value::of(int64_t(0))),
                         LocOp::write(Value::of(int64_t(1)))};
  EXPECT_TRUE(conflictOnline(E, Rmw, Rmw));
  // Semantic adds self-commute; pure reads trivially so.
  EXPECT_FALSE(conflictOnline(E, {LocOp::add(1)}, {LocOp::add(1)}));
  EXPECT_FALSE(conflictOnline(E, {LocOp::read()}, {LocOp::read()}));
}

// ---------------------------------------------------------------------------
// Conflict explanations (the diagnostic behind `janus explain` and the
// obs abort-attribution report).
// ---------------------------------------------------------------------------

namespace {

/// Runs \p Body as a transaction against \p S and returns its log.
template <typename Fn>
TxLog logOfTx(const stm::Snapshot &S, uint32_t Tid,
              const ObjectRegistry &Reg, Fn Body) {
  stm::TxContext Tx(S, Tid, Reg);
  Body(Tx);
  return Tx.log();
}

} // namespace

TEST(ExplainTest, TxMapGetVsPutSameKeyNamesLocationOpsAndReason) {
  // PMD-style attribute store: my get() raced a committed put() on the
  // same key. The explanation must name the concrete (object, key)
  // location, render both sides' sequences, and blame SAMEREAD.
  ObjectRegistry Reg;
  adt::TxMap Attrs = adt::TxMap::create(Reg, "attrs");
  stm::Snapshot S;
  S = S.set(Attrs.locationAt("suppressed"), Value::of(int64_t(0)));

  TxLog Mine = logOfTx(S, 1, Reg, [&](stm::TxContext &Tx) {
    ASSERT_TRUE(Attrs.get(Tx, "suppressed").has_value());
  });
  auto Theirs =
      std::make_shared<const TxLog>(logOfTx(S, 2, Reg, [&](stm::TxContext &Tx) {
        Attrs.put(Tx, "suppressed", Value::of(int64_t(1)));
      }));

  ConflictExplanation Ex = explainConflict(S, Mine, {Theirs}, Reg);
  ASSERT_TRUE(Ex.Conflicting);
  EXPECT_EQ(Ex.Loc, Attrs.locationAt("suppressed"));
  EXPECT_EQ(Ex.LocationName, "attrs[\"suppressed\"]");
  EXPECT_EQ(Ex.MineSeq, "R");
  EXPECT_EQ(Ex.TheirsSeq, "W(1)");
  EXPECT_NE(Ex.Reason.find("SAMEREAD violated"), std::string::npos)
      << Ex.Reason;
  // The one-line rendering carries all three pieces.
  std::string Line = Ex.toString();
  EXPECT_NE(Line.find("attrs[\"suppressed\"]"), std::string::npos) << Line;
  EXPECT_NE(Line.find("mine: R"), std::string::npos) << Line;
  EXPECT_NE(Line.find("theirs: W(1)"), std::string::npos) << Line;
}

TEST(ExplainTest, TxMapPutVsPutSameKeyIsCommuteViolation) {
  // Two puts of different values to the same key: no reads, so the
  // SAMEREAD checks pass and the final-value COMMUTE check fires.
  ObjectRegistry Reg;
  adt::TxMap Attrs = adt::TxMap::create(Reg, "attrs");
  stm::Snapshot S;

  TxLog Mine = logOfTx(S, 1, Reg, [&](stm::TxContext &Tx) {
    Attrs.put(Tx, "k", Value::of(int64_t(1)));
  });
  auto Theirs =
      std::make_shared<const TxLog>(logOfTx(S, 2, Reg, [&](stm::TxContext &Tx) {
        Attrs.put(Tx, "k", Value::of(int64_t(2)));
      }));

  ConflictExplanation Ex = explainConflict(S, Mine, {Theirs}, Reg);
  ASSERT_TRUE(Ex.Conflicting);
  EXPECT_EQ(Ex.LocationName, "attrs[\"k\"]");
  EXPECT_NE(Ex.Reason.find("COMMUTE violated"), std::string::npos)
      << Ex.Reason;
  // Both orders' final values are named in the reason.
  EXPECT_NE(Ex.Reason.find("2 (mine first)"), std::string::npos) << Ex.Reason;
  EXPECT_NE(Ex.Reason.find("1 (history first)"), std::string::npos)
      << Ex.Reason;
}

TEST(ExplainTest, DistinctKeysAndCommutingOpsDoNotConflict) {
  ObjectRegistry Reg;
  adt::TxMap Attrs = adt::TxMap::create(Reg, "attrs");
  stm::Snapshot S;

  // Different keys of the same map are different locations.
  TxLog Mine = logOfTx(S, 1, Reg, [&](stm::TxContext &Tx) {
    Attrs.put(Tx, "a", Value::of(int64_t(1)));
  });
  auto OtherKey =
      std::make_shared<const TxLog>(logOfTx(S, 2, Reg, [&](stm::TxContext &Tx) {
        Attrs.put(Tx, "b", Value::of(int64_t(2)));
      }));
  EXPECT_FALSE(explainConflict(S, Mine, {OtherKey}, Reg).Conflicting);

  // Same key, commuting reduction updates (addAt): no conflict either.
  TxLog MineAdd = logOfTx(S, 1, Reg, [&](stm::TxContext &Tx) {
    Attrs.addAt(Tx, "hits", 1);
  });
  auto TheirAdd =
      std::make_shared<const TxLog>(logOfTx(S, 2, Reg, [&](stm::TxContext &Tx) {
        Attrs.addAt(Tx, "hits", 5);
      }));
  ConflictExplanation Ex = explainConflict(S, MineAdd, {TheirAdd}, Reg);
  EXPECT_FALSE(Ex.Conflicting);
  EXPECT_EQ(Ex.toString(), "no conflict");
}

TEST(ExplainTest, ExplanationIsDeterministicAcrossRepeats) {
  // The attribution report aggregates explanation strings by key;
  // identical inputs must therefore explain identically every time,
  // including which location is blamed when several conflict.
  ObjectRegistry Reg;
  adt::TxMap Attrs = adt::TxMap::create(Reg, "attrs");
  stm::Snapshot S;
  S = S.set(Attrs.locationAt("x"), Value::of(int64_t(10)));
  S = S.set(Attrs.locationAt("y"), Value::of(int64_t(20)));

  // Mine touches two keys that both conflict with the committed log.
  TxLog Mine = logOfTx(S, 1, Reg, [&](stm::TxContext &Tx) {
    ASSERT_TRUE(Attrs.get(Tx, "x").has_value());
    ASSERT_TRUE(Attrs.get(Tx, "y").has_value());
  });
  auto Theirs =
      std::make_shared<const TxLog>(logOfTx(S, 2, Reg, [&](stm::TxContext &Tx) {
        Attrs.put(Tx, "y", Value::of(int64_t(21)));
        Attrs.put(Tx, "x", Value::of(int64_t(11)));
      }));

  std::string First = explainConflict(S, Mine, {Theirs}, Reg).toString();
  for (int I = 0; I != 5; ++I)
    EXPECT_EQ(explainConflict(S, Mine, {Theirs}, Reg).toString(), First);
}

TEST(SequenceDetectorTest, RetriedLogRevalidatesDeterministically) {
  // Abort-then-retry reuses the detector against a grown window: the
  // same (Mine, Theirs) pair must keep its verdict, and extending the
  // window with a commuting commit must not flip a clean validation.
  DetectorWorld W;
  SequenceDetectorConfig Cfg;
  Cfg.OnlineFallback = true;
  SequenceDetector D(W.Cache, Cfg);
  TxLog Mine{{Location(W.Work), LocOp::add(1)}};
  auto First = logOf({{Location(W.Work), LocOp::add(5)}});
  auto Second = logOf({{Location(W.Work), LocOp::add(-2)}});
  bool V1 = D.detectConflicts(stm::Snapshot(), Mine, {First}, W.Reg);
  bool V2 = D.detectConflicts(stm::Snapshot(), Mine, {First}, W.Reg);
  EXPECT_EQ(V1, V2);
  EXPECT_FALSE(V1);
  EXPECT_FALSE(D.detectConflicts(stm::Snapshot(), Mine, {First, Second},
                                 W.Reg));
  // A non-commuting commit in the retry window does flip the verdict.
  auto Clobber = logOf({{Location(W.Work), LocOp::write(Value::of(9))}});
  TxLog Reader{{Location(W.Work), LocOp::read()}};
  EXPECT_FALSE(D.detectConflicts(stm::Snapshot(), Reader, {}, W.Reg));
  EXPECT_TRUE(D.detectConflicts(stm::Snapshot(), Reader,
                                {First, Clobber}, W.Reg));
}

// ---------------------------------------------------------------------------
// SPEC TABLES (tier-1 dispatch, DESIGN.md §14).
// ---------------------------------------------------------------------------

namespace {

/// Evaluates the spec for \p Kind on one (entry, mine, theirs) point
/// with the default (all-on) checks.
SpecVerdict specOn(AdtKind Kind, const Value &Entry, const LocOpSeq &Mine,
                   const LocOpSeq &Theirs) {
  SpecFn Fn = specFor(Kind);
  EXPECT_NE(Fn, nullptr);
  return Fn(Entry, Mine, Theirs, ChecksSpec{});
}

} // namespace

TEST(SpecTableTest, CounterAddsAlwaysCommute) {
  EXPECT_EQ(specOn(AdtKind::Counter, Value::of(int64_t(5)),
                   {LocOp::add(1)}, {LocOp::add(-7)}),
            SpecVerdict::Commutes);
  EXPECT_EQ(specOn(AdtKind::Counter, Value::absent(),
                   {LocOp::add(2), LocOp::add(3)}, {LocOp::add(4)}),
            SpecVerdict::Commutes);
}

TEST(SpecTableTest, CounterReadVsNonzeroAddConflicts) {
  EXPECT_EQ(specOn(AdtKind::Counter, Value::of(int64_t(0)),
                   {LocOp::read()}, {LocOp::add(1)}),
            SpecVerdict::Conflicts);
  // A zero net add leaves the read stable.
  EXPECT_EQ(specOn(AdtKind::Counter, Value::of(int64_t(0)),
                   {LocOp::read()}, {LocOp::add(3), LocOp::add(-3)}),
            SpecVerdict::Commutes);
}

TEST(SpecTableTest, CounterAbstainsOnWrites) {
  // The counter table only claims add/read shapes; writes defer to the
  // learned tiers.
  EXPECT_EQ(specOn(AdtKind::Counter, Value::of(int64_t(0)),
                   {LocOp::write(Value::of(int64_t(1)))}, {LocOp::add(1)}),
            SpecVerdict::Abstain);
}

TEST(SpecTableTest, MapEqualPutsCommuteUnequalConflict) {
  LocOpSeq PutA{LocOp::write(Value::of("a"))};
  LocOpSeq PutB{LocOp::write(Value::of("b"))};
  EXPECT_EQ(specOn(AdtKind::Map, Value::of("x"), PutA, PutA),
            SpecVerdict::Commutes);
  EXPECT_EQ(specOn(AdtKind::Map, Value::of("x"), PutA, PutB),
            SpecVerdict::Conflicts);
}

TEST(SpecTableTest, MapGetVsPutDependsOnEntryPreservation) {
  LocOpSeq Get{LocOp::read()};
  // Overwriting the entry with its current value preserves the read.
  EXPECT_EQ(specOn(AdtKind::Map, Value::of("x"),
                   Get, {LocOp::write(Value::of("x"))}),
            SpecVerdict::Commutes);
  EXPECT_EQ(specOn(AdtKind::Map, Value::of("x"),
                   Get, {LocOp::write(Value::of("y"))}),
            SpecVerdict::Conflicts);
}

TEST(SpecTableTest, QueueDequeueVsDequeueConflicts) {
  // Competing dequeues both consume the same cell (write Absent after
  // reading it): order-dependent.
  LocOpSeq Dequeue{LocOp::read(), LocOp::write(Value::absent())};
  EXPECT_EQ(specOn(AdtKind::Queue, Value::of(int64_t(42)), Dequeue, Dequeue),
            SpecVerdict::Conflicts);
}

TEST(SpecTableTest, QueueAbstainsOnAdds) {
  EXPECT_EQ(specOn(AdtKind::Queue, Value::of(int64_t(0)),
                   {LocOp::add(1)}, {LocOp::add(1)}),
            SpecVerdict::Abstain);
}

TEST(SpecTableTest, BitSetIdempotentSetsCommuteSetVsClearConflicts) {
  LocOpSeq Set{LocOp::write(Value::of(true))};
  LocOpSeq Clear{LocOp::write(Value::of(false))};
  EXPECT_EQ(specOn(AdtKind::BitSet, Value::of(false), Set, Set),
            SpecVerdict::Commutes);
  EXPECT_EQ(specOn(AdtKind::BitSet, Value::of(false), Set, Clear),
            SpecVerdict::Conflicts);
}

TEST(SpecTableTest, EveryTableEntryHasNameAndFn) {
  for (const SpecTableEntry &E : SpecTables) {
    EXPECT_NE(E.Fn, nullptr);
    EXPECT_NE(E.Name, nullptr);
    EXPECT_EQ(specFor(E.Kind), E.Fn);
  }
  EXPECT_EQ(specFor(AdtKind::None), nullptr);
}

TEST(SpecDispatchTest, SpecHitSkipsCacheAndOnline) {
  DetectorWorld W;
  W.Reg.declareAdt(W.Work, AdtKind::Counter);
  SequenceDetectorConfig Cfg;
  Cfg.Specs = SpecMode::On;
  Cfg.OnlineFallback = true;
  SequenceDetector D(W.Cache, Cfg);
  TxLog Mine{{Location(W.Work), LocOp::add(1)}};
  auto Theirs = logOf({{Location(W.Work), LocOp::add(2)}});
  EXPECT_FALSE(D.detectConflicts(stm::Snapshot(), Mine, {Theirs}, W.Reg));
  EXPECT_EQ(D.stats().SpecHits.load(), 1u);
  EXPECT_EQ(D.stats().CacheHits.load(), 0u);
  EXPECT_EQ(D.stats().CacheMisses.load(), 0u);
  EXPECT_EQ(D.stats().OnlineChecks.load(), 0u);
}

TEST(SpecDispatchTest, AbstainFallsThroughToLearnedTier) {
  DetectorWorld W;
  W.Reg.declareAdt(W.Work, AdtKind::Counter);
  SequenceDetectorConfig Cfg;
  Cfg.Specs = SpecMode::On;
  Cfg.OnlineFallback = true;
  SequenceDetector D(W.Cache, Cfg);
  // Writes make the counter table abstain; the online tier answers.
  TxLog Mine{{Location(W.Work), LocOp::write(Value::of(int64_t(1)))}};
  auto Theirs = logOf({{Location(W.Work), LocOp::add(2)}});
  EXPECT_TRUE(D.detectConflicts(stm::Snapshot(), Mine, {Theirs}, W.Reg));
  EXPECT_EQ(D.stats().SpecAbstains.load(), 1u);
  EXPECT_EQ(D.stats().SpecHits.load(), 0u);
  EXPECT_EQ(D.stats().OnlineChecks.load(), 1u);
}

TEST(SpecDispatchTest, SpecsOffNeverConsultTables) {
  DetectorWorld W;
  W.Reg.declareAdt(W.Work, AdtKind::Counter);
  SequenceDetectorConfig Cfg;
  Cfg.Specs = SpecMode::Off;
  Cfg.OnlineFallback = true;
  SequenceDetector D(W.Cache, Cfg);
  TxLog Mine{{Location(W.Work), LocOp::add(1)}};
  auto Theirs = logOf({{Location(W.Work), LocOp::add(2)}});
  EXPECT_FALSE(D.detectConflicts(stm::Snapshot(), Mine, {Theirs}, W.Reg));
  EXPECT_EQ(D.stats().SpecHits.load(), 0u);
  EXPECT_EQ(D.stats().SpecAbstains.load(), 0u);
}

TEST(SpecDispatchTest, OnlyModeBypassesLearnedTiersOnAbstain) {
  DetectorWorld W;
  W.Reg.declareAdt(W.Work, AdtKind::Counter);
  SequenceDetectorConfig Cfg;
  Cfg.Specs = SpecMode::Only;
  Cfg.OnlineFallback = true;
  SequenceDetector D(W.Cache, Cfg);
  // Abstain in Only mode goes straight to the write-set test — the
  // write/add pair conflicts there, and no learned tier runs.
  TxLog Mine{{Location(W.Work), LocOp::write(Value::of(int64_t(1)))}};
  auto Theirs = logOf({{Location(W.Work), LocOp::add(2)}});
  EXPECT_TRUE(D.detectConflicts(stm::Snapshot(), Mine, {Theirs}, W.Reg));
  EXPECT_EQ(D.stats().SpecAbstains.load(), 1u);
  EXPECT_EQ(D.stats().WriteSetChecks.load(), 1u);
  EXPECT_EQ(D.stats().OnlineChecks.load(), 0u);
  EXPECT_EQ(D.stats().CacheMisses.load(), 0u);
}

TEST(SpecDispatchTest, UndeclaredObjectsSkipSpecTier) {
  DetectorWorld W; // No declareAdt: AdtKind::None.
  SequenceDetectorConfig Cfg;
  Cfg.Specs = SpecMode::On;
  Cfg.OnlineFallback = true;
  SequenceDetector D(W.Cache, Cfg);
  TxLog Mine{{Location(W.Work), LocOp::add(1)}};
  auto Theirs = logOf({{Location(W.Work), LocOp::add(2)}});
  EXPECT_FALSE(D.detectConflicts(stm::Snapshot(), Mine, {Theirs}, W.Reg));
  EXPECT_EQ(D.stats().SpecHits.load(), 0u);
  EXPECT_EQ(D.stats().SpecAbstains.load(), 0u);
  EXPECT_EQ(D.stats().OnlineChecks.load(), 1u);
}

TEST(SpecDispatchTest, SpecVerdictsMatchOnlineReference) {
  // On spec-covered pairs the tier-1 verdict must agree with the exact
  // online check (soundness AND exactness, the same obligation the
  // verify gate replays exhaustively).
  std::vector<LocOpSeq> Seqs = {
      {},
      {LocOp::read()},
      {LocOp::add(1)},
      {LocOp::add(-1), LocOp::add(1)},
      {LocOp::read(), LocOp::add(2)},
  };
  for (const LocOpSeq &Mine : Seqs)
    for (const LocOpSeq &Theirs : Seqs) {
      Value Entry = Value::of(int64_t(3));
      SpecVerdict V = specOn(AdtKind::Counter, Entry, Mine, Theirs);
      if (V == SpecVerdict::Abstain)
        continue;
      bool Ref = conflictOnline(Entry, Mine, Theirs);
      EXPECT_EQ(V == SpecVerdict::Conflicts, Ref)
          << sequenceToString(Mine) << " vs " << sequenceToString(Theirs);
    }
}

// ---------------------------------------------------------------------------
// DECOMPOSE over the common domain.
// ---------------------------------------------------------------------------

namespace {

/// A random log of up to 8 accesses over \p Pool.
TxLog randomLog(Rng &R, const std::vector<Location> &Pool) {
  TxLog Log;
  for (int I = 0, E = static_cast<int>(R.below(9)); I != E; ++I) {
    const Location &Loc = Pool[R.below(Pool.size())];
    switch (R.below(3)) {
    case 0:
      Log.push_back({Loc, LocOp::read(Value::of(R.range(0, 3)))});
      break;
    case 1:
      Log.push_back({Loc, LocOp::add(R.range(-2, 2))});
      break;
    default:
      Log.push_back({Loc, LocOp::write(Value::of(R.range(0, 3)))});
      break;
    }
  }
  return Log;
}

} // namespace

TEST(DecomposeTest, CommonDomainKeepsOnlyLocationsBothSidesTouch) {
  ObjectId A{1}, B{2};
  TxLog Mine{{Location(B), LocOp::add(1)},
             {Location(A, 7), LocOp::read()},
             {Location(A), LocOp::write(Value::of(1))},
             {Location(B), LocOp::add(2)}};
  auto L1 = logOf({{Location(B), LocOp::add(5)},
                   {Location(A, 3), LocOp::read()}});
  auto L2 = logOf({{Location(A), LocOp::read()}, {Location(B), LocOp::add(6)}});
  std::vector<CommonLocation> C = decomposeCommon(Mine, {L1, L2});
  ASSERT_EQ(C.size(), 2u);
  EXPECT_EQ(C[0].Loc, Location(A)); // Ascending location order.
  EXPECT_EQ(C[0].Mine, (LocOpSeq{LocOp::write(Value::of(1))}));
  EXPECT_EQ(C[0].Theirs, (LocOpSeq{LocOp::read()}));
  EXPECT_EQ(C[1].Loc, Location(B));
  EXPECT_EQ(C[1].Mine, (LocOpSeq{LocOp::add(1), LocOp::add(2)}));
  EXPECT_EQ(C[1].Theirs, (LocOpSeq{LocOp::add(5), LocOp::add(6)}));
  EXPECT_TRUE(decomposeCommon(Mine, {}).empty());
  EXPECT_TRUE(decomposeCommon({}, {L1, L2}).empty());
}

class CommonDomainProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CommonDomainProperty, MatchesWholeDecompositionsAndExplain) {
  // On random logs and windows, decomposeCommon is exactly the part of
  // decompose(Mine) and decomposeAll(Window) on locations both contain,
  // in the same order; and the detector (exact online tier) and
  // explainConflict, which both iterate it, reach the same verdict.
  Rng R(GetParam());
  ObjectRegistry Reg;
  std::vector<Location> Pool;
  const RelaxationSpec Relax[] = {{}, {true, false}, {false, true}};
  for (int I = 0; I != 3; ++I) {
    ObjectId O = Reg.registerObject("o" + std::to_string(I), "", Relax[I]);
    Pool.emplace_back(O);
    Pool.emplace_back(O, int64_t(0));
    Pool.emplace_back(O, int64_t(2));
    Pool.emplace_back(O, std::string("k"));
  }
  SequenceDetectorConfig Cfg;
  Cfg.OnlineFallback = true;
  SequenceDetector D(std::make_shared<CommutativityCache>(), Cfg);
  for (int Iter = 0; Iter != 300; ++Iter) {
    TxLog Mine = randomLog(R, Pool);
    std::vector<TxLogRef> Window;
    for (int I = 0, E = static_cast<int>(R.below(4)); I != E; ++I)
      Window.push_back(std::make_shared<const TxLog>(randomLog(R, Pool)));

    Decomposition MineD = decompose(Mine);
    Decomposition TheirsD = decomposeAll(Window);
    std::vector<CommonLocation> Common = decomposeCommon(Mine, Window);
    size_t At = 0;
    for (const auto &[Loc, Seq] : MineD) {
      auto It = TheirsD.find(Loc);
      if (It == TheirsD.end())
        continue;
      ASSERT_LT(At, Common.size()) << "iteration " << Iter;
      EXPECT_TRUE(Common[At].Loc == Loc) << "iteration " << Iter;
      EXPECT_EQ(Common[At].Mine, Seq) << "iteration " << Iter;
      EXPECT_EQ(Common[At].Theirs, It->second) << "iteration " << Iter;
      ++At;
    }
    EXPECT_EQ(At, Common.size()) << "iteration " << Iter;

    stm::Snapshot Entry;
    for (const Location &Loc : Pool)
      if (R.chance(1, 2))
        Entry.setInPlace(Loc, Value::of(R.range(0, 3)));
    EXPECT_EQ(D.detectConflicts(Entry, Mine, Window, Reg),
              explainConflict(Entry, Mine, Window, Reg).Conflicting)
        << "iteration " << Iter;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CommonDomainProperty,
                         ::testing::Values(2, 13, 29, 41));
