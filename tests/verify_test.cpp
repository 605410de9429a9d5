//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for janus::verify (DESIGN.md §10): signature parsing
/// round-trips, bounded-exhaustive soundness checking of cached
/// commutativity conditions, counterexample reporting, precision
/// scoring, and the trainer's publish gate.
///
//===----------------------------------------------------------------------===//

#include "janus/verify/SigParser.h"
#include "janus/verify/SpecCheck.h"
#include "janus/verify/Verify.h"

#include "janus/conflict/SequenceDetector.h"
#include "janus/training/Trainer.h"

#include <gtest/gtest.h>

using namespace janus;
using namespace janus::verify;
using namespace janus::symbolic;
using conflict::CacheKey;
using conflict::CommutativityCache;

namespace {

/// Parses \p Sig, failing the test on grammar errors.
abstraction::AbstractSeq parsed(const std::string &Sig) {
  std::optional<abstraction::AbstractSeq> A = parseSignature(Sig);
  EXPECT_TRUE(A.has_value()) << "unparseable signature: " << Sig;
  return A ? *A : abstraction::AbstractSeq{};
}

/// Expands \p Sig and applies the conflict-history symbol offset, the
/// convention checkPair expects on the "theirs" side.
SymLocSeq theirsSide(const std::string &Sig) {
  SymLocSeq Seq = parsed(Sig).expandOnce();
  for (SymLocOp &Op : Seq)
    if (Op.Kind != LocOpKind::Read)
      Op.Operand = Op.Operand.mapSymbols([](SymId S) {
        return S == EntrySym ? S : S + conflict::TheirParamOffset;
      });
  return Seq;
}

ChecksSpec fullChecks() {
  ChecksSpec C;
  C.SameReadA = C.SameReadB = C.Commute = true;
  return C;
}

// ---------------------------------------------------------------------------
// Signature parsing.
// ---------------------------------------------------------------------------

TEST(SigParserTest, RoundTripsEmittedSignatures) {
  // Shapes the abstraction layer actually emits (see AbstractSeq).
  const char *Sigs[] = {
      "R",
      "W(p1)",
      "A(p1)",
      "R, W(read#0+1)",
      "R, W(read#0-1)",
      "W(v0 + p1)",
      "A(-p1)",
      "A(2*p1 - 3)",
      "W(42)",
      "W(true)",
      "W(absent)",
      "W(\"key\")",
      "[A(p1), A(-p1)]+",
      "[R, W(read#0+1)]+, R",
      "R, [W(p1)]+, A(p2)",
      "",
  };
  for (const char *S : Sigs)
    EXPECT_EQ(parsed(S).signature(), S);
}

TEST(SigParserTest, RejectsMalformedInput) {
  EXPECT_FALSE(parseSignature("X(p1)").has_value());
  EXPECT_FALSE(parseSignature("W(p1").has_value());
  EXPECT_FALSE(parseSignature("W()").has_value());
  EXPECT_FALSE(parseSignature("[R").has_value());
  EXPECT_FALSE(parseSignature("W(read#zzz)").has_value());
  EXPECT_FALSE(parseTerm("\"em\"bedded\"").has_value());
}

// ---------------------------------------------------------------------------
// Pair checking: soundness and counterexamples.
// ---------------------------------------------------------------------------

TEST(PairCheckTest, ConvictsAlwaysCommutesOnWritePair) {
  // Two writes of independent parameters do not commute (last writer
  // wins), so the always-true condition is unsound; the counterexample
  // must pin concrete differing operands.
  SymLocSeq Mine = parsed("W(p1)").expandOnce();
  SymLocSeq Theirs = theirsSide("W(p1)");
  PairResult R = checkPair(Mine, Theirs, Condition::valid(), fullChecks());
  EXPECT_EQ(R.V, Verdict::Unsound);
  ASSERT_TRUE(R.Cex.has_value());
  EXPECT_EQ(R.Cex->FailedCheck, "COMMUTE");
  EXPECT_FALSE(R.Cex->Text.empty());
  // The relational/SAT engine independently confirms the conviction.
  EXPECT_TRUE(R.SatConfirmed);
}

TEST(PairCheckTest, EqualWritesConditionIsSound) {
  // The learned condition for W(p1) | W(p1) is p1 == theirs.p1; it
  // admits exactly the commuting states, so it is sound and perfectly
  // precise.
  SymLocSeq Mine = parsed("W(p1)").expandOnce();
  SymLocSeq Theirs = theirsSide("W(p1)");
  std::optional<Condition> Cond =
      commutativityCondition(Mine, Theirs, fullChecks());
  ASSERT_TRUE(Cond.has_value());
  EXPECT_TRUE(Cond->isConditional());
  PairResult R = checkPair(Mine, Theirs, *Cond, fullChecks());
  EXPECT_EQ(R.V, Verdict::Sound);
  EXPECT_GT(R.PointsChecked, 0u);
  EXPECT_GT(R.CommutingPoints, 0u);
  EXPECT_DOUBLE_EQ(R.precision(), 1.0);
}

TEST(PairCheckTest, CounterAddsAlwaysCommute) {
  SymLocSeq Mine = parsed("A(p1)").expandOnce();
  SymLocSeq Theirs = theirsSide("A(p1)");
  PairResult R = checkPair(Mine, Theirs, Condition::valid(), fullChecks());
  EXPECT_EQ(R.V, Verdict::Sound);
  EXPECT_GT(R.PointsChecked, 0u);
  // Every enumerated state commutes and the condition admits them all.
  EXPECT_EQ(R.CommutingPoints, R.PointsChecked);
  EXPECT_EQ(R.AdmittedPoints, R.PointsChecked);
  EXPECT_DOUBLE_EQ(R.precision(), 1.0);
}

TEST(PairCheckTest, NeverConditionIsVacuouslySoundButImprecise) {
  SymLocSeq Mine = parsed("A(p1)").expandOnce();
  SymLocSeq Theirs = theirsSide("A(p1)");
  PairResult R = checkPair(Mine, Theirs, Condition::never(), fullChecks());
  EXPECT_EQ(R.V, Verdict::Sound); // Admits nothing: cannot be unsound.
  EXPECT_EQ(R.AdmittedPoints, 0u);
  EXPECT_DOUBLE_EQ(R.precision(), 0.0); // ... at total parallelism cost.
}

TEST(PairCheckTest, SameReadViolationDetected) {
  // Mine reads; theirs overwrites with a fresh parameter. Running after
  // theirs changes mine's read results, so SAMEREAD(mine) fails on any
  // state where the write differs from the entry value — the
  // always-true condition is unsound even though final states agree.
  SymLocSeq Mine = parsed("R").expandOnce();
  SymLocSeq Theirs = theirsSide("W(p1)");
  PairResult R = checkPair(Mine, Theirs, Condition::valid(), fullChecks());
  EXPECT_EQ(R.V, Verdict::Unsound);
  ASSERT_TRUE(R.Cex.has_value());
  EXPECT_EQ(R.Cex->FailedCheck, "SAMEREAD(mine)");
}

TEST(PairCheckTest, DeterministicAcrossRuns) {
  SymLocSeq Mine = parsed("W(v0 + p1)").expandOnce();
  SymLocSeq Theirs = theirsSide("A(p1)");
  std::optional<Condition> Cond =
      commutativityCondition(Mine, Theirs, fullChecks());
  ASSERT_TRUE(Cond.has_value());
  PairResult A = checkPair(Mine, Theirs, *Cond, fullChecks());
  PairResult B = checkPair(Mine, Theirs, *Cond, fullChecks());
  EXPECT_EQ(A.V, B.V);
  EXPECT_EQ(A.PointsChecked, B.PointsChecked);
  EXPECT_EQ(A.AdmittedPoints, B.AdmittedPoints);
  EXPECT_EQ(A.CommutingPoints, B.CommutingPoints);
  EXPECT_EQ(A.AdmittedCommuting, B.AdmittedCommuting);
  EXPECT_DOUBLE_EQ(A.precision(), B.precision());
}

// ---------------------------------------------------------------------------
// Table verification.
// ---------------------------------------------------------------------------

TEST(TableVerifierTest, SeededUnsoundEntryConvicted) {
  CommutativityCache Cache;
  CacheKey Bad;
  Bad.LocClass = "seeded.unsound";
  Bad.MineSig = "W(p1)";
  Bad.TheirsSig = "W(p1)";
  Cache.insert(std::move(Bad), Condition::valid());

  ObjectRegistry Reg;
  TableReport R = verifyTable(Cache, Reg);
  EXPECT_FALSE(R.clean());
  EXPECT_EQ(R.Entries, 1u);
  EXPECT_EQ(R.Unsound, 1u);
  ASSERT_EQ(R.EntryReports.size(), 1u);
  const PairResult &PR = R.EntryReports[0].Result;
  ASSERT_TRUE(PR.Cex.has_value());
  EXPECT_EQ(PR.Cex->FailedCheck, "COMMUTE");
  // The relational/SAT engine agrees with the enumeration's verdict.
  EXPECT_TRUE(PR.SatConfirmed);
  // The protocol model cannot: two blind constant writes match the
  // commit-order replay in every schedule (the violation needs a
  // read→write dataflow to surface — see the next test), so its
  // best-effort confirmation correctly comes back negative.
  EXPECT_FALSE(PR.ModelConfirmed);
  // The JSON report carries the conviction.
  std::string Json = R.toJson();
  EXPECT_NE(Json.find("\"clean\":false"), std::string::npos);
  EXPECT_NE(Json.find("seeded.unsound"), std::string::npos);
}

TEST(TableVerifierTest, StaleReadConvictionModelConfirmed) {
  // Admitting two read-increment-writes as always-commuting is the
  // classic stale-snapshot bug (a lost update). Unlike the blind-write
  // seed above, the divergence flows through a read, so the protocol
  // model checker reproduces it: the admitted schedule's final state
  // differs from its commit-order replay.
  CommutativityCache Cache;
  CacheKey Bad;
  Bad.LocClass = "seeded.stale";
  Bad.MineSig = "R, W(read#0+1)";
  Bad.TheirsSig = "R, W(read#0+1)";
  Cache.insert(std::move(Bad), Condition::valid());

  ObjectRegistry Reg;
  TableReport R = verifyTable(Cache, Reg);
  EXPECT_FALSE(R.clean());
  ASSERT_EQ(R.EntryReports.size(), 1u);
  const PairResult &PR = R.EntryReports[0].Result;
  EXPECT_EQ(PR.V, Verdict::Unsound);
  ASSERT_TRUE(PR.Cex.has_value());
  EXPECT_EQ(PR.Cex->FailedCheck, "SAMEREAD(mine)");
  EXPECT_TRUE(PR.ModelConfirmed);
}

TEST(TableVerifierTest, TrainedCounterTableIsSound) {
  // Train on counter-style tasks: the resulting table (adds, reads,
  // read-increment-writes over one class) must verify clean.
  ObjectRegistry Reg;
  ObjectId Ctr = Reg.registerObject("test.counter", "test.counter");
  auto Cache = std::make_shared<CommutativityCache>();
  training::Trainer T(Reg, Cache);
  stm::Snapshot State;
  std::vector<stm::TaskFn> Tasks;
  for (int I = 0; I != 6; ++I)
    Tasks.push_back([Ctr, I](stm::TxContext &Tx) {
      Location L{Ctr};
      if (I % 3 == 2) {
        Value V = Tx.read(L);
        Tx.write(L, Value::of(V.isInt() ? V.asInt() + 1 : 1));
      } else {
        Tx.add(L, 1);
      }
    });
  T.trainOn(State, Tasks);
  ASSERT_GT(Cache->size(), 0u);

  TableReport R = verifyTable(*Cache, Reg);
  EXPECT_TRUE(R.clean()) << R.toText(/*Verbose=*/true);
  EXPECT_EQ(R.Unsound, 0u);
  EXPECT_GT(R.Sound, 0u);
}

TEST(TableVerifierTest, UnparseableSignatureIsUnsupportedNotCrash) {
  CommutativityCache Cache;
  CacheKey Weird;
  Weird.LocClass = "hand.edited";
  Weird.MineSig = "FROB(p1)";
  Weird.TheirsSig = "W(p1)";
  Cache.insert(std::move(Weird), Condition::valid());
  ObjectRegistry Reg;
  TableReport R = verifyTable(Cache, Reg);
  EXPECT_EQ(R.Unsupported, 1u);
  EXPECT_EQ(R.Unsound, 0u);
  EXPECT_TRUE(R.clean()); // Unsupported is a warning, not a conviction.
}

// ---------------------------------------------------------------------------
// Trainer publish gate.
// ---------------------------------------------------------------------------

TEST(PublishGateTest, TrainerRunsVerifierBeforeCaching) {
  ObjectRegistry Reg;
  ObjectId Ctr = Reg.registerObject("gate.counter", "gate.counter");
  auto Cache = std::make_shared<CommutativityCache>();
  training::TrainerConfig Cfg;
  ASSERT_TRUE(Cfg.VerifyBeforePublish); // Gate is on by default.
  training::Trainer T(Reg, Cache, Cfg);
  stm::Snapshot State;
  std::vector<stm::TaskFn> Tasks;
  for (int I = 0; I != 4; ++I)
    Tasks.push_back(
        [Ctr](stm::TxContext &Tx) { Tx.add(Location{Ctr}, 2); });
  T.trainOn(State, Tasks);
  EXPECT_GT(T.stats().VerifyChecks, 0u);
  EXPECT_EQ(T.stats().VerifyRejected, 0u); // Honest conditions survive.
  EXPECT_GT(Cache->size(), 0u);
}

//===----------------------------------------------------------------------===//
// Spec-table vetting (SpecCheck): the hand-written tier-1 tables replay
// clean against the reference semantics, and a deliberately-unsound
// table is convicted.
//===----------------------------------------------------------------------===//

TEST(SpecCheckTest, ShippedTablesReplayClean) {
  verify::SpecReport R = verify::checkShippedSpecTables();
  EXPECT_TRUE(R.clean()) << R.toText(/*Verbose=*/true);
  EXPECT_FALSE(R.unsound());
  // Every shipped table was exercised and answered on real points.
  ASSERT_EQ(R.Tables.size(), std::size(conflict::SpecTables));
  for (const verify::SpecTableResult &T : R.Tables) {
    EXPECT_GT(T.PointsChecked, 0u) << T.Table;
    EXPECT_GT(T.Verdicts, 0u) << T.Table;
    EXPECT_EQ(T.Convictions, 0u) << T.Table;
  }
}

TEST(SpecCheckTest, SeededUnsoundSpecConvicted) {
  conflict::SpecTableEntry Bad = verify::seededUnsoundSpecEntry();
  verify::SpecReport R = verify::checkSpecTables(&Bad, 1);
  EXPECT_FALSE(R.clean());
  EXPECT_TRUE(R.unsound());
  ASSERT_EQ(R.Tables.size(), 1u);
  EXPECT_GT(R.Tables[0].Convictions, 0u);
  // The rendered sample is bounded even though convictions are not.
  EXPECT_LE(R.Findings.size(), 10u);
  EXPECT_NE(R.toJson().find("\"clean\":false"), std::string::npos);
}

TEST(SpecCheckTest, ReplayIsDeterministic) {
  verify::SpecCheckConfig Small;
  Small.MaxSeqLen = 1; // Keep the repeated replay cheap.
  verify::SpecReport A = verify::checkShippedSpecTables(Small);
  verify::SpecReport B = verify::checkShippedSpecTables(Small);
  ASSERT_EQ(A.Tables.size(), B.Tables.size());
  for (size_t I = 0; I != A.Tables.size(); ++I) {
    EXPECT_EQ(A.Tables[I].PointsChecked, B.Tables[I].PointsChecked);
    EXPECT_EQ(A.Tables[I].Verdicts, B.Tables[I].Verdicts);
    EXPECT_EQ(A.Tables[I].Abstains, B.Tables[I].Abstains);
  }
}

TEST(SpecCheckTest, MaxPointsTruncatesDeterministically) {
  verify::SpecCheckConfig Tight;
  Tight.MaxPoints = 100;
  verify::SpecReport R = verify::checkShippedSpecTables(Tight);
  for (const verify::SpecTableResult &T : R.Tables) {
    EXPECT_TRUE(T.Truncated) << T.Table;
    EXPECT_EQ(T.PointsChecked, 100u) << T.Table;
  }
}

} // namespace
