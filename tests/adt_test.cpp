//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the transactional ADT handles: their lowering to
/// per-location operations, footprints, and pattern-relevant semantics
/// (identity push/pop, equal writes, reductions, scratch resets).
///
//===----------------------------------------------------------------------===//

#include "janus/adt/TxArray.h"
#include "janus/adt/TxBitSet.h"
#include "janus/adt/TxCanvas.h"
#include "janus/adt/TxCounter.h"
#include "janus/adt/TxList.h"
#include "janus/adt/TxMap.h"
#include "janus/adt/TxVar.h"

#include <gtest/gtest.h>

using namespace janus;
using namespace janus::adt;
using stm::Snapshot;
using stm::TxContext;
using symbolic::LocOpKind;

namespace {

struct Fixture {
  ObjectRegistry Reg;
  Snapshot State;

  TxContext fresh() { return TxContext(State, 1, Reg); }

  /// Applies a context's log to the fixture state (simulating commit).
  void commit(const TxContext &Tx) { stm::applyLog(State, Tx.log()); }
};

} // namespace

TEST(TxVarTest, IntRoundTrip) {
  Fixture F;
  TxIntVar V = TxIntVar::create(F.Reg, "x");
  TxContext Tx = F.fresh();
  EXPECT_EQ(V.get(Tx), 0);
  EXPECT_EQ(V.get(Tx, 42), 42); // Default for unset.
  V.set(Tx, 7);
  EXPECT_EQ(V.get(Tx), 7);
  F.commit(Tx);
  TxContext Tx2 = F.fresh();
  EXPECT_EQ(V.get(Tx2), 7);
}

TEST(TxVarTest, StrRoundTrip) {
  Fixture F;
  TxStrVar V = TxStrVar::create(F.Reg, "s");
  TxContext Tx = F.fresh();
  EXPECT_EQ(V.get(Tx), "");
  V.set(Tx, "hello");
  EXPECT_EQ(V.get(Tx), "hello");
}

TEST(TxVarTest, RelaxationSpecIsRegistered) {
  Fixture F;
  TxIntVar V = TxIntVar::create(
      F.Reg, "maxColor", RelaxationSpec{/*TolerateRAW=*/true,
                                        /*TolerateWAW=*/false});
  EXPECT_TRUE(F.Reg.info(V.object()).Relax.TolerateRAW);
  EXPECT_FALSE(F.Reg.info(V.object()).Relax.TolerateWAW);
}

TEST(TxCounterTest, AddsAreSemanticOps) {
  Fixture F;
  TxCounter C = TxCounter::create(F.Reg, "work");
  TxContext Tx = F.fresh();
  C.add(Tx, 5);
  C.sub(Tx, 2);
  EXPECT_EQ(C.get(Tx), 3);
  // The log must contain semantic Adds, not read-modify-writes.
  ASSERT_EQ(Tx.log().size(), 3u);
  EXPECT_EQ(Tx.log()[0].Op.Kind, LocOpKind::Add);
  EXPECT_EQ(Tx.log()[0].Op.Operand, Value::of(5));
  EXPECT_EQ(Tx.log()[1].Op.Operand, Value::of(-2));
  EXPECT_EQ(Tx.log()[2].Op.Kind, LocOpKind::Read);
}

TEST(TxArrayTest, PerElementLocations) {
  Fixture F;
  TxIntArray A = TxIntArray::create(F.Reg, "color");
  EXPECT_EQ(F.Reg.info(A.object()).LocClass, "color.elem");
  TxContext Tx = F.fresh();
  A.writeAt(Tx, 3, 7);
  A.addAt(Tx, 4, 2);
  EXPECT_EQ(A.readAt(Tx, 3), 7);
  EXPECT_EQ(A.readAt(Tx, 4), 2);
  EXPECT_EQ(A.readAt(Tx, 99), 0);
  EXPECT_EQ(A.readAt(Tx, 99, -1), -1);
  EXPECT_NE(A.locationAt(3), A.locationAt(4));
}

TEST(TxBitSetTest, SetClearGet) {
  Fixture F;
  TxBitSet B = TxBitSet::create(F.Reg, "used", 16);
  TxContext Tx = F.fresh();
  EXPECT_FALSE(B.get(Tx, 3));
  B.set(Tx, 3);
  EXPECT_TRUE(B.get(Tx, 3));
  B.clear(Tx, 3);
  EXPECT_FALSE(B.get(Tx, 3));
}

TEST(TxBitSetTest, ClearAllResetsEveryBit) {
  Fixture F;
  TxBitSet B = TxBitSet::create(F.Reg, "used", 8);
  TxContext Tx = F.fresh();
  B.set(Tx, 1);
  B.set(Tx, 5);
  B.clearAll(Tx);
  for (int64_t I = 0; I != 8; ++I)
    EXPECT_FALSE(B.get(Tx, I));
}

TEST(TxMapTest, PutGetContainsErase) {
  Fixture F;
  TxMap M = TxMap::create(F.Reg, "attrs");
  TxContext Tx = F.fresh();
  EXPECT_FALSE(M.contains(Tx, "k"));
  EXPECT_EQ(M.get(Tx, "k"), std::nullopt);
  M.put(Tx, "k", Value::of(3));
  EXPECT_TRUE(M.contains(Tx, "k"));
  EXPECT_EQ(M.get(Tx, "k"), Value::of(3));
  M.erase(Tx, "k");
  EXPECT_FALSE(M.contains(Tx, "k"));
}

TEST(TxMapTest, AddAtIsAReductionFromAbsent) {
  Fixture F;
  TxMap M = TxMap::create(F.Reg, "counters");
  TxContext Tx = F.fresh();
  M.addAt(Tx, "rule0", 1);
  M.addAt(Tx, "rule0", 1);
  EXPECT_EQ(M.get(Tx, "rule0"), Value::of(2));
}

TEST(TxListTest, PushPopIdentity) {
  Fixture F;
  TxList L = TxList::create(F.Reg, "items");
  TxContext Tx = F.fresh();
  EXPECT_EQ(L.size(Tx), 0);
  L.pushBack(Tx, Value::of(10));
  L.pushBack(Tx, Value::of(20));
  EXPECT_EQ(L.size(Tx), 2);
  EXPECT_EQ(L.at(Tx, 1), Value::of(20));
  L.popBack(Tx);
  L.popBack(Tx);
  EXPECT_EQ(L.size(Tx), 0);
  // Identity: committing this log leaves the list cells exactly as
  // they started (erased, not stale).
  F.commit(Tx);
  TxContext Tx2 = F.fresh();
  EXPECT_EQ(L.size(Tx2), 0);
  EXPECT_TRUE(L.at(Tx2, 0).isAbsent());
  EXPECT_TRUE(L.at(Tx2, 1).isAbsent());
}

TEST(TxListTest, SizeCellExhibitsPushPopPattern) {
  Fixture F;
  TxList L = TxList::create(F.Reg, "items");
  TxContext Tx = F.fresh();
  L.pushBack(Tx, Value::of(1));
  L.popBack(Tx);
  // Size-cell operations: R, W(+1), R, W(-1) — the pattern the
  // abstraction collapses (see abstraction_test).
  int SizeOps = 0;
  for (const stm::LogEntry &E : Tx.log())
    if (E.Loc == L.sizeLocation())
      ++SizeOps;
  EXPECT_EQ(SizeOps, 4);
}

TEST(TxCanvasTest, PixelsAndClipping) {
  Fixture F;
  TxCanvas C = TxCanvas::create(F.Reg, "display", 16, 16);
  TxContext Tx = F.fresh();
  C.setPixel(Tx, 3, 4, "red");
  EXPECT_EQ(C.getPixel(Tx, 3, 4), "red");
  EXPECT_EQ(C.getPixel(Tx, 0, 0), "");
  // Out-of-bounds writes are clipped, not crashes.
  C.setPixel(Tx, -1, 0, "red");
  C.setPixel(Tx, 16, 0, "red");
}

TEST(TxCanvasTest, DrawLineCoversEndpoints) {
  Fixture F;
  TxCanvas C = TxCanvas::create(F.Reg, "display", 16, 16);
  TxContext Tx = F.fresh();
  C.drawLine(Tx, 1, 1, 6, 4, "black");
  EXPECT_EQ(C.getPixel(Tx, 1, 1), "black");
  EXPECT_EQ(C.getPixel(Tx, 6, 4), "black");
}

TEST(TxCanvasTest, FillOvalPaintsCenter) {
  Fixture F;
  TxCanvas C = TxCanvas::create(F.Reg, "display", 32, 32);
  TxContext Tx = F.fresh();
  C.fillOval(Tx, 4, 4, 8, 6, "gray");
  EXPECT_EQ(C.getPixel(Tx, 8, 7), "gray");  // Center.
  EXPECT_EQ(C.getPixel(Tx, 4, 4), "");      // Corner outside ellipse.
}

TEST(TxCanvasTest, EqualWritesProduceIdenticalLogEntries) {
  // Two transactions painting the same pixel the same color produce
  // operationally equal writes — the equal-writes pattern's premise.
  Fixture F;
  TxCanvas C = TxCanvas::create(F.Reg, "display", 8, 8);
  TxContext T1 = F.fresh(), T2 = F.fresh();
  C.setPixel(T1, 2, 2, "black");
  C.setPixel(T2, 2, 2, "black");
  ASSERT_EQ(T1.log().size(), 1u);
  EXPECT_EQ(T1.log()[0].Loc, T2.log()[0].Loc);
  EXPECT_EQ(T1.log()[0].Op, T2.log()[0].Op);
}

#include "janus/adt/TxQueue.h"

TEST(TxQueueTest, FifoSemantics) {
  Fixture F;
  TxQueue Q = TxQueue::create(F.Reg, "jobs");
  TxContext Tx = F.fresh();
  EXPECT_TRUE(Q.empty(Tx));
  EXPECT_EQ(Q.dequeue(Tx), std::nullopt);
  Q.enqueue(Tx, Value::of(1));
  Q.enqueue(Tx, Value::of(2));
  Q.enqueue(Tx, Value::of(3));
  EXPECT_EQ(Q.size(Tx), 3);
  EXPECT_EQ(Q.front(Tx), Value::of(1));
  EXPECT_EQ(Q.dequeue(Tx), Value::of(1));
  EXPECT_EQ(Q.dequeue(Tx), Value::of(2));
  EXPECT_EQ(Q.size(Tx), 1);
  EXPECT_EQ(Q.dequeue(Tx), Value::of(3));
  EXPECT_TRUE(Q.empty(Tx));
}

TEST(TxQueueTest, DequeueErasesConsumedCells) {
  Fixture F;
  TxQueue Q = TxQueue::create(F.Reg, "jobs");
  TxContext Tx = F.fresh();
  Q.enqueue(Tx, Value::of(7));
  Q.dequeue(Tx);
  F.commit(Tx);
  TxContext Tx2 = F.fresh();
  // The consumed cell holds Absent again (identity on the cell).
  EXPECT_TRUE(Tx2.read(Location(Q.object(), int64_t(0))).isAbsent());
}

TEST(TxQueueTest, ProducerAndConsumerTouchDisjointCounters) {
  // A pure producer never accesses the head; a pure consumer (of an
  // already-populated queue) never accesses the tail beyond a read —
  // the structural reason producer/consumer pairs rarely conflict.
  Fixture F;
  TxQueue Q = TxQueue::create(F.Reg, "jobs");
  {
    TxContext Seed = F.fresh();
    Q.enqueue(Seed, Value::of(1));
    Q.enqueue(Seed, Value::of(2));
    F.commit(Seed);
  }
  TxContext Producer = F.fresh();
  Q.enqueue(Producer, Value::of(3));
  bool ProducerTouchesHead = false;
  for (const stm::LogEntry &E : Producer.log())
    if (E.Loc == Q.headLocation())
      ProducerTouchesHead = true;
  EXPECT_FALSE(ProducerTouchesHead);

  TxContext Consumer = F.fresh();
  Q.dequeue(Consumer);
  bool ConsumerWritesTail = false;
  for (const stm::LogEntry &E : Consumer.log())
    if (E.Loc == Q.tailLocation() &&
        E.Op.Kind != symbolic::LocOpKind::Read)
      ConsumerWritesTail = true;
  EXPECT_FALSE(ConsumerWritesTail);
}
