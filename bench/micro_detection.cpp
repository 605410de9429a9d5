//===----------------------------------------------------------------------===//
///
/// \file
/// Micro-benchmarks backing the paper's §3 efficiency claim: "there is
/// no instrumentation overhead beyond that of the write-set approach,
/// and the complexity of the detection algorithm is also comparable to
/// write-set-based detection".
///
/// Measures, on synthetic logs: write-set detection, sequence detection
/// answered from the cache, the exact online sequence check, log
/// decomposition (whole, and over the common domain detection uses),
/// SAT equivalence queries, snapshot costs (persistent map vs deep
/// copy), and applying a committed log to a snapshot (replay).
///
/// The per-tier breakdown (DESIGN.md §14) is the trio
/// BM_SequenceDetectSpec / BM_SequenceDetectCached /
/// BM_SequenceDetectOnline: the same logs answered by the tier-1 spec
/// table, the learned tier (memo hit + query-table hit + condition
/// evaluation), and the exact online replay. Compare their ns/query at
/// equal Arg.
///
//===----------------------------------------------------------------------===//

#include "janus/conflict/SequenceDetector.h"
#include "janus/persist/PersistentMap.h"
#include "janus/sat/PropFormula.h"
#include "janus/stm/Detector.h"
#include "janus/stm/Snapshot.h"
#include "janus/support/Rng.h"

#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <vector>

using namespace janus;
using namespace janus::stm;
using symbolic::LocOp;

namespace {

/// Builds a transaction log touching \p Locs locations with \p OpsPer
/// operations each (the identity add/subtract pattern).
TxLog makeLog(ObjectId Obj, int Locs, int OpsPer, int64_t Salt) {
  TxLog Log;
  for (int L = 0; L != Locs; ++L)
    for (int O = 0; O != OpsPer; O += 2) {
      Log.push_back({Location(Obj, L), LocOp::add(Salt + O)});
      Log.push_back({Location(Obj, L), LocOp::add(-(Salt + O))});
    }
  return Log;
}

struct DetectorFixture {
  ObjectRegistry Reg;
  ObjectId Obj;
  std::shared_ptr<conflict::CommutativityCache> Cache;
  TxLog Mine;
  std::vector<TxLogRef> Committed;

  explicit DetectorFixture(int Locs, int OpsPer, bool DeclareAdt = false)
      : Cache(std::make_shared<conflict::CommutativityCache>()) {
    Obj = Reg.registerObject("work", "work.elem");
    // Declaring the counter ADT makes every pair spec-covered, so the
    // tier-1 table can answer without symbolization or cache probes.
    if (DeclareAdt)
      Reg.declareAdt(Obj, AdtKind::Counter);
    Mine = makeLog(Obj, Locs, OpsPer, 3);
    Committed.push_back(
        std::make_shared<const TxLog>(makeLog(Obj, Locs, OpsPer, 7)));
  }

  /// Populates the cache the way training would for these logs.
  void trainCache() {
    conflict::Decomposition MineD = conflict::decompose(Mine);
    conflict::Decomposition TheirsD = conflict::decomposeAll(Committed);
    for (const auto &[Loc, Seq] : MineD) {
      conflict::PairQuery Q = conflict::buildPairQuery(
          "work.elem", Seq, TheirsD[Loc], /*UseAbstraction=*/true);
      auto Cond = symbolic::commutativityCondition(
          Q.MineAbs.expandOnce(), Q.TheirsAbs.expandOnce());
      Cache->insert(Q.Key, Cond ? *Cond : symbolic::Condition::never());
    }
  }
};

} // namespace

static void BM_WriteSetDetect(benchmark::State &State) {
  DetectorFixture F(static_cast<int>(State.range(0)), 8);
  WriteSetDetector D;
  for (auto _ : State)
    benchmark::DoNotOptimize(
        D.detectConflicts(Snapshot(), F.Mine, F.Committed, F.Reg));
  State.SetItemsProcessed(State.iterations() * F.Mine.size());
}
BENCHMARK(BM_WriteSetDetect)->Arg(4)->Arg(16)->Arg(64);

static void BM_SequenceDetectCached(benchmark::State &State) {
  DetectorFixture F(static_cast<int>(State.range(0)), 8);
  F.trainCache();
  conflict::SequenceDetector D(F.Cache);
  for (auto _ : State)
    benchmark::DoNotOptimize(
        D.detectConflicts(Snapshot(), F.Mine, F.Committed, F.Reg));
  State.SetItemsProcessed(State.iterations() * F.Mine.size());
}
BENCHMARK(BM_SequenceDetectCached)->Arg(4)->Arg(16)->Arg(64);

static void BM_SequenceDetectSpec(benchmark::State &State) {
  // Tier-1: add-only sequences on a declared counter ADT; every pair
  // is answered by the hand-written spec table (no symbolization, no
  // cache probe, no SAT).
  DetectorFixture F(static_cast<int>(State.range(0)), 8,
                    /*DeclareAdt=*/true);
  conflict::SequenceDetectorConfig Cfg;
  Cfg.Specs = conflict::SpecMode::On;
  conflict::SequenceDetector D(F.Cache, Cfg); // Empty cache: spec only.
  for (auto _ : State)
    benchmark::DoNotOptimize(
        D.detectConflicts(Snapshot(), F.Mine, F.Committed, F.Reg));
  State.SetItemsProcessed(State.iterations() * F.Mine.size());
}
BENCHMARK(BM_SequenceDetectSpec)->Arg(4)->Arg(16)->Arg(64);

static void BM_SequenceDetectOnline(benchmark::State &State) {
  DetectorFixture F(static_cast<int>(State.range(0)), 8);
  conflict::SequenceDetectorConfig Cfg;
  Cfg.OnlineFallback = true;
  conflict::SequenceDetector D(F.Cache, Cfg); // Empty cache: all online.
  for (auto _ : State)
    benchmark::DoNotOptimize(
        D.detectConflicts(Snapshot(), F.Mine, F.Committed, F.Reg));
  State.SetItemsProcessed(State.iterations() * F.Mine.size());
}
BENCHMARK(BM_SequenceDetectOnline)->Arg(4)->Arg(16)->Arg(64);

//===--------------------------------------------------------------------===//
// Per-pair-query tier costs. The BM_SequenceDetect* trio above times
// many locations per call; this trio times ONE pair query, which is the
// §14 "ns/query" comparison: the spec table answers in a predicate
// evaluation, a warm learned-tier query pays what the runtime pays (a
// one-location detect call: decompose, two memo hits, a query-table
// hit and a condition evaluation), and a miss that is learned online
// pays condition synthesis (symbolize, abstract and symbolic replay of
// both orders).
//===--------------------------------------------------------------------===//

static void BM_PairQuerySpec(benchmark::State &State) {
  conflict::SpecFn Fn = conflict::specFor(AdtKind::Counter);
  symbolic::LocOpSeq Mine{LocOp::add(3), LocOp::add(-3)};
  symbolic::LocOpSeq Theirs{LocOp::add(7), LocOp::add(-7)};
  Value Entry = Value::of(int64_t(5));
  symbolic::ChecksSpec Checks;
  for (auto _ : State)
    benchmark::DoNotOptimize(Fn(Entry, Mine, Theirs, Checks));
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_PairQuerySpec);

static void BM_PairQueryCached(benchmark::State &State) {
  // The same pair as BM_PairQuerySpec: one location, add(3) add(-3)
  // against add(7) add(-7).
  DetectorFixture F(/*Locs=*/1, /*OpsPer=*/2);
  F.trainCache();
  conflict::SequenceDetector D(F.Cache);
  // Warm the signature memo and the query table.
  D.detectConflicts(Snapshot(), F.Mine, F.Committed, F.Reg);
  for (auto _ : State)
    benchmark::DoNotOptimize(
        D.detectConflicts(Snapshot(), F.Mine, F.Committed, F.Reg));
  if (D.stats().CacheHits.load() !=
      static_cast<uint64_t>(State.iterations()) + 1)
    State.SkipWithError("query was not answered from the learned tier");
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_PairQueryCached);

static void BM_PairQuerySynthesis(benchmark::State &State) {
  symbolic::LocOpSeq Mine{LocOp::add(3), LocOp::add(-3)};
  symbolic::LocOpSeq Theirs{LocOp::add(7), LocOp::add(-7)};
  for (auto _ : State) {
    conflict::PairQuery Q =
        conflict::buildPairQuery("work.elem", Mine, Theirs, true);
    benchmark::DoNotOptimize(symbolic::commutativityCondition(
        Q.MineAbs.expandOnce(), Q.TheirsAbs.expandOnce()));
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_PairQuerySynthesis);

static void BM_Decompose(benchmark::State &State) {
  DetectorFixture F(static_cast<int>(State.range(0)), 8);
  for (auto _ : State)
    benchmark::DoNotOptimize(conflict::decompose(F.Mine));
}
BENCHMARK(BM_Decompose)->Arg(4)->Arg(64);

static void BM_CommonDomain(benchmark::State &State) {
  // DECOMPOSE as detection runs it: one mine log against a three-log
  // window, collecting only the locations both sides touch.
  const int Locs = static_cast<int>(State.range(0));
  DetectorFixture F(Locs, 8);
  for (int64_t Salt : {11, 13})
    F.Committed.push_back(
        std::make_shared<const TxLog>(makeLog(F.Obj, Locs, 8, Salt)));
  for (auto _ : State)
    benchmark::DoNotOptimize(conflict::decomposeCommon(F.Mine, F.Committed));
}
BENCHMARK(BM_CommonDomain)->Arg(4)->Arg(64);

static void BM_SymbolizeAbstract(benchmark::State &State) {
  symbolic::LocOpSeq Seq;
  for (int I = 0; I != State.range(0); ++I) {
    Seq.push_back(LocOp::add(I + 1));
    Seq.push_back(LocOp::add(-(I + 1)));
  }
  for (auto _ : State)
    benchmark::DoNotOptimize(
        abstraction::abstractSequence(abstraction::symbolize(Seq), true));
}
BENCHMARK(BM_SymbolizeAbstract)->Arg(2)->Arg(8)->Arg(32);

static void BM_SatEquivalence(benchmark::State &State) {
  // The §6.2 equivalence query on a medium formula pair.
  for (auto _ : State) {
    sat::FormulaArena A;
    sat::Formula F = A.mkTrue(), G = A.mkTrue();
    for (uint32_t I = 0; I != 12; ++I) {
      F = A.mkAnd(F, A.mkOr(A.mkAtom(I), A.mkNot(A.mkAtom(I + 1))));
      G = A.mkAnd(G, A.mkNot(A.mkAnd(A.mkNot(A.mkAtom(I)), A.mkAtom(I + 1))));
    }
    benchmark::DoNotOptimize(sat::checkEquivalent(A, F, G, {}));
  }
}
BENCHMARK(BM_SatEquivalence);

static void BM_PersistentSnapshot(benchmark::State &State) {
  // O(1) snapshot of an N-entry store (the CREATETRANSACTION cost with
  // persistent versioning, §4.1).
  persist::PersistentMap<int, int> M;
  for (int I = 0; I != State.range(0); ++I)
    M = M.set(I, I);
  for (auto _ : State) {
    persist::PersistentMap<int, int> Snap = M;
    benchmark::DoNotOptimize(Snap);
    // One private write on the snapshot (path copy).
    benchmark::DoNotOptimize(Snap.set(0, -1));
  }
}
BENCHMARK(BM_PersistentSnapshot)->Arg(1000)->Arg(100000);

static void BM_ApplyLog(benchmark::State &State) {
  // Replay as the commit path runs it: a frozen copy of an N-entry
  // store, then a 20-entry log shaped like a JGraphT-1 task (10 reads,
  // 10 writes) applied in place through stm::applyLog.
  ObjectRegistry Reg;
  ObjectId Obj = Reg.registerObject("color");
  const int N = static_cast<int>(State.range(0));
  Snapshot Store;
  for (int I = 0; I != N; ++I)
    Store.setInPlace(Location(Obj, I), Value::of(int64_t(I % 7)));
  TxLog Log;
  for (int I = 0; I != 10; ++I) {
    Location Loc(Obj, (I * 97) % N);
    Log.push_back({Loc, LocOp::read(Value::of(int64_t(I % 7)))});
    Log.push_back({Loc, LocOp::write(Value::of(int64_t(I)))});
  }
  for (auto _ : State) {
    Snapshot Replayed = Store;
    applyLog(Replayed, Log);
    benchmark::DoNotOptimize(Replayed);
  }
  State.SetItemsProcessed(State.iterations() * Log.size());
}
BENCHMARK(BM_ApplyLog)->Arg(1000);

static void BM_DeepCopySnapshot(benchmark::State &State) {
  // The naive alternative: deep-copying the store at transaction begin.
  std::map<int, int> M;
  for (int I = 0; I != State.range(0); ++I)
    M[I] = I;
  for (auto _ : State) {
    std::map<int, int> Snap = M;
    Snap[0] = -1;
    benchmark::DoNotOptimize(Snap);
  }
}
BENCHMARK(BM_DeepCopySnapshot)->Arg(1000)->Arg(100000);

int main(int Argc, char **Argv) {
  // Route the repo-wide --json / --json-out=PATH convention onto
  // google-benchmark's own JSON reporter so every bench binary shares
  // one perf-trajectory interface (see BenchCommon.h).
  std::vector<char *> Args;
  std::vector<std::string> Own;
  std::string OutPath = "BENCH_micro_detection.json";
  bool Json = false;
  for (int I = 0; I != Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--json") {
      Json = true;
      continue;
    }
    if (A.rfind("--json-out=", 0) == 0) {
      Json = true;
      OutPath = A.substr(std::string("--json-out=").size());
      continue;
    }
    Args.push_back(Argv[I]);
  }
  if (Json) {
    Own.push_back("--benchmark_out=" + OutPath);
    Own.push_back("--benchmark_out_format=json");
  }
  for (std::string &S : Own)
    Args.push_back(S.data());
  int N = static_cast<int>(Args.size());
  benchmark::Initialize(&N, Args.data());
  if (benchmark::ReportUnrecognizedArguments(N, Args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
