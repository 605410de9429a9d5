#include "janus/conflict/SequenceDetector.h"

#include <algorithm>
#include <functional>

using namespace janus;
using namespace janus::conflict;
using namespace janus::symbolic;
using abstraction::abstractSequence;
using abstraction::symbolize;

ChecksSpec conflict::checksFor(const RelaxationSpec &Relax) {
  ChecksSpec Checks;
  if (Relax.TolerateRAW) {
    // RAW conflicts tolerable: drop the SAMEREAD checks (cf. Figure 3).
    Checks.SameReadA = false;
    Checks.SameReadB = false;
  }
  if (Relax.TolerateWAW) {
    // WAW conflicts tolerable: drop the final COMMUTE test (cf. Fig 4).
    Checks.Commute = false;
  }
  return Checks;
}

PairQuery conflict::buildPairQuery(const std::string &LocClass,
                                   const LocOpSeq &Mine,
                                   const LocOpSeq &Theirs,
                                   bool UseAbstraction) {
  return buildPairQueryFrom(LocClass,
                            abstractSequence(symbolize(Mine), UseAbstraction),
                            abstractSequence(symbolize(Theirs),
                                             UseAbstraction));
}

PairQuery conflict::buildPairQueryFrom(const std::string &LocClass,
                                       abstraction::AbstractResult MineAbs,
                                       abstraction::AbstractResult TheirsAbs) {
  std::string MineSig = MineAbs.Seq.signature();
  std::string TheirsSig = TheirsAbs.Seq.signature();
  return buildPairQueryFrom(LocClass, std::move(MineAbs),
                            std::move(TheirsAbs), std::move(MineSig),
                            std::move(TheirsSig));
}

PairQuery conflict::buildPairQueryFrom(const std::string &LocClass,
                                       abstraction::AbstractResult MineAbs,
                                       abstraction::AbstractResult TheirsAbs,
                                       std::string MineSig,
                                       std::string TheirsSig) {
  PairQuery Q;
  Q.Key.LocClass = LocClass;
  Q.Key.MineSig = std::move(MineSig);
  Q.Key.TheirsSig = std::move(TheirsSig);
  Q.MineAbs = std::move(MineAbs.Seq);
  Q.TheirsAbs = std::move(TheirsAbs.Seq);

  Q.Binds = std::move(MineAbs.Binds);
  for (const auto &[Sym, Val] : TheirsAbs.Binds)
    Q.Binds[Sym + TheirParamOffset] = Val;

  Q.GroupParams = std::move(MineAbs.GroupParams);
  for (SymId S : TheirsAbs.GroupParams)
    Q.GroupParams.insert(S + TheirParamOffset);
  return Q;
}

SequenceDetector::SequenceDetector(std::shared_ptr<CommutativityCache> Cache,
                                   SequenceDetectorConfig Config)
    : Cache(std::move(Cache)), Config(Config) {
  JANUS_ASSERT(this->Cache != nullptr, "detector requires a cache");
}

/// Injective textual key over a concrete sequence: per op the kind,
/// the length-prefixed operand rendering and the length-prefixed read
/// result rendering.
static std::string memoKey(const LocOpSeq &Seq) {
  std::string Key;
  Key.reserve(Seq.size() * 12);
  for (const LocOp &Op : Seq) {
    Key += static_cast<char>('0' + static_cast<int>(Op.Kind));
    std::string OperandText = Op.Operand.toString();
    Key += std::to_string(OperandText.size()) + ":" + OperandText;
    std::string ReadText = Op.ReadResult.toString();
    Key += std::to_string(ReadText.size()) + ":" + ReadText;
  }
  return Key;
}

uint64_t
SequenceDetector::internIn(std::unordered_map<std::string, uint64_t> &Table,
                           const std::string &Text) {
  {
    std::shared_lock<std::shared_mutex> Guard(InternMutex);
    auto It = Table.find(Text);
    if (It != Table.end())
      return It->second;
  }
  std::unique_lock<std::shared_mutex> Guard(InternMutex);
  auto It = Table.find(Text);
  if (It != Table.end())
    return It->second;
  if (Table.size() >= MaxInternEntries)
    return 0; // Overflow: callers fall back to string-keyed tracking.
  uint64_t Id = Table.size() + 1;
  Table.emplace(Text, Id);
  return Id;
}

std::shared_ptr<const SequenceDetector::InternedAbs>
SequenceDetector::abstracted(const LocOpSeq &Seq) {
  if (!Config.MemoizeSignatures) {
    auto Fresh = std::make_shared<InternedAbs>();
    Fresh->Abs = abstractSequence(symbolize(Seq), Config.UseAbstraction);
    Fresh->Sig = Fresh->Abs.Seq.signature();
    return Fresh;
  }
  std::string Key = memoKey(Seq);
  MemoShard &S = Memos[std::hash<std::string>{}(Key) & (Stripes - 1)];
  {
    std::shared_lock<std::shared_mutex> Guard(S.Mutex);
    auto It = S.Memo.find(Key);
    if (It != S.Memo.end()) {
      // Hash-cons hit: the canonical abstraction, its rendered
      // signature and its id are all reused; nothing is re-derived.
      ++Stats.SignatureInternHits;
      return It->second;
    }
  }
  auto Fresh = std::make_shared<InternedAbs>();
  Fresh->Abs = abstractSequence(symbolize(Seq), Config.UseAbstraction);
  Fresh->Sig = Fresh->Abs.Seq.signature();
  // Ids are per distinct signature (not per concrete sequence), so the
  // unique-query accounting matches the rendered-key accounting even
  // when many concrete sequences share one abstraction.
  Fresh->Id = internIn(SigIds, Fresh->Sig);
  std::unique_lock<std::shared_mutex> Guard(S.Mutex);
  if (S.Memo.size() < MaxMemoEntries / Stripes)
    S.Memo.emplace(std::move(Key), Fresh);
  return Fresh;
}

std::string SequenceDetector::name() const {
  std::string Name = "sequence";
  if (!Config.UseAbstraction)
    Name += "-noabs";
  if (Config.OnlineFallback)
    Name += "-online";
  return Name;
}

size_t SequenceDetector::uniqueQueries() const {
  size_t N = 0;
  for (const TrackShard &S : Tracking) {
    std::lock_guard<std::mutex> Guard(S.Mutex);
    N += S.Seen.size() + S.SeenIds.size();
  }
  return N;
}

size_t SequenceDetector::uniqueMisses() const {
  size_t N = 0;
  for (const TrackShard &S : Tracking) {
    std::lock_guard<std::mutex> Guard(S.Mutex);
    N += S.Missed.size();
  }
  return N;
}

std::vector<std::string> SequenceDetector::missedQueryKeys() const {
  // Keys are disjoint across shards; merge and restore the sorted
  // order the single-set implementation used to provide.
  std::vector<std::string> Out;
  for (const TrackShard &S : Tracking) {
    std::lock_guard<std::mutex> Guard(S.Mutex);
    Out.insert(Out.end(), S.Missed.begin(), S.Missed.end());
  }
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

void SequenceDetector::resetUniqueQueryTracking() {
  for (TrackShard &S : Tracking) {
    std::lock_guard<std::mutex> Guard(S.Mutex);
    S.Seen.clear();
    S.Missed.clear();
    S.SeenIds.clear();
  }
}

void SequenceDetector::trackQuery(const CacheKey &Key, uint64_t MineId,
                                  uint64_t TheirsId, bool Missed) {
  // Fast path: the interned id triple identifies the query without
  // rendering the cache key. Misses additionally materialize the key
  // string (they are rare, and missedQueryKeys() wants text).
  if (MineId != 0 && TheirsId != 0) {
    if (uint64_t ClassId = internIn(ClassIds, Key.LocClass)) {
      std::array<uint64_t, 3> IdKey{ClassId, MineId, TheirsId};
      uint64_t H = ClassId * 0x9e3779b97f4a7c15ULL;
      H ^= MineId + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
      H ^= TheirsId + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
      TrackShard &S = Tracking[H & (Stripes - 1)];
      std::lock_guard<std::mutex> Guard(S.Mutex);
      S.SeenIds.insert(IdKey);
      if (Missed)
        S.Missed.insert(Key.toString());
      return;
    }
  }
  std::string KeyStr = Key.toString();
  TrackShard &S = Tracking[std::hash<std::string>{}(KeyStr) & (Stripes - 1)];
  std::lock_guard<std::mutex> Guard(S.Mutex);
  if (Missed)
    S.Missed.insert(KeyStr);
  S.Seen.insert(std::move(KeyStr));
}

/// \returns true when every read in \p Seq is preceded (within the
/// sequence) by a Write to the location: such reads observe a value the
/// sequence itself determined, so they are insensitive to the entry
/// state and to any sequence evaluated before this one.
static bool readsCoveredByOwnWrites(const LocOpSeq &Seq) {
  bool Defined = false;
  for (const LocOp &Op : Seq) {
    switch (Op.Kind) {
    case LocOpKind::Write:
      Defined = true;
      break;
    case LocOpKind::Add:
      // An Add folds the prior value in: reads after it become
      // entry-dependent again unless a Write re-defines the cell.
      if (!Defined)
        return false;
      break;
    case LocOpKind::Read:
      if (!Defined)
        return false;
      break;
    }
  }
  return true;
}

/// \returns true when the sequence writes the location (the write-set
/// test's per-location predicate).
static bool seqWrites(const LocOpSeq &Seq) {
  for (const LocOp &Op : Seq)
    if (Op.Kind != LocOpKind::Read)
      return true;
  return false;
}

bool SequenceDetector::locationConflicts(const Value &EntryVal,
                                         const LocOpSeq &Mine,
                                         const LocOpSeq &Theirs,
                                         const ObjectInfo &Info,
                                         bool Degrade) {
  ChecksSpec Checks = checksFor(Info.Relax);

  // Tier 1: the per-ADT spec table (conflict/SpecTable.h). A hit is an
  // exact Figure 8 verdict computed in one pass over the concrete
  // pair — no symbolization, no signature rendering, no cache probe.
  if (Config.Specs != SpecMode::Off) {
    if (SpecFn Spec = specFor(Info.Kind)) {
      switch (Spec(EntryVal, Mine, Theirs, Checks)) {
      case SpecVerdict::Commutes:
        ++Stats.SpecHits;
        return false;
      case SpecVerdict::Conflicts:
        ++Stats.SpecHits;
        return true;
      case SpecVerdict::Abstain:
        ++Stats.SpecAbstains;
        break;
      }
    }
    if (Config.Specs == SpecMode::Only) {
      // Isolation mode: abstains (and spec-less objects) bypass the
      // learned tiers and are answered by the write-set test.
      ++Stats.WriteSetChecks;
      return seqWrites(Mine) || seqWrites(Theirs);
    }
  }

  // Fast path for tolerate-WAW objects (§5.3): with the COMMUTE test
  // dropped, the only remaining concern is SAMEREAD — and a sequence
  // whose every read follows its own defining write observes values
  // that are independent of the other sequence. This is exactly the
  // define-before-use reasoning the paper gives for ignoring WAW
  // dependencies; it needs no cache entry at all.
  if (Config.RelaxationFastPath && !Checks.Commute &&
      (!Checks.SameReadA || readsCoveredByOwnWrites(Mine)) &&
      (!Checks.SameReadB || readsCoveredByOwnWrites(Theirs)))
    return false;

  // Adaptive degradation: the budget ran out, so skip symbolization,
  // abstraction, cache consultation and online evaluation and answer
  // with the (sound, conservative) write-set test. The paper's
  // validity requirement only needs under-approximation of
  // commutativity, so over-reporting conflicts here merely costs a
  // retry, never correctness.
  if (Degrade) {
    ++Stats.DegradedQueries;
    ++Stats.WriteSetChecks;
    return seqWrites(Mine) || seqWrites(Theirs);
  }

  std::shared_ptr<const InternedAbs> MineI = abstracted(Mine);
  std::shared_ptr<const InternedAbs> TheirsI = abstracted(Theirs);
  PairQuery Q = buildPairQueryFrom(Info.LocClass, MineI->Abs, TheirsI->Abs,
                                   MineI->Sig, TheirsI->Sig);

  std::optional<Condition> Cached = Cache->lookup(Q.Key);
  trackQuery(Q.Key, MineI->Id, TheirsI->Id, /*Missed=*/!Cached);

  if (Cached) {
    ++Stats.CacheHits;
    Bindings B = Q.Binds;
    B[EntrySym] = EntryVal;
    if (std::optional<bool> Commutes = Cached->evaluate(B))
      return !*Commutes;
    // The condition could not be evaluated under these bindings (e.g.
    // V0 has an unexpected type); fall through to the default.
  } else {
    ++Stats.CacheMisses;
  }

  if (Config.OnlineFallback) {
    ++Stats.OnlineChecks;
    if (Config.MemoizeOnline && !Cached) {
      // Online training: compute and install the condition the offline
      // trainer would have produced for this pair, so the next
      // occurrence of the query is a hit.
      std::optional<Condition> Cond = commutativityCondition(
          Q.MineAbs.expandOnce(),
          [&Q]() {
            SymLocSeq Theirs = Q.TheirsAbs.expandOnce();
            for (SymLocOp &Op : Theirs)
              if (Op.Kind != LocOpKind::Read)
                Op.Operand = Op.Operand.mapSymbols([](SymId S) {
                  return S == EntrySym ? S : S + TheirParamOffset;
                });
            return Theirs;
          }(),
          Checks);
      if (Cond) {
        bool UsesGroupParam = false;
        if (Cond->isConditional()) {
          std::map<SymId, bool> Used;
          Cond->collectSymbols(Used);
          for (const auto &[Sym, Flag] : Used) {
            (void)Flag;
            UsesGroupParam = UsesGroupParam || Q.GroupParams.count(Sym);
          }
        }
        if (!UsesGroupParam)
          Cache->insert(Q.Key, std::move(*Cond));
      }
    }
    return conflictOnline(EntryVal, Mine, Theirs, Checks);
  }

  // Write-set fallback on this location: both histories access it, so
  // there is a conflict exactly when either one writes it.
  ++Stats.WriteSetChecks;
  return seqWrites(Mine) || seqWrites(Theirs);
}

bool SequenceDetector::detectConflicts(const stm::Snapshot &Entry,
                                       const stm::TxLog &Mine,
                                       const std::vector<stm::TxLogRef> &Committed,
                                       const ObjectRegistry &Reg) {
  if (Committed.empty())
    return false; // Validity: empty conflict history never conflicts.

  Decomposition MineD = decompose(Mine);
  Decomposition TheirsD = decomposeAll(Committed);

  // Private locations are safely ignored: only the common domain is
  // analyzed (Figure 8: loc ∈ DOM(mt) ∩ DOM(mc)).
  for (const auto &[Loc, MySeq] : MineD) {
    auto It = TheirsD.find(Loc);
    if (It == TheirsD.end())
      continue;
    ++Stats.PairQueries;
    const ObjectInfo &Info = Reg.info(Loc.Obj);
    Value EntryVal = stm::snapshotValue(Entry, Loc);
    const bool Degrade =
        Config.OnlineOpBudget != 0 &&
        MySeq.size() + It->second.size() > Config.OnlineOpBudget;
    if (locationConflicts(EntryVal, MySeq, It->second, Info, Degrade)) {
      ++Stats.ConflictsFound;
      return true;
    }
  }
  return false;
}
