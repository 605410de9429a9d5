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

/// Adds the conflict history's bindings to \p B, offset by
/// TheirParamOffset.
static void addTheirs(Bindings &B, const Bindings &Theirs) {
  for (const auto &[Sym, Val] : Theirs)
    B.insert_or_assign(B.end(), Sym + TheirParamOffset, Val);
}

PairQuery conflict::buildPairQuery(const std::string &LocClass,
                                   const LocOpSeq &Mine,
                                   const LocOpSeq &Theirs,
                                   bool UseAbstraction) {
  abstraction::AbstractResult MineAbs =
      abstractSequence(symbolize(Mine), UseAbstraction);
  abstraction::AbstractResult TheirsAbs =
      abstractSequence(symbolize(Theirs), UseAbstraction);
  PairQuery Q;
  Q.Key = {LocClass, MineAbs.Seq.signature(), TheirsAbs.Seq.signature()};
  Q.MineAbs = std::move(MineAbs.Seq);
  Q.TheirsAbs = std::move(TheirsAbs.Seq);
  Q.Binds = std::move(MineAbs.Binds);
  addTheirs(Q.Binds, TheirsAbs.Binds);
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

std::shared_ptr<const SequenceDetector::InternedAbs>
SequenceDetector::abstracted(const LocOpSeq &Seq) {
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
  {
    // Ids are per distinct signature (not per concrete sequence), so a
    // query's id triple identifies its cache key exactly.
    std::lock_guard<std::mutex> Guard(InternMutex);
    Fresh->Id =
        SigIds.try_emplace(Fresh->Sig, SigIds.size() + 1).first->second;
  }
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
  for (const QueryShard &S : Queries) {
    std::shared_lock<std::shared_mutex> Guard(S.Mutex);
    N += S.Table.size();
  }
  return N;
}

size_t SequenceDetector::uniqueMisses() const {
  return missedQueryKeys().size();
}

std::vector<std::string> SequenceDetector::missedQueryKeys() const {
  std::vector<std::string> Out;
  for (const QueryShard &S : Queries) {
    std::shared_lock<std::shared_mutex> Guard(S.Mutex);
    for (const auto &[Id, E] : S.Table)
      if (!E.MissedKey.empty())
        Out.push_back(E.MissedKey);
  }
  std::sort(Out.begin(), Out.end());
  return Out;
}

void SequenceDetector::resetUniqueQueryTracking() {
  for (QueryShard &S : Queries) {
    std::unique_lock<std::shared_mutex> Guard(S.Mutex);
    S.Table.clear();
  }
}

size_t SequenceDetector::QueryHash::operator()(const QueryRef &R) const {
  size_t H = std::hash<std::string_view>{}(R.LocClass);
  H ^= R.MineId + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  H ^= R.TheirsId + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  return H;
}

SequenceDetector::LearnedAnswer
SequenceDetector::learned(const std::string &LocClass, const InternedAbs &Mine,
                          const InternedAbs &Theirs, const Value &EntryVal) {
  const QueryRef Ref{LocClass, Mine.Id, Theirs.Id};
  QueryShard &S = Queries[QueryHash{}(Ref) & (Stripes - 1)];
  auto Answer = [&](const QueryEntry &E) {
    LearnedAnswer A;
    A.Hit = E.Cond.has_value();
    if (A.Hit) {
      Bindings B = Mine.Abs.Binds;
      addTheirs(B, Theirs.Abs.Binds);
      B[EntrySym] = EntryVal;
      A.Commutes = E.Cond->evaluate(B);
    }
    return A;
  };
  {
    std::shared_lock<std::shared_mutex> Guard(S.Mutex);
    auto It = S.Table.find(Ref);
    if (It != S.Table.end() && It->second.Generation == Cache->generation())
      return Answer(It->second);
  }
  // First sight of the key, or the cache changed since the entry was
  // read. The generation is read before the probe, so an insert racing
  // with the probe leaves the entry stale (probed again next time)
  // rather than wrong.
  const uint64_t Gen = Cache->generation();
  CacheKey Key{LocClass, Mine.Sig, Theirs.Sig};
  std::optional<Condition> Cond = Cache->lookup(Key);
  std::unique_lock<std::shared_mutex> Guard(S.Mutex);
  auto It = S.Table.find(Ref);
  if (It == S.Table.end())
    It = S.Table.emplace(QueryId{LocClass, Mine.Id, Theirs.Id}, QueryEntry())
             .first;
  QueryEntry &E = It->second;
  if (!Cond && E.MissedKey.empty())
    E.MissedKey = Key.toString();
  E.Cond = std::move(Cond);
  E.Generation = Gen;
  return Answer(E);
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
                                         const ObjectInfo &Info) {
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

  std::shared_ptr<const InternedAbs> MineI = abstracted(Mine);
  std::shared_ptr<const InternedAbs> TheirsI = abstracted(Theirs);
  const LearnedAnswer Learned =
      learned(Info.LocClass, *MineI, *TheirsI, EntryVal);

  if (Learned.Hit) {
    ++Stats.CacheHits;
    if (Learned.Commutes)
      return !*Learned.Commutes;
    // The condition could not be evaluated under these bindings (e.g.
    // V0 has an unexpected type); fall through to the default.
  } else {
    ++Stats.CacheMisses;
  }

  if (Config.OnlineFallback) {
    ++Stats.OnlineChecks;
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

  // Private locations are safely ignored: only the common domain is
  // decomposed and analyzed (Figure 8: loc ∈ DOM(mt) ∩ DOM(mc)).
  for (const CommonLocation &C : decomposeCommon(Mine, Committed)) {
    ++Stats.PairQueries;
    const ObjectInfo &Info = Reg.info(C.Loc.Obj);
    Value EntryVal = stm::snapshotValue(Entry, C.Loc);
    if (locationConflicts(EntryVal, C.Mine, C.Theirs, Info)) {
      ++Stats.ConflictsFound;
      return true;
    }
  }
  return false;
}
