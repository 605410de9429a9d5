#include "janus/training/Trainer.h"

#include "janus/stm/Attempt.h"
#include "janus/verify/RelationalCheck.h"
#include "janus/verify/Verify.h"

#include <set>
#include <unordered_map>

using namespace janus;
using namespace janus::training;
using namespace janus::symbolic;
using conflict::buildPairQuery;
using conflict::PairQuery;

Trainer::Trainer(ObjectRegistry &Reg,
                 std::shared_ptr<conflict::CommutativityCache> Cache,
                 TrainerConfig Config)
    : Reg(Reg), Cache(std::move(Cache)), Config(Config) {
  JANUS_ASSERT(this->Cache != nullptr, "trainer requires a cache");
}

void Trainer::trainOn(stm::Snapshot &State,
                      const std::vector<stm::TaskFn> &Tasks) {
  Stats.TasksRun += Tasks.size();
  // Training-phase spans land on the auxiliary lane (no worker lane
  // exists outside a run); with JANUS_OBS=OFF every block is dead code.
  obs::Observer *const O = obs::janusObs(Config.Obs);
  const double ExecTs = O ? O->nowUs() : 0.0;

  // Sequential, synchronization-free execution with logging.
  std::vector<stm::TxLog> Logs;
  Logs.reserve(Tasks.size());
  for (size_t I = 0, E = Tasks.size(); I != E; ++I) {
    stm::TxContext Tx(State, static_cast<uint32_t>(I + 1), Reg);
    if (!stm::runBody(Tasks[I], Tx)) {
      // A throwing training payload contributes nothing: its partial
      // log is neither applied nor mined (the runtimes discard such
      // attempts too), and the remaining payloads still train.
      Logs.push_back(stm::TxLog{});
      continue;
    }
    State = Tx.privatizedState();
    Logs.push_back(Tx.log());
  }

  if (O)
    O->span(O->auxLane(), "train-exec", /*Tid=*/0, /*Attempt=*/0, ExecTs,
            O->nowUs() - ExecTs, "tasks", static_cast<double>(Tasks.size()));

  const double MineTs = O ? O->nowUs() : 0.0;
  DependenceGraph Graph(Logs);
  auto Subs = Graph.taskSubsequences();

  // Record the location value at the start of each subsequence (used
  // as the sample entry state for SAT cross-checks). Replay the logs in
  // order, tracking values and subsequence boundaries.
  std::map<Location, std::vector<Value>> SubEntryValues;
  {
    std::map<Location, Value> Running;
    std::map<Location, uint32_t> LastTask;
    for (size_t T = 0; T != Logs.size(); ++T) {
      for (const stm::LogEntry &E : Logs[T]) {
        auto ValIt = Running.find(E.Loc);
        Value Cur = ValIt == Running.end() ? Value::absent() : ValIt->second;
        uint32_t Task = static_cast<uint32_t>(T + 1);
        auto TaskIt = LastTask.find(E.Loc);
        if (TaskIt == LastTask.end() || TaskIt->second != Task) {
          SubEntryValues[E.Loc].push_back(Cur);
          LastTask[E.Loc] = Task;
        }
        Running[E.Loc] = applyLocOp(Cur, E.Op);
      }
    }
  }

  Patterns.mergeWith(PatternReport::analyze(Subs, Reg));
  if (O)
    O->span(O->auxLane(), "train-mine", /*Tid=*/0, /*Attempt=*/0, MineTs,
            O->nowUs() - MineTs, "locations",
            static_cast<double>(Subs.size()));
  if (Config.InferWAWRelaxation) {
    const double RelaxTs = O ? O->nowUs() : 0.0;
    inferRelaxations(Subs);
    if (O)
      O->span(O->auxLane(), "train-relax", /*Tid=*/0, /*Attempt=*/0, RelaxTs,
              O->nowUs() - RelaxTs, "objects",
              static_cast<double>(Stats.InferredWAWObjects));
  }
  const double PairsTs = O ? O->nowUs() : 0.0;
  const uint64_t PairsBefore = Stats.CandidatePairs;
  minePairs(Subs, SubEntryValues);
  if (O)
    O->span(O->auxLane(), "train-pairs", /*Tid=*/0, /*Attempt=*/0, PairsTs,
            O->nowUs() - PairsTs, "pairs",
            static_cast<double>(Stats.CandidatePairs - PairsBefore));
}

void Trainer::inferRelaxations(
    const std::map<Location, std::vector<TaskSubsequence>> &Subs) {
  // An object qualifies when every task subsequence on every of its
  // locations *defines* the location (plain Write) before any use —
  // the final value is then immaterial under out-of-order execution
  // (paper §5.3: WAW dependencies chaining two transactions are
  // ignored under transitive reduction) — and the object is actually
  // *read* somewhere: a never-read object's writes are program output
  // (e.g. the rendered pixels of the Weka canvas), not a scratch pad,
  // so its final value must stay synchronized (equal-writes handles
  // those).
  std::map<uint32_t, bool> DefineFirst; // ObjectId -> qualifies so far.
  std::map<uint32_t, bool> EverRead;
  for (const auto &[Loc, SubList] : Subs) {
    bool &Flag = DefineFirst.try_emplace(Loc.Obj.Id, true).first->second;
    bool &Read = EverRead.try_emplace(Loc.Obj.Id, false).first->second;
    for (const TaskSubsequence &Sub : SubList) {
      JANUS_ASSERT(!Sub.Seq.empty(), "empty mined subsequence");
      if (Sub.Seq.front().Kind != LocOpKind::Write)
        Flag = false;
      for (const LocOp &Op : Sub.Seq)
        if (Op.Kind == LocOpKind::Read)
          Read = true;
    }
  }
  for (const auto &[ObjId, Qualifies] : DefineFirst) {
    if (!Qualifies || !EverRead[ObjId])
      continue;
    ObjectId Obj{ObjId};
    RelaxationSpec Relax = Reg.info(Obj).Relax;
    if (Relax.TolerateWAW)
      continue;
    Relax.TolerateWAW = true;
    Reg.setRelaxation(Obj, Relax);
    ++Stats.InferredWAWObjects;
  }
}

void Trainer::minePairs(
    const std::map<Location, std::vector<TaskSubsequence>> &Subs,
    const std::map<Location, std::vector<Value>> &SubEntryValues) {
  // Unique representatives per location class, keyed by canonical
  // signature.
  struct ClassData {
    std::set<std::string> MineSigs, TheirSigs;
    std::vector<Rep> MineReps;
    std::vector<LocOpSeq> TheirReps;
    RelaxationSpec Relax;
  };
  std::unordered_map<std::string, ClassData> Classes;

  auto SigOf = [this](const LocOpSeq &Seq) {
    return abstraction::abstractSequence(abstraction::symbolize(Seq),
                                         Config.UseAbstraction)
        .Seq.signature();
  };

  for (const auto &[Loc, SubList] : Subs) {
    ++Stats.LocationsMined;
    const ObjectInfo &Info = Reg.info(Loc.Obj);
    ClassData &CD = Classes[Info.LocClass];
    CD.Relax = Info.Relax;

    const std::vector<Value> *Entries = nullptr;
    if (auto It = SubEntryValues.find(Loc); It != SubEntryValues.end())
      Entries = &It->second;

    for (size_t I = 0, E = SubList.size(); I != E; ++I) {
      ++Stats.SubsequencesMined;
      if (CD.MineReps.size() < Config.MaxUniqueSeqsPerClass &&
          CD.MineSigs.insert(SigOf(SubList[I].Seq)).second) {
        Value Sample = Entries && I < Entries->size() ? (*Entries)[I]
                                                      : Value::absent();
        CD.MineReps.push_back(Rep{SubList[I].Seq, Sample});
      }
      // Conflict-history side: concatenations of consecutive
      // subsequences starting at I.
      LocOpSeq Concat;
      for (size_t K = 0; K != Config.MaxConcat && I + K != E; ++K) {
        const LocOpSeq &Next = SubList[I + K].Seq;
        Concat.insert(Concat.end(), Next.begin(), Next.end());
        if (CD.TheirReps.size() < Config.MaxUniqueSeqsPerClass &&
            CD.TheirSigs.insert(SigOf(Concat)).second)
          CD.TheirReps.push_back(Concat);
      }
    }
  }

  for (const auto &[Class, CD] : Classes) {
    ChecksSpec Checks = conflict::checksFor(CD.Relax);
    for (const Rep &Mine : CD.MineReps)
      for (const LocOpSeq &Theirs : CD.TheirReps)
        cachePair(Class, Mine, Theirs, Checks);
  }
}

void Trainer::cachePair(const std::string &LocClass, const Rep &Mine,
                        const LocOpSeq &Theirs, ChecksSpec Checks) {
  ++Stats.CandidatePairs;
  PairQuery Q =
      buildPairQuery(LocClass, Mine.Seq, Theirs, Config.UseAbstraction);
  if (Cache->lookup(Q.Key))
    return; // Already cached (possibly by an earlier training round).

  SymLocSeq MineExp = Q.MineAbs.expandOnce();
  SymLocSeq TheirsExp = Q.TheirsAbs.expandOnce();
  for (SymLocOp &Op : TheirsExp)
    if (Op.Kind != LocOpKind::Read)
      Op.Operand = Op.Operand.mapSymbols([](SymId S) {
        return S == EntrySym ? S : S + conflict::TheirParamOffset;
      });

  std::optional<Condition> Cond =
      commutativityCondition(MineExp, TheirsExp, Checks);
  if (!Cond) {
    ++Stats.RejectedSymbolic;
    return;
  }

  if (Cond->isConditional()) {
    // Conditions over Kleene-group parameters cannot be evaluated
    // consistently across repetitions; refuse to cache them.
    std::map<SymId, bool> Used;
    Cond->collectSymbols(Used);
    for (const auto &[Sym, SeenFlag] : Used) {
      (void)SeenFlag;
      if (Q.GroupParams.count(Sym)) {
        ++Stats.RejectedGroupParams;
        return;
      }
    }
  }

  if (Config.VerifyWithSat && Cond->isValid() && Checks.Commute) {
    // Independent engine: relational lowering + Table 4 encoding + SAT.
    // It validates the COMMUTE half of the verdict on the sampled
    // concrete entry state.
    ++Stats.SatCrossChecks;
    std::optional<bool> Sat = verify::commuteViaSat(
        Mine.SampleEntry, Mine.Seq, Theirs, Config.SatConflictBudget);
    if (Sat && !*Sat) {
      ++Stats.SatDisagreements;
      return; // Engines disagree: do not cache.
    }
  }

  if (Config.VerifyBeforePublish && !Cond->isNever()) {
    // Publish gate (janus::verify): bounded-exhaustive small-scope
    // replay of both execution orders on every input state the
    // condition admits. A convicted entry is never published — the
    // runtime falls back conservatively on the missing pair instead.
    // (Never-conditions admit nothing and are trivially sound.)
    ++Stats.VerifyChecks;
    obs::Observer *const O = obs::janusObs(Config.Obs);
    const double VerifyTs = O ? O->nowUs() : 0.0;
    verify::VerifyConfig VC;
    VC.IntScope = Config.VerifyScope;
    VC.UseSat = false; // The SAT cross-check above is independent.
    verify::PairResult VR =
        verify::checkPair(MineExp, TheirsExp, *Cond, Checks, VC);
    if (O)
      O->span(O->auxLane(), "train-verify", /*Tid=*/0, /*Attempt=*/0,
              VerifyTs, O->nowUs() - VerifyTs, nullptr, 0.0,
              VR.V == verify::Verdict::Unsound ? "unsound" : nullptr);
    if (VR.V == verify::Verdict::Unsound) {
      ++Stats.VerifyRejected;
      return;
    }
  }

  Cache->insert(std::move(Q.Key), std::move(*Cond));
  ++Stats.CachedEntries;
}
