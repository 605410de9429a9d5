//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-table verification (Verify.h): reconstructs every cached
/// (location class, signature pair) entry from its persisted key via
/// SigParser, re-derives the Figure 8 check set from the registry's
/// relaxation specs, runs the bounded-exhaustive soundness/precision
/// core, and cross-confirms convictions through the protocol model
/// checker — the reachability side of the differencing-abstraction
/// reduction: an unsound condition, installed in a single-entry cache
/// behind a SequenceDetector whose fallback is the conservative
/// write-set test, must manifest as a serializability violation on some
/// explored schedule of the two concretized transactions.
///
//===----------------------------------------------------------------------===//

#include "janus/verify/Verify.h"

#include "janus/conflict/SequenceDetector.h"
#include "janus/model/ProtocolModel.h"
#include "janus/support/Json.h"
#include "janus/verify/SigParser.h"

#include <cmath>

using namespace janus;
using namespace janus::verify;
using namespace janus::symbolic;
using abstraction::AbstractElem;
using abstraction::AbstractSeq;

namespace {

/// Rejects signatures whose read references point past the reads that
/// precede them (expandOnce asserts on such input; a corrupt or
/// hand-edited table must surface as Unsupported, not as a crash).
bool readRefsWellFormed(const AbstractSeq &Seq) {
  uint32_t UngroupedReads = 0;
  for (const AbstractElem &E : Seq.Elems) {
    if (E.IsGroup) {
      uint32_t BodyReads = 0;
      for (const SymLocOp &Op : E.Body) {
        if (Op.Kind == LocOpKind::Read)
          ++BodyReads;
        else if (Op.Operand.kind() == Term::Kind::ReadPlus &&
                 Op.Operand.readIndex() >= BodyReads)
          return false; // Body-local references only.
      }
      continue;
    }
    if (E.Op.Kind == LocOpKind::Read)
      ++UngroupedReads;
    else if (E.Op.Operand.kind() == Term::Kind::ReadPlus &&
             E.Op.Operand.readIndex() >= UngroupedReads)
      return false;
  }
  return true;
}

/// Collects the parameter symbols appearing inside Kleene-group bodies.
/// Conditions referencing them are rejected at training time (their
/// values vary across repetitions); verification re-checks the
/// invariant on the persisted table.
void collectGroupParams(const AbstractSeq &Seq, SymId Offset,
                        std::set<SymId> &Out) {
  for (const AbstractElem &E : Seq.Elems) {
    if (!E.IsGroup)
      continue;
    for (const SymLocOp &Op : E.Body) {
      if (Op.Kind == LocOpKind::Read)
        continue;
      std::map<SymId, bool> Syms;
      Op.Operand.collectSymbols(Syms);
      for (const auto &[S, Seen] : Syms) {
        (void)Seen;
        if (S != EntrySym)
          Out.insert(S + Offset);
      }
    }
  }
}

/// Applies the conflict-history symbol convention to an expanded
/// sequence (Trainer::cachePair does the same before computing the
/// condition, so persisted conditions use offset ids).
void offsetTheirs(SymLocSeq &Seq) {
  for (SymLocOp &Op : Seq)
    if (Op.Kind != LocOpKind::Read)
      Op.Operand = Op.Operand.mapSymbols([](SymId S) {
        return S == EntrySym ? S : S + conflict::TheirParamOffset;
      });
}

/// Concretizes a symbolic sequence under counterexample bindings into
/// model-checker script ops (reads become plain reads; the model fills
/// their results during exploration).
std::optional<std::vector<model::ScriptOp>>
scriptFor(const Location &Loc, const Value &Entry, const SymLocSeq &Seq,
          const Bindings &B) {
  std::vector<model::ScriptOp> Out;
  Value Cur = Entry;
  std::vector<Value> Reads;
  for (const SymLocOp &Op : Seq) {
    if (Op.Kind == LocOpKind::Read) {
      Reads.push_back(Cur);
      Out.push_back(model::ScriptOp::plain(Loc, LocOp::read()));
      continue;
    }
    Value Operand;
    if (Op.Operand.kind() == Term::Kind::ReadPlus) {
      uint32_t Idx = Op.Operand.readIndex();
      if (Idx >= Reads.size() || !Reads[Idx].isInt())
        return std::nullopt;
      // A write of (latest read + c) keeps its dataflow: as a computed
      // script op the model re-derives the operand from whatever the
      // attempt's snapshot reads, which is precisely what makes a stale
      // snapshot observable in the final state. References to older
      // reads fall back to the concrete value (the model only carries
      // the last read).
      if (Op.Kind == LocOpKind::Write && Idx + 1 == Reads.size()) {
        Value V = Value::of(Reads[Idx].asInt() + Op.Operand.readOffset());
        Out.push_back(
            model::ScriptOp::computedWrite(Loc, 1, Op.Operand.readOffset()));
        Cur = std::move(V);
        continue;
      }
      Operand = Value::of(Reads[Idx].asInt() + Op.Operand.readOffset());
    } else {
      std::optional<Value> V = Op.Operand.evaluate(B);
      if (!V)
        return std::nullopt;
      Operand = std::move(*V);
    }
    if (Op.Kind == LocOpKind::Write) {
      Out.push_back(model::ScriptOp::plain(Loc, LocOp::write(Operand)));
      Cur = Operand;
    } else {
      if (!Operand.isInt())
        return std::nullopt;
      Out.push_back(
          model::ScriptOp::plain(Loc, LocOp::add(Operand.asInt())));
      int64_t Base = Cur.isAbsent() ? 0 : Cur.isInt() ? Cur.asInt() : 0;
      Cur = Value::of(Base + Operand.asInt());
    }
  }
  return Out;
}

/// Reachability confirmation of a conviction: explore every protocol
/// interleaving of the two concretized transactions with the convicted
/// entry installed as the whole detector table. The fallback (write-set
/// test) is conservative, so a serializability violation can only stem
/// from the entry under test. Best-effort: coincidental value equality
/// in the counterexample can canonicalize to a different signature (a
/// cache miss), in which case confirmation simply fails.
bool modelConfirms(const conflict::CacheKey &Key, const Condition &Cond,
                   const SymLocSeq &Mine, const SymLocSeq &Theirs,
                   const Counterexample &Cex) {
  ObjectRegistry Reg;
  ObjectId Obj = Reg.registerObject("verify.probe", Key.LocClass);
  Location Loc(Obj);

  std::optional<std::vector<model::ScriptOp>> SMine =
      scriptFor(Loc, Cex.Entry, Mine, Cex.Binds);
  std::optional<std::vector<model::ScriptOp>> STheirs =
      scriptFor(Loc, Cex.Entry, Theirs, Cex.Binds);
  if (!SMine || !STheirs)
    return false;

  auto Cache = std::make_shared<conflict::CommutativityCache>();
  Cache->insert(Key, Cond);
  conflict::SequenceDetectorConfig Cfg;
  Cfg.OnlineFallback = false; // Misses degrade to the write-set test.
  conflict::SequenceDetector Detector(Cache, Cfg);

  stm::Snapshot Initial;
  if (!Cex.Entry.isAbsent())
    Initial.setInPlace(Loc, Cex.Entry);

  model::ModelResult R = model::exploreProtocol(
      {*STheirs, *SMine}, Detector, Reg, Initial);
  return !R.SerializabilityHeld;
}

void appendEntryJson(JsonWriter &W, const EntryReport &E) {
  const PairResult &R = E.Result;
  W.beginObject();
  W.field("loc_class", std::string_view(E.Key.LocClass));
  W.field("mine", std::string_view(E.Key.MineSig));
  W.field("theirs", std::string_view(E.Key.TheirsSig));
  W.field("condition", std::string_view(E.Condition));
  W.field("verdict", verdictName(R.V));
  W.field("points_checked", R.PointsChecked);
  W.field("admitted", R.AdmittedPoints);
  W.field("commuting", R.CommutingPoints);
  W.field("precision", R.precision());
  if (R.Cex) {
    W.key("counterexample");
    W.beginObject();
    W.field("entry", std::string_view(R.Cex->Entry.toString()));
    W.field("failed_check", std::string_view(R.Cex->FailedCheck));
    W.field("detail", std::string_view(R.Cex->Text));
    W.field("sat_confirmed", R.SatConfirmed);
    W.field("model_confirmed", R.ModelConfirmed);
    W.endObject();
  }
  if (!R.Note.empty())
    W.field("note", std::string_view(R.Note));
  W.endObject();
}

} // namespace

TableReport verify::verifyTable(const conflict::CommutativityCache &Cache,
                                const ObjectRegistry &Reg,
                                const VerifyConfig &Config) {
  // Location class -> relaxation spec, mirroring the trainer's
  // per-location assignment (later registrations win).
  std::map<std::string, RelaxationSpec> ClassRelax;
  for (uint32_t I = 0, E = static_cast<uint32_t>(Reg.size()); I != E; ++I) {
    const ObjectInfo &Info = Reg.info(ObjectId{I});
    ClassRelax[Info.LocClass] = Info.Relax;
  }

  TableReport Report;
  double PrecisionSum = 0.0;
  uint64_t PrecisionCount = 0;

  Cache.forEach([&](const conflict::CacheKey &Key, const Condition &Cond) {
    ++Report.Entries;
    EntryReport ER;
    ER.Key = Key;
    ER.Condition = Cond.toString();
    PairResult &R = ER.Result;

    std::optional<AbstractSeq> MineAbs = parseSignature(Key.MineSig);
    std::optional<AbstractSeq> TheirsAbs = parseSignature(Key.TheirsSig);
    if (!MineAbs || !TheirsAbs || !readRefsWellFormed(*MineAbs) ||
        !readRefsWellFormed(*TheirsAbs)) {
      R.V = Verdict::Unsupported;
      R.Note = "signature outside the abstraction grammar";
    } else {
      // Lemma 5.1's premise: a Kleene group is only sound to pump when
      // its body is idempotent. A persisted group that is not violates
      // the abstraction contract for some repetition count.
      bool GroupsSound = true;
      for (const AbstractSeq *S : {&*MineAbs, &*TheirsAbs})
        for (const AbstractElem &E : S->Elems)
          if (E.IsGroup && !abstraction::isIdempotent(E.Body))
            GroupsSound = false;

      // The trainer refuses conditions over group-body parameters
      // (their values vary across repetitions); re-check the invariant
      // on the persisted entry.
      std::set<SymId> GroupParams;
      collectGroupParams(*MineAbs, 0, GroupParams);
      collectGroupParams(*TheirsAbs, conflict::TheirParamOffset,
                         GroupParams);
      bool CondOnGroupParams = false;
      if (Cond.isConditional()) {
        std::map<SymId, bool> Used;
        Cond.collectSymbols(Used);
        for (const auto &[S, Seen] : Used) {
          (void)Seen;
          if (GroupParams.count(S))
            CondOnGroupParams = true;
        }
      }

      if (!GroupsSound) {
        R.V = Verdict::Unsound;
        R.Note = "group body is not idempotent (Lemma 5.1 premise "
                 "fails for repeated executions)";
      } else if (CondOnGroupParams) {
        R.V = Verdict::Unsound;
        R.Note = "condition depends on group-body parameters, whose "
                 "values vary across repetitions";
      } else {
        SymLocSeq Mine = MineAbs->expandOnce();
        SymLocSeq Theirs = TheirsAbs->expandOnce();
        offsetTheirs(Theirs);

        auto RelaxIt = ClassRelax.find(Key.LocClass);
        RelaxationSpec Relax =
            RelaxIt == ClassRelax.end() ? RelaxationSpec{} : RelaxIt->second;
        ChecksSpec Checks = conflict::checksFor(Relax);

        R = checkPair(Mine, Theirs, Cond, Checks, Config);

        bool FullChecks =
            Checks.Commute && Checks.SameReadA && Checks.SameReadB;
        if (R.V == Verdict::Unsound && R.Cex && Config.UseModel &&
            FullChecks)
          R.ModelConfirmed =
              modelConfirms(Key, Cond, Mine, Theirs, *R.Cex);
      }
    }

    switch (R.V) {
    case Verdict::Sound:
      ++Report.Sound;
      break;
    case Verdict::Unsound:
      ++Report.Unsound;
      break;
    case Verdict::Unsupported:
      ++Report.Unsupported;
      break;
    }
    if (R.V != Verdict::Unsupported && R.PointsChecked > 0) {
      double P = R.precision();
      PrecisionSum += P;
      ++PrecisionCount;
      Report.MinPrecision = std::min(Report.MinPrecision, P);
    }
    Report.EntryReports.push_back(std::move(ER));
  });

  Report.MeanPrecision =
      PrecisionCount == 0 ? 1.0 : PrecisionSum / PrecisionCount;
  return Report;
}

std::string TableReport::toJson() const {
  JsonWriter W;
  W.beginObject();
  W.field("schema_version", JsonSchemaVersion);
  W.field("tool", "janus");
  W.field("command", "verify");
  W.field("entries", Entries);
  W.field("sound", Sound);
  W.field("unsound", Unsound);
  W.field("unsupported", Unsupported);
  W.field("min_precision", MinPrecision);
  W.field("mean_precision", MeanPrecision);
  W.field("clean", clean());
  W.key("findings");
  W.beginArray();
  for (const EntryReport &E : EntryReports)
    if (E.Result.V != Verdict::Sound)
      appendEntryJson(W, E);
  W.endArray();
  W.endObject();
  return W.str();
}

std::string TableReport::toText(bool Verbose) const {
  std::string Out;
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "verified %llu entries: %llu sound, %llu unsound, %llu "
                "unsupported\n",
                (unsigned long long)Entries, (unsigned long long)Sound,
                (unsigned long long)Unsound,
                (unsigned long long)Unsupported);
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf),
                "precision  : min %.3f, mean %.3f (small-scope)\n",
                MinPrecision, MeanPrecision);
  Out += Buf;
  for (const EntryReport &E : EntryReports) {
    const PairResult &R = E.Result;
    if (R.V == Verdict::Sound && !Verbose)
      continue;
    Out += "  [" + std::string(verdictName(R.V)) + "] " +
           E.Key.toString() + "\n";
    Out += "    condition: " + E.Condition + "\n";
    if (R.PointsChecked > 0) {
      std::snprintf(Buf, sizeof(Buf),
                    "    points: %llu checked, %llu admitted, %llu "
                    "commuting, precision %.3f\n",
                    (unsigned long long)R.PointsChecked,
                    (unsigned long long)R.AdmittedPoints,
                    (unsigned long long)R.CommutingPoints, R.precision());
      Out += Buf;
    }
    if (R.Cex) {
      Out += "    counterexample: " + R.Cex->Text + "\n";
      Out += std::string("    confirmed: sat=") +
             (R.SatConfirmed ? "yes" : "no") + ", model=" +
             (R.ModelConfirmed ? "yes" : "no") + "\n";
    }
    if (!R.Note.empty())
      Out += "    note: " + R.Note + "\n";
  }
  return Out;
}
