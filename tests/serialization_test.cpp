//===----------------------------------------------------------------------===//
///
/// \file
/// Round-trip property tests for the persistence layer: Term and
/// Condition text encodings, commutativity-cache serialization through
/// the full training pipeline, and the Janus cache file I/O.
///
//===----------------------------------------------------------------------===//

#include "janus/adt/TxCounter.h"
#include "janus/conflict/CommutativityCache.h"
#include "janus/core/Janus.h"
#include "janus/support/Rng.h"
#include "janus/symbolic/Condition.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace janus;
using namespace janus::symbolic;

namespace {

Term randomTerm(Rng &R) {
  switch (R.below(5)) {
  case 0: {
    // Random non-integer constant.
    switch (R.below(4)) {
    case 0:
      return Term::constant(Value::absent());
    case 1:
      return Term::constant(Value::unit());
    case 2:
      return Term::constant(Value::of(R.chance(1, 2)));
    default:
      return Term::constant(Value::of("s" + std::to_string(R.below(10))));
    }
  }
  case 1: {
    // Random linear term.
    Term T = Term::constant(Value::of(R.range(-50, 50)));
    for (int I = 0, E = static_cast<int>(R.below(3)); I != E; ++I) {
      Term Sym = Term::intSym(static_cast<SymId>(R.below(6)));
      for (int K = 0, C = static_cast<int>(R.below(3)); K != C; ++K)
        Sym = *Term::add(Sym, Term::intSym(static_cast<SymId>(R.below(6))));
      T = *Term::add(T, Sym);
    }
    return T;
  }
  case 2:
    return Term::opaqueSym(static_cast<SymId>(R.below(2000)));
  case 3:
    return Term::readPlus(static_cast<uint32_t>(R.below(8)),
                          R.range(-8, 8));
  default:
    return Term::constant(Value::of(R.range(-1000, 1000)));
  }
}

Condition randomCondition(Rng &R) {
  if (R.chance(1, 8))
    return Condition::never();
  Condition C = Condition::valid();
  for (int I = 0, E = static_cast<int>(R.below(4)); I != E; ++I) {
    Term L = randomTerm(R), Rhs = randomTerm(R);
    // Avoid ReadPlus in conditions (they are resolved before condition
    // construction in the real pipeline, and staticallyEqual asserts).
    if (L.kind() == Term::Kind::ReadPlus ||
        Rhs.kind() == Term::Kind::ReadPlus)
      continue;
    C.requireEqual(L, Rhs);
  }
  return C;
}

} // namespace

class TermRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TermRoundTrip, SerializeDeserializeIsIdentity) {
  Rng R(GetParam());
  for (int Iter = 0; Iter != 500; ++Iter) {
    Term T = randomTerm(R);
    std::string Text;
    T.serialize(Text);
    size_t Pos = 0;
    std::optional<Term> Back = Term::deserialize(Text, Pos);
    ASSERT_TRUE(Back.has_value())
        << "iteration " << Iter << " text '" << Text << "'";
    EXPECT_EQ(*Back, T) << "text '" << Text << "'";
    EXPECT_EQ(Pos, Text.size()) << "trailing garbage consumed";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TermRoundTrip,
                         ::testing::Values(61, 62, 63));

TEST(TermSerializationTest, StringsWithSpacesAndColons) {
  Term T = Term::constant(Value::of("a b:c 12 L Q"));
  std::string Text;
  T.serialize(Text);
  size_t Pos = 0;
  auto Back = Term::deserialize(Text, Pos);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(*Back, T);
}

TEST(TermSerializationTest, RejectsGarbage) {
  size_t Pos = 0;
  EXPECT_EQ(Term::deserialize("", Pos), std::nullopt);
  Pos = 0;
  EXPECT_EQ(Term::deserialize("X 1 2", Pos), std::nullopt);
  Pos = 0;
  EXPECT_EQ(Term::deserialize("L 5", Pos), std::nullopt); // Missing count.
  Pos = 0;
  EXPECT_EQ(Term::deserialize("C S9:abc", Pos), std::nullopt); // Short str.
}

class ConditionRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConditionRoundTrip, SerializeDeserializePreservesSemantics) {
  Rng R(GetParam());
  for (int Iter = 0; Iter != 200; ++Iter) {
    Condition C = randomCondition(R);
    std::string Text;
    C.serialize(Text);
    size_t Pos = 0;
    auto Back = Condition::deserialize(Text, Pos);
    ASSERT_TRUE(Back.has_value()) << "text '" << Text << "'";
    EXPECT_EQ(Back->state(), C.state());
    EXPECT_EQ(Back->atoms().size(), C.atoms().size());
    // Semantic equivalence under random bindings.
    for (int Probe = 0; Probe != 10; ++Probe) {
      Bindings B;
      for (SymId S = 0; S != 8; ++S)
        B[S] = Value::of(R.range(-3, 3));
      EXPECT_EQ(C.evaluate(B), Back->evaluate(B));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConditionRoundTrip,
                         ::testing::Values(71, 72, 73));

TEST(CacheFileTest, TrainedCacheSurvivesDisk) {
  namespace core = janus::core;
  const char *Path = "janus_cache_test.txt";

  std::string Exported;
  {
    core::Janus J;
    adt::TxCounter Work = adt::TxCounter::create(J.registry(), "work");
    std::vector<stm::TaskFn> Tasks;
    for (int I = 1; I <= 5; ++I)
      Tasks.push_back([Work, I](stm::TxContext &Tx) {
        Work.add(Tx, I);
        Work.sub(Tx, I);
      });
    J.train(Tasks);
    ASSERT_GT(J.cache()->size(), 0u);
    ASSERT_TRUE(J.saveCacheFile(Path));
    Exported = J.exportCache();
  }

  {
    core::Janus J;
    adt::TxCounter Work = adt::TxCounter::create(J.registry(), "work");
    ASSERT_TRUE(J.loadCacheFile(Path));
    EXPECT_EQ(J.exportCache(), Exported);
    // The reloaded cache answers production queries.
    std::vector<stm::TaskFn> Tasks;
    for (int I = 0; I != 16; ++I)
      Tasks.push_back([Work](stm::TxContext &Tx) {
        Work.add(Tx, 42);
        Work.sub(Tx, 42);
      });
    J.runOutOfOrder(Tasks);
    EXPECT_EQ(J.runStats().Retries.load(), 0u);
    EXPECT_GT(J.detectorStats().CacheHits.load(), 0u);
  }
  std::remove(Path);
}

TEST(CacheFileTest, MissingFileFails) {
  core::Janus J;
  EXPECT_FALSE(J.loadCacheFile("/nonexistent/dir/cache.txt"));
  EXPECT_FALSE(J.saveCacheFile("/nonexistent/dir/cache.txt"));
}

TEST(CacheSerializationTest, FullTrainingPipelineRoundTrip) {
  // Serialize a cache produced by real training over every workload
  // pattern shape (adds, writes, push/pop, erases) and check the text
  // reparses to an identical cache.
  ObjectRegistry Reg;
  ObjectId A = Reg.registerObject("list.cell");
  auto Cache = std::make_shared<conflict::CommutativityCache>();
  training::Trainer T(Reg, Cache);
  stm::Snapshot S;
  S = S.set(Location(A, "size"), Value::of(int64_t(0)));
  std::vector<stm::TaskFn> Tasks;
  for (int I = 1; I <= 4; ++I)
    Tasks.push_back([A, I](stm::TxContext &Tx) {
      // Push/pop with varying payloads.
      Value Size = Tx.read(Location(A, "size"));
      int64_t N = Size.isInt() ? Size.asInt() : 0;
      Tx.write(Location(A, "size"), Value::of(N + 1));
      Tx.write(Location(A, N), Value::of(int64_t(I * 10)));
      Tx.write(Location(A, "size"), Value::of(N));
      Tx.write(Location(A, N), Value::absent());
      Tx.add(Location(A, "sum"), I);
      Tx.add(Location(A, "sum"), -I);
    });
  T.trainOn(S, Tasks);
  ASSERT_GT(Cache->size(), 0u);

  std::string Text = Cache->serialize();
  conflict::CommutativityCache Back;
  ASSERT_TRUE(Back.deserializeInto(Text));
  EXPECT_EQ(Back.size(), Cache->size());
  EXPECT_EQ(Back.serialize(), Text);
}

TEST(TrainingArtifactTest, RelaxationsAndCacheRoundTrip) {
  namespace core = janus::core;
  std::string Artifact;
  {
    core::JanusConfig Cfg;
    Cfg.Training.InferWAWRelaxation = true;
    core::Janus J(Cfg);
    adt::TxCounter Work = adt::TxCounter::create(J.registry(), "work");
    ObjectId Ctx = J.registry().registerObject("ctx.file");
    std::vector<stm::TaskFn> Tasks;
    for (int I = 0; I != 4; ++I)
      Tasks.push_back([Work, Ctx, I](stm::TxContext &Tx) {
        Tx.write(Location(Ctx), Value::of(int64_t(I))); // Define...
        Tx.read(Location(Ctx));                         // ...before use.
        Work.add(Tx, 1);
      });
    J.train(Tasks);
    ASSERT_TRUE(J.registry().info(Ctx).Relax.TolerateWAW); // Inferred.
    Artifact = J.exportTrainingArtifact();
  }

  {
    core::Janus J;
    adt::TxCounter Work = adt::TxCounter::create(J.registry(), "work");
    (void)Work; // Registration is the point; the handle itself is unused.
    ObjectId Ctx = J.registry().registerObject("ctx.file");
    ASSERT_TRUE(J.importTrainingArtifact(Artifact));
    // The inferred relaxation came along with the cache.
    EXPECT_TRUE(J.registry().info(Ctx).Relax.TolerateWAW);
    EXPECT_GT(J.cache()->size(), 0u);
    // And re-export is stable.
    EXPECT_EQ(J.exportTrainingArtifact(), Artifact);
  }
}

TEST(TrainingArtifactTest, RejectsGarbage) {
  core::Janus J;
  EXPECT_FALSE(J.importTrainingArtifact("bogus"));
  EXPECT_FALSE(J.importTrainingArtifact(
      "janus-training-artifact v1\nrelax oops\nendrelax\n"));
  EXPECT_TRUE(J.importTrainingArtifact(
      "janus-training-artifact v1\nendrelax\n"
      "janus-commutativity-cache v1\n"));
}

TEST(TrainingArtifactTest, RejectedArtifactAppliesNoRelaxation) {
  core::Janus J;
  ObjectId Ctx = J.registry().registerObject("ctx.file");
  // Well-formed relaxations, but the cache part does not parse.
  EXPECT_FALSE(J.importTrainingArtifact(
      "janus-training-artifact v1\nrelax 1 1 ctx.file\nendrelax\n"
      "janus-commutativity-cache v1\nclass oops\n"));
  EXPECT_FALSE(J.registry().info(Ctx).Relax.TolerateRAW);
  EXPECT_FALSE(J.registry().info(Ctx).Relax.TolerateWAW);
  EXPECT_EQ(J.cache()->size(), 0u);
}

TEST(TrainingArtifactTest, RejectsMalformedRelaxFlags) {
  core::Janus J;
  ObjectId Ctx = J.registry().registerObject("ctx.file");
  const std::string Cache = "endrelax\njanus-commutativity-cache v1\n";
  for (const char *Relax :
       {"relax 2 x ctx.file\n", "relax 1 2 ctx.file\n",
        "relax 1  1 ctx.file\n", "relax 1 1 \n", "relax 11 ctx.file\n"})
    EXPECT_FALSE(J.importTrainingArtifact(
        "janus-training-artifact v1\n" + std::string(Relax) + Cache))
        << Relax;
  EXPECT_FALSE(J.registry().info(Ctx).Relax.TolerateRAW);
  EXPECT_FALSE(J.registry().info(Ctx).Relax.TolerateWAW);
  // The same artifact with valid flags is accepted and applied.
  EXPECT_TRUE(J.importTrainingArtifact(
      "janus-training-artifact v1\nrelax 0 1 ctx.file\n" + Cache));
  EXPECT_FALSE(J.registry().info(Ctx).Relax.TolerateRAW);
  EXPECT_TRUE(J.registry().info(Ctx).Relax.TolerateWAW);
}
