//===----------------------------------------------------------------------===//
///
/// \file
/// Unit and property tests for the fully persistent hash map used for
/// O(1) shared-state snapshots (paper §4.1 "Versioning"), including its
/// in-place writes: no copy, moved-to or derived version, and no
/// version another thread reads, ever sees one.
///
//===----------------------------------------------------------------------===//

#include "janus/persist/PersistentMap.h"
#include "janus/support/Rng.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

using namespace janus;
using janus::persist::PersistentMap;

TEST(PersistentMapTest, EmptyMap) {
  PersistentMap<int, int> M;
  EXPECT_EQ(M.size(), 0u);
  EXPECT_TRUE(M.empty());
  EXPECT_EQ(M.find(1), nullptr);
  EXPECT_FALSE(M.contains(1));
}

TEST(PersistentMapTest, SetAndFind) {
  PersistentMap<int, std::string> M;
  auto M1 = M.set(1, "one");
  auto M2 = M1.set(2, "two");
  EXPECT_EQ(M.size(), 0u);
  EXPECT_EQ(M1.size(), 1u);
  EXPECT_EQ(M2.size(), 2u);
  ASSERT_NE(M2.find(1), nullptr);
  EXPECT_EQ(*M2.find(1), "one");
  EXPECT_EQ(*M2.find(2), "two");
  EXPECT_EQ(M1.find(2), nullptr);
}

TEST(PersistentMapTest, OverwriteKeepsSize) {
  PersistentMap<int, int> M;
  auto M1 = M.set(5, 10);
  auto M2 = M1.set(5, 20);
  EXPECT_EQ(M2.size(), 1u);
  EXPECT_EQ(*M2.find(5), 20);
  EXPECT_EQ(*M1.find(5), 10); // Old version untouched.
}

TEST(PersistentMapTest, EraseIsPersistent) {
  PersistentMap<int, int> M;
  auto M1 = M.set(1, 1).set(2, 2).set(3, 3);
  auto M2 = M1.erase(2);
  EXPECT_EQ(M1.size(), 3u);
  EXPECT_EQ(M2.size(), 2u);
  EXPECT_NE(M1.find(2), nullptr);
  EXPECT_EQ(M2.find(2), nullptr);
  EXPECT_NE(M2.find(1), nullptr);
  EXPECT_NE(M2.find(3), nullptr);
}

TEST(PersistentMapTest, EraseAbsentIsNoop) {
  PersistentMap<int, int> M;
  auto M1 = M.set(1, 1);
  auto M2 = M1.erase(42);
  EXPECT_EQ(M2.size(), 1u);
  EXPECT_TRUE(M1 == M2);
}

TEST(PersistentMapTest, SnapshotIsO1AndIndependent) {
  PersistentMap<int, int> M;
  for (int I = 0; I != 100; ++I)
    M = M.set(I, I * I);
  PersistentMap<int, int> Snapshot = M; // O(1) copy.
  for (int I = 0; I != 100; ++I)
    M = M.set(I, -I);
  for (int I = 0; I != 100; ++I) {
    EXPECT_EQ(*Snapshot.find(I), I * I);
    EXPECT_EQ(*M.find(I), -I);
  }
}

TEST(PersistentMapTest, InPlaceWritesKeepCopiesMovesAndDerivedValues) {
  // The original keeps writing in place; a copy, a moved-to value and a
  // set()-derived value, each taken between its writes, keep exactly
  // the contents they had.
  PersistentMap<int, int> Orig;
  for (int I = 0; I != 300; ++I)
    Orig.setInPlace(I, I);
  const PersistentMap<int, int> Copy = Orig;
  for (int I = 0; I != 300; ++I)
    Orig.setInPlace(I, I + 1000);
  PersistentMap<int, int> Moved = std::move(Orig);
  Orig = Moved;
  for (int I = 0; I != 300; ++I)
    Orig.setInPlace(I, I + 2000);
  const PersistentMap<int, int> Derived = Orig.set(300, -1);
  for (int I = 0; I != 301; ++I)
    Orig.setInPlace(I, I + 3000);

  ASSERT_EQ(Copy.size(), 300u);
  ASSERT_EQ(Moved.size(), 300u);
  ASSERT_EQ(Derived.size(), 301u);
  ASSERT_EQ(Orig.size(), 301u);
  for (int I = 0; I != 300; ++I) {
    EXPECT_EQ(*Copy.find(I), I);
    EXPECT_EQ(*Moved.find(I), I + 1000);
    EXPECT_EQ(*Derived.find(I), I + 2000);
  }
  EXPECT_EQ(*Derived.find(300), -1);
  for (int I = 0; I != 301; ++I)
    EXPECT_EQ(*Orig.find(I), I + 3000);
}

TEST(PersistentMapTest, PublishedVersionsStayIntactUnderConcurrentWrites) {
  // The engine's pattern: one writer builds each version in place from
  // the published one and publishes it by move; readers copy whatever
  // is published and read it while the writer goes on writing. Every
  // version sets all keys to its number, so a reader seeing mixed
  // values saw an in-place write reach a shared node (and TSan sees
  // the race).
  constexpr int Keys = 200, Versions = 300;
  using Map = PersistentMap<int, int>;
  std::mutex PublishMutex;
  auto Published = std::make_shared<const Map>();
  std::atomic<bool> Done{false};

  auto Reader = [&] {
    int Last = -1;
    while (!Done.load(std::memory_order_acquire)) {
      std::shared_ptr<const Map> P;
      {
        std::lock_guard<std::mutex> G(PublishMutex);
        P = Published;
      }
      const Map Copy = *P;
      if (Copy.empty())
        continue;
      const int V = *Copy.find(0);
      EXPECT_GE(V, Last);
      Last = V;
      for (int K = 0; K != Keys; ++K)
        ASSERT_EQ(*Copy.find(K), V) << "key " << K;
    }
  };
  std::thread R1(Reader), R2(Reader);
  for (int V = 0; V != Versions; ++V) {
    Map Next;
    {
      std::lock_guard<std::mutex> G(PublishMutex);
      Next = *Published;
    }
    for (int K = 0; K != Keys; ++K)
      Next.setInPlace(K, V);
    auto P = std::make_shared<const Map>(std::move(Next));
    std::lock_guard<std::mutex> G(PublishMutex);
    Published = std::move(P);
  }
  Done.store(true, std::memory_order_release);
  R1.join();
  R2.join();
  EXPECT_EQ(*Published->find(Keys - 1), Versions - 1);
}

TEST(PersistentMapTest, EqualityIsStructural) {
  PersistentMap<int, int> A, B;
  A = A.set(1, 1).set(2, 2);
  B = B.set(2, 2).set(1, 1); // Different insertion order.
  EXPECT_TRUE(A == B);
  B = B.set(3, 3);
  EXPECT_TRUE(A != B);
  B = B.erase(3);
  EXPECT_TRUE(A == B);
  B = B.set(2, 99);
  EXPECT_TRUE(A != B);
}

TEST(PersistentMapTest, ForEachVisitsAllEntriesOnce) {
  PersistentMap<int, int> M;
  for (int I = 0; I != 50; ++I)
    M = M.set(I, I + 1);
  std::map<int, int> Seen;
  M.forEach([&Seen](int K, int V) {
    EXPECT_EQ(Seen.count(K), 0u);
    Seen[K] = V;
  });
  EXPECT_EQ(Seen.size(), 50u);
  for (int I = 0; I != 50; ++I)
    EXPECT_EQ(Seen[I], I + 1);
}

namespace {

/// A deliberately colliding hasher: only 4 distinct hash values.
struct BadHash {
  size_t operator()(int K) const { return static_cast<size_t>(K % 4); }
};

} // namespace

TEST(PersistentMapTest, HashCollisionsAreHandled) {
  PersistentMap<int, int, BadHash> M;
  for (int I = 0; I != 64; ++I)
    M = M.set(I, I * 7);
  EXPECT_EQ(M.size(), 64u);
  for (int I = 0; I != 64; ++I) {
    ASSERT_NE(M.find(I), nullptr) << "key " << I;
    EXPECT_EQ(*M.find(I), I * 7);
  }
  for (int I = 0; I != 64; I += 2)
    M = M.erase(I);
  EXPECT_EQ(M.size(), 32u);
  for (int I = 0; I != 64; ++I)
    EXPECT_EQ(M.contains(I), I % 2 == 1);
}

TEST(PersistentMapTest, InPlaceWritesSplitCollidingLeaves) {
  // Colliding hashes grow buckets and split leaves under in-place
  // writes exactly as under persistent ones.
  PersistentMap<int, int, BadHash> M;
  for (int I = 0; I != 64; ++I)
    M.setInPlace(I, I);
  const PersistentMap<int, int, BadHash> Before = M;
  for (int I = 0; I != 64; ++I)
    M.setInPlace(I, -I);
  ASSERT_EQ(M.size(), 64u);
  for (int I = 0; I != 64; ++I) {
    EXPECT_EQ(*M.find(I), -I);
    EXPECT_EQ(*Before.find(I), I);
  }
}

TEST(PersistentMapTest, StringKeys) {
  PersistentMap<std::string, int> M;
  M = M.set("alpha", 1).set("beta", 2).set("gamma", 3);
  EXPECT_EQ(*M.find("beta"), 2);
  M = M.erase("beta");
  EXPECT_EQ(M.find("beta"), nullptr);
  EXPECT_EQ(M.size(), 2u);
}

/// Property: a random stream of persistent sets and erases, in-place
/// writes, copies and derived values, applied to both the persistent
/// map and std::map, stays in lock-step after every step, and every
/// saved version remains exactly what it was (full persistence: an
/// in-place write never reaches a node another version can see).
class PersistentMapRandom : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PersistentMapRandom, AgreesWithStdMapModel) {
  Rng R(GetParam());
  PersistentMap<int, int> M;
  std::map<int, int> Model;
  std::vector<PersistentMap<int, int>> Versions;
  std::vector<std::map<int, int>> ModelVersions;

  auto Agrees = [](const PersistentMap<int, int> &Map,
                   const std::map<int, int> &Ref) {
    if (Map.size() != Ref.size())
      return false;
    for (int Key = 0; Key != 80; ++Key) {
      const int *Found = Map.find(Key);
      auto It = Ref.find(Key);
      if ((Found != nullptr) != (It != Ref.end()) ||
          (Found && *Found != It->second))
        return false;
    }
    return true;
  };

  for (int Step = 0; Step != 600; ++Step) {
    int Key = static_cast<int>(R.below(80));
    int Val = static_cast<int>(R.below(1000));
    switch (R.below(6)) {
    case 0:
    case 1: // In-place write.
      M.setInPlace(Key, Val);
      Model[Key] = Val;
      break;
    case 2: // Derived value replaces the original.
      M = M.set(Key, Val);
      Model[Key] = Val;
      break;
    case 3:
      M = M.erase(Key);
      Model.erase(Key);
      break;
    case 4: // A derived value is kept; the original writes on.
      Versions.push_back(M.set(Key, Val));
      ModelVersions.push_back(Model);
      ModelVersions.back()[Key] = Val;
      break;
    default: // A copy is kept; the original writes on.
      Versions.push_back(M);
      ModelVersions.push_back(Model);
      break;
    }
    ASSERT_TRUE(Agrees(M, Model)) << "step " << Step;
    for (size_t I = 0; I != Versions.size(); ++I)
      ASSERT_TRUE(Agrees(Versions[I], ModelVersions[I]))
          << "version " << I << " after step " << Step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PersistentMapRandom,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

TEST(PersistentMapTest, EraseCollapsesBranchesBackToLeaves) {
  // Exercise the branch-collapse path: grow a deep trie, then erase
  // back down to single entries and verify lookups throughout.
  PersistentMap<int, int> M;
  const int N = 2000;
  for (int I = 0; I != N; ++I)
    M = M.set(I, I);
  for (int I = 0; I != N - 1; ++I) {
    M = M.erase(I);
    ASSERT_EQ(M.size(), static_cast<size_t>(N - 1 - I));
  }
  ASSERT_NE(M.find(N - 1), nullptr);
  EXPECT_EQ(*M.find(N - 1), N - 1);
}

TEST(PersistentMapTest, ManyVersionsShareStructure) {
  // 1000 versions of a 1000-entry map: without structural sharing this
  // would allocate ~10^6 nodes; with path copying it stays cheap. We
  // can't observe allocation directly, but all versions must remain
  // exactly correct.
  PersistentMap<int, int> Base;
  for (int I = 0; I != 1000; ++I)
    Base = Base.set(I, 0);
  std::vector<PersistentMap<int, int>> Versions;
  PersistentMap<int, int> Cur = Base;
  for (int V = 1; V <= 1000; ++V) {
    Cur = Cur.set(V % 1000, V);
    if (V % 100 == 0)
      Versions.push_back(Cur);
  }
  for (size_t VI = 0; VI != Versions.size(); ++VI) {
    int V = static_cast<int>((VI + 1) * 100);
    // In version V, key (V % 1000) holds V.
    ASSERT_EQ(*Versions[VI].find(V % 1000), V);
  }
}
