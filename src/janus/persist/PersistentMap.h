//===----------------------------------------------------------------------===//
///
/// \file
/// A fully persistent hash map (hash array mapped trie).
///
/// Paper §4.1 ("Versioning"): "To reduce the cost of state privatization
/// ... (fully) persistent data structures can be used. A persistent data
/// structure preserves the previous version of itself when modified; a
/// data structure is fully persistent if every version can be both
/// accessed and modified, which permits concurrent modification of the
/// shared state by multiple simultaneous transactions."
///
/// JANUS snapshots the entire shared store at transaction begin
/// (CREATETRANSACTION copies Sh into SharedPrivatized and
/// SharedSnapshot); with this map the copy is O(1) and transactions
/// mutate their private version without disturbing the global version.
/// Structural sharing is via shared_ptr.
///
/// Writes are in place where that is safe. Each map value that writes
/// holds an *edit id*, and every node records the id of the value that
/// created it (0 for none). setInPlace() writes a node in place only
/// when the node carries the value's live id; it path-copies every
/// other node on the way and tags the copies with the id. The id
/// retires (the value drops it, and no value is given it again) as soon
/// as a second value can reach the nodes: when the value is copied,
/// moved, or a new value is derived from it with set() or erase(). So
/// a node tagged with a live id is reachable from exactly one value,
/// and every other node is frozen: no write ever touches a node that
/// another version, or another thread, can see. A value that has no
/// live id (a fresh copy, say) writes nothing in place until its first
/// write has path-copied a node of its own. Concurrent readers of a
/// frozen value need no synchronization: copying it only reads it.
///
//===----------------------------------------------------------------------===//

#ifndef JANUS_PERSIST_PERSISTENTMAP_H
#define JANUS_PERSIST_PERSISTENTMAP_H

#include "janus/support/Assert.h"

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

namespace janus {
namespace persist {

namespace detail {
/// \returns an edit id that was never returned before, and never 0.
/// Each thread claims a block of ids from one shared counter, so a
/// writer touches the shared cache line once per block, not per id.
inline uint64_t freshEditId() {
  constexpr uint64_t Block = 1024;
  static std::atomic<uint64_t> NextBlock{1};
  thread_local uint64_t Next = 0, End = 0;
  if (Next == End) {
    Next = NextBlock.fetch_add(Block, std::memory_order_relaxed);
    End = Next + Block;
  }
  return Next++;
}
} // namespace detail

/// Fully persistent hash map with O(log32 n) set/find/erase and O(1)
/// whole-map snapshot (copy construction).
template <typename K, typename V, typename Hasher = std::hash<K>>
class PersistentMap {
  static constexpr unsigned BitsPerLevel = 5;
  static constexpr unsigned BranchFactor = 1u << BitsPerLevel;
  static constexpr unsigned MaxShift = 60; // 12 levels of 5 bits.

  struct Node;
  using NodePtr = std::shared_ptr<Node>;

  struct Node {
    // A node is either a branch (Bitmap != 0 or Children used) or a
    // leaf bucket of entries sharing a full hash value. We use one
    // struct with a discriminator to avoid virtual dispatch.
    bool IsLeaf = false;
    /// Edit id of the map value that created this node (0 for none);
    /// only a value holding this id, live, may write the node.
    uint64_t Edit = 0;
    // Branch payload.
    uint32_t Bitmap = 0;
    std::vector<NodePtr> Children;
    // Leaf payload.
    uint64_t HashVal = 0;
    std::vector<std::pair<K, V>> Entries;

    static NodePtr makeLeaf(uint64_t H, std::vector<std::pair<K, V>> E,
                            uint64_t Edit) {
      auto N = std::make_shared<Node>();
      N->IsLeaf = true;
      N->Edit = Edit;
      N->HashVal = H;
      N->Entries = std::move(E);
      return N;
    }

    static NodePtr makeBranch(uint32_t Bitmap, std::vector<NodePtr> Children,
                              uint64_t Edit) {
      auto N = std::make_shared<Node>();
      N->Edit = Edit;
      N->Bitmap = Bitmap;
      N->Children = std::move(Children);
      return N;
    }
  };

public:
  PersistentMap() = default;

  /// A copy shares every node; both values are frozen afterwards (the
  /// source's edit id retires), so a later write to either copies.
  PersistentMap(const PersistentMap &Other)
      : Root(Other.Root), Count(Other.Count) {
    Other.retire();
  }
  PersistentMap(PersistentMap &&Other) noexcept
      : Root(std::move(Other.Root)), Count(std::exchange(Other.Count, 0)) {
    Other.Edit = 0;
  }
  PersistentMap &operator=(const PersistentMap &Other) {
    Root = Other.Root;
    Count = Other.Count;
    Edit = 0;
    Other.retire();
    return *this;
  }
  PersistentMap &operator=(PersistentMap &&Other) noexcept {
    Root = std::move(Other.Root);
    Count = std::exchange(Other.Count, 0);
    Edit = 0;
    Other.Edit = 0;
    return *this;
  }

  /// \returns the number of key-value pairs.
  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }

  /// \returns a pointer to the value mapped at \p Key, or nullptr.
  /// The pointer is valid as long as any map version sharing the node
  /// is alive, except that a pointer taken from a value with a live
  /// edit id is invalidated by that value's next setInPlace().
  const V *find(const K &Key) const {
    if (!Root)
      return nullptr;
    uint64_t H = Hasher()(Key);
    const Node *N = Root.get();
    unsigned Shift = 0;
    while (!N->IsLeaf) {
      uint32_t Idx = sliceHash(H, Shift);
      uint32_t Bit = 1u << Idx;
      if (!(N->Bitmap & Bit))
        return nullptr;
      N = N->Children[childSlot(N->Bitmap, Bit)].get();
      Shift += BitsPerLevel;
    }
    if (N->HashVal != H)
      return nullptr;
    for (const auto &E : N->Entries)
      if (E.first == Key)
        return &E.second;
    return nullptr;
  }

  /// \returns true if \p Key is present.
  bool contains(const K &Key) const { return find(Key) != nullptr; }

  /// \returns a new version with \p Key mapped to \p Val; this version
  /// is unchanged. The new version is an in-place write on a fresh copy,
  /// which owns no node yet and so path-copies.
  PersistentMap set(const K &Key, V Val) const {
    PersistentMap Out(*this);
    Out.setInPlace(Key, std::move(Val));
    return Out;
  }

  /// Maps \p Key to \p Val in this value. Nodes this value created
  /// since its last copy, move or derive are written in place; every
  /// other node on the path is copied first. No other version changes.
  void setInPlace(const K &Key, V Val) {
    if (!Edit)
      Edit = detail::freshEditId();
    uint64_t H = Hasher()(Key);
    bool Added = false;
    if (Root) {
      setRec(Root, 0, H, Key, std::move(Val), Edit, Added);
    } else {
      Root = Node::makeLeaf(H, {{Key, std::move(Val)}}, Edit);
      Added = true;
    }
    Count += Added ? 1 : 0;
  }

  /// \returns a new version with \p Key removed; this version is
  /// unchanged. Removing an absent key is a no-op.
  PersistentMap erase(const K &Key) const {
    retire();
    if (!Root)
      return *this;
    uint64_t H = Hasher()(Key);
    bool Removed = false;
    NodePtr NewRoot = eraseRec(Root, 0, H, Key, Removed);
    if (!Removed)
      return *this;
    PersistentMap Out;
    Out.Root = std::move(NewRoot);
    Out.Count = Count - 1;
    return Out;
  }

  /// Invokes \p Fn(key, value) for every entry (unspecified order).
  template <typename Fn> void forEach(Fn &&Callback) const {
    if (Root)
      forEachRec(Root.get(), Callback);
  }

  /// Structural equality (same key set, equal mapped values). O(n).
  friend bool operator==(const PersistentMap &A, const PersistentMap &B) {
    if (A.Count != B.Count)
      return false;
    if (A.Root == B.Root)
      return true; // Shared structure fast path.
    bool Equal = true;
    A.forEach([&B, &Equal](const K &Key, const V &Val) {
      if (!Equal)
        return;
      const V *Other = B.find(Key);
      if (!Other || !(*Other == Val))
        Equal = false;
    });
    return Equal;
  }
  friend bool operator!=(const PersistentMap &A, const PersistentMap &B) {
    return !(A == B);
  }

private:
  static uint32_t sliceHash(uint64_t H, unsigned Shift) {
    if (Shift >= MaxShift)
      return static_cast<uint32_t>((H >> MaxShift) & (BranchFactor - 1));
    return static_cast<uint32_t>((H >> Shift) & (BranchFactor - 1));
  }

  static uint32_t childSlot(uint32_t Bitmap, uint32_t Bit) {
    return std::popcount(Bitmap & (Bit - 1));
  }

  /// The node in \p Slot, writable under \p Edit: a node tagged with
  /// \p Edit belongs to the writing value alone and is returned as is;
  /// any other node is replaced in \p Slot by a tagged copy.
  static Node &writable(NodePtr &Slot, uint64_t Edit) {
    if (Slot->Edit != Edit) {
      Slot = std::make_shared<Node>(*Slot);
      Slot->Edit = Edit;
    }
    return *Slot;
  }

  static void setRec(NodePtr &Slot, unsigned Shift, uint64_t H, const K &Key,
                     V &&Val, uint64_t Edit, bool &Added) {
    if (Slot->IsLeaf && Slot->HashVal != H) {
      // Different hash: push the leaf down under a single-child branch
      // at this level, so the insertion can fan out.
      JANUS_ASSERT(Shift < MaxShift + BitsPerLevel,
                   "hash exhausted while splitting");
      Slot = Node::makeBranch(1u << sliceHash(Slot->HashVal, Shift), {Slot},
                              Edit);
    }
    Node &N = writable(Slot, Edit);
    if (N.IsLeaf) {
      // Same full hash: replace in, or append to, the bucket.
      for (auto &E : N.Entries) {
        if (E.first == Key) {
          E.second = std::move(Val);
          return;
        }
      }
      N.Entries.emplace_back(Key, std::move(Val));
      Added = true;
      return;
    }
    uint32_t Bit = 1u << sliceHash(H, Shift);
    uint32_t Pos = childSlot(N.Bitmap, Bit);
    if (N.Bitmap & Bit) {
      setRec(N.Children[Pos], Shift + BitsPerLevel, H, Key, std::move(Val),
             Edit, Added);
      return;
    }
    N.Children.insert(N.Children.begin() + Pos,
                      Node::makeLeaf(H, {{Key, std::move(Val)}}, Edit));
    N.Bitmap |= Bit;
    Added = true;
  }

  static NodePtr eraseRec(const NodePtr &N, unsigned Shift, uint64_t H,
                          const K &Key, bool &Removed) {
    if (N->IsLeaf) {
      if (N->HashVal != H)
        return N;
      std::vector<std::pair<K, V>> Entries;
      Entries.reserve(N->Entries.size());
      for (const auto &E : N->Entries) {
        if (E.first == Key)
          Removed = true;
        else
          Entries.push_back(E);
      }
      if (!Removed)
        return N;
      if (Entries.empty())
        return nullptr;
      return Node::makeLeaf(H, std::move(Entries), /*Edit=*/0);
    }
    uint32_t Idx = sliceHash(H, Shift);
    uint32_t Bit = 1u << Idx;
    if (!(N->Bitmap & Bit))
      return N;
    uint32_t Slot = childSlot(N->Bitmap, Bit);
    NodePtr NewChild =
        eraseRec(N->Children[Slot], Shift + BitsPerLevel, H, Key, Removed);
    if (!Removed)
      return N;
    std::vector<NodePtr> Children = N->Children;
    uint32_t Bitmap = N->Bitmap;
    if (NewChild) {
      Children[Slot] = std::move(NewChild);
    } else {
      Children.erase(Children.begin() + Slot);
      Bitmap &= ~Bit;
      if (Children.empty())
        return nullptr;
      // Collapse single-leaf branches to keep paths short.
      if (Children.size() == 1 && Children[0]->IsLeaf)
        return Children[0];
    }
    return Node::makeBranch(Bitmap, std::move(Children), /*Edit=*/0);
  }

  template <typename Fn>
  static void forEachRec(const Node *N, Fn &&Callback) {
    if (N->IsLeaf) {
      for (const auto &E : N->Entries)
        Callback(E.first, E.second);
      return;
    }
    for (const auto &Child : N->Children)
      forEachRec(Child.get(), Callback);
  }

  /// Drops this value's edit id. It writes only when there is an id to
  /// drop, so copying a frozen value, which several threads may do at
  /// once, stays a pure read.
  void retire() const {
    if (Edit)
      Edit = 0;
  }

  NodePtr Root;
  size_t Count = 0;
  /// Live edit id: the tag of the nodes this value may write in place
  /// (0 while it has none). Mutable so that copying a const value can
  /// retire it.
  mutable uint64_t Edit = 0;
};

} // namespace persist
} // namespace janus

#endif // JANUS_PERSIST_PERSISTENTMAP_H
