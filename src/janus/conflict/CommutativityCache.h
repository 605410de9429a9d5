//===----------------------------------------------------------------------===//
///
/// \file
/// The commutativity cache built by offline training (paper §5.1).
///
/// Keys are (location class, abstract signature of the transaction's
/// per-location sequence, abstract signature of the conflict history's
/// per-location sequence); values are symbolic commutativity conditions
/// over V0 and the sequences' canonical parameters. In production mode
/// a commutativity query is answered positively from the cache when the
/// sequences match a cached pair and the input state satisfies the
/// designated condition; otherwise JANUS falls back to the configured
/// default (§3 step 5).
///
/// The store is one key-ordered map behind one lock. Detection does not
/// probe it per query: each SequenceDetector keeps its own query table
/// and probes the cache only on a key's first sight or after the cache
/// changed, which the cache's generation counter tells it.
///
/// The cache also supports textual (de)serialization so training
/// artifacts persist across process runs.
///
//===----------------------------------------------------------------------===//

#ifndef JANUS_CONFLICT_COMMUTATIVITYCACHE_H
#define JANUS_CONFLICT_COMMUTATIVITYCACHE_H

#include "janus/symbolic/Condition.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

namespace janus {
namespace conflict {

/// Offset added to the conflict-history sequence's parameter symbols so
/// the pair's symbols are disjoint in conditions and bindings.
inline constexpr symbolic::SymId TheirParamOffset = 1u << 15;

/// A lookup key: location class plus the two canonical signatures.
struct CacheKey {
  std::string LocClass;
  std::string MineSig;
  std::string TheirsSig;

  friend bool operator<(const CacheKey &A, const CacheKey &B) {
    if (A.LocClass != B.LocClass)
      return A.LocClass < B.LocClass;
    if (A.MineSig != B.MineSig)
      return A.MineSig < B.MineSig;
    return A.TheirsSig < B.TheirsSig;
  }

  std::string toString() const {
    return LocClass + " | " + MineSig + " | " + TheirsSig;
  }
};

/// Thread-safe commutativity-condition store. Typically populated by the
/// trainer before parallel execution.
class CommutativityCache {
public:
  /// Inserts (or overwrites) an entry.
  void insert(CacheKey Key, symbolic::Condition Cond);

  /// \returns the condition for \p Key, or nullopt on a miss.
  std::optional<symbolic::Condition> lookup(const CacheKey &Key) const;

  size_t size() const;

  /// Counts the changes made so far: every insert and every
  /// deserializeInto bumps it. A reader that keeps an answer read at
  /// generation G must look again once this differs from G.
  uint64_t generation() const {
    return Generation.load(std::memory_order_seq_cst);
  }

  /// Renders the whole cache in a line-oriented text format, in key
  /// order.
  std::string serialize() const;

  /// Replaces this cache's contents with entries parsed from text
  /// previously produced by serialize(). \returns false (leaving the
  /// cache empty) on malformed input.
  bool deserializeInto(const std::string &In);

  /// Invokes \p Fn(key, condition) for every entry, in key order, on a
  /// copy taken under the lock (so \p Fn may use the cache).
  template <typename Fn> void forEach(Fn &&Callback) const {
    for (const auto &[Key, Cond] : entries())
      Callback(Key, Cond);
  }

private:
  std::map<CacheKey, symbolic::Condition> entries() const;

  /// Swaps in \p Next as the whole contents and bumps the generation.
  void replaceAll(std::map<CacheKey, symbolic::Condition> Next);

  mutable std::mutex Mutex;
  std::map<CacheKey, symbolic::Condition> Entries;
  std::atomic<uint64_t> Generation{0};
};

} // namespace conflict
} // namespace janus

#endif // JANUS_CONFLICT_COMMUTATIVITYCACHE_H
