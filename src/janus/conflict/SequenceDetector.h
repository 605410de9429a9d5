//===----------------------------------------------------------------------===//
///
/// \file
/// Sequence-based conflict detection using projection (paper §5.3,
/// Figure 8).
///
/// DETECTCONFLICTS decomposes the transaction's log and its conflict
/// history into per-location sequences over their common domain only
/// (decomposeCommon) and tests each common location with CONFLICT. In practice CONFLICT consults the commutativity cache
/// populated during training: the sequences are symbolized and
/// abstracted, the (location class, signature pair) is looked up, and
/// the cached condition is evaluated against the concrete bindings and
/// the entry state. On a miss JANUS falls back to the configured
/// default — the write-set test, or (optionally) the exact online
/// sequence check.
///
/// The lookup is one probe of the detector's query table, keyed by the
/// location class and the interned ids of the two signatures. An entry
/// holds the cache's answer (a condition or a miss) and the cache
/// generation it was read at; only a key's first sight or a changed
/// cache probes CommutativityCache. The table is also the Figure 11
/// count: one entry per distinct query, marked once it has missed.
///
/// Consistency relaxations (§5.3): objects marked tolerate-RAW skip the
/// SAMEREAD tests; objects marked tolerate-WAW skip the final COMMUTE
/// test.
///
//===----------------------------------------------------------------------===//

#ifndef JANUS_CONFLICT_SEQUENCEDETECTOR_H
#define JANUS_CONFLICT_SEQUENCEDETECTOR_H

#include "janus/abstraction/AbstractSeq.h"
#include "janus/conflict/CommutativityCache.h"
#include "janus/conflict/Decompose.h"
#include "janus/conflict/OnlineConflict.h"
#include "janus/conflict/SpecTable.h"
#include "janus/stm/Detector.h"

#include <array>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace janus {
namespace conflict {

/// \returns the Figure 8 checks to perform for an object with the
/// given relaxation spec.
symbolic::ChecksSpec checksFor(const RelaxationSpec &Relax);

/// A prepared per-location commutativity query: the cache key and the
/// concrete parameter bindings of both sequences (the conflict
/// history's parameters offset by TheirParamOffset).
struct PairQuery {
  CacheKey Key;
  symbolic::Bindings Binds;
  /// Canonical parameter ids introduced inside Kleene groups (their
  /// values vary across repetitions; conditions must not depend on
  /// them).
  std::set<symbolic::SymId> GroupParams;
  abstraction::AbstractSeq MineAbs;
  abstraction::AbstractSeq TheirsAbs;
};

/// Symbolizes and abstracts both sequences and assembles the query.
PairQuery buildPairQuery(const std::string &LocClass,
                         const symbolic::LocOpSeq &Mine,
                         const symbolic::LocOpSeq &Theirs,
                         bool UseAbstraction);

/// Configuration of the sequence-based detector.
struct SequenceDetectorConfig {
  /// Kleene-cross sequence abstraction (§5.2). Figure 11 compares
  /// detection with and without it.
  bool UseAbstraction = true;
  /// On a cache miss, run the exact online sequence check instead of
  /// the write-set test ("JANUS can be configured to perform the
  /// sequence-based check online", §5.3).
  bool OnlineFallback = false;
  /// Answer define-before-use queries on tolerate-WAW objects directly
  /// from the relaxation reasoning, without consulting the cache (an
  /// extension beyond the paper; the Figure 11 harness disables it so
  /// the cache sees the full query stream, as in the paper).
  bool RelaxationFastPath = true;
  /// Per-ADT spec-table dispatch (conflict/SpecTable.h): tier 1 of the
  /// query path. On asks the spec first and falls through to the
  /// learned cache on Abstain; Only answers abstains with the write-set
  /// test, bypassing the cache and online tiers; Off restores the
  /// paper's original pipeline. Off by default so the learned-path
  /// harnesses (Figure 11) see the full query stream; the CLI defaults
  /// to On.
  SpecMode Specs = SpecMode::Off;
};

/// The JANUS detector. Thread-safe; shared by all transactions of a
/// runtime.
class SequenceDetector : public stm::ConflictDetector {
public:
  SequenceDetector(std::shared_ptr<CommutativityCache> Cache,
                   SequenceDetectorConfig Config = {});

  bool detectConflicts(const stm::Snapshot &Entry, const stm::TxLog &Mine,
                       const std::vector<stm::TxLogRef> &Committed,
                       const ObjectRegistry &Reg) override;
  std::string name() const override;

  const CommutativityCache &cache() const { return *Cache; }

  /// Figure 11 accounting: distinct (class, signature pair) queries
  /// seen in production, and how many of them missed the cache
  /// ("multiple hits/misses for the same query are counted as one").
  size_t uniqueQueries() const;
  size_t uniqueMisses() const;
  void resetUniqueQueryTracking();

  /// \returns the distinct missed query keys (for diagnostics and the
  /// Figure 11 harness output).
  std::vector<std::string> missedQueryKeys() const;

private:
  /// An interned abstraction: the canonical abstract result plus its
  /// signature rendered exactly once and a process-local hash-cons id
  /// (ids are assigned per distinct *signature*, so two concrete
  /// sequences with the same abstraction share an id).
  struct InternedAbs {
    abstraction::AbstractResult Abs;
    std::string Sig;
    uint64_t Id = 0;
  };

  /// The learned tier's answer to one query: whether the cache holds a
  /// condition for it, and the condition's verdict (nullopt when it
  /// cannot be evaluated under the query's bindings).
  struct LearnedAnswer {
    bool Hit = false;
    std::optional<bool> Commutes;
  };

  bool locationConflicts(const Value &EntryVal,
                         const symbolic::LocOpSeq &Mine,
                         const symbolic::LocOpSeq &Theirs,
                         const ObjectInfo &Info);

  /// Memoized + interned abstractSequence(symbolize(Seq),
  /// UseAbstraction) with its pre-rendered signature. Per-location
  /// sequences recur constantly, so this removes nearly all of the
  /// per-query canonicalization cost (DetectorStats::SignatureInternHits
  /// counts the memo hits).
  std::shared_ptr<const InternedAbs>
  abstracted(const symbolic::LocOpSeq &Seq);

  /// The learned tier: looks the query up in the query table, probing
  /// the cache only on the key's first sight or when the cache's
  /// generation moved since the entry was read, and evaluates a cached
  /// condition against the pair's bindings and \p EntryVal.
  LearnedAnswer learned(const std::string &LocClass, const InternedAbs &Mine,
                        const InternedAbs &Theirs, const Value &EntryVal);

  std::shared_ptr<CommutativityCache> Cache;
  SequenceDetectorConfig Config;

  /// A query's identity: the location class and the interned signature
  /// ids of both sequences. The table owns its keys' class text;
  /// lookups pass a QueryRef view of the caller's.
  struct QueryRef {
    std::string_view LocClass;
    uint64_t MineId = 0;
    uint64_t TheirsId = 0;
  };
  struct QueryId {
    std::string LocClass;
    uint64_t MineId = 0;
    uint64_t TheirsId = 0;
    operator QueryRef() const { return {LocClass, MineId, TheirsId}; }
  };
  struct QueryHash {
    using is_transparent = void;
    size_t operator()(const QueryRef &R) const;
  };
  struct QueryEq {
    using is_transparent = void;
    bool operator()(const QueryRef &A, const QueryRef &B) const {
      return A.MineId == B.MineId && A.TheirsId == B.TheirsId &&
             A.LocClass == B.LocClass;
    }
  };

  /// One query-table entry: the cache's answer for the key as read at
  /// Generation (nullopt: no entry), and the rendered cache key once
  /// the query has missed. A key that missed stays a Figure 11 miss
  /// after the cache fills it.
  struct QueryEntry {
    std::optional<symbolic::Condition> Cond;
    uint64_t Generation = 0;
    std::string MissedKey;
  };

  /// One stripe of the query table.
  struct alignas(64) QueryShard {
    mutable std::shared_mutex Mutex;
    std::unordered_map<QueryId, QueryEntry, QueryHash, QueryEq> Table;
  };

  /// One stripe of the signature memo: injective key over (kind,
  /// operand, read result) triples → interned canonical abstraction.
  struct alignas(64) MemoShard {
    mutable std::shared_mutex Mutex;
    std::unordered_map<std::string, std::shared_ptr<const InternedAbs>>
        Memo;
  };

  /// Lock stripes of the memo and the query table: detection rounds
  /// running on different worker threads hash to different stripes, so
  /// neither is a single contended lock. A power of two.
  static constexpr size_t Stripes = 8;
  std::array<QueryShard, Stripes> Queries;
  std::array<MemoShard, Stripes> Memos;
  /// Total memo capacity, split evenly across the stripes.
  static constexpr size_t MaxMemoEntries = 1u << 16;

  /// Hash-cons table: distinct signature text → id. Written only on a
  /// memo miss.
  std::mutex InternMutex;
  std::unordered_map<std::string, uint64_t> SigIds;
};

} // namespace conflict
} // namespace janus

#endif // JANUS_CONFLICT_SEQUENCEDETECTOR_H
