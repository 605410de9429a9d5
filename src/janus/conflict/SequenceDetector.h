//===----------------------------------------------------------------------===//
///
/// \file
/// Sequence-based conflict detection using projection (paper §5.3,
/// Figure 8).
///
/// DETECTCONFLICTS decomposes the transaction's log and its conflict
/// history into per-location sequences and tests each common location
/// with CONFLICT. In practice CONFLICT consults the commutativity cache
/// populated during training: the sequences are symbolized and
/// abstracted, the (location class, signature pair) is looked up, and
/// the cached condition is evaluated against the concrete bindings and
/// the entry state. On a miss JANUS falls back to the configured
/// default — the write-set test, or (optionally) the exact online
/// sequence check.
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
#include <set>
#include <shared_mutex>
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

/// Assembles a query from already-abstracted halves (the detector's
/// memoized path and the trainer share this).
PairQuery buildPairQueryFrom(const std::string &LocClass,
                             abstraction::AbstractResult MineAbs,
                             abstraction::AbstractResult TheirsAbs);

/// As above, but with the two signature strings already rendered (the
/// detector's interned path: a memo hit carries its canonical signature
/// and skips re-rendering it per query).
PairQuery buildPairQueryFrom(const std::string &LocClass,
                             abstraction::AbstractResult MineAbs,
                             abstraction::AbstractResult TheirsAbs,
                             std::string MineSig, std::string TheirsSig);

/// Configuration of the sequence-based detector.
struct SequenceDetectorConfig {
  /// Kleene-cross sequence abstraction (§5.2). Figure 11 compares
  /// detection with and without it.
  bool UseAbstraction = true;
  /// On a cache miss, run the exact online sequence check instead of
  /// the write-set test ("JANUS can be configured to perform the
  /// sequence-based check online", §5.3).
  bool OnlineFallback = false;
  /// Online training (§5.3: "memoization can be used to support online
  /// training"): on a cache miss, additionally compute the symbolic
  /// commutativity condition for the missed pair and install it, so
  /// recurring queries stop missing. Requires OnlineFallback.
  bool MemoizeOnline = false;
  /// Answer define-before-use queries on tolerate-WAW objects directly
  /// from the relaxation reasoning, without consulting the cache (an
  /// extension beyond the paper; the Figure 11 harness disables it so
  /// the cache sees the full query stream, as in the paper).
  bool RelaxationFastPath = true;
  /// Memoize symbolization + abstraction per distinct concrete
  /// sequence. Per-location sequences recur constantly (the same task
  /// shapes stream past the detector), so this removes nearly all of
  /// the per-query canonicalization cost. Memo entries are *interned*:
  /// each carries its signature rendered once plus a hash-cons id, so
  /// repeated attempts skip re-canonicalization entirely
  /// (DetectorStats::SignatureInternHits counts the skips). Capped;
  /// pure caching, no semantic effect.
  bool MemoizeSignatures = true;
  /// Per-ADT spec-table dispatch (conflict/SpecTable.h): tier 1 of the
  /// query path. On asks the spec first and falls through to the
  /// learned cache on Abstain; Only answers abstains with the write-set
  /// test, bypassing the cache and online tiers; Off restores the
  /// paper's original pipeline. Off by default so the learned-path
  /// harnesses (Figure 11) see the full query stream; the CLI defaults
  /// to On.
  SpecMode Specs = SpecMode::Off;
  /// Adaptive degradation: a per-location query whose two sequences
  /// together exceed this many operations degrades to the write-set
  /// test (the sequence machinery is superlinear in sequence length).
  /// Deterministic. 0 = unlimited.
  uint64_t OnlineOpBudget = 0;
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
  /// sequences with the same abstraction share an id). Id 0 means
  /// "not interned" (memo disabled or intern table at capacity).
  struct InternedAbs {
    abstraction::AbstractResult Abs;
    std::string Sig;
    uint64_t Id = 0;
  };

  /// With \p Degrade set, the precise sequence machinery is skipped
  /// and the location is answered by the write-set test.
  bool locationConflicts(const Value &EntryVal,
                         const symbolic::LocOpSeq &Mine,
                         const symbolic::LocOpSeq &Theirs,
                         const ObjectInfo &Info, bool Degrade);

  /// Memoized + interned abstractSequence(symbolize(Seq),
  /// UseAbstraction) with its pre-rendered signature.
  std::shared_ptr<const InternedAbs>
  abstracted(const symbolic::LocOpSeq &Seq);

  /// Records one production query (and optionally its miss). The fast
  /// path keys the seen-set by (class id, mine id, theirs id) without
  /// rendering the cache key; the string is materialized only on a
  /// miss (diagnostics) or when an id is unavailable.
  void trackQuery(const CacheKey &Key, uint64_t MineId, uint64_t TheirsId,
                  bool Missed);

  /// Hash-cons id for \p Text in \p Table (1-based; 0 when the table
  /// is at capacity).
  uint64_t internIn(std::unordered_map<std::string, uint64_t> &Table,
                    const std::string &Text);

  std::shared_ptr<CommutativityCache> Cache;
  SequenceDetectorConfig Config;

  /// One stripe of the Figure 11 unique-query accounting. SeenIds is
  /// the rendering-free fast path; Seen/Missed hold rendered keys for
  /// misses and non-interned queries.
  struct alignas(64) TrackShard {
    mutable std::mutex Mutex;
    std::set<std::string> Seen;
    std::set<std::string> Missed;
    std::set<std::array<uint64_t, 3>> SeenIds;
  };

  /// One stripe of the signature memo: injective key over (kind,
  /// operand, read result) triples → interned canonical abstraction.
  struct alignas(64) MemoShard {
    mutable std::shared_mutex Mutex;
    std::unordered_map<std::string, std::shared_ptr<const InternedAbs>>
        Memo;
  };

  /// Lock stripes of the memo and the tracking tables: detection
  /// rounds running on different worker threads hash to different
  /// stripes, so neither is a single contended lock. A power of two.
  static constexpr size_t Stripes = 8;
  std::array<TrackShard, Stripes> Tracking;
  std::array<MemoShard, Stripes> Memos;
  /// Total memo capacity, split evenly across the stripes.
  static constexpr size_t MaxMemoEntries = 1u << 16;

  /// Hash-cons tables: distinct signature text → id, distinct location
  /// class → id. Read-mostly (inserts happen only on first sight);
  /// capped, with overflow falling back to string-keyed tracking.
  mutable std::shared_mutex InternMutex;
  std::unordered_map<std::string, uint64_t> SigIds;
  std::unordered_map<std::string, uint64_t> ClassIds;
  static constexpr size_t MaxInternEntries = 1u << 16;
};

} // namespace conflict
} // namespace janus

#endif // JANUS_CONFLICT_SEQUENCEDETECTOR_H
