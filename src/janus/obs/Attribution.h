//===----------------------------------------------------------------------===//
///
/// \file
/// Abort attribution: where did the retries go?
///
/// Figure 10's retry pathologies are only diagnosable if aborts can be
/// traced back to *which* location, under *which* operation pair, for
/// *which* reason. This pass consumes a recorded `AuditTrace`, reruns
/// the explained conflict judgment (conflict/Explain.h) for every
/// aborted attempt against the commits that overlapped it, and
/// aggregates the verdicts into a ranked "top conflict sources" table —
/// the `janus explain` subcommand.
///
/// Only conflict aborts ran detection, so only they are explained, each
/// against the commits in its recorded detection window (BeginTime,
/// DetectEnd] — exactly what the detector could have seen. Aborts that
/// ended before detection (injected faults, thrown bodies,
/// cancellations) count in one row per abort reason; a conflict abort
/// with no conflicting pair in its window lands in "(unattributed)".
///
/// Deterministic: rows are aggregated by key and ranked by (count
/// desc, key asc), so identical traces yield identical tables — the
/// determinism test in tests/obs_test.cpp holds the simulator to this.
///
//===----------------------------------------------------------------------===//

#ifndef JANUS_OBS_ATTRIBUTION_H
#define JANUS_OBS_ATTRIBUTION_H

#include "janus/stm/AuditTrace.h"
#include "janus/support/Location.h"

#include <string>
#include <vector>

namespace janus {
namespace obs {

/// One aggregated conflict source.
struct AttributionRow {
  std::string LocationName; ///< e.g. "colors[17]".
  std::string MineOps;      ///< Aborted side, e.g. "R, W(5)".
  std::string TheirOps;     ///< Committed side.
  std::string Verdict; ///< "SAMEREAD", "COMMUTE", an abort reason
                       ///< ("injected", ...) or "unattributed".
  std::string Detail;       ///< First concrete failing condition seen.
  uint64_t Aborts = 0;
};

/// The full report, ranked most-aborts-first.
struct AbortAttribution {
  uint64_t TotalAborts = 0;
  uint64_t Unattributed = 0; ///< Conflict aborts with no conflicting pair.
  std::vector<AttributionRow> Rows;

  /// Aligned "top conflict sources" text table (the `janus explain`
  /// output), truncated to \p TopN rows (0 = all).
  std::string toTable(size_t TopN = 0) const;

  /// JSON rows fragment (shared schema; see support/Json.h).
  std::string toJson() const;
};

/// Builds the report from \p Trace (must have been recorded:
/// JanusConfig::RecordTrace / `janus explain` sets it).
AbortAttribution attributeAborts(const stm::AuditTrace &Trace,
                                 const ObjectRegistry &Reg);

/// One shared object's row in the contention heatmap
/// (`janus explain --by-object`).
struct ObjectHeatRow {
  std::string ObjectName;
  uint64_t Aborts = 0;    ///< Aborted attempts that touched the object.
  uint64_t Commits = 0;   ///< Committed attempts that touched it.
  uint64_t Locations = 0; ///< Distinct locations of it that were touched.
};

/// Per-object contention rollup: for every shared object, how many
/// aborted and committed attempts touched it. Where the attribution
/// table answers "which operation pair conflicts", the heatmap answers
/// "which object absorbs the contention" — the first question when
/// choosing a shard count or splitting a hot container.
struct ContentionHeatmap {
  uint64_t TotalAborts = 0;  ///< Aborted attempts in the trace.
  uint64_t TotalCommits = 0; ///< Committed attempts in the trace.
  /// Ranked by aborts desc, commits desc, name asc (deterministic).
  std::vector<ObjectHeatRow> Rows;

  /// Aligned text table, truncated to \p TopN rows (0 = all).
  std::string toTable(size_t TopN = 0) const;

  /// JSON fragment (shared schema; see support/Json.h).
  std::string toJson() const;
};

/// Builds the per-object rollup from \p Trace.
ContentionHeatmap buildHeatmap(const stm::AuditTrace &Trace,
                               const ObjectRegistry &Reg);

/// Chrome trace-event counter track ('C' phase) for the hottest
/// locations of \p Trace: per location, cumulative committed and
/// aborted attempt touches, sampled on the *logical* commit clock
/// (committed attempts at their CommitTime, aborted ones at their
/// begin). Rendered as its own "contention (logical clock)" process
/// (pid 2) so Perfetto draws it as a separate counter group and the
/// logical timestamps are not confused with the span lanes'
/// wall-clock microseconds. \p TopLocations bounds the track count
/// (ranked by aborted touches desc, committed desc, name asc).
/// \returns a pre-rendered fragment for
/// Observer::writeChromeTrace(..., ExtraEvents); empty when the trace
/// is empty or unrecorded.
std::string counterTrackEvents(const stm::AuditTrace &Trace,
                               const ObjectRegistry &Reg,
                               size_t TopLocations = 8);

} // namespace obs
} // namespace janus

#endif // JANUS_OBS_ATTRIBUTION_H
