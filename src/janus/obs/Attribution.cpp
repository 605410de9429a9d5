#include "janus/obs/Attribution.h"

#include "janus/conflict/Explain.h"
#include "janus/stm/Attempt.h"
#include "janus/support/Format.h"
#include "janus/support/Json.h"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

using namespace janus;
using namespace janus::obs;

/// The Reason strings of conflict/Explain.cpp open with the name of the
/// Figure 8 check that failed ("SAMEREAD violated: ...", "COMMUTE
/// violated: ..."); the verdict column is that leading word.
static std::string verdictOf(const std::string &Reason) {
  size_t Space = Reason.find(' ');
  return Space == std::string::npos ? Reason : Reason.substr(0, Space);
}

AbortAttribution obs::attributeAborts(const stm::AuditTrace &Trace,
                                      const ObjectRegistry &Reg) {
  AbortAttribution Out;
  if (!Trace.Recorded)
    return Out;

  // Aggregation key: (location, op pair, verdict). std::map keeps the
  // tie-break order (key asc) deterministic for free.
  using Key = std::tuple<std::string, std::string, std::string, std::string>;
  struct Agg {
    uint64_t Aborts = 0;
    std::string Detail;
  };
  std::map<Key, Agg> ByKey;
  std::map<uint32_t, uint64_t> ByReason; // Aborts that ran no detection.

  std::vector<const stm::TraceEvent *> Committed = Trace.committedInOrder();

  for (const stm::TraceEvent &E : Trace.Events) {
    if (E.Committed)
      continue;
    ++Out.TotalAborts;
    if (E.AbortReason != RecAbortConflict) {
      ++ByReason[E.AbortReason];
      continue;
    }

    // The commits the detector could have seen: those in its window
    // (begin, detect-end].
    std::vector<stm::TxLogRef> Window;
    for (const stm::TraceEvent *C : Committed)
      if (C->CommitTime > E.BeginTime && C->CommitTime <= E.DetectEnd &&
          C->Log && !C->Log->empty())
        Window.push_back(C->Log);

    conflict::ConflictExplanation Ex;
    if (E.Log && !E.Log->empty() && !Window.empty())
      Ex = conflict::explainConflict(E.Entry, *E.Log, Window, Reg);

    if (!Ex.Conflicting) {
      ++Out.Unattributed;
      continue;
    }
    Agg &A = ByKey[{Ex.LocationName, Ex.MineSeq, Ex.TheirsSeq,
                    verdictOf(Ex.Reason)}];
    ++A.Aborts;
    if (A.Detail.empty())
      A.Detail = Ex.Reason;
  }

  Out.Rows.reserve(ByKey.size() + ByReason.size() + 1);
  for (const auto &[K, A] : ByKey) {
    AttributionRow R;
    R.LocationName = std::get<0>(K);
    R.MineOps = std::get<1>(K);
    R.TheirOps = std::get<2>(K);
    R.Verdict = std::get<3>(K);
    R.Detail = A.Detail;
    R.Aborts = A.Aborts;
    Out.Rows.push_back(std::move(R));
  }
  for (const auto &[Code, N] : ByReason) {
    AttributionRow R;
    R.Verdict = stm::abortNote(Code);
    R.LocationName = "(" + R.Verdict + ")";
    R.Detail = "aborted before detection (" + R.Verdict + ")";
    R.Aborts = N;
    Out.Rows.push_back(std::move(R));
  }
  // Rank by count desc; map iteration order (key asc, conflict rows
  // before abort reasons) already settled ties, and stable_sort
  // preserves it.
  std::stable_sort(Out.Rows.begin(), Out.Rows.end(),
                   [](const AttributionRow &A, const AttributionRow &B) {
                     return A.Aborts > B.Aborts;
                   });
  if (Out.Unattributed) {
    AttributionRow R;
    R.LocationName = "(unattributed)";
    R.Verdict = "unattributed";
    R.Detail = "no conflicting committed pair in the detection window";
    R.Aborts = Out.Unattributed;
    Out.Rows.push_back(std::move(R));
  }
  return Out;
}

std::string AbortAttribution::toTable(size_t TopN) const {
  std::string Head = "top conflict sources (" +
                     std::to_string(TotalAborts) + " aborted attempt" +
                     (TotalAborts == 1 ? "" : "s") + ")\n";
  if (!TotalAborts)
    return Head + "  none - every attempt committed first try\n";

  TextTable T;
  T.setHeader({"#", "aborts", "share", "location", "verdict", "mine",
               "theirs"});
  size_t N = TopN ? std::min(TopN, Rows.size()) : Rows.size();
  for (size_t I = 0; I != N; ++I) {
    const AttributionRow &R = Rows[I];
    T.addRow({std::to_string(I + 1), std::to_string(R.Aborts),
              formatPercent(static_cast<double>(R.Aborts) /
                            static_cast<double>(TotalAborts)),
              R.LocationName, R.Verdict, R.MineOps, R.TheirOps});
  }
  std::string Out = Head + T.render();
  if (N && !Rows[0].Detail.empty())
    Out += "top source detail: " + Rows[0].Detail + "\n";
  if (N < Rows.size())
    Out += "(" + std::to_string(Rows.size() - N) + " more row" +
           (Rows.size() - N == 1 ? "" : "s") + " suppressed)\n";
  return Out;
}

ContentionHeatmap obs::buildHeatmap(const stm::AuditTrace &Trace,
                                    const ObjectRegistry &Reg) {
  ContentionHeatmap Out;
  if (!Trace.Recorded)
    return Out;

  struct Agg {
    uint64_t Aborts = 0;
    uint64_t Commits = 0;
    std::set<Location> Locations;
  };
  std::map<std::string, Agg> ByObject; // Name-keyed: deterministic.

  for (const stm::TraceEvent &E : Trace.Events) {
    (E.Committed ? Out.TotalCommits : Out.TotalAborts) += 1;
    if (!E.Log || E.Log->empty())
      continue;
    // One count per (attempt, object): a task hammering many slots of
    // one array still contended for that one object once.
    std::set<ObjectId> Seen;
    for (const stm::LogEntry &Entry : *E.Log) {
      Agg &A = ByObject[Reg.info(Entry.Loc.Obj).Name];
      A.Locations.insert(Entry.Loc);
      if (Seen.insert(Entry.Loc.Obj).second)
        (E.Committed ? A.Commits : A.Aborts) += 1;
    }
  }

  Out.Rows.reserve(ByObject.size());
  for (const auto &[Name, A] : ByObject) {
    ObjectHeatRow R;
    R.ObjectName = Name;
    R.Aborts = A.Aborts;
    R.Commits = A.Commits;
    R.Locations = A.Locations.size();
    Out.Rows.push_back(std::move(R));
  }
  std::stable_sort(Out.Rows.begin(), Out.Rows.end(),
                   [](const ObjectHeatRow &A, const ObjectHeatRow &B) {
                     if (A.Aborts != B.Aborts)
                       return A.Aborts > B.Aborts;
                     return A.Commits > B.Commits;
                   });
  return Out;
}

std::string ContentionHeatmap::toTable(size_t TopN) const {
  std::string Head = "contention by object (" + std::to_string(TotalCommits) +
                     " committed, " + std::to_string(TotalAborts) +
                     " aborted attempts)\n";
  if (Rows.empty())
    return Head + "  no shared accesses recorded\n";
  TextTable T;
  T.setHeader({"#", "object", "aborts", "abort share", "commits",
               "locations"});
  size_t N = TopN ? std::min(TopN, Rows.size()) : Rows.size();
  for (size_t I = 0; I != N; ++I) {
    const ObjectHeatRow &R = Rows[I];
    T.addRow({std::to_string(I + 1), R.ObjectName, std::to_string(R.Aborts),
              TotalAborts ? formatPercent(static_cast<double>(R.Aborts) /
                                          static_cast<double>(TotalAborts))
                          : "-",
              std::to_string(R.Commits), std::to_string(R.Locations)});
  }
  std::string Out = Head + T.render();
  if (N < Rows.size())
    Out += "(" + std::to_string(Rows.size() - N) + " more row" +
           (Rows.size() - N == 1 ? "" : "s") + " suppressed)\n";
  return Out;
}

std::string ContentionHeatmap::toJson() const {
  JsonWriter W;
  W.beginObject();
  W.field("total_aborts", TotalAborts);
  W.field("total_commits", TotalCommits);
  W.key("rows");
  W.beginArray();
  for (const ObjectHeatRow &R : Rows) {
    W.beginObject();
    W.field("object", R.ObjectName);
    W.field("aborts", R.Aborts);
    W.field("commits", R.Commits);
    W.field("locations", R.Locations);
    W.endObject();
  }
  W.endArray();
  W.endObject();
  return W.str();
}

std::string obs::counterTrackEvents(const stm::AuditTrace &Trace,
                                    const ObjectRegistry &Reg,
                                    size_t TopLocations) {
  if (!Trace.Recorded || !TopLocations)
    return {};

  // Rank locations by contention: aborted-attempt touches first.
  struct Heat {
    uint64_t Aborts = 0;
    uint64_t Commits = 0;
  };
  std::map<Location, Heat> ByLoc;
  for (const stm::TraceEvent &E : Trace.Events) {
    if (!E.Log || E.Log->empty())
      continue;
    std::set<Location> Seen;
    for (const stm::LogEntry &Entry : *E.Log)
      if (Seen.insert(Entry.Loc).second)
        (E.Committed ? ByLoc[Entry.Loc].Commits : ByLoc[Entry.Loc].Aborts) +=
            1;
  }
  if (ByLoc.empty())
    return {};
  std::vector<std::pair<Location, Heat>> Ranked(ByLoc.begin(), ByLoc.end());
  std::stable_sort(Ranked.begin(), Ranked.end(),
                   [](const auto &A, const auto &B) {
                     if (A.second.Aborts != B.second.Aborts)
                       return A.second.Aborts > B.second.Aborts;
                     return A.second.Commits > B.second.Commits;
                   });
  Ranked.resize(std::min(Ranked.size(), TopLocations));
  std::map<Location, size_t> Hot;
  for (size_t I = 0; I != Ranked.size(); ++I)
    Hot[Ranked[I].first] = I;

  // Samples on the logical clock: (ts, hot index, committed). Aborted
  // attempts sample at begin + 0.5 so they never collide with a commit
  // tick on the integer clock.
  struct Sample {
    double Ts;
    size_t Idx;
    bool Committed;
  };
  std::vector<Sample> Samples;
  for (const stm::TraceEvent &E : Trace.Events) {
    if (!E.Log || E.Log->empty())
      continue;
    double Ts = E.Committed ? static_cast<double>(E.CommitTime)
                            : static_cast<double>(E.BeginTime) + 0.5;
    std::set<Location> Seen;
    for (const stm::LogEntry &Entry : *E.Log) {
      auto It = Hot.find(Entry.Loc);
      if (It != Hot.end() && Seen.insert(Entry.Loc).second)
        Samples.push_back(Sample{Ts, It->second, E.Committed});
    }
  }
  std::stable_sort(Samples.begin(), Samples.end(),
                   [](const Sample &A, const Sample &B) { return A.Ts < B.Ts; });

  JsonWriter W;
  // Name the counter process so the track group is self-describing.
  W.beginObject();
  W.field("name", "process_name");
  W.field("ph", "M");
  W.field("pid", 2);
  W.field("tid", static_cast<uint64_t>(0));
  W.key("args");
  W.beginObject();
  W.field("name", "contention (logical clock)");
  W.endObject();
  W.endObject();

  std::vector<Heat> Running(Ranked.size());
  for (const Sample &S : Samples) {
    Heat &H = Running[S.Idx];
    (S.Committed ? H.Commits : H.Aborts) += 1;
    W.beginObject();
    W.field("name", "contention:" + Reg.locationName(Ranked[S.Idx].first));
    W.field("ph", "C");
    W.field("ts", S.Ts);
    W.field("pid", 2);
    W.field("tid", static_cast<uint64_t>(0));
    W.field("cat", "janus");
    W.key("args");
    W.beginObject();
    W.field("commits", H.Commits);
    W.field("aborts", H.Aborts);
    W.endObject();
    W.endObject();
  }
  return W.str();
}

std::string AbortAttribution::toJson() const {
  JsonWriter W;
  W.beginObject();
  W.field("total_aborts", TotalAborts);
  W.field("unattributed", Unattributed);
  W.key("rows");
  W.beginArray();
  for (const AttributionRow &R : Rows) {
    W.beginObject();
    W.field("location", R.LocationName);
    W.field("verdict", R.Verdict);
    W.field("mine", R.MineOps);
    W.field("theirs", R.TheirOps);
    W.field("detail", R.Detail);
    W.field("aborts", R.Aborts);
    W.endObject();
  }
  W.endArray();
  W.endObject();
  return W.str();
}
