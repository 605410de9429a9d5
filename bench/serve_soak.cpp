//===----------------------------------------------------------------------===//
///
/// \file
/// Service soak benchmark: committed throughput of janus::serve under
/// admission-controlled overload.
///
/// The claim under test is the robustness headline, not a speedup: a
/// service with bounded queues and load shedding should hold its
/// *committed* throughput roughly flat when the offered load blows past
/// capacity, instead of collapsing into queueing delay and retry
/// storms. The harness:
///
///   1. **Calibrates** sustainable capacity: an unthrottled burst of
///      submissions through the full service path (admission, DRR
///      lanes, batching, engine, replies) yields committed/s.
///   2. **Baseline**: producers offer 0.8× capacity for the soak
///      window — the service should commit essentially everything.
///   3. **Overload**: producers offer 4× capacity. Admission control
///      sheds the excess with structured `Overloaded` replies; the
///      gate checks committed/s stays within the tolerance of
///      baseline (default 20%, the ROADMAP acceptance bound).
///
/// Scenarios run on the real-thread engine at 1 shard (rows labelled
/// `threaded`) and at 8 shards (`sharded`). Every run must end *clean*:
/// exactly one terminal reply per submission and a drain inside the
/// hard deadline.
///
/// Rows ({engine, scenario, offered_rate, committed_per_s, sheds,
/// retry_ratio, ...}) land in BENCH_serve_soak.json via the shared
/// `--json` emitter, extending the perf trajectory; `--quick` shrinks
/// the windows for the CI soak stage. Exit status: nonzero when a run
/// is unclean or the overload gate fails (`--no-gate` demotes the gate
/// to a warning for noisy shared machines).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "janus/serve/Serve.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

using namespace janus;
using namespace janus::core;
using namespace janus::serve;

namespace {

/// Producer clients per scenario; offered load is split evenly.
constexpr int NumClients = 4;

struct SoakResult {
  double OfferedRate = 0.0;   ///< Submissions/s the producers aimed for.
  double CommittedPerS = 0.0; ///< Terminal Committed replies per second.
  uint64_t Received = 0;
  uint64_t Committed = 0;
  uint64_t Sheds = 0;
  uint64_t DeadlineFailures = 0;
  double RetryRatio = 0.0; ///< Engine retries / engine commits.
  bool Clean = false;      ///< Reply accounting + audits + drain.
};

/// The soak task mix: mostly disjoint slot writes (parallel-friendly)
/// with every eighth task bumping a shared counter (a real conflict
/// source, so the retry/backoff machinery is actually load-bearing).
std::vector<stm::TaskFn> makePool(Janus &J) {
  ObjectId Slots = J.registry().registerObject("slots", "slots.elem");
  Location Counter(J.registry().registerObject("counter"));
  std::vector<stm::TaskFn> Pool;
  for (int I = 0; I != 32; ++I) {
    if (I % 8 == 7)
      Pool.push_back(
          [Counter](stm::TxContext &Tx) { Tx.add(Counter, 1); });
    else
      Pool.push_back([Slots, I](stm::TxContext &Tx) {
        for (int W = 0; W != 4; ++W)
          Tx.write(Location(Slots, I * 64 + W), Value::of(int64_t(I)));
      });
  }
  return Pool;
}

/// Runs one soak window through a fresh service. \p RatePerS == 0
/// means unthrottled (the calibration burst).
SoakResult runSoak(unsigned Shards, double RatePerS, int DurationMs,
                   unsigned Threads) {
  JanusConfig Cfg;
  Cfg.Engine = EngineKind::Threaded;
  Cfg.Detector = DetectorKind::WriteSet;
  Cfg.Threads = Threads;
  Cfg.Shards = Shards;
  Janus J(Cfg);
  std::vector<stm::TaskFn> Pool = makePool(J);

  ServeConfig SC;
  SC.BatchMax = 64;
  SC.QueueCap = 2048;
  SC.LaneCap = 1024;
  SC.DrainHardUs = 10000000; // Generous: a hard cancel would be a bug.
  Service S(J, Pool, SC);

  std::vector<std::thread> Producers;
  auto End = std::chrono::steady_clock::now() +
             std::chrono::milliseconds(DurationMs);
  std::atomic<uint64_t> Offered{0};
  for (int C = 0; C != NumClients; ++C)
    Producers.emplace_back([&, C] {
      const double PerClient = RatePerS / NumClients;
      const auto Start = std::chrono::steady_clock::now();
      uint64_t Sent = 0;
      uint32_t Task = static_cast<uint32_t>(C);
      while (std::chrono::steady_clock::now() < End) {
        if (PerClient > 0.0) {
          // Pace against the schedule, not sleep-per-submit: at high
          // rates the next due time may already be in the past, in
          // which case submit back-to-back until caught up.
          auto Due = Start + std::chrono::microseconds(static_cast<int64_t>(
                                 static_cast<double>(Sent) * 1e6 / PerClient));
          if (Due > std::chrono::steady_clock::now())
            std::this_thread::sleep_until(Due);
        }
        S.submit(static_cast<uint64_t>(C + 1), Sent, Task);
        Task += NumClients;
        ++Sent;
        if (PerClient <= 0.0 && Sent % 64 == 0)
          std::this_thread::yield(); // Unthrottled: let the scheduler in.
      }
      Offered.fetch_add(Sent, std::memory_order_relaxed);
    });

  std::thread Stopper([&] {
    for (std::thread &P : Producers)
      P.join();
    S.requestStop();
  });

  auto ServeStart = std::chrono::steady_clock::now();
  S.serve();
  double Secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - ServeStart)
                    .count();
  Stopper.join();

  ServeReport R = S.report();
  SoakResult Out;
  Out.OfferedRate = RatePerS > 0.0
                        ? RatePerS
                        : static_cast<double>(Offered.load()) /
                              (DurationMs / 1000.0);
  Out.CommittedPerS =
      Secs > 0.0 ? static_cast<double>(R.Committed) / Secs : 0.0;
  Out.Received = R.Received;
  Out.Committed = R.Committed;
  Out.Sheds = R.Sheds;
  Out.DeadlineFailures = R.DeadlineFailures;
  uint64_t Commits = J.runStats().Commits.load();
  Out.RetryRatio = Commits ? static_cast<double>(
                                 J.runStats().Retries.load()) /
                                 static_cast<double>(Commits)
                           : 0.0;
  Out.Clean = R.clean() && R.DrainedInTime;
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Quick = false, Gate = true;
  double TolerancePct = 20.0;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--quick") == 0)
      Quick = true;
    else if (std::strcmp(Argv[I], "--no-gate") == 0)
      Gate = false;
    else if (std::strncmp(Argv[I], "--tolerance=", 12) == 0)
      TolerancePct = std::atof(Argv[I] + 12);
  }

  bench::BenchReport Report("serve_soak", Argc, Argv);
  const unsigned Threads = 4;
  const int CalibrateMs = Quick ? 300 : 1000;
  const int SoakMs = Quick ? 500 : 2000;
  Report.setMeta("quick", Quick);
  Report.setMeta("threads", Threads);
  Report.setMeta("clients", NumClients);
  Report.setMeta("tolerance_pct", TolerancePct);
  Report.setMeta("hw_threads",
                 static_cast<unsigned>(std::thread::hardware_concurrency()));

  std::printf("serve_soak: committed throughput under admission-controlled "
              "overload\n(%d producer clients, %u worker threads; soak "
              "window %d ms)\n\n",
              NumClients, Threads, SoakMs);

  bool AllClean = true, GateOk = true;
  struct EngineSpec {
    const char *Name;
    unsigned Shards;
  };
  const EngineSpec Engines[] = {{"threaded", 1}, {"sharded", 8}};
  for (const EngineSpec &E : Engines) {
    SoakResult Cal = runSoak(E.Shards, 0.0, CalibrateMs, Threads);
    double Capacity = Cal.CommittedPerS;
    SoakResult Base =
        runSoak(E.Shards, 0.8 * Capacity, SoakMs, Threads);
    SoakResult Over = runSoak(E.Shards, 4.0 * Capacity, SoakMs, Threads);
    AllClean = AllClean && Cal.Clean && Base.Clean && Over.Clean;

    TextTable T;
    T.setHeader({"scenario", "offered/s", "committed/s", "sheds",
                 "retry-ratio", "clean"});
    struct Row {
      const char *Scenario;
      const SoakResult *R;
    };
    for (const Row &Row : {Row{"calibrate", &Cal}, Row{"baseline", &Base},
                           Row{"overload-4x", &Over}}) {
      const SoakResult &R = *Row.R;
      T.addRow({Row.Scenario, formatDouble(R.OfferedRate, 0),
                formatDouble(R.CommittedPerS, 0), std::to_string(R.Sheds),
                formatDouble(R.RetryRatio, 3), R.Clean ? "yes" : "NO"});
      Report.addRow({{"engine", E.Name},
                     {"scenario", Row.Scenario},
                     {"threads", Threads},
                     {"shards", E.Shards},
                     {"offered_rate", R.OfferedRate},
                     {"committed_per_s", R.CommittedPerS},
                     {"received", R.Received},
                     {"committed", R.Committed},
                     {"sheds", R.Sheds},
                     {"deadline_failures", R.DeadlineFailures},
                     {"retry_ratio", R.RetryRatio},
                     {"clean", R.Clean}});
    }
    std::printf("[engine=%s shards=%u capacity=%.0f/s]\n%s\n", E.Name,
                E.Shards, Capacity, T.render().c_str());

    // The robustness gate: overload must not collapse committed
    // throughput. Tolerance is relative to the baseline scenario.
    double Floor = Base.CommittedPerS * (1.0 - TolerancePct / 100.0);
    bool Held = Over.CommittedPerS >= Floor;
    std::printf("  overload gate (%s): committed %.0f/s vs baseline "
                "%.0f/s (floor %.0f/s) -- %s\n\n",
                E.Name, Over.CommittedPerS, Base.CommittedPerS, Floor,
                Held ? "HELD" : "COLLAPSED");
    GateOk = GateOk && Held;
  }

  if (!AllClean) {
    std::fprintf(stderr, "serve_soak: FAILED: a soak run was unclean "
                         "(lost replies, audit violation, or hard-cancelled "
                         "drain)\n");
    return Report.write() ? 1 : 1;
  }
  if (!GateOk && Gate) {
    std::fprintf(stderr, "serve_soak: FAILED: committed throughput "
                         "collapsed under overload (>%.0f%% below "
                         "baseline); use --no-gate to demote\n",
                 TolerancePct);
    return Report.write() ? 1 : 1;
  }
  if (!GateOk)
    std::fprintf(stderr, "serve_soak: warning: overload gate missed "
                         "(--no-gate set, not failing)\n");
  return Report.write() ? 0 : 1;
}
