//===----------------------------------------------------------------------===//
///
/// \file
/// The observability façade the engines are wired through.
///
/// An `Observer` bundles the trace buffer, the metrics registry and the
/// sampling decision behind the one pointer both engines carry
/// (`ShardedConfig::Obs` / `SimConfig::Obs`, nullptr = observability
/// off). The hot-path contract, checked by the micro_commit guard:
///
///  - **Compile-time off** (`cmake -DJANUS_OBS=OFF` defines
///    `JANUS_OBS_ENABLED=0`): `janusObs(Config.Obs)` is a constant
///    nullptr, so every instrumentation block — including its clock
///    reads — is dead code the compiler deletes. The hot path is
///    bit-identical to the pre-obs runtime.
///  - **Runtime off** (no `--trace-out`, Obs pointer null): one
///    pointer test per instrumentation site.
///  - **Sampling** (`ObsConfig::SampleEvery = N`): spans and latency
///    samples are recorded for one task in N (always task 1's
///    congruence class, so a given task set yields the same sampled
///    ids on every run). Unsampled tasks pay one branch per site, no
///    clock reads. The RunStats/DetectorStats counters are unaffected
///    by sampling — they stay exact.
///
/// Span timestamps are microseconds since the observer was created
/// (real-thread engine) or virtual-time units (simulator).
///
//===----------------------------------------------------------------------===//

#ifndef JANUS_OBS_OBS_H
#define JANUS_OBS_OBS_H

#include "janus/obs/Metrics.h"
#include "janus/obs/Trace.h"

#include <atomic>
#include <chrono>
#include <string>

/// Compile-time master switch; `cmake -DJANUS_OBS=OFF` defines it to 0
/// and every instrumentation site folds to nothing.
#ifndef JANUS_OBS_ENABLED
#define JANUS_OBS_ENABLED 1
#endif

namespace janus {
namespace obs {

/// User-facing observability configuration (core::JanusConfig::Obs).
struct ObsConfig {
  bool Enabled = false;
  /// Trace (and time) one task in N; 1 = every task. Sampling keeps
  /// span recording off the hot path of high-throughput runs while the
  /// sampled tasks still populate every histogram.
  uint32_t SampleEvery = 1;
  /// Per-lane span cap; past it events are dropped and counted
  /// (`obs.spans_dropped`), bounding trace memory.
  size_t MaxEventsPerLane = 1u << 20;
  /// Adaptive sampling: when a span is dropped (a lane hit
  /// MaxEventsPerLane), double the effective sampling period instead of
  /// silently truncating the trace tail — later tasks are sampled more
  /// sparsely but the run's full time range stays represented. Each
  /// raise is counted (`obs.sample_rate_raises`); the configured
  /// SampleEvery is never lowered.
  bool AdaptiveSampling = true;
};

/// See the file header. One Observer instance serves one Janus
/// instance; its trace accumulates across runs until clear().
class Observer {
public:
  /// \param NumLanes executor lanes to provision (threads/cores + 1;
  ///        the last lane is the auxiliary lane for out-of-run events).
  Observer(ObsConfig Config, unsigned NumLanes)
      : Config(Config), Buffer(NumLanes, Config.MaxEventsPerLane),
        Start(std::chrono::steady_clock::now()),
        EffectiveSampleEvery(Config.SampleEvery ? Config.SampleEvery : 1),
        CommitLatency(Registry.histogram("commit_latency_us")),
        DetectLatency(Registry.histogram("detect_latency_us")),
        BackoffWait(Registry.histogram("backoff_wait_us")),
        SatSolve(Registry.histogram("sat_solve_us")),
        SpansRecorded(Registry.counter("obs.spans_recorded")),
        SampleRateRaises(Registry.counter("obs.sample_rate_raises")) {}

  const ObsConfig &config() const { return Config; }

  /// \returns whether task \p Tid's spans/latencies are recorded. The
  /// sampled congruence class contains task 1, so singleton runs are
  /// always traced. Uses the *effective* sampling period, which
  /// adaptive sampling may have raised above ObsConfig::SampleEvery.
  bool sampled(uint32_t Tid) const {
    if (!Config.Enabled)
      return false;
    uint32_t N = EffectiveSampleEvery.load(std::memory_order_relaxed);
    return N <= 1 || Tid % N == 1 % N;
  }

  /// The sampling period currently in force (== ObsConfig::SampleEvery
  /// until a span drop triggers an adaptive raise).
  uint32_t effectiveSampleEvery() const {
    return EffectiveSampleEvery.load(std::memory_order_relaxed);
  }

  /// Wall-clock microseconds since the observer was created (the
  /// threaded engine's timestamp base; the simulator passes virtual
  /// time instead).
  double nowUs() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - Start)
        .count();
  }

  /// Records a complete span ('X').
  // NOLINTNEXTLINE(bugprone-easily-swappable-parameters): the
  // (tid, attempt) and (ts, dur) orders are the Chrome trace-event
  // convention every call site follows.
  void span(unsigned Lane, const char *Name, uint32_t Tid, uint32_t Attempt,
            double Ts, double Dur, const char *ExtraKey = nullptr,
            double Extra = 0.0, const char *Note = nullptr) {
    SpanRecord R;
    R.Name = Name;
    R.Ph = 'X';
    R.Ts = Ts;
    R.Dur = Dur;
    R.Tid = Tid;
    R.Attempt = Attempt;
    R.Lane = Lane;
    R.ExtraKey = ExtraKey;
    R.Extra = Extra;
    R.Note = Note;
    if (!Buffer.append(Lane, R)) {
      onSpanDropped();
      return;
    }
    ++SpansRecorded;
  }

  /// Records an instant event ('i').
  void instant(unsigned Lane, const char *Name, uint32_t Tid,
               uint32_t Attempt, double Ts, const char *Note = nullptr) {
    SpanRecord R;
    R.Name = Name;
    R.Ph = 'i';
    R.Ts = Ts;
    R.Tid = Tid;
    R.Attempt = Attempt;
    R.Lane = Lane;
    R.Note = Note;
    if (!Buffer.append(Lane, R)) {
      onSpanDropped();
      return;
    }
    ++SpansRecorded;
  }

  /// The auxiliary lane for events outside any executor (SAT solves
  /// during training, registry-level events).
  unsigned auxLane() const { return Buffer.lanes() - 1; }

  MetricsRegistry &metrics() { return Registry; }
  const MetricsRegistry &metrics() const { return Registry; }
  TraceBuffer &trace() { return Buffer; }
  const TraceBuffer &trace() const { return Buffer; }

  /// Standard instruments, created eagerly so hot paths never touch
  /// the registry mutex.
  LatencyHistogram &commitLatency() { return CommitLatency; }
  LatencyHistogram &detectLatency() { return DetectLatency; }
  LatencyHistogram &backoffWait() { return BackoffWait; }
  LatencyHistogram &satSolve() { return SatSolve; }

  /// Drops recorded spans and zeroes every metric (a fresh run on the
  /// same instance). Also resets the adaptive sampling period to the
  /// configured one: the raise was a response to the cleared trace.
  void clear() {
    Buffer.clear();
    Registry.reset();
    EffectiveSampleEvery.store(Config.SampleEvery ? Config.SampleEvery : 1,
                               std::memory_order_relaxed);
  }

  // --- Exporters (Export.cpp; not needed by the engines). -------------

  /// Writes the trace as Chrome trace-event JSON (load in Perfetto or
  /// chrome://tracing). \p ExtraEvents, when non-empty, is a
  /// pre-rendered fragment of additional trace-event objects (comma
  /// separated, no enclosing brackets) spliced into the traceEvents
  /// array — e.g. the contention counter track from
  /// obs::counterTrackEvents. \returns false on I/O failure.
  bool writeChromeTrace(const std::string &Path, std::string *Err = nullptr,
                        const std::string &ExtraEvents = {}) const;

  /// The trace rendered as Chrome trace-event JSON.
  std::string chromeTraceJson(const std::string &ExtraEvents = {}) const;

  /// Metrics rendered as an aligned text table (CLI report section).
  std::string metricsTable() const;

  /// Metrics rendered as a JSON object fragment (shared schema with
  /// `janus run --json`; see support/Json.h).
  std::string metricsJson() const;

private:
  /// Ceiling for adaptive raises: past one-in-a-million the trace is
  /// effectively a singleton sample and further doubling is noise.
  static constexpr uint32_t MaxSampleEvery = 1u << 20;

  /// A lane just dropped a span. Under adaptive sampling, double the
  /// effective period (saturating at MaxSampleEvery) so the rest of the
  /// run records a sparser but complete picture. Lock-free: concurrent
  /// droppers race on the CAS and at most one doubling per observed
  /// value wins, which is exactly the intended growth rate.
  void onSpanDropped() {
    if (!Config.AdaptiveSampling)
      return;
    uint32_t Cur = EffectiveSampleEvery.load(std::memory_order_relaxed);
    while (Cur < MaxSampleEvery) {
      if (EffectiveSampleEvery.compare_exchange_weak(
              Cur, Cur * 2, std::memory_order_relaxed,
              std::memory_order_relaxed)) {
        ++SampleRateRaises;
        return;
      }
      // Cur was reloaded by the failed CAS; a racer already doubled.
      return;
    }
  }

  ObsConfig Config;
  MetricsRegistry Registry;
  TraceBuffer Buffer;
  std::chrono::steady_clock::time_point Start;
  std::atomic<uint32_t> EffectiveSampleEvery;
  LatencyHistogram &CommitLatency;
  LatencyHistogram &DetectLatency;
  LatencyHistogram &BackoffWait;
  LatencyHistogram &SatSolve;
  Counter &SpansRecorded;
  Counter &SampleRateRaises;
};

/// The engines' compile-time gate: with JANUS_OBS_ENABLED=0 this folds
/// to a constant nullptr and instrumentation blocks become dead code.
inline Observer *janusObs(Observer *O) {
  return JANUS_OBS_ENABLED ? O : nullptr;
}

} // namespace obs
} // namespace janus

#endif // JANUS_OBS_OBS_H
