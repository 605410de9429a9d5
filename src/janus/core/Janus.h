//===----------------------------------------------------------------------===//
///
/// \file
/// The public JANUS façade.
///
/// Mirrors the paper's prototype interface (§7.1): "JANUS is implemented
/// as a (static) library that exposes an interface for running
/// client-provided tasks in parallel (via the run, runInOrder and
/// runOutOfOrder methods), as well as for controlling various aspects
/// of the execution (e.g., enabling profiling, configuring the
/// profiling policy, setting the number of threads, ...)".
///
/// Typical flow:
///   1. construct a Janus with a configuration;
///   2. register shared objects / ADT handles against registry();
///   3. (optionally) train() on training payloads — sequential runs
///      that populate the commutativity cache (§5.1);
///   4. run tasks in parallel with runInOrder()/runOutOfOrder();
///   5. inspect sharedState() and the statistics.
///
//===----------------------------------------------------------------------===//

#ifndef JANUS_CORE_JANUS_H
#define JANUS_CORE_JANUS_H

#include "janus/conflict/SequenceDetector.h"
#include "janus/obs/Obs.h"
#include "janus/stm/ShardedRuntime.h"
#include "janus/stm/SimRuntime.h"
#include "janus/training/Trainer.h"

#include <memory>

namespace janus {
namespace core {

/// Which conflict-detection algorithm the runtime uses.
enum class DetectorKind : uint8_t {
  WriteSet, ///< The standard baseline (paper §1).
  Sequence, ///< Sequence-based detection with projection (§5.3).
};

/// Which execution engine carries the protocol.
enum class EngineKind : uint8_t {
  Threaded,  ///< Real threads (stm::ShardedRuntime); wall-clock timing.
  Simulated, ///< Deterministic virtual-time multicore (see DESIGN.md).
};

/// Full configuration of a JANUS instance.
struct JanusConfig {
  unsigned Threads = 4;
  /// Commit-pipeline shards of the real-thread engine
  /// (stm::ShardedRuntime), rounded up to a power of two and clamped to
  /// [1, stm::ShardedRuntime::MaxShards]. 1 (the default) is a single
  /// commit point. Ignored by the simulator.
  unsigned Shards = 1;
  DetectorKind Detector = DetectorKind::Sequence;
  conflict::SequenceDetectorConfig Sequence;
  EngineKind Engine = EngineKind::Simulated;
  stm::CostModel Costs;
  training::TrainerConfig Training;
  /// Record an audit trace of every run for post-hoc analysis
  /// (janus::analysis; `janus audit`). Off by default: tracing retains
  /// all transaction logs plus entry snapshots for the run's lifetime.
  bool RecordTrace = false;
  /// Contention-management policy: exponential backoff, retry budgets,
  /// escalation to the irrevocable serial fallback.
  resilience::ResilienceConfig Resilience = {};
  /// Deterministic fault-injection plan. Left empty, the constructor
  /// loads it from the `JANUS_FAULTS` environment variable.
  resilience::FaultPlan Faults = {};
  /// Observability (janus::obs): transaction tracing, metrics, SAT
  /// solve-time capture. Disabled by default; see DESIGN.md §8.
  obs::ObsConfig Obs = {};
  /// Cooperative cancellation (deadlines / shutdown), consulted by the
  /// engines at attempt boundaries and inside backoff waits. Task ids
  /// index the table per run. Not owned; must outlive every run that
  /// uses it. Appended last (aggregate initializers).
  const resilience::CancellationTable *Cancel = nullptr;
  /// Flight recorder (janus::obs::Recorder): an always-on, bounded,
  /// lock-free per-lane ring of compact binary events (attempt
  /// begin/abort/commit with dense-clock stamps, shard acquisitions,
  /// escalations, cancellations) dumped to `.jrec` on demand and
  /// re-executed deterministically by `janus replay`. Disabled by
  /// default; see DESIGN.md §13.
  obs::RecorderConfig Record = {};
  /// Forced deterministic schedule (`janus replay`): when set, runs on
  /// the simulated engine re-execute this recorded schedule instead of
  /// simulating scheduling decisions. Not owned; appended last.
  const stm::ReplaySchedule *Replay = nullptr;
  /// Sink for replay execution problems (divergence evidence); used
  /// with Replay. Not owned; appended last.
  std::vector<std::string> *ReplayProblems = nullptr;
};

/// Outcome of one parallel run: the measured parallel duration and the
/// sequential-baseline duration over the same tasks (wall-clock seconds
/// for the threaded engine, virtual units for the simulator). The
/// threaded engine leaves SequentialTime at 0 — a run executes its tasks
/// once — unless the caller times the baseline with
/// Janus::timeSequential and stores it here.
struct RunOutcome {
  double ParallelTime = 0.0;
  double SequentialTime = 0.0;
  /// Tasks whose bodies kept throwing past the exception retry budget.
  /// Their commit slots were filled by empty placeholder commits; their
  /// effects are absent from the final state.
  std::vector<resilience::TaskFailure> Failures;

  double speedup() const {
    return ParallelTime > 0.0 ? SequentialTime / ParallelTime : 0.0;
  }
};

/// A configured parallelization system instance.
class Janus {
public:
  explicit Janus(JanusConfig Config = JanusConfig());
  ~Janus();

  /// Shared-object registry; register objects (or ADT handles) here
  /// before training or running.
  ObjectRegistry &registry() { return Reg; }
  const ObjectRegistry &registry() const { return Reg; }

  const JanusConfig &config() const { return Config; }

  /// Seeds the initial configuration of the shared state.
  void setInitial(const Location &Loc, Value V) {
    sharedState(); // Brings State up to date with the engine.
    State.setInPlace(Loc, std::move(V));
    StateAhead = true;
  }

  /// Runs \p Tasks sequentially against a *copy* of the current shared
  /// state, mining commutativity conditions into the cache (§5.1). The
  /// shared state itself is not disturbed; inferred relaxations are
  /// recorded in the registry.
  void train(const std::vector<stm::TaskFn> &Tasks);

  /// Parallel execution preserving task order (ordered runs terminate
  /// in the sequential final state — Theorem 4.1).
  RunOutcome runInOrder(const std::vector<stm::TaskFn> &Tasks) {
    return runTasks(Tasks, /*Ordered=*/true);
  }

  /// Parallel execution with unconstrained commit order.
  RunOutcome runOutOfOrder(const std::vector<stm::TaskFn> &Tasks) {
    return runTasks(Tasks, /*Ordered=*/false);
  }

  /// Alias for runInOrder (the conservative default).
  RunOutcome run(const std::vector<stm::TaskFn> &Tasks) {
    return runInOrder(Tasks);
  }

  /// Runs \p Tasks one after another on a copy of the current shared
  /// state and \returns the wall-clock seconds they took: the
  /// sequential baseline a real-thread speedup divides by. Bodies run
  /// without fault injection, recording or tracing; a task's private
  /// view, which its body wrote in place, becomes the next task's
  /// state, as the engines commit it. A throwing task contributes its
  /// partial work and no state change. The shared state is not
  /// disturbed. The simulator times
  /// its own virtual baseline and needs no such call.
  double timeSequential(const std::vector<stm::TaskFn> &Tasks) const;

  /// Replaces the fault-injection plan for subsequent runs. A
  /// long-running service (janus::serve) translates its chaos plan's
  /// client-coordinate clauses into per-batch task coordinates here.
  void setFaults(resilience::FaultPlan P) { Config.Faults = std::move(P); }

  /// Points subsequent runs at \p T (nullptr detaches). The table's
  /// task tokens are indexed by the next run's 1-based task ids; the
  /// caller re-provisions it per batch.
  void setCancellations(const resilience::CancellationTable *T) {
    Config.Cancel = T;
  }

  /// Shares \p B with the contention manager of subsequent runs:
  /// engines tick commits into it, the CM publishes serial-fallback /
  /// retry-exhaustion decisions and obeys its escalation level.
  /// nullptr detaches. Not owned.
  void setPressureBoard(resilience::PressureBoard *B) {
    Config.Resilience.Board = B;
  }

  /// \returns the shared state after the last run.
  const stm::Snapshot &sharedState() const;

  /// \returns the audit trace of the most recent run (empty unless
  /// configured with RecordTrace).
  const stm::AuditTrace &lastTrace() const {
    return Engine ? Engine->trace() : Trace;
  }

  /// The observability sink, or nullptr when JanusConfig::Obs is
  /// disabled. Spans and metrics accumulate across runs until
  /// Observer::clear().
  obs::Observer *observer() { return ObsSink.get(); }
  const obs::Observer *observer() const { return ObsSink.get(); }

  /// The flight recorder, or nullptr when JanusConfig::Record is
  /// disabled. Events accumulate across runs until Recorder::clear();
  /// snapshot only between runs (quiesced engine).
  obs::Recorder *recorder() { return RecSink.get(); }
  const obs::Recorder *recorder() const { return RecSink.get(); }

  /// \returns the value at \p Loc in the current shared state.
  Value valueAt(const Location &Loc) const {
    return stm::snapshotValue(sharedState(), Loc);
  }

  /// Cumulative execution statistics over all runs.
  const stm::RunStats &runStats() const { return Stats; }

  /// The active detector (and its statistics).
  stm::ConflictDetector &detector() { return *Detector; }
  const stm::DetectorStats &detectorStats() const {
    return Detector->stats();
  }

  /// \returns the sequence detector, or nullptr when configured with
  /// write-set detection.
  conflict::SequenceDetector *sequenceDetector() { return SeqDetector; }

  /// The commutativity cache (shared with the trainer).
  const std::shared_ptr<conflict::CommutativityCache> &cache() const {
    return Cache;
  }

  /// Training statistics so far.
  const training::TrainStats &trainStats() const {
    return TrainerImpl->stats();
  }

  /// Pattern evidence gathered by training (Table 5's analysis).
  const training::PatternReport &patternReport() const {
    return TrainerImpl->patternReport();
  }

  /// Serializes the commutativity cache (to persist training output).
  std::string exportCache() const { return Cache->serialize(); }

  /// Loads a previously exported cache. \returns false on parse error.
  bool importCache(const std::string &Text) {
    return Cache->deserializeInto(Text);
  }

  /// Writes the cache to \p Path. \returns false on I/O failure.
  bool saveCacheFile(const std::string &Path) const;

  /// Loads the cache from \p Path. \returns false on I/O or parse
  /// failure (the cache is left empty on parse failure).
  bool loadCacheFile(const std::string &Path);

  /// Serializes the *complete* training output: the commutativity cache
  /// plus the per-object relaxation specs (user-provided and inferred).
  /// A fresh instance that registers the same object names can import
  /// this artifact and skip training entirely.
  std::string exportTrainingArtifact() const;

  /// Loads an artifact produced by exportTrainingArtifact. Relaxations
  /// are applied to same-named registered objects (unknown names are
  /// ignored), and only once the whole artifact has parsed.
  /// \returns false on parse failure, with no relaxation applied (the
  /// cache is left empty when its part fails to parse).
  bool importTrainingArtifact(const std::string &Text);

private:
  RunOutcome runTasks(const std::vector<stm::TaskFn> &Tasks, bool Ordered);

  JanusConfig Config;
  ObjectRegistry Reg;
  std::shared_ptr<conflict::CommutativityCache> Cache;
  std::unique_ptr<stm::ConflictDetector> Detector;
  conflict::SequenceDetector *SeqDetector = nullptr;
  std::unique_ptr<training::Trainer> TrainerImpl;
  /// The shared state as the façade last saw it. After a threaded run
  /// the engine's published state is newer until sharedState() pulls it
  /// back (EngineAhead); setInitial's changes reach the engine at the
  /// next threaded run (StateAhead).
  mutable stm::Snapshot State;
  mutable bool EngineAhead = false;
  bool StateAhead = true;
  stm::RunStats Stats;
  stm::AuditTrace Trace; ///< The simulator's last trace.
  /// Created by the constructor when Config.Obs.Enabled; handed by raw
  /// pointer to the engine configurations.
  std::unique_ptr<obs::Observer> ObsSink;
  /// Created by the constructor when Config.Record.Enabled; handed by
  /// raw pointer to the engine configurations.
  std::unique_ptr<obs::Recorder> RecSink;
  /// The live real-thread engine: built at the first threaded run (its
  /// pool then inherits that thread's CPU affinity) and reused by every
  /// later run and serve batch. Declared last: it refers to the
  /// registry, the detector and both sinks.
  std::unique_ptr<stm::ShardedRuntime> Engine;
};

} // namespace core
} // namespace janus

#endif // JANUS_CORE_JANUS_H
