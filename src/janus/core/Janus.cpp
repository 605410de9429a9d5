#include "janus/core/Janus.h"

#include "janus/sat/Solver.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>

using namespace janus;
using namespace janus::core;

Janus::Janus(JanusConfig ConfigIn)
    : Config(ConfigIn),
      Cache(std::make_shared<conflict::CommutativityCache>()) {
  switch (Config.Detector) {
  case DetectorKind::WriteSet:
    Detector = std::make_unique<stm::WriteSetDetector>();
    break;
  case DetectorKind::Sequence: {
    auto Seq =
        std::make_unique<conflict::SequenceDetector>(Cache, Config.Sequence);
    SeqDetector = Seq.get();
    Detector = std::move(Seq);
    break;
  }
  }
  // Keep the trainer's abstraction setting aligned with the detector's:
  // cache keys must be built identically on both sides.
  Config.Training.UseAbstraction = Config.Sequence.UseAbstraction;
  // Fault injection: an unconfigured plan picks up JANUS_FAULTS from
  // the environment, so chaos runs need no code changes; a `satbudget`
  // clause clamps the budget of the trainer's opt-in SAT cross-check.
  if (Config.Faults.empty())
    Config.Faults = resilience::FaultPlan::fromEnv();
  if (std::optional<uint64_t> B = Config.Faults.satConflictBudget())
    Config.Training.SatConflictBudget =
        std::min(Config.Training.SatConflictBudget, *B);
  if (Config.Obs.Enabled) {
    // One lane per executor (worker slot / virtual core) plus the
    // auxiliary lane for out-of-run events (SAT solves and training
    // spans). The sat hook is process-wide; with several concurrent
    // observed Janus instances the last constructed one wins (and its
    // destruction uninstalls the hook for all).
    ObsSink = std::make_unique<obs::Observer>(
        Config.Obs, std::max(1u, Config.Threads) + 1);
  }
  if (Config.Record.Enabled) {
    // Same lane provisioning as the observer: one ring per worker
    // lane plus the auxiliary lane (serve tags, out-of-run events).
    RecSink = std::make_unique<obs::Recorder>(
        Config.Record, std::max(1u, Config.Threads) + 1);
  }
  // The trainer captures its config by value — the observer must exist
  // (and be wired in) before construction.
  Config.Training.Obs = ObsSink.get();
  TrainerImpl =
      std::make_unique<training::Trainer>(Reg, Cache, Config.Training);
  // Through the compile-time gate: with JANUS_OBS=OFF the hook is never
  // installed, so SAT solves pay nothing.
  if (obs::Observer *O = obs::janusObs(ObsSink.get())) {
    sat::setSolveObserver([O](const sat::SolveObservation &S) {
      O->satSolve().record(S.Micros);
      O->span(O->auxLane(), "sat", /*Tid=*/0, /*Attempt=*/0,
              O->nowUs() - S.Micros, S.Micros, "conflicts",
              static_cast<double>(S.Conflicts),
              S.Result == sat::SolveResult::Unknown ? "budget-exhausted"
                                                    : nullptr);
    });
  }
}

Janus::~Janus() {
  if (ObsSink)
    sat::setSolveObserver({}); // The hook captures ObsSink raw.
}

bool Janus::saveCacheFile(const std::string &Path) const {
  std::ofstream Out(Path, std::ios::trunc);
  if (!Out)
    return false;
  Out << Cache->serialize();
  return static_cast<bool>(Out);
}

bool Janus::loadCacheFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Cache->deserializeInto(Buffer.str());
}

std::string Janus::exportTrainingArtifact() const {
  std::string Out = "janus-training-artifact v1\n";
  for (uint32_t Id = 0; Id != Reg.size(); ++Id) {
    const ObjectInfo &Info = Reg.info(ObjectId{Id});
    if (!Info.Relax.TolerateRAW && !Info.Relax.TolerateWAW)
      continue;
    Out += "relax " + std::string(Info.Relax.TolerateRAW ? "1" : "0") +
           " " + std::string(Info.Relax.TolerateWAW ? "1" : "0") + " " +
           Info.Name + "\n";
  }
  Out += "endrelax\n";
  Out += Cache->serialize();
  return Out;
}

bool Janus::importTrainingArtifact(const std::string &Text) {
  std::istringstream Stream(Text);
  std::string Line;
  if (!std::getline(Stream, Line) || Line != "janus-training-artifact v1")
    return false;
  // Parse the whole artifact before applying a relaxation: a rejected
  // one must not let an object skip checks training never waived.
  auto IsFlag = [](char C) { return C == '0' || C == '1'; };
  std::vector<std::pair<std::string, RelaxationSpec>> Relax;
  while (std::getline(Stream, Line) && Line != "endrelax") {
    // "relax R W NAME": R and W are 0 or 1, NAME is non-empty.
    if (Line.size() < 11 || Line.compare(0, 6, "relax ") != 0 ||
        !IsFlag(Line[6]) || Line[7] != ' ' || !IsFlag(Line[8]) ||
        Line[9] != ' ')
      return false;
    Relax.emplace_back(Line.substr(10),
                       RelaxationSpec{Line[6] == '1', Line[8] == '1'});
  }
  // The remainder is the cache.
  std::ostringstream Buffer;
  Buffer << Stream.rdbuf();
  if (!Cache->deserializeInto(Buffer.str()))
    return false;
  for (const auto &[Name, Spec] : Relax)
    for (uint32_t Id = 0; Id != Reg.size(); ++Id)
      if (Reg.info(ObjectId{Id}).Name == Name)
        Reg.setRelaxation(ObjectId{Id}, Spec);
  return true;
}

const stm::Snapshot &Janus::sharedState() const {
  if (EngineAhead) {
    State = Engine->sharedState();
    EngineAhead = false;
  }
  return State;
}

void Janus::train(const std::vector<stm::TaskFn> &Tasks) {
  stm::Snapshot Copy = sharedState();
  TrainerImpl->trainOn(Copy, Tasks);
}

double Janus::timeSequential(const std::vector<stm::TaskFn> &Tasks) const {
  using Clock = std::chrono::steady_clock;
  stm::Snapshot Copy = sharedState();
  auto Start = Clock::now();
  for (size_t I = 0, E = Tasks.size(); I != E; ++I) {
    stm::TxContext Tx(Copy, static_cast<uint32_t>(I + 1), Reg);
    if (stm::runBody(Tasks[I], Tx))
      Copy = Tx.privatizedState();
  }
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

RunOutcome Janus::runTasks(const std::vector<stm::TaskFn> &Tasks,
                           bool Ordered) {
  RunOutcome Outcome;

  if (Config.Engine == EngineKind::Simulated) {
    stm::SimConfig SimCfg;
    SimCfg.NumCores = Config.Threads;
    SimCfg.Ordered = Ordered;
    SimCfg.Costs = Config.Costs;
    SimCfg.RecordTrace = Config.RecordTrace;
    SimCfg.Resilience = Config.Resilience;
    SimCfg.Faults = Config.Faults;
    SimCfg.Obs = ObsSink.get();
    SimCfg.Cancel = Config.Cancel;
    SimCfg.Rec = RecSink.get();
    SimCfg.Replay = Config.Replay;
    SimCfg.ReplayProblems = Config.ReplayProblems;
    stm::SimRuntime Runtime(Reg, *Detector, SimCfg);
    Runtime.setInitialState(State);
    stm::SimOutcome Sim = Runtime.run(Tasks);
    State = Runtime.sharedState();
    if (Config.RecordTrace)
      Trace = Runtime.trace();
    Outcome.ParallelTime = Sim.ParallelTime;
    Outcome.SequentialTime = Sim.SequentialTime;
    Outcome.Failures = std::move(Sim.Failures);
    Stats.add(Runtime.stats());
    return Outcome;
  }

  // The live real-thread engine (DESIGN.md §11.6). It takes the state
  // only when setInitial changed it, and keeps the result until
  // sharedState() asks for it.
  if (!Engine) {
    stm::ShardedConfig C;
    C.NumThreads = Config.Threads;
    C.NumShards = Config.Shards;
    C.RecordTrace = Config.RecordTrace;
    C.Resilience = Config.Resilience;
    C.Obs = ObsSink.get();
    C.Rec = RecSink.get();
    Engine = std::make_unique<stm::ShardedRuntime>(Reg, *Detector, C);
  }
  if (StateAhead) {
    Engine->setInitialState(State); // setInitial pulled before changing it.
    StateAhead = false;
  }
  Engine->setRunParams(Ordered, Config.Faults, Config.Cancel,
                       Config.Resilience.Board);
  auto Start = std::chrono::steady_clock::now();
  Engine->run(Tasks);
  Outcome.ParallelTime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  EngineAhead = true;
  Outcome.Failures = Engine->failures();
  // Count each run once, and keep no history past it.
  Stats.add(Engine->stats());
  Engine->stats().reset();
  Engine->trim();
  return Outcome;
}
