#include "janus/resilience/ContentionManager.h"

#include "janus/support/Assert.h"

#include <algorithm>

using namespace janus;
using namespace janus::resilience;

ContentionManager::ContentionManager(ResilienceConfig Config,
                                     size_t NumTasks)
    : Config(Config), TasksState(NumTasks) {}

/// splitmix64 finalizer — the jitter must be a pure function of its
/// coordinates so injected and simulated runs stay reproducible.
static uint64_t mix(uint64_t Z) {
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

uint64_t ContentionManager::backoffFor(uint32_t Tid, uint32_t AttemptNo,
                                       unsigned Lane) const {
  if (Config.BackoffBaseMicros == 0)
    return 0;
  // Exponential step, capped. Shift bounded to keep the doubling from
  // overflowing before the cap clamps it.
  unsigned Shift = std::min(AttemptNo > 0 ? AttemptNo - 1 : 0u, 20u);
  uint64_t Step =
      std::min<uint64_t>(Config.BackoffCapMicros,
                         uint64_t{Config.BackoffBaseMicros} << Shift);
  // Deterministic jitter in [step/2, step]: decorrelates lanes that
  // aborted together while keeping the delay a pure function of
  // (task, attempt, lane).
  uint64_t Seed = (uint64_t{Tid} << 32) ^ (uint64_t{AttemptNo} << 8) ^
                  uint64_t{Lane};
  uint64_t Half = Step / 2;
  return Half + mix(Seed + 0x9e3779b97f4a7c15ULL) % (Step - Half + 1);
}

ContentionManager::Decision ContentionManager::onAbort(uint32_t Tid,
                                                       unsigned Lane) {
  JANUS_ASSERT(Tid >= 1 && Tid <= TasksState.size(),
               "abort for unknown task id");
  TaskState &T = TasksState[Tid - 1];
  ++T.Aborts;
  // Under watchdog escalation the budget shrinks (level 1) or vanishes
  // (level 2): when lanes are demonstrably stuck, spending more aborts
  // on optimism only widens everyone's conflict windows.
  uint32_t Budget = Config.SpeculativeRetryBudget;
  if (Config.Board) {
    uint32_t Level =
        Config.Board->EscalationLevel.load(std::memory_order_acquire);
    if (Level >= 2)
      Budget = 1;
    else if (Level == 1 && Budget > 1)
      Budget = std::max(1u, Budget / 2);
  }
  if (Budget != 0 && T.Aborts >= Budget) {
    if (Config.Board)
      Config.Board->SerialFallbacks.fetch_add(1, std::memory_order_relaxed);
    return {Action::Serial, 0};
  }
  return {Action::Retry, backoffFor(Tid, T.Aborts, Lane)};
}

ContentionManager::Decision ContentionManager::onException(uint32_t Tid,
                                                           unsigned Lane) {
  JANUS_ASSERT(Tid >= 1 && Tid <= TasksState.size(),
               "exception for unknown task id");
  TaskState &T = TasksState[Tid - 1];
  ++T.Throws;
  if (T.Throws > Config.ExceptionRetryBudget)
    return {Action::Fail, 0};
  return {Action::Retry, backoffFor(Tid, T.Throws, Lane)};
}

uint32_t ContentionManager::attempts(uint32_t Tid) const {
  JANUS_ASSERT(Tid >= 1 && Tid <= TasksState.size(), "unknown task id");
  const TaskState &T = TasksState[Tid - 1];
  return T.Aborts + T.Throws;
}
