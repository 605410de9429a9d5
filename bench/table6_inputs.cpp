//===----------------------------------------------------------------------===//
///
/// \file
/// Table 6 — inputs for training and production runs, augmented with
/// measured payload statistics (task counts and logged shared accesses
/// per payload kind).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <cstdio>

using namespace janus;
using namespace janus::bench;
using namespace janus::core;
using namespace janus::workloads;

namespace {

/// Counts tasks and logged shared accesses of one payload by running it
/// sequentially on a scratch instance.
void measure(Workload &W, const PayloadSpec &P, size_t &Tasks,
             size_t &LogOps) {
  JanusConfig Cfg;
  Janus J(Cfg);
  W.setup(J);
  std::vector<stm::TaskFn> TaskSet = W.makeTasks(P);
  Tasks = TaskSet.size();
  LogOps = 0;
  stm::Snapshot State = J.sharedState();
  for (size_t I = 0; I != TaskSet.size(); ++I) {
    stm::TxContext Tx(State, static_cast<uint32_t>(I + 1), J.registry());
    TaskSet[I](Tx);
    LogOps += Tx.log().size();
    State = Tx.privatizedState();
  }
}

} // namespace

int main(int Argc, char **Argv) {
  BenchReport Report("table6_inputs", Argc, Argv);
  std::printf("Table 6: inputs for training and production runs\n\n");

  TextTable T;
  T.setHeader({"benchmark", "training data", "production data",
               "train tasks/accesses", "prod tasks/accesses"});
  for (auto &W : allWorkloads()) {
    size_t TrainTasks = 0, TrainOps = 0, ProdTasks = 0, ProdOps = 0;
    measure(*W, PayloadSpec{1, false}, TrainTasks, TrainOps);
    {
      // Fresh instance for the production payload (setup registers
      // objects).
      auto W2 = workloadByName(W->name());
      measure(*W2, PayloadSpec{1, true}, ProdTasks, ProdOps);
    }
    T.addRow({W->name(), W->trainingInputDesc(), W->productionInputDesc(),
              std::to_string(TrainTasks) + " / " + std::to_string(TrainOps),
              std::to_string(ProdTasks) + " / " + std::to_string(ProdOps)});
    Report.addRow({{"benchmark", W->name()},
                   {"train_tasks", TrainTasks},
                   {"train_accesses", TrainOps},
                   {"prod_tasks", ProdTasks},
                   {"prod_accesses", ProdOps}});
  }
  std::printf("%s\n", T.render().c_str());
  return Report.write() ? 0 : 1;
}
