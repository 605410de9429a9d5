//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 11 — unique-query cache-miss rate in the 8-thread
/// configuration, with and without sequence abstraction.
///
/// Paper result (shape to reproduce): with abstraction the
/// commutativity specification generalizes well (average miss rate
/// <17%, worst case ~30% for JGraphT-1); without abstraction
/// generalization deteriorates significantly (average ~38%, JGraphT-1
/// ~80%) — a ~2.24x improvement from the abstraction heuristic,
/// most pronounced on the two JGraphT benchmarks whose access patterns
/// are highly dynamic.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <cstdio>

using namespace janus;
using namespace janus::bench;

int main(int Argc, char **Argv) {
  BenchReport Report("fig11_misses", Argc, Argv);
  std::printf("Figure 11: unique conflict-query cache-miss rate at 8 "
              "threads (5 training runs, production runs excluding the "
              "first)\n\n");

  TextTable T;
  T.setHeader({"benchmark", "with abstraction", "without abstraction",
               "queries(with)", "queries(without)"});

  double SumWith = 0.0, SumWithout = 0.0;
  for (const std::string &Name : benchmarkNames()) {
    ExperimentSpec With;
    With.Threads = 8;
    With.UseAbstraction = true;
    // The paper's default configuration: misses fall back to the
    // write-set test (and typically abort).
    With.OnlineFallback = false;
    With.DisableFastPath = true;
    With.ProductionRounds = 5;
    Measurement MWith = runExperiment(Name, With);

    ExperimentSpec Without = With;
    Without.UseAbstraction = false;
    Measurement MWithout = runExperiment(Name, Without);

    SumWith += MWith.MissRate();
    SumWithout += MWithout.MissRate();
    for (bool Abstraction : {true, false}) {
      const Measurement &M = Abstraction ? MWith : MWithout;
      Report.addRow({{"benchmark", Name},
                     {"abstraction", Abstraction},
                     {"miss_rate", M.MissRate()},
                     {"unique_queries", M.UniqueQueries},
                     {"unique_misses", M.UniqueMisses}});
    }
    T.addRow({Name, formatPercent(MWith.MissRate()),
              formatPercent(MWithout.MissRate()),
              std::to_string(MWith.UniqueQueries),
              std::to_string(MWithout.UniqueQueries)});
  }
  const double N = static_cast<double>(benchmarkNames().size());
  T.addRow({"average", formatPercent(SumWith / N),
            formatPercent(SumWithout / N), "", ""});
  std::printf("%s\n", T.render().c_str());
  std::printf("Paper reference: <17%% avg with abstraction (worst ~30%%), "
              "~38%% avg without (JGraphT-1 ~80%%).\n");
  return Report.write() ? 0 : 1;
}
