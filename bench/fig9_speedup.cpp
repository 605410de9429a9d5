//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 9 — speedup per benchmark, 1–8 threads, write-set vs
/// sequence-based detection — and Figure 10, the ratio of overall
/// retries to committed transactions, read from the same runs.
///
/// Paper result (shape to reproduce): the sequence-based version
/// achieves an average speedup of ~1.5x at 8 threads (JFileSync close
/// to 2.5x; JGraphT-2 negligible), while the write-set version
/// *degrades* performance (average ~0.6x at 8 threads). Speedups are
/// measured on the deterministic virtual-time multicore simulator (see
/// DESIGN.md for the substitution rationale); absolute values are not
/// claimed, the ordering and crossover structure are.
///
/// Figure 10 (shape to reproduce): write-set retries are prohibitive —
/// for PMD and JGraphT-2 proportional to the number of tasks regardless
/// of thread count; JGraphT-1 reaches ~4 retries per task at 8 threads.
/// Sequence-based detection averages 0.07 vs 1.51 for write-set — a
/// ~22x reduction.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <cstdio>

using namespace janus;
using namespace janus::bench;

int main(int Argc, char **Argv) {
  BenchReport Report("fig9_speedup", Argc, Argv);
  const std::vector<unsigned> Threads = {1, 2, 4, 6, 8};
  const std::vector<std::string> Names = benchmarkNames();
  const char *DetNames[2] = {"write-set", "sequence"};
  const core::DetectorKind Kinds[2] = {core::DetectorKind::WriteSet,
                                       core::DetectorKind::Sequence};

  // Results[D][B][T]: one experiment per detector, benchmark and thread
  // count. Both figures are printed from it.
  std::vector<std::vector<Measurement>> Results[2];
  for (int D = 0; D != 2; ++D)
    for (const std::string &Name : Names) {
      std::vector<Measurement> &Row = Results[D].emplace_back();
      for (unsigned N : Threads) {
        ExperimentSpec Spec;
        Spec.Threads = N;
        Spec.Detector = Kinds[D];
        const Measurement &M = Row.emplace_back(runExperiment(Name, Spec));
        Report.addRow({{"benchmark", Name},
                       {"detector", DetNames[D]},
                       {"threads", N},
                       {"speedup", M.Speedup},
                       {"retry_ratio", M.RetryRatio},
                       {"commits", M.Commits},
                       {"retries", M.Retries}});
      }
    }

  // One table per detector: a benchmark per row, a thread count per
  // column, and the column averages over the benchmarks.
  auto PrintTables = [&](double Measurement::*Metric, const char *Suffix) {
    for (int D = 0; D != 2; ++D) {
      TextTable T;
      std::vector<std::string> Header = {"benchmark"};
      for (unsigned N : Threads)
        Header.push_back(std::to_string(N) + "T");
      T.setHeader(Header);
      std::vector<double> Sums(Threads.size(), 0.0);
      for (size_t B = 0; B != Names.size(); ++B) {
        std::vector<std::string> Row = {Names[B]};
        for (size_t I = 0; I != Threads.size(); ++I) {
          const double V = Results[D][B][I].*Metric;
          Sums[I] += V;
          Row.push_back(formatDouble(V, 2) + Suffix);
        }
        T.addRow(Row);
      }
      std::vector<std::string> Avg = {"average"};
      for (double S : Sums)
        Avg.push_back(
            formatDouble(S / static_cast<double>(Names.size()), 2) + Suffix);
      T.addRow(Avg);
      std::printf("[%s detection]\n%s\n", DetNames[D], T.render().c_str());
    }
  };

  std::printf("Figure 9: speedup vs number of threads "
              "(simulated cores; sequential baseline = 1.0)\n\n");
  PrintTables(&Measurement::Speedup, "x");
  std::printf("Paper reference (8 threads): sequence avg ~1.5x "
              "(JFileSync ~2.5x, JGraphT-2 ~1x); write-set avg ~0.6x.\n\n");

  std::printf("Figure 10: retries-to-transactions ratio\n\n");
  PrintTables(&Measurement::RetryRatio, "");
  double AvgAt8[2] = {0.0, 0.0};
  for (int D = 0; D != 2; ++D) {
    for (const std::vector<Measurement> &Row : Results[D])
      AvgAt8[D] += Row.back().RetryRatio; // Threads.back() is 8.
    AvgAt8[D] /= static_cast<double>(Names.size());
  }
  double Improvement =
      AvgAt8[1] > 0.0 ? AvgAt8[0] / AvgAt8[1] : AvgAt8[0] > 0 ? 1e9 : 1.0;
  std::printf("8-thread averages: write-set %.2f, sequence %.2f "
              "(%.0fx fewer retries; paper: 1.51 vs 0.07, ~22x)\n",
              AvgAt8[0], AvgAt8[1], Improvement);
  return Report.write() ? 0 : 1;
}
