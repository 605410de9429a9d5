//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation — what happens on a commutativity-cache miss.
///
/// JANUS's default falls back to the write-set test; it "can be
/// configured to perform the sequence-based check online" (§5.3). This
/// harness quantifies the choice per benchmark (8 simulated cores):
///   - trained cache + write-set fallback (the paper's default),
///   - trained cache + online fallback (this repo's bench default),
///   - NO training + online fallback (the cache disabled entirely),
///   - NO training + write-set fallback (≈ write-set detection).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <cstdio>

using namespace janus;
using namespace janus::bench;
using namespace janus::core;
using namespace janus::workloads;

namespace {

struct Config {
  const char *Label;
  bool Train;
  bool Online;
};

Measurement runWith(const std::string &Name, const Config &C) {
  auto W = workloadByName(Name);
  JanusConfig Cfg;
  Cfg.Threads = 8;
  Cfg.Sequence.OnlineFallback = C.Online;
  Cfg.Training.InferWAWRelaxation = true;
  Cfg.Training.MaxConcat = 8;
  Janus J(Cfg);
  W->setup(J);
  if (C.Train)
    for (const PayloadSpec &P : W->trainingPayloads(5))
      J.train(W->makeTasks(P));

  Measurement M;
  double SpeedupSum = 0;
  auto Payloads = W->productionPayloads(3);
  for (size_t I = 0; I != Payloads.size(); ++I) {
    RunOutcome O = W->runOn(J, Payloads[I]);
    if (I)
      SpeedupSum += O.speedup();
  }
  M.Speedup = SpeedupSum / 2.0;
  M.Commits = J.runStats().Commits.load();
  M.Retries = J.runStats().Retries.load();
  M.RetryRatio = M.Commits ? double(M.Retries) / double(M.Commits) : 0;
  return M;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchReport Report("ablation_fallback", Argc, Argv);
  std::printf("Ablation: cache-miss fallback strategy "
              "(8 simulated cores, production inputs)\n\n");
  const Config Configs[] = {
      {"trained + write-set fallback", true, false},
      {"trained + online fallback", true, true},
      {"untrained + online fallback", false, true},
      {"untrained + write-set fallback", false, false},
  };

  for (const Config &C : Configs) {
    TextTable T;
    T.setHeader({"benchmark", "speedup", "retry ratio"});
    const std::vector<std::string> Names = benchmarkNames();
    double AvgSpeed = 0, AvgRetry = 0;
    for (const std::string &Name : Names) {
      Measurement M = runWith(Name, C);
      AvgSpeed += M.Speedup / static_cast<double>(Names.size());
      AvgRetry += M.RetryRatio / static_cast<double>(Names.size());
      T.addRow({Name, formatDouble(M.Speedup, 2) + "x",
                formatDouble(M.RetryRatio, 2)});
      Report.addRow({{"benchmark", Name},
                     {"config", C.Label},
                     {"trained", C.Train},
                     {"online_fallback", C.Online},
                     {"speedup", M.Speedup},
                     {"retry_ratio", M.RetryRatio}});
    }
    T.addRow({"average", formatDouble(AvgSpeed, 2) + "x",
              formatDouble(AvgRetry, 2)});
    std::printf("[%s]\n%s\n", C.Label, T.render().c_str());
  }
  std::printf(
      "Reading: the online fallback mops up residual cache misses (our "
      "online check is concrete and linear-time, unlike the paper's "
      "SAT-backed one). Training still matters beyond the cache: it "
      "infers the tolerate-WAW relaxations (PMD's ctx fields), which no "
      "fallback can recover — untrained PMD collapses to write-set-like "
      "behaviour under every fallback.\n");
  return Report.write() ? 0 : 1;
}
