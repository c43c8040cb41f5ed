// Table 1: the update-scenario mix of the history generator — empirical
// frequencies vs the specified probabilities — plus generator throughput
// (the paper reports 0.6 M tuples/s for its generator).
#include <chrono>
#include <cstdio>

#include "bench_common.h"

namespace bih {
namespace bench {
namespace {

void Run() {
  const double h = EnvDouble("BIH_H", 0.001);
  const double m = EnvDouble("BIH_M", 0.01);
  TpchData initial = GenerateTpch({h, 42});

  GeneratorConfig gcfg;
  gcfg.m = m;
  gcfg.seed = 7;
  HistoryGenerator gen(initial, gcfg);
  auto t0 = std::chrono::steady_clock::now();
  History history = gen.Generate();
  auto t1 = std::chrono::steady_clock::now();
  const HistoryStats& st = gen.stats();

  PrintHeader("Table 1: update scenarios of the history generator");
  std::printf("%-28s %12s %12s %12s\n", "scenario", "probability",
              "empirical", "count");
  std::vector<double> probs = ScenarioProbabilities();
  for (size_t i = 0; i < probs.size(); ++i) {
    double got = static_cast<double>(st.scenario_counts[i]) /
                 static_cast<double>(st.total_transactions);
    std::printf("%-28s %12.3f %12.3f %12lld\n",
                ScenarioName(static_cast<Scenario>(i)), probs[i], got,
                static_cast<long long>(st.scenario_counts[i]));
  }
  double secs = std::chrono::duration<double>(t1 - t0).count();
  std::printf("\n%lld transactions, %lld operations in %.2f s "
              "(%.2f M ops/s)\n",
              static_cast<long long>(st.total_transactions),
              static_cast<long long>(st.total_operations), secs,
              static_cast<double>(st.total_operations) / secs / 1e6);
}

}  // namespace
}  // namespace bench
}  // namespace bih

int main() {
  bih::bench::Run();
  return 0;
}
