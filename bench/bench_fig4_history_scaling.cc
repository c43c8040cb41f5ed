// Figure 4: T1 with *fixed* temporal parameters (system time right after
// version 0, maximum application time) while the history length grows.
// The result set is constant, so a system that can exploit an index (or is
// scan-robust like the column store) should show flat cost; scan-based
// row stores grow linearly with the history.
//
// Expected shape (Section 5.3.3): without indexes A/B/D scale linearly;
// with Time Indexes they become ~constant; System C is flat either way.
#include <cstdio>

#include "bench_common.h"

namespace bih {
namespace bench {
namespace {

void Run() {
  const double h = EnvDouble("BIH_H", 0.001);
  std::vector<double> ms_values;
  for (double m : {0.002, 0.005, 0.01, 0.02}) ms_values.push_back(m);

  PrintHeader("Figure 4: T1 cost vs history size (fixed result)");
  std::printf("%-10s %-12s %14s %14s\n", "m", "engine", "no_index[ms]",
              "time_index[ms]");
  TpchData initial = GenerateTpch({h, 42});
  for (double m : ms_values) {
    GeneratorConfig gcfg;
    gcfg.m = m;
    gcfg.seed = 43;
    HistoryGenerator gen(initial, gcfg);
    History history = gen.Generate();
    for (const std::string& letter : AllEngineLetters()) {
      auto plain = LoadEngine(letter, initial, history);
      // Fixed parameters: just after version 0, at the far end of app time.
      // Version 0 commits at the first tick after the clock epoch.
      Timestamp v0 = CommitClock().NextCommit();
      const int64_t app_max = tpch_dates::kEnd.days();
      auto query = [&](TemporalEngine& e) {
        return T1(e, TemporalScanSpec::BothAsOf(v0.micros() + 1, app_max));
      };
      double no_index = TimeMs([&] { query(*plain); }, 9);
      Status st = ApplyIndexSetting(*plain, IndexSetting::kTime);
      BIH_CHECK_MSG(st.ok(), st.ToString());
      double with_index = TimeMs([&] { query(*plain); }, 9);
      std::printf("%-10.4f System%-6s %14.3f %14.3f\n", m, letter.c_str(),
                  no_index, with_index);
    }
  }
  std::printf(
      "\nShape check: no_index grows with m for row stores (A, B, D); "
      "time_index stays ~flat; System C flat in both columns.\n");
}

}  // namespace
}  // namespace bench
}  // namespace bih

int main() {
  bih::bench::Run();
  return 0;
}
