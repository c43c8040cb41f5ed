// Figure 12: key-in-time query (application-time evolution of one hot
// customer at a fixed early system time) as the history grows, under the
// Key+Time index setting.
//
// Expected shape (Section 5.5.4): indexed key access keeps the cost ~flat
// for A, C and D; System B stays higher because it still reconstructs the
// current partition's temporal information per query.
#include <cstdio>

#include "bench_common.h"

namespace bih {
namespace bench {
namespace {

void Run() {
  const double h = EnvDouble("BIH_H", 0.001);
  PrintHeader("Figure 12: key query cost vs history size (Key+Time index)");
  std::printf("%-10s %-12s %14s\n", "m", "engine", "K1[ms]");
  TpchData initial = GenerateTpch({h, 42});
  for (double m : {0.002, 0.005, 0.01, 0.02}) {
    GeneratorConfig gcfg;
    gcfg.m = m;
    gcfg.seed = 43;
    HistoryGenerator gen(initial, gcfg);
    History history = gen.Generate();
    // The hottest customer of this history.
    std::map<int64_t, int64_t> cust_ops;
    for (const HistoryTransaction& txn : history) {
      for (const Operation& op : txn.ops) {
        if (op.table == "CUSTOMER" && op.kind != Operation::Kind::kInsert) {
          ++cust_ops[op.key[0].AsInt()];
        }
      }
    }
    int64_t hot = 1;
    for (const auto& [k, n] : cust_ops) {
      if (n > cust_ops[hot]) hot = k;
    }
    for (const std::string& letter : AllEngineLetters()) {
      auto engine = LoadEngine(letter, initial, history);
      Status st = ApplyIndexSetting(*engine, IndexSetting::kKeyTime);
      BIH_CHECK_MSG(st.ok(), st.ToString());
      Timestamp v0 = CommitClock().NextCommit();
      TemporalScanSpec spec;
      spec.app_time = TemporalSelector::All();
      spec.system_time = TemporalSelector::AsOf(v0.micros() + 1);
      double ms = TimeMs([&] { K1(*engine, hot, spec); }, 5);
      std::printf("%-10.4f System%-6s %14.3f\n", m, letter.c_str(), ms);
    }
  }
  std::printf(
      "\nShape check: A, C and D stay ~flat as m grows; System B remains "
      "the most expensive (vertical-partition reconstruction).\n");
}

}  // namespace
}  // namespace bench
}  // namespace bih

int main() {
  bih::bench::Run();
  return 0;
}
