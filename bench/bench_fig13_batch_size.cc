// Figure 13: effect of the loading batch size (scenarios per transaction)
// on the key-range query of Fig. 12 — fewer, larger transactions mean
// fewer distinct system timestamps and fewer undo flushes.
//
// Expected shape (Section 5.5.4): System B benefits most from growing
// batches; the other systems change little.
#include <cstdio>

#include "bench_common.h"

namespace bih {
namespace bench {
namespace {

void Run() {
  const double h = EnvDouble("BIH_H", 0.001);
  const double m = EnvDouble("BIH_M", 0.002);
  PrintHeader("Figure 13: key query cost vs loading batch size");
  std::printf("%-12s %-12s %14s\n", "batch", "engine", "K1[ms]");
  TpchData initial = GenerateTpch({h, 42});
  GeneratorConfig gcfg;
  gcfg.m = m;
  gcfg.seed = 43;
  HistoryGenerator gen(initial, gcfg);
  History history = gen.Generate();
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
  for (size_t batch : {size_t{1}, size_t{10}, size_t{100}, size_t{1000}}) {
    for (const std::string& letter : AllEngineLetters()) {
      auto engine = LoadEngine(letter, initial, history, batch);
      Status st = ApplyIndexSetting(*engine, IndexSetting::kKeyTime);
      BIH_CHECK_MSG(st.ok(), st.ToString());
      TemporalScanSpec spec;
      spec.app_time = TemporalSelector::All();
      spec.system_time = TemporalSelector::All();
      double ms = TimeMs([&] { K1(*engine, hot, spec); }, 5);
      std::printf("%-12zu System%-6s %14.3f\n", batch, letter.c_str(), ms);
    }
  }
  std::printf("\nShape check: System B improves as the batch grows; the "
              "other systems are largely insensitive.\n");
}

}  // namespace
}  // namespace bench
}  // namespace bih

int main() {
  bih::bench::Run();
  return 0;
}
