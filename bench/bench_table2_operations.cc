// Table 2: average operations per table for the history generator,
// normalized to "per million scenarios" like the paper's m=1.0 column, and
// the history growth ratio (history operations per initial tuple).
#include <cstdio>

#include "bench_common.h"
#include "tpch/schema.h"

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
  History history = gen.Generate();
  const HistoryStats& st = gen.stats();
  const double to_millions =
      1.0 / (static_cast<double>(st.total_transactions));

  PrintHeader("Table 2: operations per table (normalized per scenario), "
              "history growth ratio");
  std::printf("%-10s %10s %10s %10s %10s %10s %10s %12s\n", "table",
              "app_ins", "app_upd", "nt_ins", "nt_upd", "delete",
              "overwrite", "growth@m");
  for (const TableDef& def : BiHSchema()) {
    auto it = st.per_table.find(def.name);
    TableOpStats ops;
    if (it != st.per_table.end()) ops = it->second;
    size_t tuples = initial.TableRows(def.name).size();
    double growth = tuples == 0
                        ? 0.0
                        : static_cast<double>(ops.TotalOps()) /
                              static_cast<double>(tuples);
    std::printf("%-10s %10.4f %10.4f %10.4f %10.4f %10.4f %10.4f %12.3f\n",
                def.name.c_str(),
                static_cast<double>(ops.app_insert) * to_millions,
                static_cast<double>(ops.app_update) * to_millions,
                static_cast<double>(ops.nontemporal_insert) * to_millions,
                static_cast<double>(ops.nontemporal_update) * to_millions,
                static_cast<double>(ops.deletes) * to_millions,
                static_cast<double>(ops.overwrite_app) * to_millions, growth);
  }
  std::printf(
      "\nShape check (paper Table 2): NATION/REGION untouched; SUPPLIER "
      "non-temporal updates only; PART/PARTSUPP updates only with "
      "overwrites; LINEITEM insert-dominated; CUSTOMER update-dominated; "
      "CUSTOMER/SUPPLIER growth ratios exceed ORDERS/LINEITEM.\n");
}

}  // namespace
}  // namespace bench
}  // namespace bih

int main() {
  bih::bench::Run();
  return 0;
}
