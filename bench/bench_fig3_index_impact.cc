// Figure 3: impact of the Time Index tuning setting on basic time travel.
// System C ignores indexes (scan-based); System D is additionally measured
// with a GiST (R-tree) index.
//
// Expected shape (Section 5.3.2): limited impact overall — the broad
// temporal predicates fail the optimizer's selectivity bar, so most plans
// stay table scans; the GiST index never beats the B-tree.
#include "bench_common.h"

namespace bih {
namespace bench {
namespace {

// The Fig. 2 queries on `e`, one row each, labelled by `config`.
void RunFor(const std::string& config, TemporalEngine& e,
            const WorkloadContext& ctx) {
  const int64_t app_mid = ctx.app_mid;
  const int64_t sys_mid = ctx.sys_mid.micros();
  auto row = [&](const std::string& name, auto fn) {
    TimeRow("Fig3/" + name + "/" + config, fn);
  };
  row("T1_vary_app_curr_sys",
      [&] { T1(e, TemporalScanSpec::AppAsOf(app_mid)); });
  row("T1_vary_sys_curr_app",
      [&] { T1(e, TemporalScanSpec::BothAsOf(sys_mid, app_mid)); });
  row("T2_vary_app_curr_sys",
      [&] { T2(e, TemporalScanSpec::AppAsOf(app_mid)); });
  row("T2_vary_sys_curr_app",
      [&] { T2(e, TemporalScanSpec::BothAsOf(sys_mid, app_mid)); });
  row("T5_all_versions", [&] { QueryAll(e); });
}

void Run() {
  SharedWorkload& w = SharedWorkload::Get();
  const WorkloadContext& ctx = w.ctx();
  PrintHeader("Figure 3: basic time travel under the Time Index setting");
  // No-index baselines.
  for (const std::string letter : {"C", "D"}) {
    RunFor("System" + letter + "_no_index", *w.Fresh(letter), ctx);
  }
  // B-tree time indexes.
  for (const std::string& letter : AllEngineLetters()) {
    RunFor("System" + letter + "_btree",
           *w.Fresh(letter, IndexSetting::kTime, IndexType::kBTree), ctx);
  }
  // GiST on System D.
  RunFor("SystemD_gist", *w.Fresh("D", IndexSetting::kTime, IndexType::kRTree),
         ctx);
}

}  // namespace
}  // namespace bench
}  // namespace bih

int main() {
  bih::bench::Run();
  return 0;
}
