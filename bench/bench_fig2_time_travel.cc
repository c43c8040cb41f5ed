// Figure 2: basic point-point time travel (T1, T2) and the full-history
// upper bound (ALL/T5) on all four engines, out-of-the-box (no indexes).
//
// Expected shape (paper Section 5.3.1): current-system-time queries are
// cheapest; varying system time adds the history partition (System B pays
// an extra reconstruction join); ALL is the most expensive.
#include "bench_common.h"

namespace bih {
namespace bench {
namespace {

void Run() {
  SharedWorkload& w = SharedWorkload::Get();
  const WorkloadContext& ctx = w.ctx();
  const int64_t app_mid = ctx.app_mid;
  const int64_t sys_mid = ctx.sys_mid.micros();
  PrintHeader("Figure 2: basic time travel, no indexes");
  for (const std::string& letter : AllEngineLetters()) {
    TemporalEngine& e = w.Engine(letter);
    auto row = [&](const std::string& name, auto fn) {
      TimeRow("Fig2/" + name + "/System" + letter, fn);
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
}

}  // namespace
}  // namespace bench
}  // namespace bih

int main() {
  bih::bench::Run();
  return 0;
}
