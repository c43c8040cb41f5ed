// Figure 9: key-in-time with temporal range restrictions (K2) and with a
// single-column projection (K3), under the Key+Time index setting and
// without it.
//
// Expected shape (Section 5.5.2): the range restriction changes little
// compared to K1 — the key predicate dominates — and the narrow projection
// helps mainly the column store.
#include "bench_common.h"

namespace bih {
namespace bench {
namespace {

constexpr int kRuns = 5;

void RunFor(const std::string& config, TemporalEngine& e,
            const WorkloadContext& ctx) {
  const int64_t key = ctx.hot_custkey;
  auto row = [&](const std::string& name, auto fn) {
    TimeRow("Fig9/" + name + "/" + config + "/iterations:" +
                std::to_string(kRuns),
            fn, kRuns);
  };
  TemporalScanSpec app_range;  // restricted application window
  app_range.app_time = TemporalSelector::Between(ctx.app_early, ctx.app_mid);
  TemporalScanSpec sys_range;  // restricted system window
  sys_range.system_time =
      TemporalSelector::Between(ctx.sys_v0.micros(), ctx.sys_mid.micros());
  sys_range.app_time = TemporalSelector::All();
  TemporalScanSpec both;
  both.system_time = sys_range.system_time;
  both.app_time = app_range.app_time;
  row("K2_app_range", [&] { K2(e, key, app_range); });
  row("K2_sys_range", [&] { K2(e, key, sys_range); });
  row("K2_both_ranges", [&] { K2(e, key, both); });
  row("K3_app_range_1col", [&] { K3(e, key, app_range); });
  row("K3_sys_range_1col", [&] { K3(e, key, sys_range); });
}

void Run() {
  SharedWorkload& w = SharedWorkload::Get();
  const WorkloadContext& ctx = w.ctx();
  PrintHeader("Figure 9: key-in-time with range restrictions");
  for (const std::string& letter : AllEngineLetters()) {
    RunFor("System" + letter + "_no_index", *w.Fresh(letter), ctx);
    RunFor("System" + letter + "_keytime",
           *w.Fresh(letter, IndexSetting::kKeyTime), ctx);
  }
}

}  // namespace
}  // namespace bench
}  // namespace bih

int main() {
  bih::bench::Run();
  return 0;
}
