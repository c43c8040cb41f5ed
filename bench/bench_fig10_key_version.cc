// Figure 10: key-in-time restricted by *version count* rather than by a
// time window: Top-N latest versions (K4) and the timestamp-correlated
// previous version (K5), per time dimension.
//
// Expected shape (Section 5.5.2): Top-N helps in some cases (ordered index
// access stops early); the correlated K5 formulation never wins because it
// re-scans the key's versions.
#include "bench_common.h"

namespace bih {
namespace bench {
namespace {

constexpr int kRuns = 5;

void RunFor(const std::string& config, TemporalEngine& e,
            const WorkloadContext& ctx) {
  const int64_t key = ctx.hot_custkey;
  TemporalScanSpec app_axis;
  app_axis.app_time = TemporalSelector::All();
  TemporalScanSpec app_past;
  app_past.app_time = TemporalSelector::All();
  app_past.system_time = TemporalSelector::AsOf(ctx.sys_mid.micros());
  TemporalScanSpec sys_axis;
  sys_axis.system_time = TemporalSelector::All();
  sys_axis.app_time = TemporalSelector::All();
  auto row = [&](const std::string& name, auto fn) {
    TimeRow("Fig10/" + name + "/" + config + "/iterations:" +
                std::to_string(kRuns),
            fn, kRuns);
  };
  row("K4_top5_app", [&] { K4(e, key, app_axis, 5); });
  row("K4_top5_app_past_sys", [&] { K4(e, key, app_past, 5); });
  row("K4_top5_sys", [&] { K4(e, key, sys_axis, 5); });
  row("K5_prev_version_app", [&] { K5(e, key, app_axis); });
  row("K5_prev_version_sys", [&] { K5(e, key, sys_axis); });
}

void Run() {
  SharedWorkload& w = SharedWorkload::Get();
  const WorkloadContext& ctx = w.ctx();
  PrintHeader("Figure 10: key-in-time by version count (Key+Time index)");
  for (const std::string& letter : AllEngineLetters()) {
    RunFor("System" + letter, *w.Fresh(letter, IndexSetting::kKeyTime), ctx);
  }
}

}  // namespace
}  // namespace bench
}  // namespace bih

int main() {
  bih::bench::Run();
  return 0;
}
