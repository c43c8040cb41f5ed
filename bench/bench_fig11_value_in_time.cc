// Figure 11: value-in-time (K6) — tracing customers selected by a balance
// predicate rather than by key — with and without a Value index, at two
// selectivities.
//
// Expected shape (Section 5.5.3): without an index everything is a table
// scan; the value index pays off only for the selective filter, the
// non-selective one falls back to scans.
#include "bench_common.h"

namespace bih {
namespace bench {
namespace {

constexpr int kRuns = 5;

void RunFor(const std::string& config, TemporalEngine& e,
            const WorkloadContext& ctx) {
  TemporalScanSpec app_curr;
  app_curr.app_time = TemporalSelector::All();
  TemporalScanSpec app_past;
  app_past.app_time = TemporalSelector::All();
  app_past.system_time = TemporalSelector::AsOf(ctx.sys_mid.micros());
  TemporalScanSpec sys_axis;
  sys_axis.system_time = TemporalSelector::All();
  auto row = [&](const std::string& name, double min_balance,
                 const TemporalScanSpec& spec) {
    TimeRow("Fig11/" + name + "/" + config + "/iterations:" +
                std::to_string(kRuns),
            [&] { K6(e, min_balance, Value(), spec); }, kRuns);
  };
  // Highly selective: balances close to the top of the range.
  row("K6_selective_app_curr_sys", 9900.0, app_curr);
  row("K6_selective_app_past_sys", 9900.0, app_past);
  row("K6_selective_sys_curr_app", 9900.0, sys_axis);
  // Non-selective: half of all balances qualify.
  row("K6_nonselective_sys", 0.0, sys_axis);
}

void Run() {
  SharedWorkload& w = SharedWorkload::Get();
  const WorkloadContext& ctx = w.ctx();
  PrintHeader("Figure 11: value-in-time");
  for (const std::string& letter : AllEngineLetters()) {
    RunFor("System" + letter + "_no_index", *w.Fresh(letter), ctx);
    RunFor("System" + letter + "_value_index",
           *w.Fresh(letter, IndexSetting::kValue), ctx);
  }
}

}  // namespace
}  // namespace bench
}  // namespace bih

int main() {
  bih::bench::Run();
  return 0;
}
