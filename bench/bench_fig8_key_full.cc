// Figure 8: key-in-time over the full history (K1): the evolution of one
// customer along application time (at current and past system time), both
// time axes, and system time, without indexes vs the Key+Time setting.
//
// Expected shape (Section 5.5.1): current-system access is cheap via the
// system key index; past-system access degenerates to history scans until
// the Key+Time index is added; System B keeps a reconstruction penalty;
// System D pays scans even for current data (no split); System C scans.
#include "bench_common.h"
#include "exec/parallel.h"

namespace bih {
namespace bench {
namespace {

constexpr int kRuns = 5;

void RunFor(const std::string& config, TemporalEngine& e,
            const WorkloadContext& ctx, bool thread_sweep = false) {
  const int64_t key = ctx.hot_custkey;
  auto row = [&](const std::string& name, const TemporalScanSpec& spec) {
    TimeRow("Fig8/" + name + "/" + config + "/iterations:" +
                std::to_string(kRuns),
            [&] { K1(e, key, spec); }, kRuns);
  };
  TemporalScanSpec app_curr;  // app evolution at current system time
  app_curr.app_time = TemporalSelector::All();
  row("K1_app_curr_sys", app_curr);
  TemporalScanSpec app_past;  // app evolution at past system time
  app_past.app_time = TemporalSelector::All();
  app_past.system_time = TemporalSelector::AsOf(ctx.sys_mid.micros());
  row("K1_app_past_sys", app_past);
  TemporalScanSpec both;
  both.app_time = TemporalSelector::All();
  both.system_time = TemporalSelector::All();
  row("K1_both_times", both);
  if (thread_sweep) {
    // Morsel-parallel scaling of the history-heavy key query: without
    // indexes this is a full scan of every partition, exactly the path the
    // parallel scheduler splits.
    for (int t : {1, 2, 4, 8}) {
      SetDefaultScanThreads(t);
      row("K1_both_times/threads:" + std::to_string(t), both);
      SetDefaultScanThreads(0);
    }
  }
  TemporalScanSpec sys_axis;  // system evolution at one app point
  sys_axis.system_time = TemporalSelector::All();
  sys_axis.app_time = TemporalSelector::AsOf(ctx.app_late);
  row("K1_sys_curr_app", sys_axis);
}

void Run() {
  SharedWorkload& w = SharedWorkload::Get();
  const WorkloadContext& ctx = w.ctx();
  PrintHeader("Figure 8: key-in-time over the full history");
  for (const std::string& letter : AllEngineLetters()) {
    RunFor("System" + letter + "_no_index", *w.Fresh(letter), ctx,
           /*thread_sweep=*/true);
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
