// Figure 5: temporal slicing (T6) — pin one dimension, retrieve the full
// range of the other — plus the simulated-application-time variant (T9)
// and the ALL upper bound.
//
// Expected shape (Section 5.3.4): slicing is *cheaper* than point-point
// time travel for the column store; indexes bring little because result
// sets are large; simulated app time behaves like the native clause.
#include "bench_common.h"
#include "exec/parallel.h"

namespace bih {
namespace bench {
namespace {

void Run() {
  SharedWorkload& w = SharedWorkload::Get();
  const WorkloadContext& ctx = w.ctx();
  const int64_t app_mid = ctx.app_mid;
  const Timestamp sys_mid = ctx.sys_mid;
  PrintHeader("Figure 5: temporal slicing");
  for (const std::string& letter : AllEngineLetters()) {
    TemporalEngine& e = w.Engine(letter);
    auto row = [&](const std::string& name, auto fn) {
      TimeRow("Fig5/" + name + "/System" + letter, fn);
    };
    auto t6_sys = [&] { T6SysPointAppAll(e, sys_mid); };
    auto all = [&] { QueryAll(e); };
    row("T6_app_point_over_sys", [&] { T6AppPointSysAll(e, app_mid); });
    row("T6_simulated_app_over_sys",
        [&] { T9SimulatedAppSlice(e, app_mid); });
    row("T6_sys_point_over_app", t6_sys);
    row("T5_all_versions", all);

    // Morsel-parallel scaling sweep on the scan-bound full slices: the same
    // queries at 1/2/4/8 scan threads (DESIGN.md "Parallel execution").
    // 1 thread takes the untouched serial path, so threads:1 vs the plain
    // rows above shows the parallel plumbing's overhead is nil.
    for (int t : {1, 2, 4, 8}) {
      SetDefaultScanThreads(t);
      const std::string threads = "/threads:" + std::to_string(t);
      row("T6_sys_point_over_app" + threads, t6_sys);
      row("T5_all_versions" + threads, all);
      SetDefaultScanThreads(0);
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace bih

int main() {
  bih::bench::Run();
  return 0;
}
