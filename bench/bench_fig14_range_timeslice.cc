// Figure 14: the application-oriented range-timeslice queries (R1, R2,
// R3a/R3b, R4, R5, R7) plus ALL as the reference, on a smaller data set —
// the paper uses h=0.01/m=0.1 because R3/R4 explode.
//
// Expected shape (Section 5.6): the temporal-aggregation queries R3a/R3b
// cost orders of magnitude more than reading the whole history (ALL);
// System C's raw scan speed does not rescue the complex R queries.
#include "bench_common.h"

namespace bih {
namespace bench {
namespace {

void Run() {
  SharedWorkload& w = SharedWorkload::Get();
  PrintHeader("Figure 14: range-timeslice queries");
  for (const std::string& letter : AllEngineLetters()) {
    TemporalEngine& e = w.Engine(letter);
    auto row = [&](const std::string& name, int runs, auto fn) {
      TimeRow("Fig14/" + name + "/System" + letter + "/iterations:" +
                  std::to_string(runs),
              fn, runs);
    };
    row("ALL", 3, [&] { QueryAll(e); });
    row("R1_state_changes", 3, [&] { R1(e); });
    row("R2_state_durations", 3, [&] { R2(e); });
    row("R3a_temporal_agg_count", 1,
        [&] { R3(e, TemporalAggKind::kCount, /*naive=*/true); });
    row("R3b_temporal_agg_max", 1,
        [&] { R3(e, TemporalAggKind::kMax, /*naive=*/true); });
    row("R4_stock_differences", 3, [&] { R4(e, 10); });
    row("R5_temporal_join", 3, [&] { R5(e, 5000.0, 100000.0); });
    row("R7_price_raises", 3, [&] { R7(e, 7.5); });
    // Ablation beyond the paper: the timeline-sweep operator the DBMSs
    // lack, to quantify what native temporal aggregation would buy.
    row("R3a_timeline_sweep", 3,
        [&] { R3(e, TemporalAggKind::kCount, /*naive=*/false); });
  }
}

}  // namespace
}  // namespace bench
}  // namespace bih

int main() {
  bih::bench::Run();
  return 0;
}
