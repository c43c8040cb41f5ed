// Figure 15: the bitemporal dimension queries B3.1-B3.11 (Table 3), without
// indexes and with the Key+Time setting.
//
// Expected shape (Section 5.7): most variants degenerate to table scans and
// unindexed joins; correlation variants (temporal joins) are the slowest
// because no engine has a temporal join operator.
#include "bench_common.h"

namespace bih {
namespace bench {
namespace {

constexpr int kRuns = 3;

void RunFor(const std::string& config, TemporalEngine& e,
            const WorkloadContext& ctx) {
  const int64_t partkey =
      55 % static_cast<int64_t>(ctx.initial.part.size()) + 1;
  for (int variant = 1; variant <= 11; ++variant) {
    TimeRow("Fig15/B3_" + std::to_string(variant) + "/" + config +
                "/iterations:" + std::to_string(kRuns),
            [&] { B3(e, variant, partkey, ctx.app_mid, ctx.sys_mid); },
            kRuns);
  }
}

void Run() {
  SharedWorkload& w = SharedWorkload::Get();
  const WorkloadContext& ctx = w.ctx();
  PrintHeader("Figure 15: bitemporal dimension queries");
  for (const std::string& letter : AllEngineLetters()) {
    RunFor("System" + letter + "_no_index", *w.Fresh(letter), ctx);
    RunFor("System" + letter + "_indexed",
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
