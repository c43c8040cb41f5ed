#include "dataset.h"

#include <algorithm>
#include <map>

#include "harness.h"
#include "temporal/clock.h"
#include "workload/context.h"

namespace bench {

Dataset Generate(double h, double m, uint64_t seed) {
  Span span("bih.generate");
  Dataset d;
  d.h = h;
  d.m = m;
  const Clock::time_point t0 = Clock::now();
  d.initial = bih::GenerateTpch({h, seed});
  bih::GeneratorConfig gcfg;
  gcfg.m = m;
  gcfg.seed = seed + 1;
  bih::HistoryGenerator gen(d.initial, gcfg);
  d.history = gen.Generate();
  d.generate_s = SecondsSince(t0);

  std::map<int64_t, int64_t> ops;
  for (const bih::HistoryTransaction& txn : d.history) {
    for (const bih::Operation& op : txn.ops) {
      if (op.table == "CUSTOMER" &&
          op.kind != bih::Operation::Kind::kInsert) {
        ++ops[op.key[0].AsInt()];
      }
    }
  }
  std::vector<std::pair<int64_t, int64_t>> by_ops(ops.begin(), ops.end());
  std::stable_sort(by_ops.begin(), by_ops.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  for (const auto& [key, n] : by_ops) d.busy_customers.push_back(key);
  if (d.busy_customers.empty()) d.busy_customers.push_back(1);
  return d;
}

uint64_t StoredVersions(const bih::TemporalEngine& engine) {
  Span span("storage.table_stats");
  uint64_t n = 0;
  for (const std::string& table : engine.ListTables()) {
    const bih::TableStats s = engine.GetTableStats(table);
    n += s.current_rows + s.history_rows;
  }
  return n;
}

LoadedEngine Load(const std::string& letter, const Dataset& data) {
  Span span("bih.load");
  LoadedEngine out;
  out.letter = letter;
  const double rss0 = CurrentRssMb();
  const Clock::time_point t0 = Clock::now();
  out.engine = bih::LoadEngine(letter, data.initial, data.history,
                               /*batch_size=*/1, &out.txn_us);
  out.load_s = SecondsSince(t0);
  out.rss_growth_mb = std::max(0.0, CurrentRssMb() - rss0);
  out.versions = StoredVersions(*out.engine);
  return out;
}

TimeAnchors Anchors(const bih::TemporalEngine& engine, const Dataset& data) {
  TimeAnchors a;
  a.sys_end = engine.Now().micros();
  a.sys_v0 = a.sys_end - static_cast<int64_t>(data.history.size()) *
                             bih::CommitClock::kTickMicros;
  a.app_lo = bih::tpch_dates::kCurrent.AddDays(1).days();
  a.app_hi = bih::tpch_dates::kEnd.days() - 1;
  return a;
}

}  // namespace bench
