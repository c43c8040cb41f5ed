// Wire-protocol overhead: the same SQL statement stream executed in-process
// (SessionManager::ReadTxn + the SQL front end, the ceiling) and over the
// network service layer with N connections spread across M tenants. Not a
// paper figure — the EDBT 2014 study drives embedded engines — but the
// first question any server deployment asks: what do framing, CRC, one
// thread per connection and two layers of admission control cost, and how
// do the latency percentiles move?
//
// Knobs: BIH_SERVE_CONNS (default 8), BIH_SERVE_TENANTS (4),
// BIH_SERVE_OPS per connection (400), BIH_SERVE_ROWS fixture size (2000).
// Output: a human table plus machine-readable BENCH_serve.json.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "catalog/schema.h"
#include "common/period.h"
#include "engine/engine.h"
#include "net/client.h"
#include "net/server.h"
#include "server/session.h"
#include "sql/executor.h"

namespace bih {
namespace bench {
namespace {

std::unique_ptr<TemporalEngine> BuildEngine(int64_t rows) {
  auto engine = MakeEngine("A");
  TableDef def;
  def.name = "ITEM";
  def.schema = Schema({{"ID", ColumnType::kInt},
                       {"PRICE", ColumnType::kDouble},
                       {"NOTE", ColumnType::kString},
                       {"VB", ColumnType::kDate},
                       {"VE", ColumnType::kDate}});
  def.primary_key = {0};
  def.app_periods = {{"VALIDITY", 3, 4}};
  def.system_versioned = true;
  if (!engine->CreateTable(def).ok()) return nullptr;
  for (int64_t i = 1; i <= rows; ++i) {
    Status st = engine->Insert(
        "ITEM", {Value(i), Value(static_cast<double>(i) * 0.25),
                 Value("n" + std::to_string(i % 97)), Value(int64_t{0}),
                 Value(Period::kForever)});
    if (!st.ok()) return nullptr;
  }
  return engine;
}

std::vector<std::string> MakeQueries(int64_t rows) {
  std::vector<std::string> qs;
  for (int64_t k = 0; k < 16; ++k) {
    qs.push_back("SELECT ID, PRICE, NOTE FROM ITEM WHERE ID = " +
                 std::to_string(1 + (k * 131) % rows));
  }
  return qs;
}

struct LatencySummary {
  uint64_t ops = 0;
  uint64_t errors = 0;
  double wall_s = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
  double qps() const { return wall_s > 0.0 ? ops / wall_s : 0.0; }
};

LatencySummary Summarize(std::vector<std::vector<double>>* per_thread,
                         uint64_t errors, double wall_s) {
  std::vector<double> all;
  for (const auto& v : *per_thread) all.insert(all.end(), v.begin(), v.end());
  LatencySummary s;
  s.ops = all.size();
  s.errors = errors;
  s.wall_s = wall_s;
  s.p50_us = Percentile(all, 0.50);
  s.p90_us = Percentile(all, 0.90);
  s.p99_us = Percentile(all, 0.99);
  s.max_us = Percentile(all, 1.0);
  return s;
}

// The in-process ceiling: same statements, same session layer, no wire.
LatencySummary RunInProcess(SessionManager* session,
                            const std::vector<std::string>& queries,
                            int threads, int ops) {
  std::vector<std::vector<double>> lat(static_cast<size_t>(threads));
  std::vector<uint64_t> errs(static_cast<size_t>(threads), 0);
  const double wall = RunThreads(threads, [&](int t) {
    for (int i = 0; i < ops; ++i) {
      const std::string& q = queries[(t * 31 + i) % queries.size()];
      const auto t0 = std::chrono::steady_clock::now();
      sql::SqlResult res;
      Status st = session->ReadTxn(nullptr, [&](TemporalEngine& eng) {
        return sql::ExecuteSql(eng, q, &res);
      });
      const auto t1 = std::chrono::steady_clock::now();
      if (!st.ok()) {
        ++errs[t];
        continue;
      }
      lat[t].push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
  });
  uint64_t errors = 0;
  for (uint64_t e : errs) errors += e;
  return Summarize(&lat, errors, wall);
}

// The served path: each connection is a thread with its own Client, spread
// round-robin across tenants.
LatencySummary RunServed(uint16_t port, const std::vector<std::string>& queries,
                         int conns, int tenants, int ops) {
  std::vector<std::vector<double>> lat(static_cast<size_t>(conns));
  std::vector<uint64_t> errs(static_cast<size_t>(conns), 0);
  const double wall = RunThreads(conns, [&](int t) {
    net::Client c;
    if (!c.Connect("127.0.0.1", port, "tenant-" + std::to_string(t % tenants))
             .ok()) {
      errs[t] += static_cast<uint64_t>(ops);
      return;
    }
    for (int i = 0; i < ops; ++i) {
      const std::string& q = queries[(t * 31 + i) % queries.size()];
      net::QueryReply reply;
      const auto t0 = std::chrono::steady_clock::now();
      Status st = c.Query(q, /*deadline_ms=*/10000, &reply);
      const auto t1 = std::chrono::steady_clock::now();
      if (!st.ok()) {
        ++errs[t];
        continue;
      }
      lat[t].push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
  });
  uint64_t errors = 0;
  for (uint64_t e : errs) errors += e;
  return Summarize(&lat, errors, wall);
}

void PrintRow(const char* name, const LatencySummary& s) {
  std::printf("%-12s %8llu ops %8.0f q/s  p50 %7.1fus  p90 %7.1fus  "
              "p99 %7.1fus  max %8.1fus  errors %llu\n",
              name, static_cast<unsigned long long>(s.ops), s.qps(), s.p50_us,
              s.p90_us, s.p99_us, s.max_us,
              static_cast<unsigned long long>(s.errors));
}

std::string JsonBlock(const LatencySummary& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"ops\":%llu,\"errors\":%llu,\"qps\":%.1f,"
                "\"p50_us\":%.1f,\"p90_us\":%.1f,\"p99_us\":%.1f,"
                "\"max_us\":%.1f}",
                static_cast<unsigned long long>(s.ops),
                static_cast<unsigned long long>(s.errors), s.qps(), s.p50_us,
                s.p90_us, s.p99_us, s.max_us);
  return buf;
}

int Run() {
  const int conns = EnvInt("BIH_SERVE_CONNS", 8, 1, 512);
  const int tenants = EnvInt("BIH_SERVE_TENANTS", 4, 1, 64);
  const int ops = EnvInt("BIH_SERVE_OPS", 400, 1, 1000000);
  const int64_t rows = EnvInt("BIH_SERVE_ROWS", 2000, 10, 10000000);

  auto engine = BuildEngine(rows);
  if (engine == nullptr) {
    std::fprintf(stderr, "fixture load failed\n");
    return 1;
  }
  const std::vector<std::string> queries = MakeQueries(rows);
  SessionManager session(engine.get());

  std::printf("bench_serve: %d connections x %d tenants, %d ops each, "
              "%lld-row ITEM (System A)\n",
              conns, tenants, ops, static_cast<long long>(rows));
  // Warm both paths once so first-touch costs (lazy indexes, page faults)
  // do not land in the measured percentiles.
  (void)RunInProcess(&session, queries, conns, 8);
  const LatencySummary inproc = RunInProcess(&session, queries, conns, ops);
  PrintRow("in-process", inproc);

  net::Server server(&session, net::ServerConfig{});
  Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", st.ToString().c_str());
    return 1;
  }
  (void)RunServed(server.port(), queries, conns, tenants, 8);
  const LatencySummary served =
      RunServed(server.port(), queries, conns, tenants, ops);
  server.Drain();
  PrintRow("served", served);
  if (inproc.p50_us > 0.0) {
    std::printf("wire overhead: p50 %+.1fus (%.2fx), p99 %+.1fus (%.2fx)\n",
                served.p50_us - inproc.p50_us, served.p50_us / inproc.p50_us,
                served.p99_us - inproc.p99_us,
                inproc.p99_us > 0.0 ? served.p99_us / inproc.p99_us : 0.0);
  }

  char head[160];
  std::snprintf(head, sizeof(head),
                "\"connections\":%d,\"tenants\":%d,"
                "\"ops_per_connection\":%d,\"rows\":%lld,",
                conns, tenants, ops, static_cast<long long>(rows));
  return WriteBenchJson("serve", std::string(head) + "\"in_process\":" +
                                     JsonBlock(inproc) + ",\"served\":" +
                                     JsonBlock(served));
}

}  // namespace
}  // namespace bench
}  // namespace bih

int main() { return bih::bench::Run(); }
