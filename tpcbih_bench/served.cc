// served_mixed: System A behind an in-process net::Server on loopback with
// a real fdatasync'd, group-committed WAL. Three reader connections send
// key-in-time SQL, one writer connection sends SQL UPDATEs; every
// connection is a closed loop.
#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <thread>

#include "common/period.h"
#include "net/client.h"
#include "net/server.h"
#include "server/session.h"
#include "served.h"
#include "sql/executor.h"
#include "suite.h"
#include "tpch/schema.h"
#include "wal_setup.h"

namespace bench {

namespace {

constexpr int kReaders = 3;
constexpr size_t kStatementsPerReader = 4096;
constexpr uint32_t kDeadlineMs = 10000;

std::string DateLiteral(int64_t days) {
  return "DATE '" + bih::Date(static_cast<int32_t>(days)).ToString() + "'";
}

// The writer's business-time window; the readback reads inside and after.
const int64_t kWindowBegin = bih::Date::FromYMD(1999, 1, 1).days();
const int64_t kWindowEnd = bih::Date::FromYMD(2000, 1, 1).days();
const int64_t kInsideWindow = bih::Date::FromYMD(1999, 6, 1).days();
const int64_t kAfterWindow = bih::Date::FromYMD(2001, 6, 1).days();

}  // namespace

const std::vector<std::string>& ReadKindNames() {
  static const std::vector<std::string> kNames = {
      "read.current", "read.history", "read.sys_as_of", "read.app_as_of"};
  return kNames;
}

std::vector<ReadStatement> MakeReads(const std::vector<int64_t>& keys,
                                     const TimeAnchors& at, uint64_t seed,
                                     int stream, size_t n) {
  // Kinds in exact shares: three current lookups to one each of history,
  // system-time and business-time point reads, shuffled anew for every
  // block of six. Two thirds of the reads are cheap index lookups, so the
  // median lies inside their cluster rather than on the edge between the
  // cheap and the history-scanning kinds, where a random draw of the mix
  // would move it from seed to seed.
  static const std::vector<int> kBlock = {0, 0, 0, 1, 2, 3};
  std::mt19937_64 rng = Rng(seed, 100 + static_cast<uint64_t>(stream));
  std::vector<ReadStatement> out;
  out.reserve(n);
  std::vector<int> block;
  for (size_t i = 0; i < n; ++i) {
    ReadStatement s;
    if (i % kBlock.size() == 0) {
      block = kBlock;
      std::shuffle(block.begin(), block.end(), rng);
    }
    s.kind = block[i % kBlock.size()];
    s.custkey = keys[static_cast<size_t>(
        Uniform(rng, 0, static_cast<int64_t>(keys.size()) - 1))];
    const std::string where = " WHERE C_CUSTKEY = " + std::to_string(s.custkey);
    switch (s.kind) {
      case 0:
        s.sql = "SELECT C_CUSTKEY, C_NAME, C_ACCTBAL FROM CUSTOMER" + where;
        break;
      case 1:
        s.sql = "SELECT C_ACCTBAL, SYS_TIME_START, SYS_TIME_END FROM CUSTOMER "
                "FOR SYSTEM_TIME ALL" + where;
        break;
      case 2:
        s.sql = "SELECT C_NAME, C_ACCTBAL FROM CUSTOMER FOR SYSTEM_TIME AS OF " +
                std::to_string(Uniform(rng, at.sys_v0, at.sys_end)) + where;
        break;
      default:
        s.sql = "SELECT C_NAME, C_ACCTBAL FROM CUSTOMER FOR BUSINESS_TIME AS OF " +
                DateLiteral(Uniform(rng, at.app_lo, at.app_hi)) + where;
        break;
    }
    out.push_back(std::move(s));
  }
  return out;
}


std::vector<int64_t> WriterKeys(const std::vector<int64_t>& keys,
                                uint64_t seed) {
  std::mt19937_64 pick = Rng(seed, 7);
  std::vector<int64_t> out;
  for (int64_t k : keys) {
    if (Uniform(pick, 0, 7) == 0) out.push_back(k);
  }
  if (out.empty()) out.push_back(keys.front());
  return out;
}

std::string UpdateStatement(int64_t custkey, bool portion, double value) {
  char num[32];
  std::snprintf(num, sizeof(num), "%.2f", value);
  return std::string("UPDATE CUSTOMER ") +
         (portion ? "FOR PORTION OF BUSINESS_TIME FROM " +
                        DateLiteral(kWindowBegin) + " TO " +
                        DateLiteral(kWindowEnd) + " "
                  : "") +
         "SET C_ACCTBAL = " + num + " WHERE C_CUSTKEY = " +
         std::to_string(custkey);
}

void CheckReadBack(
    const std::map<int64_t, double>& last_any,
    const std::map<int64_t, double>& last_current,
    const std::function<bool(const std::string&, bih::Rows*)>& query,
    Result* r) {
  // Inside the writer's business-time window every written key holds its
  // last update; after it, its last current (whole business time) one.
  auto read_balance = [&](int64_t k, int64_t day, double want) {
    const std::string sql =
        "SELECT C_ACCTBAL FROM CUSTOMER FOR BUSINESS_TIME AS OF " +
        DateLiteral(day) + " WHERE C_CUSTKEY = " + std::to_string(k);
    bih::Rows rows;
    if (!query(sql, &rows) || rows.size() != 1 ||
        rows[0][0].AsDouble() != want) {
      r->Fail("acknowledged write not read back: " + sql);
    }
  };
  for (const auto& [k, v] : last_any) {
    read_balance(k, kInsideWindow, v);
    auto it = last_current.find(k);
    if (it != last_current.end()) read_balance(k, kAfterWindow, it->second);
  }
}

std::vector<int64_t> CustomerKeys(const Dataset& data) {
  std::vector<int64_t> keys;
  for (const bih::Row& row : data.initial.customer) {
    keys.push_back(row[bih::customer::kCustKey].AsInt());
  }
  return keys;
}

ServedLoad RunServedLoad(uint16_t port, const Dataset& data,
                         const TimeAnchors& at, uint64_t seed, double seconds,
                         bool with_writer) {
  ServedLoad load;
  const std::vector<int64_t> keys = CustomerKeys(data);
  // The writer owns a seed-chosen eighth of the customers; readers read
  // uniformly over all of them.
  const std::vector<int64_t> write_keys =
      with_writer ? WriterKeys(keys, seed) : std::vector<int64_t>{};
  const std::set<int64_t> written(write_keys.begin(), write_keys.end());

  struct ReaderOut {
    std::vector<std::vector<double>> by_kind{ReadKindNames().size()};
    std::map<size_t, bih::Rows> first_reply;  // statement index -> rows
    std::vector<Sample> samples;
    std::vector<std::string> errors;
    uint64_t attempted = 0;
  };
  std::vector<ReaderOut> readers(kReaders);
  std::vector<std::vector<ReadStatement>> stmts;
  for (int t = 0; t < kReaders; ++t) {
    stmts.push_back(MakeReads(keys, at, seed, t, kStatementsPerReader));
  }

  struct WriterOut {
    std::vector<double> current_us, portion_us;
    std::map<int64_t, double> last_any, last_current;
    std::vector<Sample> samples;
    std::vector<std::string> errors;
    uint64_t attempted = 0;
  } writer;

  const Clock::time_point deadline =
      Clock::now() + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      ReaderOut& out = readers[static_cast<size_t>(t)];
      bih::net::Client c;
      if (!c.Connect("127.0.0.1", port, "reader-" + std::to_string(t)).ok()) {
        ++out.attempted;
        out.errors.push_back("reader connect failed");
        return;
      }
      for (size_t i = 0; Clock::now() < deadline; ++i) {
        const size_t idx = i % stmts[static_cast<size_t>(t)].size();
        const ReadStatement& s = stmts[static_cast<size_t>(t)][idx];
        bih::net::QueryReply reply;
        ++out.attempted;
        const uint64_t req = NextRequestId();
        Span span("net.client_query", req);
        const Clock::time_point q0 = Clock::now();
        bih::Status st = c.Query(s.sql, kDeadlineMs, &reply);
        const double us = MicrosSince(q0);
        if (!st.ok() || !reply.status.ok()) {
          out.errors.push_back(s.sql + ": " + reply.status.ToString());
          if (!c.connected()) return;
          continue;
        }
        Tracer::Get().Count("net.rows_out", static_cast<double>(reply.rows.size()));
        out.by_kind[static_cast<size_t>(s.kind)].push_back(us);
        out.samples.push_back({SecondsSince(t0), us});
        if (i < stmts[static_cast<size_t>(t)].size() &&
            written.count(s.custkey) == 0) {
          out.first_reply[idx] = std::move(reply.rows);
        }
      }
    });
  }
  if (with_writer) {
    threads.emplace_back([&] {
      bih::net::Client c;
      if (!c.Connect("127.0.0.1", port, "writer").ok()) {
        ++writer.attempted;
        writer.errors.push_back("writer connect failed");
        return;
      }
      std::mt19937_64 rng = Rng(seed, 200);
      for (uint64_t i = 0; Clock::now() < deadline; ++i) {
        const int64_t k = write_keys[static_cast<size_t>(
            Uniform(rng, 0, static_cast<int64_t>(write_keys.size()) - 1))];
        const bool portion = Uniform(rng, 0, 1) == 1;
        // Distinct values, so a lost or reordered write cannot read back
        // as the right one.
        const double v = static_cast<double>(i) + 0.25;
        const std::string sql = UpdateStatement(k, portion, v);
        bih::net::QueryReply reply;
        ++writer.attempted;
        Span span("net.client_update", NextRequestId());
        const Clock::time_point q0 = Clock::now();
        bih::Status st = c.Query(sql, kDeadlineMs, &reply);
        const double us = MicrosSince(q0);
        if (!st.ok() || !reply.status.ok()) {
          writer.errors.push_back(sql + ": " + reply.status.ToString());
          if (!c.connected()) return;
          continue;
        }
        (portion ? writer.portion_us : writer.current_us).push_back(us);
        writer.samples.push_back({SecondsSince(t0), us});
        writer.last_any[k] = v;
        if (!portion) writer.last_current[k] = v;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  load.seconds = SecondsSince(t0);

  load.by_kind.resize(ReadKindNames().size());
  for (ReaderOut& out : readers) {
    load.attempted += out.attempted;
    for (const std::string& e : out.errors) load.errors.push_back(e);
    load.read_samples.insert(load.read_samples.end(), out.samples.begin(),
                             out.samples.end());
    for (size_t k = 0; k < out.by_kind.size(); ++k) {
      load.by_kind[k].insert(load.by_kind[k].end(), out.by_kind[k].begin(),
                             out.by_kind[k].end());
      load.read_us.insert(load.read_us.end(), out.by_kind[k].begin(),
                          out.by_kind[k].end());
    }
  }
  for (size_t t = 0; t < readers.size(); ++t) {
    for (auto& [idx, rows] : readers[t].first_reply) {
      load.checks.push_back({stmts[t][idx].sql, std::move(rows)});
    }
  }
  load.attempted += writer.attempted;
  for (const std::string& e : writer.errors) load.errors.push_back(e);
  load.write_samples = std::move(writer.samples);
  load.write_current_us = std::move(writer.current_us);
  load.write_portion_us = std::move(writer.portion_us);
  load.last_any = std::move(writer.last_any);
  load.last_current = std::move(writer.last_current);
  return load;
}

void CheckServedLoad(bih::SessionManager& session, uint16_t port,
                     const ServedLoad& load, Result* r) {
  r->attempted += load.attempted;
  for (const std::string& e : load.errors) r->Fail(e);
  // Reads of keys the writer never touched must equal in-process execution.
  for (const auto& [sql, rows] : load.checks) {
    bih::sql::SqlResult want;
    bih::Status st = session.ReadTxn(nullptr, [&](bih::TemporalEngine& eng) {
      return bih::sql::ExecuteSql(eng, sql, &want);
    });
    if (!st.ok() || !RowsIdentical(want.rows, rows)) {
      r->Fail("served rows differ from in-process ExecuteSql: " + sql);
    }
  }
  if (load.last_any.empty()) return;
  // Every written key reads back its last acknowledged value, inside the
  // writer's business-time window and (for current updates) after it.
  bih::net::Client c;
  if (!c.Connect("127.0.0.1", port, "readback").ok()) {
    r->Fail("readback connect failed");
    return;
  }
  CheckReadBack(load.last_any, load.last_current,
                [&](const std::string& sql, bih::Rows* rows) {
                  bih::net::QueryReply reply;
                  if (!c.Query(sql, kDeadlineMs, &reply).ok() ||
                      !reply.status.ok()) {
                    return false;
                  }
                  *rows = std::move(reply.rows);
                  return true;
                },
                r);
}

uint64_t ShedCount(bih::SessionManager& session, bih::net::Server& server) {
  uint64_t shed = session.GetStats().admission.shed;
  for (int t = 0; t < kReaders; ++t) {
    shed += server.tenants().GetOrCreate("reader-" + std::to_string(t))
                ->GetStats().shed;
  }
  shed += server.tenants().GetOrCreate("writer")->GetStats().shed;
  return shed;
}

UncontendedReads MeasureUncontended(bih::SessionManager& session,
                                    uint16_t port, const Dataset& data,
                                    const TimeAnchors& at, uint64_t seed,
                                    size_t n) {
  UncontendedReads u;
  const std::vector<ReadStatement> stmts =
      MakeReads(CustomerKeys(data), at, seed, 50, n);
  for (const ReadStatement& s : stmts) {
    bih::sql::SqlResult res;
    Clock::time_point t0 = Clock::now();
    {
      Span span("sql.execute");
      // The engine is only read, and no writer runs during this probe.
      if (!bih::sql::ExecuteSql(session.engine(), s.sql, &res).ok()) continue;
    }
    u.sql_us.push_back(MicrosSince(t0));
    t0 = Clock::now();
    bih::Status st = session.ReadTxn(nullptr, [&](bih::TemporalEngine& eng) {
      Span span("server.read_txn");
      return bih::sql::ExecuteSql(eng, s.sql, &res);
    });
    if (st.ok()) u.txn_us.push_back(MicrosSince(t0));
  }
  bih::net::Client c;
  if (c.Connect("127.0.0.1", port, "probe").ok()) {
    for (const ReadStatement& s : stmts) {
      bih::net::QueryReply reply;
      Span span("net.roundtrip");
      const Clock::time_point t0 = Clock::now();
      if (c.Query(s.sql, kDeadlineMs, &reply).ok() && reply.status.ok()) {
        u.net_us.push_back(MicrosSince(t0));
      }
    }
  }
  return u;
}

void ServedLayers(const ServedLoad& loaded, const UncontendedReads& u,
                  uint64_t shed, Result* r) {
  r->Layer("sql.execute_us_p50", Median(u.sql_us), "us");
  r->Layer("server.read_txn_us_p50", Median(u.txn_us), "us");
  r->Layer("net.roundtrip_us_p50", Median(u.net_us), "us");
  r->Layer("server.read_wait_us_p50",
           Median(loaded.read_us) - Median(u.net_us), "us");
  r->Layer("server.read_wait_us_p99",
           Percentile(loaded.read_us, 0.99) - Percentile(u.net_us, 0.99), "us");
  r->Layer("server.shed", static_cast<double>(shed), "count");
}

}  // namespace bench

namespace bench {

namespace {

constexpr double kWindowS = 1.0;

std::map<std::string, Metric> ServedMetrics(const ServedLoad& load,
                                            double setup_value) {
  std::vector<double> kind_ms;
  for (const std::vector<double>& v : load.by_kind) {
    if (!v.empty()) kind_ms.push_back(Median(v) / 1000.0);
  }
  for (const std::vector<double>* v :
       {&load.write_current_us, &load.write_portion_us}) {
    if (!v->empty()) kind_ms.push_back(Median(*v) / 1000.0);
  }
  // Reads per one-second window (thousands of reads each); the lone
  // writer's few hundred writes a second are pooled over the run, so its
  // p99 still has at least ten samples beyond it.
  const WindowSummary reads =
      SummarizeWindows(load.read_samples, load.seconds, kWindowS);
  std::vector<double> write_us;
  for (const Sample& w : load.write_samples) write_us.push_back(w.us);
  std::map<std::string, Metric> m;
  m["setup_s"] = {setup_value, "s"};
  m["query_ms_geomean"] = {Geomean(kind_ms), "ms"};
  m["suite_s"] = {Sum(kind_ms) / 1000.0, "s"};
  m["read_us_p50"] = {reads.p50_us, "us"};
  m["read_us_p99"] = {reads.p99_us, "us"};
  m["reads_per_s"] = {reads.per_s, "1/s"};
  m["write_us_p50"] = {Median(write_us), "us"};
  m["write_us_p99"] = {Percentile(write_us, 0.99), "us"};
  m["writes_per_s"] = {static_cast<double>(write_us.size()) / load.seconds,
                       "1/s"};
  m["peak_rss_mb"] = {PeakRssMb(), "MiB"};
  return m;
}

}  // namespace

Result RunServedMixed(const Args& args) {
  Result r;
  const double scale = args.tiny ? 0.001 : 0.01;
  const std::string dir = args.work_dir + "/wal-served_mixed";
  AddHostFingerprint(args, &r);
  r.config["engine"] = "A";
  r.config["h"] = std::to_string(scale);
  r.config["m"] = std::to_string(scale);
  r.config["connections"] = "3 readers + 1 writer, one tenant each";

  std::vector<double> setup_s;
  double traced_setup_s = 0.0;
  WalSetup s = RepeatWalSetup(args, dir, scale, &r, &setup_s, &traced_setup_s);
  if (!s.status.ok()) return r;
  const TimeAnchors at = Anchors(*s.a.engine, s.data);

  {
    bih::SessionManager session(s.a.engine.get());
    bih::net::Server server(&session, bih::net::ServerConfig{});
    bih::Status st = server.Start();
    if (!st.ok()) {
      r.Fail("server start: " + st.ToString());
      return r;
    }
    Tracer::Get().Enable(false);
    // Warm-up: first-touch costs stay out of the measured percentiles.
    (void)RunServedLoad(server.port(), s.data, at, args.seed + 500, 0.3, false);
    const ServedLoad plain =
        RunServedLoad(server.port(), s.data, at, args.seed,
                      args.trace ? args.seconds / 2 : args.seconds, true);
    CheckServedLoad(session, server.port(), plain, &r);
    r.metrics = ServedMetrics(plain, Median(setup_s));
    r.notes["read_samples"] = static_cast<double>(plain.read_us.size());
    r.notes["read_tail_supported"] = SupportedTail(plain.read_us.size());
    r.notes["write_samples"] = static_cast<double>(
        plain.write_current_us.size() + plain.write_portion_us.size());
    r.notes["write_tail_supported"] = SupportedTail(static_cast<size_t>(
        r.notes["write_samples"]));
    if (args.trace) {
      Tracer::Get().Enable(true);
      const WalCounters w0 = ReadWalCounters(session);
      const bih::GroupCommit::Stats g0 = session.GetGroupCommitStats();
      const ServedLoad traced = RunServedLoad(server.port(), s.data, at,
                                              args.seed + 1, args.seconds / 2,
                                              true);
      const WalCounters w1 = ReadWalCounters(session);
      bih::GroupCommit::Stats g = session.GetGroupCommitStats();
      g.acks -= g0.acks;
      g.groups -= g0.groups;
      CheckServedLoad(session, server.port(), traced, &r);
      AddTracingOverhead(r.metrics, ServedMetrics(traced, traced_setup_s), &r);
      DurabilityLayers(w0, w1,
                       traced.write_current_us.size() +
                           traced.write_portion_us.size(),
                       g, &r);
      const UncontendedReads u = MeasureUncontended(
          session, server.port(), s.data, at, args.seed, 2000);
      ServedLayers(traced, u, ShedCount(session, server), &r);
    }
    server.Drain();
  }
  if (args.trace) {
    std::vector<LoadedEngine> engines;
    engines.push_back(std::move(s.a));
    ProbeInput in;
    in.args = &args;
    in.data = &s.data;
    in.engines = &engines;
    in.wal_dir = dir;
    RunLayerProbes(in, &r);
  }
  return r;
}

}  // namespace bench
