// Layer probes of a traced run. Each workload measures the layers on its
// own path; the probes measure every other layer of the per-layer table by
// timing that layer's public calls on the same data, so every traced run
// reports the full table and a change to one layer shows on every workload
// that reaches it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "durability/wal.h"
#include "exec/parallel.h"
#include "exec/plan.h"
#include "net/server.h"
#include "served.h"
#include "server/session.h"
#include "suite.h"
#include "wal_setup.h"
#include "workloads.h"

namespace bench {

namespace {

constexpr int kScanRepeats = 3;

bool Has(const Result& r, const std::string& name) {
  return r.layers.count(name) != 0;
}

bih::SessionConfig QuietConfig() {
  bih::SessionConfig cfg;
  cfg.watchdog_period = std::chrono::milliseconds(0);
  cfg.scan_threads = 1;
  return cfg;
}

// engine.scan_ns_per_version and exec.materialize_ns_per_row: the full
// history of every table through the raw Scan (counting callback), then the
// same requests through Execute(ScanPlan); the difference per row is what
// the executor adds on top of storage.
void ScanProbe(LoadedEngine& le, Result* r) {
  std::vector<double> scan_ns, exec_ns;
  uint64_t versions = 0, rows_out = 0;
  for (int rep = 0; rep < kScanRepeats; ++rep) {
    double scan = 0.0, exec = 0.0;
    versions = rows_out = 0;
    for (const std::string& table : le.engine->ListTables()) {
      bih::ScanRequest req;
      req.table = table;
      req.temporal.system_time = bih::TemporalSelector::All();
      req.temporal.app_time = bih::TemporalSelector::All();
      req.exec.scan_threads = 1;
      bih::ExecStats stats;
      req.stats = &stats;
      Clock::time_point t0 = Clock::now();
      {
        Span span("engine.scan");
        le.engine->Scan(req, [&](const bih::Row&) {
          ++versions;
          return true;
        });
      }
      scan += MicrosSince(t0) * 1000.0;
      bih::PlanPtr plan = bih::ScanPlan(req);
      bih::Rows rows;
      bih::ExecOptions opts;
      opts.scan_threads = 1;
      t0 = Clock::now();
      {
        Span span("exec.execute_scan");
        if (!bih::Execute(*plan, *le.engine, opts, nullptr, &rows).ok()) {
          r->Fail("Execute(ScanPlan) failed on " + table);
        }
      }
      exec += MicrosSince(t0) * 1000.0;
      rows_out += rows.size();
    }
    Tracer::Get().Count("engine.versions_scanned", static_cast<double>(versions));
    scan_ns.push_back(scan);
    exec_ns.push_back(exec);
  }
  const double v = static_cast<double>(std::max<uint64_t>(1, versions));
  const double n = static_cast<double>(std::max<uint64_t>(1, rows_out));
  r->Layer("engine.scan_ns_per_version." + le.letter, Median(scan_ns) / v, "ns");
  r->Layer("exec.materialize_ns_per_row." + le.letter,
           std::max(0.0, Median(exec_ns) - Median(scan_ns)) / n, "ns");
}

// One timed pass of `suite` over every engine through ReadTxn.
std::vector<std::vector<double>> SuitePass(
    std::vector<std::unique_ptr<bih::SessionManager>>& sessions,
    const std::vector<Query>& suite, int passes, Result* r) {
  std::vector<std::vector<double>> med(sessions.size());
  for (size_t e = 0; e < sessions.size(); ++e) {
    for (const Query& q : suite) {
      std::vector<double> ms;
      for (int p = 0; p < passes; ++p) {
        const Clock::time_point t0 = Clock::now();
        bih::Status st = sessions[e]->ReadTxn(nullptr, [&](bih::TemporalEngine& eng) {
          Span span("workload.query");
          q.run(eng);
          return bih::Status::OK();
        });
        if (!st.ok()) r->Fail("probe " + q.name + ": " + st.ToString());
        ms.push_back(MicrosSince(t0) / 1000.0);
      }
      med[e].push_back(Median(ms));
    }
  }
  return med;
}

std::vector<double> DeviceSyncProbe(const std::string& dir, int n, Result* r) {
  std::vector<double> us;
  std::unique_ptr<bih::WalWriter> wal;
  const std::string path = dir + "/device-sync-probe.wal";
  bih::Status st = bih::WalWriter::Open(path, nullptr, &wal);
  if (!st.ok()) {
    r->Fail("device sync probe: " + st.ToString());
    return us;
  }
  for (int i = 0; i < n; ++i) {
    bih::WalRecord rec;
    rec.kind = bih::WalRecord::Kind::kUpdateCurrent;
    rec.ts = i + 1;
    rec.table = "PROBE";
    rec.key = {bih::Value(static_cast<int64_t>(i))};
    rec.set = {{1, bih::Value(static_cast<double>(i))}};
    Span span("durability.append_flush");
    const Clock::time_point t0 = Clock::now();
    st = wal->Append(rec);
    if (st.ok()) st = wal->Flush();
    if (!st.ok()) {
      r->Fail("device sync probe: " + st.ToString());
      break;
    }
    us.push_back(MicrosSince(t0));
  }
  wal.reset();
  std::remove(path.c_str());
  return us;
}

}  // namespace

void SuiteLayers(const std::vector<SuiteSample>& s, Result* r) {
  std::map<std::string, std::vector<double>> by_engine, by_class;
  for (const SuiteSample& x : s) {
    by_engine[x.engine].push_back(x.median_ms);
    by_class[std::string(1, x.cls)].push_back(x.median_ms);
  }
  for (const auto& [e, v] : by_engine) {
    if (!Has(*r, "engine.query_ms_geomean." + e)) {
      r->Layer("engine.query_ms_geomean." + e, Geomean(v), "ms");
    }
  }
  for (const auto& [c, v] : by_class) {
    if (!Has(*r, "workload.query_ms_geomean." + c)) {
      r->Layer("workload.query_ms_geomean." + c, Geomean(v), "ms");
    }
  }
}

void RunLayerProbes(ProbeInput& in, Result* r) {
  const Args& args = *in.args;
  const Dataset& data = *in.data;
  std::vector<LoadedEngine>& engines = *in.engines;

  // bih / storage: load the engines the workload did not.
  for (const std::string& letter : EngineLetters()) {
    const bool have = std::any_of(engines.begin(), engines.end(),
                                  [&](const LoadedEngine& le) {
                                    return le.letter == letter;
                                  });
    if (!have) engines.push_back(Load(letter, data));
    const LoadedEngine& le = *std::find_if(
        engines.begin(), engines.end(),
        [&](const LoadedEngine& x) { return x.letter == letter; });
    if (!Has(*r, "bih.load_s." + letter)) {
      r->Layer("bih.load_s." + letter, le.load_s, "s");
    }
    if (!Has(*r, "storage.bytes_per_version." + letter)) {
      r->Layer("storage.bytes_per_version." + letter, le.BytesPerVersion(),
               "B");
    }
  }
  std::sort(engines.begin(), engines.end(),
            [](const LoadedEngine& x, const LoadedEngine& y) {
              return x.letter < y.letter;
            });
  LoadedEngine& a = engines.front();

  std::fprintf(stderr, "# probe: scans\n");
  // engine / exec: raw scans vs materialized scans.
  for (LoadedEngine& le : engines) ScanProbe(le, r);

  std::fprintf(stderr, "# probe: suite\n");
  // engine / workload: one serial pass of the full suite where the
  // workload ran none (or only a subset); exec.parallel: the full-scan
  // subset at 1 and at 4 threads.
  const TimeAnchors at = Anchors(*engines.front().engine, data);
  std::vector<std::unique_ptr<bih::SessionManager>> sessions;
  for (LoadedEngine& le : engines) {
    sessions.push_back(
        std::make_unique<bih::SessionManager>(le.engine.get(), QuietConfig()));
  }
  if (!Has(*r, "workload.query_ms_geomean.B")) {
    bih::SetDefaultScanThreads(1);
    const std::vector<Query> suite = AnalyticSuite(data, at, args.seed);
    const auto med = SuitePass(sessions, suite, 1, r);
    std::vector<SuiteSample> samples;
    for (size_t e = 0; e < engines.size(); ++e) {
      for (size_t q = 0; q < suite.size(); ++q) {
        samples.push_back({suite[q].name, suite[q].cls, engines[e].letter, med[e][q]});
      }
    }
    SuiteLayers(samples, r);
  }
  if (!Has(*r, "exec.parallel.speedup")) {
    const std::vector<Query> suite = ParallelSuite(data, at, args.seed);
    bih::SetDefaultScanThreads(1);
    const auto t1 = SuitePass(sessions, suite, 1, r);
    bih::SetDefaultScanThreads(4);
    const auto t4 = SuitePass(sessions, suite, 1, r);
    double log_sum = 0.0;
    std::vector<double> j1, j4;
    for (size_t e = 0; e < engines.size(); ++e) {
      for (size_t q = 0; q < suite.size(); ++q) {
        log_sum += std::log(t1[e][q] / std::max(t4[e][q], 1e-9));
      }
      j1.push_back(t1[e].back());
      j4.push_back(t4[e].back());
    }
    r->Layer("exec.parallel.speedup",
             std::exp(log_sum / static_cast<double>(engines.size() * suite.size())),
             "x");
    r->Layer("exec.parallel.join_agg_ms.t1", Median(j1), "ms");
    r->Layer("exec.parallel.join_agg_ms.t4", Median(j4), "ms");
  }
  bih::SetDefaultScanThreads(0);
  sessions.clear();

  std::fprintf(stderr, "# probe: served\n");
  // sql / server / net: the served read mix on System A, uncontended and
  // with three reader connections.
  if (!Has(*r, "sql.execute_us_p50")) {
    bih::SessionManager session(a.engine.get());
    bih::net::Server server(&session, bih::net::ServerConfig{});
    bih::Status st = server.Start();
    if (!st.ok()) {
      r->Fail("probe server start: " + st.ToString());
    } else {
      const UncontendedReads u =
          MeasureUncontended(session, server.port(), data, at, args.seed, 1000);
      const ServedLoad loaded =
          RunServedLoad(server.port(), data, at, args.seed, 1.0, false);
      CheckServedLoad(session, server.port(), loaded, r);
      ServedLayers(loaded, u, ShedCount(session, server), r);
      server.Drain();
    }
  }

  std::fprintf(stderr, "# probe: durability\n");
  // durability: one append + Flush on a standalone writer.
  r->Layer("durability.device_sync_us_p50",
           Median(DeviceSyncProbe(in.wal_dir, args.tiny ? 20 : 200, r)), "us");
  // durability and engine.apply where the workload measured neither: four
  // keyed writers over a WAL on a fresh System A, then the same update
  // stream applied directly, one thread, on a WAL-less copy.
  if (Has(*r, "durability.syncs_per_write") && Has(*r, "engine.apply_us_p50")) {
    return;
  }
  std::vector<UpdateOp> ops;
  {
    LoadedEngine w = Load("A", data);
    bih::Status st = w.engine->EnableWal(in.wal_dir + "/probe-writers.wal");
    if (!st.ok()) {
      r->Fail("probe WAL: " + st.ToString());
      return;
    }
    bih::SessionManager session(w.engine.get(), QuietConfig());
    const WalCounters w0 = ReadWalCounters(session);
    UpdateStreamOut out;
    ops = RunUpdateWriters(session, data, args.seed, 1.0, 4, &out);
    for (const std::string& e : out.errors) r->Fail("probe writers: " + e);
    if (!Has(*r, "durability.syncs_per_write")) {
      DurabilityLayers(w0, ReadWalCounters(session), out.all_us.size(),
                       session.GetGroupCommitStats(), r);
    }
  }
  if (!Has(*r, "engine.apply_us_p50")) {
    LoadedEngine copy = Load("A", data);
    std::vector<double> us;
    for (const UpdateOp& op : ops) {
      Span span("engine.apply");
      const Clock::time_point t0 = Clock::now();
      if (ApplyUpdate(*copy.engine, op).ok()) us.push_back(MicrosSince(t0));
    }
    r->Layer("engine.apply_us_p50", Median(us), "us");
  }
}

}  // namespace bench
