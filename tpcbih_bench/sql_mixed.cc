// sql_mixed: System A behind a SessionManager, driven in-process by one
// closed-loop client with served_mixed's statement mix: key-in-time SQL
// reads through ReadTxn and, every eighth statement, an SQL UPDATE through
// Write, in passes of a fixed statement sequence. No network, no WAL and
// no intra-query threads, so the work is in sql, server and the engine's
// keyed read and DML paths.
#include <map>
#include <set>

#include "server/session.h"
#include "served.h"
#include "sql/executor.h"
#include "suite.h"
#include "workloads.h"

namespace bench {

namespace {

// Statements per pass; every kWriteEvery-th is an UPDATE, so a pass holds
// 7168 reads and 1024 writes and its p99s keep ten samples beyond them.
constexpr size_t kPassStatements = 8192;
constexpr uint64_t kWriteEvery = 8;

bih::SessionConfig MixedConfig() {
  bih::SessionConfig cfg;
  cfg.watchdog_period = std::chrono::milliseconds(0);
  cfg.scan_threads = 1;
  return cfg;
}

bool RunRead(bih::SessionManager& session, const std::string& sql,
             bih::Rows* rows) {
  const bih::ExecOptions opts = session.exec_options();
  const uint64_t req = NextRequestId();
  Span span("server.read_txn", req);
  bih::sql::SqlResult res;
  bih::Status st = session.ReadTxn(nullptr, [&](bih::TemporalEngine& eng) {
    Span inner("sql.execute", req);
    return bih::sql::ExecuteSql(eng, sql, &res, nullptr, opts);
  });
  if (!st.ok()) return false;
  *rows = std::move(res.rows);
  return true;
}

// The statements of one pass: reads in `reads` order and, every
// kWriteEvery-th statement, an UPDATE of a writer key. Every pass issues
// the same sequence.
struct PassPlan {
  std::vector<ReadStatement> reads;
  std::vector<int64_t> write_keys;
  std::set<int64_t> written;
  uint64_t seed = 0;
};

struct PassOut {
  // Latency of every read and every write, in statement order; a failed
  // statement keeps its slot, so slot j is the same statement in every
  // pass.
  std::vector<double> read_us, write_us;
  double seconds = 0.0;  // wall time of the pass
  // Latencies (us) per read kind, then current and portion updates.
  std::vector<std::vector<double>> by_kind =
      std::vector<std::vector<double>>(ReadKindNames().size() + 2);
};

// One pass on `session`, closed loop. Failures go to `r`; replies on keys
// the writer never touches to `checks` when it is non-null. Afterwards
// every written key must read back its last acknowledged value.
PassOut RunPass(bih::SessionManager& session, const PassPlan& plan,
                std::vector<std::pair<std::string, bih::Rows>>* checks,
                Result* r) {
  PassOut out;
  std::mt19937_64 rng = Rng(plan.seed, 300);
  const size_t nr = ReadKindNames().size();
  // Last acknowledged C_ACCTBAL per written key: any update, and current
  // (whole business time) updates only. Values are distinct, so a lost or
  // reordered write cannot read back as the right one.
  std::map<int64_t, double> last_any, last_current;
  size_t next_read = 0;
  const Clock::time_point t0 = Clock::now();
  for (uint64_t i = 0; i < kPassStatements; ++i) {
    ++r->attempted;
    if (i % kWriteEvery == kWriteEvery - 1) {
      const int64_t k = plan.write_keys[static_cast<size_t>(Uniform(
          rng, 0, static_cast<int64_t>(plan.write_keys.size()) - 1))];
      const bool portion = Uniform(rng, 0, 1) == 1;
      const double v = static_cast<double>(i) + 0.25;
      const std::string sql = UpdateStatement(k, portion, v);
      const uint64_t req = NextRequestId();
      Span span("server.write", req);
      const Clock::time_point q0 = Clock::now();
      bih::Status st = session.Write([&](bih::TemporalEngine& eng) {
        Span inner("sql.execute_dml", req);
        bih::sql::SqlResult res;
        return bih::sql::ExecuteSql(eng, sql, &res);
      });
      const double us = MicrosSince(q0);
      out.write_us.push_back(us);
      if (!st.ok()) {
        r->Fail(sql + ": " + st.ToString());
        continue;
      }
      out.by_kind[nr + (portion ? 1 : 0)].push_back(us);
      last_any[k] = v;
      if (!portion) last_current[k] = v;
      continue;
    }
    const ReadStatement& s = plan.reads[next_read++ % plan.reads.size()];
    bih::Rows rows;
    const Clock::time_point q0 = Clock::now();
    const bool ok = RunRead(session, s.sql, &rows);
    const double us = MicrosSince(q0);
    out.read_us.push_back(us);
    if (!ok) {
      r->Fail(s.sql + ": ReadTxn failed");
      continue;
    }
    Tracer::Get().Count("sql.rows_out", static_cast<double>(rows.size()));
    out.by_kind[static_cast<size_t>(s.kind)].push_back(us);
    if (checks != nullptr && plan.written.count(s.custkey) == 0) {
      checks->push_back({s.sql, std::move(rows)});
    }
  }
  out.seconds = SecondsSince(t0);
  CheckReadBack(last_any, last_current,
                [&](const std::string& sql, bih::Rows* rows) {
                  return RunRead(session, sql, rows);
                },
                r);
  return out;
}

// Every statement of a typical pass: slot j at its median over the passes.
std::vector<double> TypicalPass(const std::vector<PassOut>& passes,
                                std::vector<double> PassOut::*slots) {
  std::vector<double> out((passes.front().*slots).size());
  for (size_t j = 0; j < out.size(); ++j) {
    std::vector<double> v;
    for (const PassOut& p : passes) v.push_back((p.*slots)[j]);
    out[j] = Median(v);
  }
  return out;
}

// End-to-end metrics of a phase's passes. Latency percentiles and rates
// describe a typical pass (TypicalPass), whose duration is the sum of its
// statements' latencies: the host's stalls of several milliseconds land on
// random statements, so a raw p99 over 1024 writes, or a pass's wall time,
// follows how many of them a run caught, while a statement's median over
// the passes drops them. The kinds' medians are pooled over the passes.
// Each kind's median also goes to `record`'s notes if given.
std::map<std::string, Metric> MixedMetrics(const std::vector<PassOut>& passes,
                                           double setup_value,
                                           Result* record = nullptr) {
  std::vector<std::vector<double>> by_kind(ReadKindNames().size() + 2);
  for (const PassOut& p : passes) {
    for (size_t k = 0; k < by_kind.size(); ++k) {
      by_kind[k].insert(by_kind[k].end(), p.by_kind[k].begin(),
                        p.by_kind[k].end());
    }
  }
  const std::vector<double> reads = TypicalPass(passes, &PassOut::read_us);
  const std::vector<double> writes = TypicalPass(passes, &PassOut::write_us);
  const double pass_s = (Sum(reads) + Sum(writes)) / 1e6;
  std::vector<double> kind_ms;
  for (size_t k = 0; k < by_kind.size(); ++k) {
    if (by_kind[k].empty()) continue;
    kind_ms.push_back(Median(by_kind[k]) / 1000.0);
    if (record != nullptr) {
      const std::string name = k < ReadKindNames().size()
                                   ? ReadKindNames()[k]
                                   : k == ReadKindNames().size() ? "update.current"
                                                                 : "update.portion";
      record->notes["kind_us." + name] = Median(by_kind[k]);
    }
  }
  std::map<std::string, Metric> m;
  m["setup_s"] = {setup_value, "s"};
  m["query_ms_geomean"] = {Geomean(kind_ms), "ms"};
  m["suite_s"] = {Sum(kind_ms) / 1000.0, "s"};
  m["read_us_p50"] = {Median(reads), "us"};
  m["read_us_p99"] = {Percentile(reads, 0.99), "us"};
  m["reads_per_s"] = {static_cast<double>(reads.size()) / pass_s, "1/s"};
  m["write_us_p50"] = {Median(writes), "us"};
  m["write_us_p99"] = {Percentile(writes, 0.99), "us"};
  m["writes_per_s"] = {static_cast<double>(writes.size()) / pass_s, "1/s"};
  m["peak_rss_mb"] = {PeakRssMb(), "MiB"};
  return m;
}

}  // namespace

Result RunSqlMixed(const Args& args) {
  Result r;
  const double scale = args.tiny ? 0.001 : 0.01;
  AddHostFingerprint(args, &r);
  r.config["engine"] = "A (reference for the check: D)";
  r.config["h"] = std::to_string(scale);
  r.config["m"] = std::to_string(scale);
  r.config["client_threads"] = "1";
  r.config["scan_threads"] = "1";
  r.config["pass_statements"] = std::to_string(kPassStatements);
  r.config["write_every"] = std::to_string(kWriteEvery);
  r.config["wal"] = "none";

  // Set-up: seed -> data -> System A, repeated; the last copy serves the
  // first pass. One set-up takes about 0.5 s, so this workload repeats it
  // more often than the others to steady the median.
  std::vector<double> setup_s;
  double traced_setup_s = 0.0;
  Dataset data;
  LoadedEngine a;
  for (int i = 0; i < kSetupRepeats * 2 + 1; ++i) {
    const bool traced_setup = args.trace && i == kSetupRepeats * 2;
    Tracer::Get().Enable(traced_setup);
    a = LoadedEngine();
    data = Dataset();
    const Clock::time_point t0 = Clock::now();
    data = Generate(scale, scale, args.seed);
    a = Load("A", data);
    if (traced_setup) {
      traced_setup_s = SecondsSince(t0);
    } else {
      setup_s.push_back(SecondsSince(t0));
    }
    if (i == 0) {
      r.Layer("bih.generate_s", data.generate_s, "s");
      r.Layer("bih.load_s.A", a.load_s, "s");
      r.Layer("storage.bytes_per_version.A", a.BytesPerVersion(), "B");
    }
  }
  Tracer::Get().Enable(false);

  PassPlan plan;
  const TimeAnchors at = Anchors(*a.engine, data);
  const std::vector<int64_t> keys = CustomerKeys(data);
  plan.reads = MakeReads(keys, at, args.seed, 0,
                         kPassStatements - kPassStatements / kWriteEvery);
  plan.write_keys = WriterKeys(keys, args.seed);
  plan.written.insert(plan.write_keys.begin(), plan.write_keys.end());
  plan.seed = args.seed;

  // Passes until the time is up, at least three. Every pass but the first
  // starts from a fresh, untimed LoadEngine of the same data: the writes
  // grow the history the reads scan, so each pass does the same work.
  std::vector<std::pair<std::string, bih::Rows>> checks;
  bool fresh = true;
  auto measure = [&](double seconds) {
    std::vector<PassOut> passes;
    const Clock::time_point m0 = Clock::now();
    while (passes.size() < 3 || SecondsSince(m0) < seconds) {
      if (!fresh) {
        a = LoadedEngine();  // free the previous copy before loading
        a = Load("A", data);
      }
      fresh = false;
      bih::SessionManager session(a.engine.get(), MixedConfig());
      // Every pass sends the same reads, so the first one's replies are
      // the ones the reference check compares.
      passes.push_back(
          RunPass(session, plan, checks.empty() ? &checks : nullptr, &r));
    }
    return passes;
  };
  const std::vector<PassOut> plain =
      measure(args.trace ? args.seconds / 2 : args.seconds);
  r.metrics = MixedMetrics(plain, Median(setup_s), &r);
  r.notes["passes"] = static_cast<double>(plain.size());
  std::vector<double> wall_s;
  for (const PassOut& p : plain) wall_s.push_back(p.seconds);
  r.notes["pass_wall_s_median"] = Median(wall_s);
  r.notes["read_samples_per_pass"] = static_cast<double>(plain[0].read_us.size());
  r.notes["read_tail_supported"] = SupportedTail(plain[0].read_us.size());
  r.notes["write_samples_per_pass"] = static_cast<double>(plain[0].write_us.size());
  r.notes["write_tail_supported"] = SupportedTail(plain[0].write_us.size());
  if (args.trace) {
    Tracer::Get().Enable(true);
    const std::vector<PassOut> traced = measure(args.seconds / 2);
    Tracer::Get().Enable(false);
    AddTracingOverhead(r.metrics, MixedMetrics(traced, traced_setup_s), &r);
  }

  // Replies on keys the writer never touches must agree with System D
  // loaded from the same data; checked after the measurement, so the
  // reference engine is not part of the workload's memory.
  {
    LoadedEngine d = Load("D", data);
    bih::SessionManager reference(d.engine.get(), MixedConfig());
    for (const auto& [sql, rows] : checks) {
      bih::Rows want;
      std::string why;
      if (!RunRead(reference, sql, &want) || !RowsAgree(want, rows, &why)) {
        r.Fail("System A vs System D: " + sql + ": " + why);
      }
    }
  }
  if (args.trace) {
    Tracer::Get().Enable(true);
    std::vector<LoadedEngine> engines;
    engines.push_back(std::move(a));
    ProbeInput in;
    in.args = &args;
    in.data = &data;
    in.engines = &engines;
    in.wal_dir = args.work_dir;
    RunLayerProbes(in, &r);
  }
  return r;
}

}  // namespace bench
