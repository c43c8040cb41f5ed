// durable_updates: four in-process writer threads on disjoint key stripes
// issue Table 1's single-key update scenarios through the keyed session
// API of System A, with group commit over a real fdatasync'd WAL. After
// the run the log is recovered into a fresh engine, which must return every
// key's last acknowledged value.
#include <algorithm>
#include <filesystem>
#include <map>
#include <thread>

#include "common/period.h"
#include "durability/checkpoint.h"
#include "engine/recovery.h"
#include "server/session.h"
#include "tpch/schema.h"
#include "wal_setup.h"
#include "workloads.h"

namespace bench {

using bih::Value;

namespace {

void AddFlushPolicy(const std::string& dir, Result* r) {
  r->config["wal_fs"] = FsType(dir);
  r->config["fdatasync"] = "on (BIH_NO_FSYNC scrubbed)";
  r->config["group_commit"] = "on";
  r->config["write_shards"] = std::to_string(bih::SessionConfig{}.write_shards);
}

}  // namespace

WalSetup SetupWalEngine(const std::string& dir, double scale, uint64_t seed) {
  WalSetup s;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  s.wal_path = dir + "/bih.wal";
  const Clock::time_point t0 = Clock::now();
  s.data = Generate(scale, scale, seed);
  s.a = Load("A", s.data);
  // The log starts after the load; the checkpoint folds the loaded state
  // (DDL included) into it so recovery needs nothing else.
  Span span("durability.attach");
  s.status = s.a.engine->EnableWal(s.wal_path);
  if (s.status.ok()) {
    bih::CheckpointInfo info;
    s.status = bih::Checkpointer(s.wal_path).Write(s.a.engine.get(), &info);
  }
  s.seconds = SecondsSince(t0);
  return s;
}

WalSetup RepeatWalSetup(const Args& args, const std::string& dir, double scale,
                        Result* r, std::vector<double>* setup_s,
                        double* traced_setup_s) {
  WalSetup s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    // A traced run traces only its last set-up.
    const bool traced_setup = args.trace && i == kSetupRepeats - 1;
    Tracer::Get().Enable(traced_setup);
    s = WalSetup();  // free the previous copy before building the next
    s = SetupWalEngine(dir, scale, args.seed);
    if (!s.status.ok()) {
      r->Fail("WAL set-up: " + s.status.ToString());
      return s;
    }
    if (traced_setup) {
      *traced_setup_s = s.seconds;
    } else {
      setup_s->push_back(s.seconds);
    }
    if (i == 0) {
      r->Layer("bih.generate_s", s.data.generate_s, "s");
      r->Layer("bih.load_s.A", s.a.load_s, "s");
      r->Layer("storage.bytes_per_version.A", s.a.BytesPerVersion(), "B");
    }
  }
  AddFlushPolicy(dir, r);
  return s;
}

void DurabilityLayers(const WalCounters& before, const WalCounters& after,
                      uint64_t acked, const bih::GroupCommit::Stats& g,
                      Result* r) {
  const double n = static_cast<double>(std::max<uint64_t>(1, acked));
  r->Layer("durability.syncs_per_write",
           static_cast<double>(after.syncs - before.syncs) / n, "count");
  r->Layer("durability.wal_bytes_per_write",
           static_cast<double>(after.bytes - before.bytes) / n, "B");
  r->Layer("durability.group_size_mean",
           static_cast<double>(g.acks) /
               static_cast<double>(std::max<uint64_t>(1, g.groups)),
           "count");
  r->Layer("durability.max_group", static_cast<double>(g.max_group), "count");
}

WalCounters ReadWalCounters(bih::SessionManager& session) {
  // Both accessors lock the writer's own mutex.
  const bih::WalWriter* wal = session.engine().wal();
  if (wal == nullptr) return {};
  return {wal->syncs(), wal->bytes_written()};
}

const std::vector<std::string>& UpdateKindNames() {
  static const std::vector<std::string> kNames = {
      "write.receive_payment", "write.update_stock",
      "write.delay_availability"};
  return kNames;
}

std::vector<UpdateOp> RunUpdateWriters(bih::SessionManager& session,
                                       const Dataset& data, uint64_t seed,
                                       double seconds, int threads,
                                       UpdateStreamOut* out) {
  const std::vector<double> p = bih::ScenarioProbabilities();
  const double w[3] = {
      p[static_cast<size_t>(bih::Scenario::kReceivePayment)],
      p[static_cast<size_t>(bih::Scenario::kUpdateStock)],
      p[static_cast<size_t>(bih::Scenario::kDelayAvailability)]};
  const int64_t far_day = bih::Date::FromYMD(1999, 1, 1).days();
  struct PerThread {
    std::vector<UpdateOp> ops;  // acknowledged, in issue order
    std::vector<std::vector<double>> by_kind{3};
    std::vector<Sample> samples;
    std::vector<std::string> errors;
    uint64_t attempted = 0;
  };
  std::vector<PerThread> per(static_cast<size_t>(threads));
  const Clock::time_point deadline =
      Clock::now() + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      PerThread& me = per[static_cast<size_t>(t)];
      std::mt19937_64 rng = Rng(seed, 300 + static_cast<uint64_t>(t));
      std::discrete_distribution<int> pick_kind({w[0], w[1], w[2]});
      // Disjoint stripes: thread t owns rows t, t + threads, ... of each
      // table's version-0 population.
      auto stripe_row = [&](const std::vector<bih::Row>& rows) -> const bih::Row& {
        const int64_t n = (static_cast<int64_t>(rows.size()) - 1 - t) / threads;
        return rows[static_cast<size_t>(t + threads * Uniform(rng, 0, n))];
      };
      for (uint64_t i = 0; Clock::now() < deadline; ++i) {
        UpdateOp op;
        op.kind = pick_kind(rng);
        // Values unique per (thread, op): a lost or reordered write cannot
        // read back as the right one.
        const double unique = static_cast<double>(i * 4 + static_cast<uint64_t>(t));
        bih::Status st;
        ++me.attempted;
        Span span("server.write", NextRequestId());
        const Clock::time_point q0 = Clock::now();
        if (op.kind == 0) {
          op.k1 = stripe_row(data.initial.customer)[bih::customer::kCustKey].AsInt();
          op.value = unique + 0.5;
          st = session.UpdateCurrent("CUSTOMER", {Value(op.k1)},
                                     {{bih::customer::kAcctBal, Value(op.value)}});
        } else if (op.kind == 1) {
          const bih::Row& ps = stripe_row(data.initial.partsupp);
          op.k1 = ps[bih::partsupp::kPartKey].AsInt();
          op.k2 = ps[bih::partsupp::kSuppKey].AsInt();
          op.value = unique;
          st = session.UpdateCurrent(
              "PARTSUPP", {Value(op.k1), Value(op.k2)},
              {{bih::partsupp::kAvailQty, Value(static_cast<int64_t>(op.value))}});
        } else {
          op.k1 = stripe_row(data.initial.part)[bih::part::kPartKey].AsInt();
          op.value = unique + 0.75;
          // A fixed start per part: repeated delays replace one version
          // instead of splitting the current partition ever further.
          op.begin_day = far_day + op.k1 % 365;
          const UpdateOp o = op;
          st = session.WriteKeyed("PART", {Value(o.k1)}, [o](bih::TemporalEngine& e) {
            return ApplyUpdate(e, o);
          });
        }
        const double us = MicrosSince(q0);
        if (!st.ok()) {
          me.errors.push_back(UpdateKindNames()[static_cast<size_t>(op.kind)] +
                              ": " + st.ToString());
          continue;
        }
        Tracer::Get().Count("server.writes_acked", 1.0);
        me.by_kind[static_cast<size_t>(op.kind)].push_back(us);
        me.samples.push_back({SecondsSince(t0), us});
        me.ops.push_back(op);
      }
    });
  }
  for (std::thread& th : ts) th.join();
  out->seconds = SecondsSince(t0);
  std::vector<UpdateOp> ops;
  out->by_kind.assign(3, {});
  for (PerThread& me : per) {
    out->attempted += me.attempted;
    for (std::string& e : me.errors) out->errors.push_back(std::move(e));
    for (size_t k = 0; k < 3; ++k) {
      out->by_kind[k].insert(out->by_kind[k].end(), me.by_kind[k].begin(),
                             me.by_kind[k].end());
      out->all_us.insert(out->all_us.end(), me.by_kind[k].begin(),
                         me.by_kind[k].end());
    }
    out->samples.insert(out->samples.end(), me.samples.begin(),
                        me.samples.end());
    ops.insert(ops.end(), me.ops.begin(), me.ops.end());
  }
  return ops;
}

bih::Status ApplyUpdate(bih::TemporalEngine& e, const UpdateOp& op) {
  switch (op.kind) {
    case 0:
      return e.UpdateCurrent("CUSTOMER", {Value(op.k1)},
                             {{bih::customer::kAcctBal, Value(op.value)}});
    case 1:
      return e.UpdateCurrent(
          "PARTSUPP", {Value(op.k1), Value(op.k2)},
          {{bih::partsupp::kAvailQty, Value(static_cast<int64_t>(op.value))}});
    default:
      return e.UpdateSequenced("PART", {Value(op.k1)}, 0,
                               bih::Period(op.begin_day, bih::Period::kForever),
                               {{bih::part::kRetailPrice, Value(op.value)}});
  }
}

namespace {

constexpr int kWriters = 4;
constexpr int kReadPasses = 3;

// Reads key `op` back from `session`: every system-current version (for
// the sequenced kind: the version valid far in business time) must exist
// and, when `check` is set, carry op.value. Returns the read latency in us,
// or -1 with *why set.
double ReadBack(bih::SessionManager& session, const UpdateOp& op, bool check,
                std::string* why) {
  bih::ScanRequest req;
  req.temporal.app_time = bih::TemporalSelector::All();
  int col = 0;
  if (op.kind == 0) {
    req.table = "CUSTOMER";
    req.equals = {{bih::customer::kCustKey, Value(op.k1)}};
    col = bih::customer::kAcctBal;
  } else if (op.kind == 1) {
    req.table = "PARTSUPP";
    req.equals = {{bih::partsupp::kPartKey, Value(op.k1)},
                  {bih::partsupp::kSuppKey, Value(op.k2)}};
    col = bih::partsupp::kAvailQty;
  } else {
    req.table = "PART";
    req.equals = {{bih::part::kPartKey, Value(op.k1)}};
    req.temporal.app_time = bih::TemporalSelector::AsOf(
        bih::Date::FromYMD(2100, 1, 1).days());
    col = bih::part::kRetailPrice;
  }
  std::vector<bih::Row> rows;
  Span span("server.read");
  const Clock::time_point t0 = Clock::now();
  bih::Status st = session.Read(req, nullptr, &rows);
  const double us = MicrosSince(t0);
  if (!st.ok()) {
    *why = st.ToString();
    return -1.0;
  }
  if (rows.empty()) {
    *why = "no current version";
    return -1.0;
  }
  for (const bih::Row& row : rows) {
    if (check && row[static_cast<size_t>(col)].AsDouble() != op.value) {
      *why = "read " + row[static_cast<size_t>(col)].ToString();
      return -1.0;
    }
  }
  return us;
}

// Every key of the three updated tables, as the read-back set: a fixed
// set, so the read figures do not depend on how many writes the run made.
std::vector<UpdateOp> AllKeys(const Dataset& data) {
  std::vector<UpdateOp> keys;
  for (const bih::Row& row : data.initial.customer) {
    keys.push_back({0, row[bih::customer::kCustKey].AsInt(), 0, 0.0, 0});
  }
  for (const bih::Row& row : data.initial.partsupp) {
    keys.push_back({1, row[bih::partsupp::kPartKey].AsInt(),
                    row[bih::partsupp::kSuppKey].AsInt(), 0.0, 0});
  }
  for (const bih::Row& row : data.initial.part) {
    keys.push_back({2, row[bih::part::kPartKey].AsInt(), 0, 0.0, 0});
  }
  return keys;
}

}  // namespace

Result RunDurableUpdates(const Args& args) {
  Result r;
  const double scale = args.tiny ? 0.001 : 0.01;
  const std::string dir = args.work_dir + "/wal-durable_updates";
  AddHostFingerprint(args, &r);
  r.config["engine"] = "A";
  r.config["h"] = std::to_string(scale);
  r.config["m"] = std::to_string(scale);
  r.config["writer_threads"] = std::to_string(kWriters);

  std::vector<double> setup_s;
  double traced_setup_s = 0.0;
  WalSetup s = RepeatWalSetup(args, dir, scale, &r, &setup_s, &traced_setup_s);
  if (!s.status.ok()) return r;

  std::vector<UpdateOp> ops;
  bih::GroupCommit::Stats group;
  WalCounters wal0, wal1;
  UpdateStreamOut plain, traced;
  {
    bih::SessionConfig cfg;
    cfg.watchdog_period = std::chrono::milliseconds(0);
    bih::SessionManager session(s.a.engine.get(), cfg);
    Tracer::Get().Enable(false);
    ops = RunUpdateWriters(session, s.data, args.seed,
                           args.trace ? args.seconds / 2 : args.seconds,
                           kWriters, &plain);
    if (args.trace) {
      Tracer::Get().Enable(true);
      wal0 = ReadWalCounters(session);
      const bih::GroupCommit::Stats g0 = session.GetGroupCommitStats();
      std::vector<UpdateOp> more = RunUpdateWriters(
          session, s.data, args.seed + 1000, args.seconds / 2, kWriters, &traced);
      wal1 = ReadWalCounters(session);
      group = session.GetGroupCommitStats();
      group.acks -= g0.acks;
      group.groups -= g0.groups;
      ops.insert(ops.end(), more.begin(), more.end());
    }
  }
  r.attempted += plain.attempted + traced.attempted;
  for (const std::string& e : plain.errors) r.Fail(e);
  for (const std::string& e : traced.errors) r.Fail(e);
  const double write_peak_rss = PeakRssMb();
  s.a.engine.reset();  // closes the log

  // Recovery from the log alone must return every key's last acknowledged
  // value. The loop is closed: every issued write has returned, so the log
  // holds no bytes that were not flushed before their acknowledgement.
  std::unique_ptr<bih::TemporalEngine> recovered;
  bih::RecoveryReport report;
  bih::Status st;
  {
    Span span("durability.recover");
    st = bih::RecoverEngine("A", s.wal_path, &recovered, &report);
  }
  // Read-back passes over the fixed key set; the read figures are the
  // median over passes of each pass's figure.
  std::vector<double> read_us, read_p50, read_p99, read_rate;
  if (!st.ok()) {
    r.Fail("RecoverEngine: " + st.ToString());
  } else {
    std::map<std::vector<int64_t>, UpdateOp> last;
    for (const UpdateOp& op : ops) last[{op.kind, op.k1, op.k2}] = op;
    bih::SessionConfig cfg;
    cfg.watchdog_period = std::chrono::milliseconds(0);
    bih::SessionManager rs(recovered.get(), cfg);
    const std::vector<UpdateOp> keys = AllKeys(s.data);
    for (int pass = 0; pass < kReadPasses; ++pass) {
      std::vector<double> pass_us;
      for (const UpdateOp& key : keys) {
        auto it = last.find({key.kind, key.k1, key.k2});
        const bool written = it != last.end();
        ++r.attempted;
        std::string why;
        const double us =
            ReadBack(rs, written ? it->second : key, written, &why);
        if (us < 0.0) {
          r.Fail(UpdateKindNames()[static_cast<size_t>(key.kind)] + " key " +
                 std::to_string(key.k1) + " after recovery: " + why);
          continue;
        }
        pass_us.push_back(us);
      }
      read_p50.push_back(Median(pass_us));
      read_p99.push_back(Percentile(pass_us, 0.99));
      read_rate.push_back(static_cast<double>(pass_us.size()) /
                          (Sum(pass_us) / 1e6));
      read_us.insert(read_us.end(), pass_us.begin(), pass_us.end());
    }
  }

  auto metrics = [&](const UpdateStreamOut& w, double setup_value) {
    std::vector<double> kind_ms;
    for (const std::vector<double>& v : w.by_kind) {
      if (!v.empty()) kind_ms.push_back(Median(v) / 1000.0);
    }
    kind_ms.push_back(Median(read_us) / 1000.0);
    const WindowSummary writes = SummarizeWindows(w.samples, w.seconds, 1.0);
    std::map<std::string, Metric> m;
    m["setup_s"] = {setup_value, "s"};
    m["query_ms_geomean"] = {Geomean(kind_ms), "ms"};
    m["suite_s"] = {Sum(kind_ms) / 1000.0, "s"};
    m["read_us_p50"] = {Median(read_p50), "us"};
    m["read_us_p99"] = {Median(read_p99), "us"};
    m["reads_per_s"] = {Median(read_rate), "1/s"};
    m["write_us_p50"] = {writes.p50_us, "us"};
    m["write_us_p99"] = {writes.p99_us, "us"};
    m["writes_per_s"] = {writes.per_s, "1/s"};
    // The writers' high-water mark; the recovery check after them holds a
    // second engine and is not part of the workload.
    m["peak_rss_mb"] = {write_peak_rss, "MiB"};
    return m;
  };
  r.metrics = metrics(plain, Median(setup_s));
  r.notes["write_samples"] = static_cast<double>(plain.all_us.size());
  r.notes["write_tail_supported"] = SupportedTail(plain.all_us.size());
  r.notes["reads_per_pass"] = static_cast<double>(read_us.size()) / kReadPasses;
  r.notes["read_tail_supported"] = SupportedTail(read_us.size() / kReadPasses);
  r.notes["recovery_s"] = static_cast<double>(report.replay_micros) / 1e6;

  if (args.trace) {
    AddTracingOverhead(r.metrics, metrics(traced, traced_setup_s), &r);
    DurabilityLayers(wal0, wal1, traced.all_us.size(), group, &r);
    recovered.reset();
    // The same update stream on a WAL-less copy, one thread, direct DML.
    std::vector<LoadedEngine> engines;
    engines.push_back(Load("A", s.data));
    std::vector<double> apply_us;
    for (const UpdateOp& op : ops) {
      Span span("engine.apply");
      const Clock::time_point t0 = Clock::now();
      if (ApplyUpdate(*engines[0].engine, op).ok()) apply_us.push_back(MicrosSince(t0));
    }
    r.Layer("engine.apply_us_p50", Median(apply_us), "us");
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
