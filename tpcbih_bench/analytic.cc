// analytic / analytic_par4: the TPC-BiH query suite against all four
// engines, one closed-loop client, serial or with 4 intra-query threads.
#include <cmath>
#include <cstdio>
#include <map>

#include "exec/parallel.h"
#include "server/session.h"
#include "suite.h"
#include "workloads.h"

namespace bench {

namespace {

// History transactions per write window.
constexpr size_t kWriteWindow = 1000;

struct Setup {
  Dataset data;
  std::vector<LoadedEngine> engines;
};

Setup BuildSetup(double h, double m, uint64_t seed) {
  Setup s;
  s.data = Generate(h, m, seed);
  for (const std::string& letter : EngineLetters()) {
    s.engines.push_back(Load(letter, s.data));
  }
  return s;
}

bih::SessionConfig ReadConfig() {
  bih::SessionConfig cfg;
  cfg.watchdog_period = std::chrono::milliseconds(0);
  cfg.scan_threads = 1;  // queries resolve their width via the process default
  return cfg;
}

// One timed call of `q` on `session` through ReadTxn; returns ms or a
// negative value on failure.
double TimeQuery(bih::SessionManager& session, const Query& q,
                 bih::Rows* rows) {
  Span span("server.read_txn");
  const Clock::time_point t0 = Clock::now();
  bih::Status st = session.ReadTxn(nullptr, [&](bih::TemporalEngine& e) {
    Span inner("workload.query");
    *rows = q.run(e);
    return bih::Status::OK();
  });
  const double ms = MicrosSince(t0) / 1000.0;
  Tracer::Get().Count("workload.rows_out", static_cast<double>(rows->size()));
  return st.ok() ? ms : -1.0;
}

}  // namespace

Result RunAnalytic(const Args& args, bool parallel) {
  Result r;
  const double scale = args.tiny ? 0.001 : 0.02;
  const int threads = parallel ? 4 : 1;
  AddHostFingerprint(args, &r);
  r.config["h"] = std::to_string(scale);
  r.config["m"] = std::to_string(scale);
  r.config["engines"] = "A,B,C,D (no tuning indexes)";
  r.config["client_threads"] = "1";
  r.config["scan_threads"] = std::to_string(threads);
  r.config["wal"] = "none";

  // Set-up: seed -> data -> four loaded engines, repeated; the last copy
  // serves the measurement.
  std::vector<double> setup_s;
  // Per write window: history transaction latencies and replay rate.
  std::vector<double> write_p50, write_p99, write_rate;
  double traced_setup_s = 0.0;
  Setup setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    // A traced run traces only its last set-up; the others are the
    // untraced reference for the overhead.
    const bool traced_setup = args.trace && i == kSetupRepeats - 1;
    Tracer::Get().Enable(traced_setup);
    setup = Setup();  // free the previous copy before building the next
    const Clock::time_point t0 = Clock::now();
    setup = BuildSetup(scale, scale, args.seed);
    if (traced_setup) {
      traced_setup_s = SecondsSince(t0);
      continue;
    }
    setup_s.push_back(SecondsSince(t0));
    // Write figures per window of consecutive history transactions of one
    // load; the run reports the median over all windows.
    for (const LoadedEngine& le : setup.engines) {
      const size_t n = std::min(kWriteWindow, le.txn_us.size());
      for (size_t w = 0; n > 0 && w + n <= le.txn_us.size(); w += n) {
        const std::vector<double> win(le.txn_us.begin() + static_cast<long>(w),
                                      le.txn_us.begin() + static_cast<long>(w + n));
        write_p50.push_back(Median(win));
        write_p99.push_back(Percentile(win, 0.99));
        write_rate.push_back(static_cast<double>(win.size()) / (Sum(win) / 1e6));
      }
    }
    if (i == 0) {
      r.Layer("bih.generate_s", setup.data.generate_s, "s");
      for (const LoadedEngine& le : setup.engines) {
        r.Layer("bih.load_s." + le.letter, le.load_s, "s");
        r.Layer("storage.bytes_per_version." + le.letter, le.BytesPerVersion(),
                "B");
      }
    }
  }

  const TimeAnchors at = Anchors(*setup.engines[0].engine, setup.data);
  const std::vector<Query> suite =
      parallel ? ParallelSuite(setup.data, at, args.seed)
               : AnalyticSuite(setup.data, at, args.seed);
  std::vector<std::unique_ptr<bih::SessionManager>> sessions;
  for (LoadedEngine& le : setup.engines) {
    sessions.push_back(
        std::make_unique<bih::SessionManager>(le.engine.get(), ReadConfig()));
  }
  const size_t ne = sessions.size(), nq = suite.size();

  // analytic_par4's check: every 4-thread result must equal the serial one
  // row for row. The serial timings feed exec.parallel.speedup.
  std::vector<std::vector<bih::Rows>> serial_rows(ne, std::vector<bih::Rows>(nq));
  std::vector<std::vector<std::vector<double>>> serial_ms(
      ne, std::vector<std::vector<double>>(nq));
  if (parallel) {
    bih::SetDefaultScanThreads(1);
    const int serial_passes = args.trace ? 3 : 1;
    for (int pass = 0; pass < serial_passes; ++pass) {
      for (size_t e = 0; e < ne; ++e) {
        for (size_t q = 0; q < nq; ++q) {
          bih::Rows rows;
          const double ms = TimeQuery(*sessions[e], suite[q], &rows);
          serial_ms[e][q].push_back(ms);
          if (pass == 0) serial_rows[e][q] = std::move(rows);
        }
      }
    }
  }

  // The measurement: closed-loop passes over (engine, query) until the
  // time is up, at least three so every pair has a median. The first pass
  // also checks results.
  bih::SetDefaultScanThreads(threads);
  struct Phase {
    std::vector<std::vector<std::vector<double>>> ms;
    // Per pass: query latencies (us) and the pass's wall time (s).
    std::vector<std::vector<double>> pass_us;
    std::vector<double> pass_s;
    int passes = 0;
  };
  auto measure = [&](double seconds, bool check) {
    Phase ph;
    ph.ms.assign(ne, std::vector<std::vector<double>>(nq));
    std::vector<bih::Rows> reference(nq);
    const Clock::time_point m0 = Clock::now();
    while (ph.passes < 3 || SecondsSince(m0) < seconds) {
      const Clock::time_point p0 = Clock::now();
      ph.pass_us.emplace_back();
      for (size_t e = 0; e < ne; ++e) {
        for (size_t q = 0; q < nq; ++q) {
          bih::Rows rows;
          ++r.attempted;
          const double t = TimeQuery(*sessions[e], suite[q], &rows);
          if (t < 0.0) {
            r.Fail(suite[q].name + " on " + setup.engines[e].letter +
                   ": ReadTxn failed");
            continue;
          }
          ph.ms[e][q].push_back(t);
          ph.pass_us.back().push_back(t * 1000.0);
          if (!check || ph.passes > 0) continue;
          std::string why;
          if (parallel) {
            if (!RowsIdentical(serial_rows[e][q], rows)) {
              r.Fail(suite[q].name + " on " + setup.engines[e].letter +
                     ": 4-thread rows differ from serial");
            }
          } else if (e == 0) {
            reference[q] = std::move(rows);
          } else if (!RowsAgree(reference[q], rows, &why)) {
            r.Fail(suite[q].name + ": A vs " + setup.engines[e].letter +
                   ": " + why);
          }
        }
      }
      ph.pass_s.push_back(SecondsSince(p0));
      std::fprintf(stderr, "# pass %d: %.2f s, query geomean %.3f ms\n",
                   ph.passes, ph.pass_s.back(),
                   Geomean(ph.pass_us.back()) / 1000.0);
      ++ph.passes;
    }
    return ph;
  };
  auto metrics = [&](const Phase& ph, double setup_value) {
    std::vector<double> medians;
    for (size_t e = 0; e < ne; ++e) {
      for (size_t q = 0; q < nq; ++q) medians.push_back(Median(ph.ms[e][q]));
    }
    // Reads of a typical pass: each (query, engine) pair at its median
    // over the passes, the pass lasting the sum of those. The p99 of the
    // raw samples, pooled or per pass, is the slowest few of them, and a
    // pass's wall time holds the host's stalls: both follow a neighbour's
    // burst instead of the program.
    std::vector<double> typical_us;
    for (double ms : medians) typical_us.push_back(ms * 1000.0);
    std::map<std::string, Metric> m;
    m["setup_s"] = {setup_value, "s"};
    m["query_ms_geomean"] = {Geomean(medians), "ms"};
    m["suite_s"] = {Sum(medians) / 1000.0, "s"};
    m["read_us_p50"] = {Median(typical_us), "us"};
    m["read_us_p99"] = {Percentile(typical_us, 0.99), "us"};
    m["reads_per_s"] = {static_cast<double>(medians.size()) /
                            (Sum(medians) / 1000.0),
                        "1/s"};
    m["write_us_p50"] = {Median(write_p50), "us"};
    m["write_us_p99"] = {Median(write_p99), "us"};
    m["writes_per_s"] = {Median(write_rate), "1/s"};
    m["peak_rss_mb"] = {PeakRssMb(), "MiB"};
    return m;
  };

  // Traced runs split the window: the untraced half gives the reference
  // for the tracing overhead, the traced half the per-layer numbers.
  Tracer::Get().Enable(false);
  const Phase plain = measure(args.trace ? args.seconds / 2 : args.seconds, true);
  r.metrics = metrics(plain, Median(setup_s));
  Phase traced;
  if (args.trace) {
    Tracer::Get().Enable(true);
    traced = measure(args.seconds / 2, false);
    AddTracingOverhead(r.metrics, metrics(traced, traced_setup_s), &r);
  }
  const Phase& ph = args.trace ? traced : plain;
  std::vector<SuiteSample> samples;
  double speedup_log = 0.0;
  for (size_t e = 0; e < ne; ++e) {
    for (size_t q = 0; q < nq; ++q) {
      const double med = Median(ph.ms[e][q]);
      samples.push_back(
          {suite[q].name, suite[q].cls, setup.engines[e].letter, med});
      if (parallel) {
        speedup_log += std::log(Median(serial_ms[e][q]) / std::max(med, 1e-9));
      }
    }
  }
  for (size_t q = 0; q < nq; ++q) {
    std::fprintf(stderr, "# %-12s", suite[q].name.c_str());
    for (size_t e = 0; e < ne; ++e) {
      std::fprintf(stderr, " %s=%9.3fms", setup.engines[e].letter.c_str(),
                   Median(ph.ms[e][q]));
    }
    std::fprintf(stderr, "\n");
  }
  r.notes["passes"] = plain.passes;
  r.notes["pass_wall_s_median"] = Median(plain.pass_s);
  r.notes["query_engine_pairs"] = static_cast<double>(ne * nq);
  r.notes["read_samples_per_pass"] = static_cast<double>(ne * nq);
  r.notes["read_tail_supported"] = SupportedTail(ne * nq);
  r.notes["writes_per_setup"] =
      static_cast<double>(setup.data.history.size() * ne);

  if (args.trace) {
    SuiteLayers(samples, &r);
    if (parallel) {
      const double speedup = std::exp(speedup_log / static_cast<double>(ne * nq));
      r.Layer("exec.parallel.speedup", speedup, "x");
      // The join + aggregation is the last query of the parallel suite.
      std::vector<double> t1, t4;
      for (size_t e = 0; e < ne; ++e) {
        t1.push_back(Median(serial_ms[e][nq - 1]));
        t4.push_back(Median(ph.ms[e][nq - 1]));
      }
      r.Layer("exec.parallel.join_agg_ms.t1", Median(t1), "ms");
      r.Layer("exec.parallel.join_agg_ms.t4", Median(t4), "ms");
    }
    sessions.clear();
    ProbeInput in;
    in.args = &args;
    in.data = &setup.data;
    in.engines = &setup.engines;
    in.wal_dir = args.work_dir;
    RunLayerProbes(in, &r);
  }
  bih::SetDefaultScanThreads(0);
  return r;
}

}  // namespace bench
