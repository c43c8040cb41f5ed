// The workloads of the benchmark and the layer probes of traced runs.
// README.md in this directory gives each workload's rationale and sizing.
#ifndef TPCBIH_BENCH_WORKLOADS_H_
#define TPCBIH_BENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "dataset.h"
#include "harness.h"

namespace bench {

// analytic (parallel = false) and analytic_par4 (parallel = true).
Result RunAnalytic(const Args& args, bool parallel);
Result RunServedMixed(const Args& args);
Result RunDurableUpdates(const Args& args);
Result RunSqlMixed(const Args& args);

// Everything a traced run hands to the layer probes. `engines` holds the
// workload's loaded engines (at least System A, first); the probes load
// the missing letters from `data` themselves.
struct ProbeInput {
  const Args* args = nullptr;
  const Dataset* data = nullptr;
  std::vector<LoadedEngine>* engines = nullptr;
  std::string wal_dir;
};

// Fills every per-layer metric the workload did not measure on its own path
// by timing the public calls of that layer on the workload's data (see the
// per-layer table in README.md).
void RunLayerProbes(ProbeInput& in, Result* r);

// Per-layer metrics from the analytic suite timings: per-engine and
// per-class geomeans of the (query, engine) medians.
struct SuiteSample {
  std::string query;
  char cls = 'T';
  std::string engine;
  double median_ms = 0.0;
};
void SuiteLayers(const std::vector<SuiteSample>& s, Result* r);

}  // namespace bench

#endif  // TPCBIH_BENCH_WORKLOADS_H_
