// The analytic query suite: the paper's T, K, R, B and H query classes with
// seed-chosen parameters, and the result comparisons the workloads use as
// their correctness checks.
#ifndef TPCBIH_BENCH_SUITE_H_
#define TPCBIH_BENCH_SUITE_H_

#include <functional>
#include <string>
#include <vector>

#include "dataset.h"
#include "exec/plan.h"

namespace bench {

struct Query {
  std::string name;  // "T1", "K6", "H.Q6", ...
  char cls = 'T';    // T, K, R, B or H
  bool full_scan = false;  // member of the analytic_par4 set
  std::function<bih::Rows(bih::TemporalEngine&)> run;
};

// The full suite (analytic). Parameters — time points, keys, thresholds —
// are drawn from `seed`; R3's naive SQL:2011 form is left out (seconds per
// call, it would swamp the sum).
std::vector<Query> AnalyticSuite(const Dataset& data, const TimeAnchors& at,
                                 uint64_t seed);

// The full-scan subset plus the CUSTOMER x ORDERS full-history merge join
// feeding a per-nation aggregation (analytic_par4). Every query follows
// the process default scan width (bih::SetDefaultScanThreads).
std::vector<Query> ParallelSuite(const Dataset& data, const TimeAnchors& at,
                                 uint64_t seed);

// Cross-engine agreement: both sides sorted, doubles within 1e-6 relative
// (engines accumulate floating-point aggregates in different orders).
bool RowsAgree(const bih::Rows& a, const bih::Rows& b, std::string* why);

// Exact equality, row order included (serial vs parallel of one engine).
bool RowsIdentical(const bih::Rows& a, const bih::Rows& b);

}  // namespace bench

#endif  // TPCBIH_BENCH_SUITE_H_
