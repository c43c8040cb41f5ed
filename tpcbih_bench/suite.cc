#include "suite.h"

#include <algorithm>
#include <cmath>

#include "exec/expr.h"
#include "tpch/schema.h"
#include "workload/queries.h"
#include "workload/tpch_queries.h"

namespace bench {

using bih::Rows;
using bih::TemporalEngine;
using bih::TemporalScanSpec;
using bih::TemporalSelector;
using bih::Value;

namespace {

TemporalScanSpec AllTime() {
  TemporalScanSpec spec;
  spec.system_time = TemporalSelector::All();
  spec.app_time = TemporalSelector::All();
  return spec;
}

// The CUSTOMER x ORDERS merge join over the full version history feeding a
// per-nation SUM/COUNT, as in bench/bench_join_scaling.cc. Scans and
// operators follow the process default thread count.
Rows JoinAgg(TemporalEngine& engine) {
  auto req = [](const char* table) {
    bih::ScanRequest r;
    r.table = table;
    r.temporal = AllTime();
    return r;
  };
  bih::PlanPtr plan = bih::AggregatePlan(
      bih::MergeJoinPlan(bih::ScanPlan(req("CUSTOMER")),
                         bih::ScanPlan(req("ORDERS")),
                         {bih::customer::kCustKey}, {bih::orders::kCustKey}),
      {bih::customer::kNationKey},
      // CUSTOMER's scan width is 9 user + 2 system columns.
      {{bih::AggKind::kSum, bih::Col(11 + bih::orders::kTotalPrice)},
       {bih::AggKind::kCount, nullptr}});
  Rows out;
  bih::Status st = bih::Execute(*plan, engine, bih::ExecOptions{}, nullptr, &out);
  if (!st.ok()) return {};
  return out;
}

struct Params {
  int64_t sys_a, sys_b, sys_c;  // ascending system-time points
  int64_t app_a, app_b;         // application-time points
  int64_t custkey;
  int64_t partkey;
  double acct_lo;
};

Params Draw(const Dataset& data, const TimeAnchors& at, uint64_t seed) {
  std::mt19937_64 rng = Rng(seed, 11);
  Params p;
  std::vector<int64_t> sys = {Uniform(rng, at.sys_v0, at.sys_end),
                              Uniform(rng, at.sys_v0, at.sys_end),
                              Uniform(rng, at.sys_v0, at.sys_end)};
  std::sort(sys.begin(), sys.end());
  p.sys_a = sys[0];
  p.sys_b = sys[1];
  p.sys_c = sys[2];
  p.app_a = Uniform(rng, at.app_lo, at.app_hi);
  p.app_b = Uniform(rng, at.app_lo, at.app_hi);
  const int64_t head =
      std::min<int64_t>(8, static_cast<int64_t>(data.busy_customers.size()));
  p.custkey = data.busy_customers[static_cast<size_t>(Uniform(rng, 0, head - 1))];
  const int64_t parts = static_cast<int64_t>(data.initial.part.size());
  p.partkey = data.initial.part[static_cast<size_t>(Uniform(rng, 0, parts - 1))]
                               [bih::part::kPartKey].AsInt();
  p.acct_lo = 9000.0 + static_cast<double>(Uniform(rng, 0, 900));
  return p;
}

}  // namespace

std::vector<Query> AnalyticSuite(const Dataset& data, const TimeAnchors& at,
                                 uint64_t seed) {
  const Params p = Draw(data, at, seed);
  const TemporalScanSpec both = TemporalScanSpec::BothAsOf(p.sys_b, p.app_a);
  TemporalScanSpec sys_range;
  sys_range.system_time = TemporalSelector::Between(p.sys_a, p.sys_c);
  const int64_t ck = p.custkey;
  std::vector<Query> q = {
      {"T1", 'T', false, [=](TemporalEngine& e) { return bih::T1(e, both); }},
      {"T2", 'T', false, [=](TemporalEngine& e) { return bih::T2(e, both); }},
      {"T5.ALL", 'T', true, [](TemporalEngine& e) { return bih::QueryAll(e); }},
      {"T6.app", 'T', true,
       [=](TemporalEngine& e) { return bih::T6AppPointSysAll(e, p.app_b); }},
      {"T6.sys", 'T', true,
       [=](TemporalEngine& e) {
         return bih::T6SysPointAppAll(e, bih::Timestamp(p.sys_a));
       }},
      {"T7.implicit", 'T', false,
       [](TemporalEngine& e) { return bih::T7Implicit(e); }},
      {"T7.explicit", 'T', false,
       [](TemporalEngine& e) { return bih::T7Explicit(e); }},
      {"K1", 'K', false,
       [=](TemporalEngine& e) { return bih::K1(e, ck, AllTime()); }},
      {"K2", 'K', false,
       [=](TemporalEngine& e) { return bih::K2(e, ck, sys_range); }},
      {"K3", 'K', false,
       [=](TemporalEngine& e) { return bih::K3(e, ck, sys_range); }},
      {"K4", 'K', false,
       [=](TemporalEngine& e) { return bih::K4(e, ck, AllTime(), 5); }},
      {"K5", 'K', false,
       [=](TemporalEngine& e) { return bih::K5(e, ck, AllTime()); }},
      {"K6", 'K', true,
       [=](TemporalEngine& e) {
         return bih::K6(e, p.acct_lo, Value(), AllTime());
       }},
      {"R1", 'R', true, [](TemporalEngine& e) { return bih::R1(e); }},
      {"R2", 'R', true, [](TemporalEngine& e) { return bih::R2(e); }},
      {"R3.sweep", 'R', false,
       [](TemporalEngine& e) {
         return bih::R3(e, bih::TemporalAggKind::kSum, /*naive=*/false);
       }},
      {"R4", 'R', true, [](TemporalEngine& e) { return bih::R4(e, 10); }},
      {"R5", 'R', true,
       [](TemporalEngine& e) { return bih::R5(e, 5000.0, 100000.0); }},
      {"R7", 'R', false, [](TemporalEngine& e) { return bih::R7(e, 7.5); }},
  };
  for (int variant : {0, 1, 4, 7, 11}) {
    q.push_back({"B3." + std::to_string(variant), 'B', false,
                 [=](TemporalEngine& e) {
                   return bih::B3(e, variant, p.partkey, p.app_a,
                                  bih::Timestamp(p.sys_b));
                 }});
  }
  for (int number : {1, 3, 5, 6, 10, 12, 14, 19}) {
    q.push_back({"H.Q" + std::to_string(number), 'H', false,
                 [=](TemporalEngine& e) {
                   return bih::TpchQuery(number, e, both);
                 }});
  }
  return q;
}

std::vector<Query> ParallelSuite(const Dataset& data, const TimeAnchors& at,
                                 uint64_t seed) {
  std::vector<Query> out;
  for (Query& q : AnalyticSuite(data, at, seed)) {
    if (q.full_scan) out.push_back(std::move(q));
  }
  out.push_back({"J.join_agg", 'R', true, JoinAgg});
  return out;
}

namespace {

bool RowLess(const bih::Row& a, const bih::Row& b) {
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    const int c = a[i].Compare(b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

}  // namespace

bool RowsAgree(const Rows& a_in, const Rows& b_in, std::string* why) {
  Rows a = a_in, b = b_in;
  std::sort(a.begin(), a.end(), RowLess);
  std::sort(b.begin(), b.end(), RowLess);
  if (a.size() != b.size()) {
    *why = "row count " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
    return false;
  }
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) {
      *why = "row width at " + std::to_string(r);
      return false;
    }
    for (size_t c = 0; c < a[r].size(); ++c) {
      const Value& x = a[r][c];
      const Value& y = b[r][c];
      bool same;
      if ((x.is_double() || y.is_double()) && !x.is_null() && !y.is_null()) {
        const double dx = x.AsDouble(), dy = y.AsDouble();
        same = std::fabs(dx - dy) <=
               1e-6 * std::max({1.0, std::fabs(dx), std::fabs(dy)});
      } else {
        same = x.Compare(y) == 0;
      }
      if (!same) {
        *why = "row " + std::to_string(r) + " col " + std::to_string(c) +
               ": " + x.ToString() + " vs " + y.ToString();
        return false;
      }
    }
  }
  return true;
}

bool RowsIdentical(const Rows& a, const Rows& b) {
  if (a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    for (size_t c = 0; c < a[r].size(); ++c) {
      if (a[r][c].Compare(b[r][c]) != 0) return false;
    }
  }
  return true;
}

}  // namespace bench
