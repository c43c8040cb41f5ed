#include "exec/plan.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/json.h"
#include "exec/parallel.h"

namespace bih {

const char* PlanNode::KindName() const {
  switch (kind) {
    case Kind::kScan:
      return "Scan";
    case Kind::kValues:
      return "Values";
    case Kind::kFilter:
      return "Filter";
    case Kind::kProject:
      return "Project";
    case Kind::kHashJoin:
      return "HashJoin";
    case Kind::kMergeJoin:
      return "MergeJoin";
    case Kind::kAggregate:
      return "Aggregate";
    case Kind::kSort:
      return "Sort";
    case Kind::kLimit:
      return "Limit";
    case Kind::kDistinct:
      return "Distinct";
  }
  return "?";
}

// ---- Builders -----------------------------------------------------------

namespace {

PlanPtr MakeNode(PlanNode::Kind kind) {
  auto n = std::make_unique<PlanNode>();
  n->kind = kind;
  return n;
}

}  // namespace

PlanPtr ScanPlan(ScanRequest req) {
  PlanPtr n = MakeNode(PlanNode::Kind::kScan);
  n->scan = std::move(req);
  return n;
}

PlanPtr ValuesPlan(Rows rows) {
  PlanPtr n = MakeNode(PlanNode::Kind::kValues);
  n->values = std::move(rows);
  return n;
}

PlanPtr FilterPlan(PlanPtr input, ExprPtr predicate) {
  PlanPtr n = MakeNode(PlanNode::Kind::kFilter);
  n->children.push_back(std::move(input));
  n->predicate = std::move(predicate);
  return n;
}

PlanPtr ProjectPlan(PlanPtr input, std::vector<ExprPtr> exprs) {
  PlanPtr n = MakeNode(PlanNode::Kind::kProject);
  n->children.push_back(std::move(input));
  n->exprs = std::move(exprs);
  return n;
}

PlanPtr HashJoinPlan(PlanPtr left, PlanPtr right, std::vector<int> left_keys,
                     std::vector<int> right_keys, size_t right_width,
                     JoinType type, ExprPtr residual) {
  BIH_CHECK(left_keys.size() == right_keys.size());
  PlanPtr n = MakeNode(PlanNode::Kind::kHashJoin);
  n->children.push_back(std::move(left));
  n->children.push_back(std::move(right));
  n->left_keys = std::move(left_keys);
  n->right_keys = std::move(right_keys);
  n->right_width = right_width;
  n->join_type = type;
  n->predicate = std::move(residual);
  return n;
}

PlanPtr MergeJoinPlan(PlanPtr left, PlanPtr right, std::vector<int> left_keys,
                      std::vector<int> right_keys, ExprPtr residual) {
  BIH_CHECK(left_keys.size() == right_keys.size());
  PlanPtr n = MakeNode(PlanNode::Kind::kMergeJoin);
  n->children.push_back(std::move(left));
  n->children.push_back(std::move(right));
  n->left_keys = std::move(left_keys);
  n->right_keys = std::move(right_keys);
  n->predicate = std::move(residual);
  return n;
}

PlanPtr AggregatePlan(PlanPtr input, std::vector<int> group_cols,
                      std::vector<AggSpec> aggs) {
  PlanPtr n = MakeNode(PlanNode::Kind::kAggregate);
  n->children.push_back(std::move(input));
  n->group_cols = std::move(group_cols);
  n->aggs = std::move(aggs);
  return n;
}

PlanPtr SortPlan(PlanPtr input, std::vector<SortSpec> keys) {
  PlanPtr n = MakeNode(PlanNode::Kind::kSort);
  n->children.push_back(std::move(input));
  n->sort_keys = std::move(keys);
  return n;
}

PlanPtr LimitPlan(PlanPtr input, size_t limit) {
  PlanPtr n = MakeNode(PlanNode::Kind::kLimit);
  n->children.push_back(std::move(input));
  n->limit = limit;
  return n;
}

PlanPtr DistinctPlan(PlanPtr input) {
  PlanPtr n = MakeNode(PlanNode::Kind::kDistinct);
  n->children.push_back(std::move(input));
  return n;
}

// ---- Operator kernels (internal to this translation unit) ---------------

namespace {

struct RowKeyHash {
  size_t operator()(const Row& key) const {
    size_t h = 0x345678;
    for (const Value& v : key) h = h * 1000003ULL ^ v.Hash();
    return h;
  }
};
struct RowKeyEq {
  bool operator()(const Row& a, const Row& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].Compare(b[i]) != 0) return false;
    }
    return true;
  }
};

Row KeyOf(const Row& row, const std::vector<int>& cols) {
  Row key;
  key.reserve(cols.size());
  for (int c : cols) key.push_back(row[static_cast<size_t>(c)]);
  return key;
}

int CompareKeyCols(const Row& a, const std::vector<int>& acols, const Row& b,
                   const std::vector<int>& bcols) {
  for (size_t i = 0; i < acols.size(); ++i) {
    int c = a[static_cast<size_t>(acols[i])].Compare(
        b[static_cast<size_t>(bcols[i])]);
    if (c != 0) return c;
  }
  return 0;
}

Rows FilterKernel(const Rows& in, const ExprPtr& pred, QueryContext* ctx) {
  Rows out;
  for (const Row& row : in) {
    if (ctx != nullptr && !ctx->KeepGoing()) return out;
    if (pred->Test(row)) out.push_back(row);
  }
  return out;
}

Rows ProjectKernel(const Rows& in, const std::vector<ExprPtr>& exprs,
                   QueryContext* ctx) {
  Rows out;
  out.reserve(in.size());
  for (const Row& row : in) {
    if (ctx != nullptr && !ctx->KeepGoing()) return out;
    Row r;
    r.reserve(exprs.size());
    for (const ExprPtr& e : exprs) r.push_back(e->Eval(row));
    out.push_back(std::move(r));
  }
  return out;
}

Rows HashJoinKernel(const Rows& left, const Rows& right,
                    const std::vector<int>& left_keys,
                    const std::vector<int>& right_keys, size_t right_width,
                    JoinType type, const ExprPtr& residual, QueryContext* ctx) {
  std::unordered_map<Row, std::vector<const Row*>, RowKeyHash, RowKeyEq> ht;
  ht.reserve(right.size());
  for (const Row& r : right) {
    if (ctx != nullptr && !ctx->KeepGoing()) return {};
    Row key = KeyOf(r, right_keys);
    bool null_key = false;
    for (const Value& v : key) null_key |= v.is_null();
    if (null_key) continue;  // NULL never matches in equi-joins
    ht[std::move(key)].push_back(&r);
  }
  Rows out;
  for (const Row& l : left) {
    if (ctx != nullptr && !ctx->KeepGoing()) return out;
    Row key = KeyOf(l, left_keys);
    bool null_key = false;
    for (const Value& v : key) null_key |= v.is_null();
    auto it = null_key ? ht.end() : ht.find(key);
    bool matched = false;
    if (it != ht.end()) {
      for (const Row* r : it->second) {
        Row joined = l;
        joined.insert(joined.end(), r->begin(), r->end());
        if (residual != nullptr && !residual->Test(joined)) continue;
        matched = true;
        out.push_back(std::move(joined));
      }
    }
    if (!matched && type == JoinType::kLeftOuter) {
      Row joined = l;
      joined.resize(joined.size() + right_width, Value::Null());
      out.push_back(std::move(joined));
    }
  }
  return out;
}

// Sorts `order` (a permutation of input positions) by (key columns, input
// position). The tie-break makes the comparator a total order, so every
// comparison sort yields the same unique sequence — the property that lets
// the parallel chunk-sort + merge below reproduce the serial result bit for
// bit.
void SortOrderByKeys(std::vector<uint64_t>* order, const Rows& rows,
                     const std::vector<int>& keys,
                     const ParallelScanPlan& plan, QueryContext* ctx,
                     bool* interrupted) {
  auto less = [&rows, &keys](uint64_t a, uint64_t b) {
    int c = CompareKeyCols(rows[a], keys, rows[b], keys);
    return c != 0 ? c < 0 : a < b;
  };
  const uint64_t n = order->size();
  if (!plan.Engage(n)) {
    std::sort(order->begin(), order->end(), less);
    return;
  }
  // Parallel leg: each worker sorts one contiguous chunk, then the
  // coordinator merges pairwise. The total order guarantees the merged
  // sequence equals the serial sort's.
  ParallelScanPlan chunked = plan;
  chunked.morsel_size =
      (n + static_cast<uint64_t>(plan.threads) - 1) /
      static_cast<uint64_t>(plan.threads);
  if (chunked.morsel_size == 0) chunked.morsel_size = 1;
  if (!ParallelMorselRun(chunked, n, ctx,
                         [&](uint64_t, uint64_t begin, uint64_t end,
                             const MorselStop&) {
                           std::sort(order->begin() + begin,
                                     order->begin() + end, less);
                         })) {
    *interrupted = true;
    return;
  }
  for (uint64_t width = chunked.morsel_size; width < n; width *= 2) {
    // The merges of one level cover disjoint ranges, so they too fan out
    // on the pool; the level barrier (each level doubles the width) is the
    // return of ParallelMorselRun.
    std::vector<uint64_t> heads;
    for (uint64_t i = 0; i + width < n; i += 2 * width) heads.push_back(i);
    if (heads.empty()) continue;
    auto merge_pair = [&](uint64_t i) {
      std::inplace_merge(order->begin() + i, order->begin() + i + width,
                         order->begin() + std::min(i + 2 * width, n), less);
    };
    if (heads.size() == 1) {
      merge_pair(heads[0]);
      continue;
    }
    ParallelScanPlan level = plan;
    level.morsel_size = 1;  // one merge per morsel
    if (!ParallelMorselRun(level, heads.size(), ctx,
                           [&](uint64_t, uint64_t begin, uint64_t end,
                               const MorselStop&) {
                             for (uint64_t p = begin; p < end; ++p) {
                               merge_pair(heads[p]);
                             }
                           })) {
      *interrupted = true;
      return;
    }
  }
}

// Emits the equal-key runs whose first left position lies in [begin, end).
// Runs are discovered by comparing each position's key with its
// predecessor, so a run straddling a morsel boundary is owned entirely by
// the morsel holding its head — emission in morsel order is exactly the
// serial left-to-right run order.
void MergeJoinEmitRuns(const Rows& left, const Rows& right,
                       const std::vector<uint64_t>& lorder,
                       const std::vector<uint64_t>& rorder,
                       const std::vector<int>& left_keys,
                       const std::vector<int>& right_keys,
                       const ExprPtr& residual, uint64_t begin,
                       uint64_t end, const MorselStop& stop, Rows* out) {
  auto same_left_key = [&](uint64_t a, uint64_t b) {
    return CompareKeyCols(left[lorder[a]], left_keys, left[lorder[b]],
                          left_keys) == 0;
  };
  for (uint64_t p = begin; p < end; ++p) {
    if (p > 0 && same_left_key(p, p - 1)) continue;  // not a run head
    if (stop.Interrupted()) return;
    const Row& head = left[lorder[p]];
    bool null_key = false;
    for (int k : left_keys) {
      null_key |= head[static_cast<size_t>(k)].is_null();
    }
    uint64_t lend = p + 1;
    while (lend < lorder.size() && same_left_key(lend, p)) ++lend;
    if (null_key) continue;  // NULL keys never join
    // Locate the matching right-side run by binary search.
    auto rlow = std::lower_bound(
        rorder.begin(), rorder.end(), head, [&](uint64_t r, const Row& h) {
          return CompareKeyCols(right[r], right_keys, h, left_keys) < 0;
        });
    auto rhigh = std::upper_bound(
        rlow, rorder.end(), head, [&](const Row& h, uint64_t r) {
          return CompareKeyCols(h, left_keys, right[r], right_keys) < 0;
        });
    for (uint64_t i = p; i < lend; ++i) {
      if (stop.Interrupted()) return;
      for (auto rit = rlow; rit != rhigh; ++rit) {
        Row joined = left[lorder[i]];
        const Row& r = right[*rit];
        joined.insert(joined.end(), r.begin(), r.end());
        if (residual != nullptr && !residual->Test(joined)) continue;
        out->push_back(std::move(joined));
      }
    }
  }
}

// Sort-merge join, byte-identical between the serial path and the morsel
// pool: both paths sort by the same total order and emit runs in ascending
// head position; the parallel leg just assigns run heads to morsels and
// concatenates the per-morsel buffers in order.
Rows MergeJoinKernel(const Rows& left, const Rows& right,
                     const std::vector<int>& left_keys,
                     const std::vector<int>& right_keys,
                     const ExprPtr& residual, QueryContext* ctx,
                     const ParallelScanPlan& plan) {
  std::vector<uint64_t> lorder(left.size());
  std::vector<uint64_t> rorder(right.size());
  std::iota(lorder.begin(), lorder.end(), 0);
  std::iota(rorder.begin(), rorder.end(), 0);
  bool interrupted = false;
  SortOrderByKeys(&lorder, left, left_keys, plan, ctx, &interrupted);
  if (interrupted) return {};
  SortOrderByKeys(&rorder, right, right_keys, plan, ctx, &interrupted);
  if (interrupted) return {};

  const uint64_t n = lorder.size();
  if (!plan.Engage(n)) {
    Rows out;
    const std::atomic<bool> no_stop{false};
    MergeJoinEmitRuns(left, right, lorder, rorder, left_keys, right_keys,
                      residual, 0, n, MorselStop(no_stop, ctx), &out);
    return out;
  }
  std::vector<Rows> buffers(PlanMorselCount(plan, n));
  if (!ParallelMorselRun(plan, n, ctx,
                         [&](uint64_t m, uint64_t begin, uint64_t end,
                             const MorselStop& stop) {
                           MergeJoinEmitRuns(left, right, lorder, rorder,
                                             left_keys, right_keys, residual,
                                             begin, end, stop, &buffers[m]);
                         })) {
    return {};
  }
  Rows out;
  size_t total = 0;
  for (const Rows& b : buffers) total += b.size();
  out.reserve(total);
  for (Rows& b : buffers) {
    for (Row& r : b) out.push_back(std::move(r));
  }
  return out;
}

// Running state of one aggregate. `Sum` absorbs the numeric addends of
// SUM/AVG (AbsorbAddend): a running double on the serial path and in the
// parallel final merge; the addends themselves, in row order, in a
// parallel morsel's partial. Floating-point addition is not associative,
// so a morsel cannot pre-add: the coordinator folds each group's addends
// in morsel order, which is exactly the serial per-group addition sequence
// — that is what makes the parallel aggregate byte-identical, not merely
// numerically close.
template <typename Sum>
struct AggState {
  Sum sum{};
  int64_t count = 0;
  bool has = false;
  Value min, max;
  std::set<std::string> distinct;
};

void AbsorbAddend(double a, double* sum) { *sum += a; }
void AbsorbAddend(double a, std::vector<double>* addends) {
  addends->push_back(a);
}

// Groups in first-seen order, each with one state per aggregate.
template <typename Sum>
struct GroupTable {
  std::unordered_map<Row, size_t, RowKeyHash, RowKeyEq> index;
  std::vector<Row> keys;
  std::vector<std::vector<AggState<Sum>>> states;

  // The states of group `key`, created on first sight.
  std::vector<AggState<Sum>>& Find(Row key, size_t num_aggs) {
    auto it = index.find(key);
    if (it == index.end()) {
      it = index.emplace(key, keys.size()).first;
      keys.push_back(std::move(key));
      states.emplace_back(num_aggs);
    }
    return states[it->second];
  }
};

// Folds one input row into its group's states: the accumulate step of both
// the serial kernel and each parallel morsel.
template <typename Sum>
void AccumulateRow(const Row& row, const std::vector<int>& group_cols,
                   const std::vector<AggSpec>& aggs, GroupTable<Sum>* groups) {
  std::vector<AggState<Sum>>& st =
      groups->Find(KeyOf(row, group_cols), aggs.size());
  for (size_t i = 0; i < aggs.size(); ++i) {
    const AggSpec& a = aggs[i];
    AggState<Sum>& s = st[i];
    if (a.kind == AggKind::kCount && a.expr == nullptr) {
      ++s.count;
      continue;
    }
    Value v = a.expr->Eval(row);
    if (v.is_null()) continue;  // SQL aggregates skip NULLs
    switch (a.kind) {
      case AggKind::kSum:
      case AggKind::kAvg:
        AbsorbAddend(v.AsDouble(), &s.sum);
        ++s.count;
        break;
      case AggKind::kCount:
        ++s.count;
        break;
      case AggKind::kMin:
        if (!s.has || v.Compare(s.min) < 0) s.min = v;
        s.has = true;
        break;
      case AggKind::kMax:
        if (!s.has || v.Compare(s.max) > 0) s.max = v;
        s.has = true;
        break;
      case AggKind::kCountDistinct:
        s.distinct.insert(v.ToString());
        break;
    }
  }
}

// One output row per group, in first-seen order. With no group columns
// there is exactly one row, even over empty input (SQL semantics).
Rows FinishAggregate(GroupTable<double>* groups,
                     const std::vector<int>& group_cols,
                     const std::vector<AggSpec>& aggs) {
  if (group_cols.empty() && groups->keys.empty()) {
    groups->Find(Row{}, aggs.size());
  }
  Rows out;
  out.reserve(groups->keys.size());
  for (size_t g = 0; g < groups->keys.size(); ++g) {
    Row r = std::move(groups->keys[g]);
    for (size_t i = 0; i < aggs.size(); ++i) {
      const AggState<double>& s = groups->states[g][i];
      switch (aggs[i].kind) {
        case AggKind::kSum:
          r.push_back(s.count == 0 ? Value::Null() : Value(s.sum));
          break;
        case AggKind::kAvg:
          r.push_back(s.count == 0
                          ? Value::Null()
                          : Value(s.sum / static_cast<double>(s.count)));
          break;
        case AggKind::kCount:
          r.push_back(Value(s.count));
          break;
        case AggKind::kMin:
          r.push_back(s.has ? s.min : Value::Null());
          break;
        case AggKind::kMax:
          r.push_back(s.has ? s.max : Value::Null());
          break;
        case AggKind::kCountDistinct:
          r.push_back(Value(static_cast<int64_t>(s.distinct.size())));
          break;
      }
    }
    out.push_back(std::move(r));
  }
  return out;
}

Rows SerialAggregateKernel(const Rows& in, const std::vector<int>& group_cols,
                           const std::vector<AggSpec>& aggs,
                           QueryContext* ctx) {
  GroupTable<double> groups;
  for (const Row& row : in) {
    if (ctx != nullptr && !ctx->KeepGoing()) return {};
    AccumulateRow(row, group_cols, aggs, &groups);
  }
  return FinishAggregate(&groups, group_cols, aggs);
}

Rows ParallelAggregateKernel(const Rows& in,
                             const std::vector<int>& group_cols,
                             const std::vector<AggSpec>& aggs,
                             QueryContext* ctx, const ParallelScanPlan& plan) {
  std::vector<GroupTable<std::vector<double>>> partials(
      PlanMorselCount(plan, in.size()));
  if (!ParallelMorselRun(plan, in.size(), ctx,
                         [&](uint64_t m, uint64_t begin, uint64_t end,
                             const MorselStop& stop) {
                           for (uint64_t r = begin; r < end; ++r) {
                             if (stop.Interrupted()) return;
                             AccumulateRow(in[r], group_cols, aggs,
                                           &partials[m]);
                           }
                         })) {
    return {};
  }

  // Final merge on the coordinator, in morsel order: group discovery order
  // equals the serial first-seen order, and each group's addends fold in
  // the serial row order. Each field merges by its own rule; a field that
  // an aggregate's kind never sets keeps its default in every partial, so
  // merging it leaves that aggregate's result unchanged.
  GroupTable<double> groups;
  for (const GroupTable<std::vector<double>>& part : partials) {
    for (size_t g = 0; g < part.keys.size(); ++g) {
      std::vector<AggState<double>>& st =
          groups.Find(part.keys[g], aggs.size());
      for (size_t i = 0; i < aggs.size(); ++i) {
        const AggState<std::vector<double>>& p = part.states[g][i];
        AggState<double>& s = st[i];
        for (double a : p.sum) s.sum += a;
        s.count += p.count;
        if (p.has && (!s.has || p.min.Compare(s.min) < 0)) s.min = p.min;
        if (p.has && (!s.has || p.max.Compare(s.max) > 0)) s.max = p.max;
        s.has |= p.has;
        s.distinct.insert(p.distinct.begin(), p.distinct.end());
      }
    }
  }
  return FinishAggregate(&groups, group_cols, aggs);
}

Rows SortKernel(Rows in, const std::vector<SortSpec>& keys,
                QueryContext* ctx) {
  // Decorate-sort-strip: evaluate every key against the undecorated row,
  // append, stable-sort on the appended columns, strip. This is exactly the
  // ORDER BY lowering the SQL executor used, so expression sorts stay
  // byte-compatible.
  const size_t nk = keys.size();
  for (Row& r : in) {
    if (ctx != nullptr && !ctx->KeepGoing()) break;
    Row vals;
    vals.reserve(nk);
    for (const SortSpec& k : keys) vals.push_back(k.key->Eval(r));
    for (Value& v : vals) r.push_back(std::move(v));
  }
  if (ctx != nullptr && !ctx->status().ok()) return in;
  std::stable_sort(in.begin(), in.end(), [&](const Row& a, const Row& b) {
    for (size_t i = 0; i < nk; ++i) {
      int c = a[a.size() - nk + i].Compare(b[b.size() - nk + i]);
      if (c != 0) return keys[i].ascending ? c < 0 : c > 0;
    }
    return false;
  });
  for (Row& r : in) r.resize(r.size() - nk);
  return in;
}

Rows DistinctKernel(const Rows& in, QueryContext* ctx) {
  Rows out;
  std::unordered_map<Row, bool, RowKeyHash, RowKeyEq> seen;
  for (const Row& r : in) {
    if (ctx != nullptr && !ctx->KeepGoing()) return out;
    if (seen.emplace(r, true).second) out.push_back(r);
  }
  return out;
}

// ---- Tree walker --------------------------------------------------------

struct Executor {
  TemporalEngine& engine;
  const ExecOptions& opts;
  QueryContext* ctx;

  Status Boundary() const {
    return ctx != nullptr ? ctx->CheckNow() : Status::OK();
  }

  Status Run(const PlanNode& n, Rows* out) {
    n.stats = PlanStats{};
    out->clear();
    switch (n.kind) {
      case PlanNode::Kind::kScan: {
        ScanRequest req = n.scan;
        if (req.ctx == nullptr) req.ctx = ctx;
        req.exec = MergeExecOptions(req.exec, opts);
        engine.Scan(req, [&](const Row& row) {
          out->push_back(row);
          return true;
        });
        // A request that redirected its counters keeps them; otherwise the
        // engine published to its shared slot and we copy from there (the
        // pre-existing advisory, last-writer-wins contract).
        n.stats.scan =
            req.stats != nullptr ? *req.stats : engine.last_stats();
        break;
      }
      case PlanNode::Kind::kValues:
        *out = n.values;
        break;
      case PlanNode::Kind::kFilter: {
        Rows in;
        BIH_RETURN_IF_ERROR(Run(*n.children[0], &in));
        *out = FilterKernel(in, n.predicate, ctx);
        break;
      }
      case PlanNode::Kind::kProject: {
        Rows in;
        BIH_RETURN_IF_ERROR(Run(*n.children[0], &in));
        *out = ProjectKernel(in, n.exprs, ctx);
        break;
      }
      case PlanNode::Kind::kHashJoin: {
        Rows left, right;
        BIH_RETURN_IF_ERROR(Run(*n.children[0], &left));
        BIH_RETURN_IF_ERROR(Run(*n.children[1], &right));
        *out = HashJoinKernel(left, right, n.left_keys, n.right_keys,
                              n.right_width, n.join_type, n.predicate, ctx);
        break;
      }
      case PlanNode::Kind::kMergeJoin: {
        Rows left, right;
        BIH_RETURN_IF_ERROR(Run(*n.children[0], &left));
        BIH_RETURN_IF_ERROR(Run(*n.children[1], &right));
        const ParallelScanPlan plan =
            ResolveScanPlan(MergeExecOptions(n.scan.exec, opts));
        *out = MergeJoinKernel(left, right, n.left_keys, n.right_keys,
                               n.predicate, ctx, plan);
        break;
      }
      case PlanNode::Kind::kAggregate: {
        Rows in;
        BIH_RETURN_IF_ERROR(Run(*n.children[0], &in));
        const ParallelScanPlan plan =
            ResolveScanPlan(MergeExecOptions(n.scan.exec, opts));
        if (plan.Engage(in.size())) {
          *out = ParallelAggregateKernel(in, n.group_cols, n.aggs, ctx, plan);
        } else {
          *out = SerialAggregateKernel(in, n.group_cols, n.aggs, ctx);
        }
        break;
      }
      case PlanNode::Kind::kSort: {
        Rows in;
        BIH_RETURN_IF_ERROR(Run(*n.children[0], &in));
        *out = SortKernel(std::move(in), n.sort_keys, ctx);
        break;
      }
      case PlanNode::Kind::kLimit: {
        Rows in;
        BIH_RETURN_IF_ERROR(Run(*n.children[0], &in));
        *out = std::move(in);
        if (out->size() > n.limit) out->resize(n.limit);
        break;
      }
      case PlanNode::Kind::kDistinct: {
        Rows in;
        BIH_RETURN_IF_ERROR(Run(*n.children[0], &in));
        *out = DistinctKernel(in, ctx);
        break;
      }
    }
    n.stats.rows_output = out->size();
    return Boundary();
  }
};

bool IsInterrupt(const Status& s) {
  return s.code() == Status::Code::kCancelled ||
         s.code() == Status::Code::kDeadlineExceeded;
}

}  // namespace

Status Execute(const PlanNode& plan, TemporalEngine& engine,
               const ExecOptions& opts, QueryContext* ctx, Rows* out) {
  Executor exec{engine, opts, ctx};
  return exec.Run(plan, out);
}

Rows RunPlan(const PlanNode& plan, TemporalEngine& engine, QueryContext* ctx,
             const ExecOptions& opts) {
  Rows out;
  Status st = Execute(plan, engine, opts, ctx, &out);
  BIH_CHECK_MSG(st.ok() || IsInterrupt(st), st.ToString());
  return out;
}

// ---- EXPLAIN rendering --------------------------------------------------

namespace {

std::string SelectorString(const TemporalSelector& s) { return s.ToString(); }

void AppendScanJson(const ScanRequest& req, std::string* out) {
  *out += ",\"table\":" + JsonQuote(req.table);
  *out += ",\"system_time\":" + JsonQuote(SelectorString(req.temporal.system_time));
  *out += ",\"app_time\":" + JsonQuote(SelectorString(req.temporal.app_time));
  if (req.temporal.app_period_index != 0) {
    *out += ",\"app_period\":" +
            std::to_string(req.temporal.app_period_index);
  }
  if (!req.equals.empty()) {
    *out += ",\"equals\":[";
    for (size_t i = 0; i < req.equals.size(); ++i) {
      if (i) *out += ",";
      *out += "{\"col\":" + std::to_string(req.equals[i].first) +
              ",\"value\":" + JsonQuote(req.equals[i].second.ToString()) + "}";
    }
    *out += "]";
  }
  if (req.range_col >= 0) {
    *out += ",\"range_col\":" + std::to_string(req.range_col);
    *out += ",\"range_lo\":" + JsonQuote(req.range_lo.ToString());
    *out += ",\"range_hi\":" + JsonQuote(req.range_hi.ToString());
  }
  if (!req.projection.empty()) {
    *out += ",\"projection\":[";
    for (size_t i = 0; i < req.projection.size(); ++i) {
      if (i) *out += ",";
      *out += std::to_string(req.projection[i]);
    }
    *out += "]";
  }
}

void AppendScanStatsJson(const ExecStats& s, std::string* out) {
  *out += ",\"rows_examined\":" + std::to_string(s.rows_examined);
  *out += ",\"partitions_touched\":" + std::to_string(s.partitions_touched);
  *out += std::string(",\"used_index\":") + (s.used_index ? "true" : "false");
  if (!s.index_name.empty()) {
    *out += ",\"index\":" + JsonQuote(s.index_name);
  }
  *out += std::string(",\"touched_history\":") +
          (s.touched_history ? "true" : "false");
}

void NodeToJson(const PlanNode& n, std::string* out) {
  *out += "{\"node\":" + JsonQuote(n.KindName());
  switch (n.kind) {
    case PlanNode::Kind::kScan:
      AppendScanJson(n.scan, out);
      AppendScanStatsJson(n.stats.scan, out);
      break;
    case PlanNode::Kind::kValues:
      *out += ",\"rows\":" + std::to_string(n.values.size());
      break;
    case PlanNode::Kind::kHashJoin:
      *out += ",\"join_type\":" + JsonQuote(n.join_type == JoinType::kLeftOuter
                                                ? "left_outer"
                                                : "inner");
      *out += ",\"keys\":" + std::to_string(n.left_keys.size());
      break;
    case PlanNode::Kind::kMergeJoin:
      *out += ",\"keys\":" + std::to_string(n.left_keys.size());
      break;
    case PlanNode::Kind::kAggregate:
      *out += ",\"group_cols\":" + std::to_string(n.group_cols.size());
      *out += ",\"aggregates\":" + std::to_string(n.aggs.size());
      break;
    case PlanNode::Kind::kSort:
      *out += ",\"keys\":" + std::to_string(n.sort_keys.size());
      break;
    case PlanNode::Kind::kLimit:
      *out += ",\"limit\":" + std::to_string(n.limit);
      break;
    case PlanNode::Kind::kFilter:
    case PlanNode::Kind::kProject:
    case PlanNode::Kind::kDistinct:
      break;
  }
  *out += ",\"rows_output\":" + std::to_string(n.stats.rows_output);
  if (!n.children.empty()) {
    *out += ",\"children\":[";
    for (size_t i = 0; i < n.children.size(); ++i) {
      if (i) *out += ",";
      NodeToJson(*n.children[i], out);
    }
    *out += "]";
  }
  *out += "}";
}

}  // namespace

std::string PlanToJson(const PlanNode& plan) {
  std::string out;
  NodeToJson(plan, &out);
  return out;
}

}  // namespace bih
