#ifndef TPCBIH_EXEC_PARALLEL_H_
#define TPCBIH_EXEC_PARALLEL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/query_context.h"
#include "common/thread_annotations.h"
#include "common/value.h"
#include "exec/exec_options.h"

namespace bih {

// Morsel-driven intra-query parallelism for the engines' full-partition
// scans (the access path that dominates Figs. 2-15: Section 5.2 attributes
// most cross-system gaps to how much of the version space a scan touches).
//
// Shape: a partition of N slots is cut into fixed-size row-id ranges
// ("morsels"). Workers claim morsels with one atomic fetch_add, run the
// engine's per-row scan body (the same one its serial loop and index access
// run; see ScanSlots) over their range and park the qualifying rows in a
// per-morsel buffer. The coordinating query
// thread participates too (so a scan makes progress even when every helper
// is busy elsewhere) and *emits* buffers strictly in morsel order — slot
// order inside a morsel is preserved by construction, so the merged output
// is byte-identical to the serial scan, including under Top-N early stop.
//
// Index access paths stay serial: they are already selective (Section
// 5.3.3's observation), so the scan loops are the only place the threads
// help.

// Rows per morsel when the request does not choose one. Large enough that
// the claim fetch_add and the done-flag publication are noise against the
// per-row filter work; small enough that an 8-way scan of the paper's
// ~100k-version partitions still load-balances.
inline constexpr uint64_t kDefaultMorselSize = 1024;

// Process-wide default thread count for scans that do not request one
// (ScanRequest::scan_threads == 0). Resolution order: SetDefaultScanThreads
// override if set, else the BIH_SCAN_THREADS environment variable, else 1
// (serial). Clamped to [1, 64].
int DefaultScanThreads();

// Overrides the process default; `threads` < 1 clears the override back to
// the environment. Used by the driver's --scan-threads flag and the bench
// scaling sweeps.
void SetDefaultScanThreads(int threads);

// Interruption poll for morsel bodies: the job's stop flag (raised on
// coordinator early-exit and teardown) or an external Cancel() on the
// query's context (the watchdog path). Both are relaxed atomic loads.
class MorselStop {
 public:
  MorselStop(const std::atomic<bool>& flag, const QueryContext* ctx)
      : flag_(flag), ctx_(ctx) {}

  bool Interrupted() const {
    return flag_.load(std::memory_order_relaxed) ||
           (ctx_ != nullptr && ctx_->cancel_requested());
  }

 private:
  const std::atomic<bool>& flag_;
  const QueryContext* ctx_;
};

struct ParallelJob;

// A fixed pool of helper threads that scans borrow morsels-at-a-time.
// One job is posted at a time ("job board"); helpers that find the board
// empty, or the job's helper quota already claimed, go back to sleep. The
// coordinator always participates in its own scan, so a job needs no
// helpers to finish — the pool only adds speed, never liveness.
class ScanScheduler {
 public:
  // `helpers` background threads (>= 0); a scan with T threads uses the
  // coordinator plus up to T-1 helpers.
  explicit ScanScheduler(int helpers);
  ~ScanScheduler();

  ScanScheduler(const ScanScheduler&) = delete;
  ScanScheduler& operator=(const ScanScheduler&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  // Helpers currently parked on the job board's condition variable. After a
  // scan returns, this climbs back to num_workers(); the cancellation tests
  // poll it to prove an interrupted parallel scan leaves no worker running.
  int idle_workers() const { return idle_.load(std::memory_order_acquire); }

  // Lazily-created process-wide pool, sized for 8-way scans (or wider when
  // the process default asks for more at first use). Intentionally leaked:
  // helper threads live for the process, like the engines' commit clock.
  static ScanScheduler* Default();

  // Internal job-board protocol, used by ScanSlots and ParallelMorselRun.
  void Launch(const std::shared_ptr<ParallelJob>& job);
  void Retire(const std::shared_ptr<ParallelJob>& job);

 private:
  void WorkerLoop();

  // The job board. Everything a helper reads to find work lives under mu_;
  // the per-job stop/claim/drain handoffs are the job's own atomics (see
  // ParallelJob in parallel.cc for why each one is safe without a lock).
  Mutex mu_;
  CondVar cv_;
  std::shared_ptr<ParallelJob> board_ GUARDED_BY(mu_);  // at most one job
  uint64_t job_seq_ GUARDED_BY(mu_) = 0;  // bumped per Launch; wakes sleepers
  bool shutdown_ GUARDED_BY(mu_) = false;
  std::atomic<int> idle_{0};
  // Written by the constructor before any helper can observe it, joined by
  // the destructor after shutdown_ is set: never touched concurrently.
  std::vector<std::thread> workers_;  // bih-lint: allow(guard-coverage)
};

// A resolved decision on how one partition scan runs.
struct ParallelScanPlan {
  ScanScheduler* scheduler = nullptr;  // null => serial
  int threads = 1;
  uint64_t morsel_size = kDefaultMorselSize;

  // Parallelism must pay for its fan-out: engage only when the scan is
  // wider than one morsel (a single-morsel scan is the serial loop with
  // extra steps). threads <= 1 keeps the engines' untouched serial path.
  bool Engage(uint64_t slot_count) const {
    return threads > 1 && scheduler != nullptr && slot_count > morsel_size;
  }
};

// Resolves a ScanRequest's parallelism fields: `requested_threads` == 0
// falls back to DefaultScanThreads(), a null `scheduler` falls back to the
// process-wide pool (created on demand only if the plan is parallel), and
// `morsel_size` == 0 becomes kDefaultMorselSize.
ParallelScanPlan ResolveScanPlan(int requested_threads,
                                 ScanScheduler* scheduler,
                                 uint64_t morsel_size);

// Same resolution over the consolidated knob struct.
inline ParallelScanPlan ResolveScanPlan(const ExecOptions& opts) {
  return ResolveScanPlan(opts.scan_threads, opts.scheduler, opts.morsel_size);
}

// How many morsels the plan cuts an `item_count`-item range into. Callers
// of ParallelMorselRun size their per-morsel result slots with this before
// launching, so each worker writes only its own slot.
inline uint64_t PlanMorselCount(const ParallelScanPlan& plan,
                                uint64_t item_count) {
  return (item_count + plan.morsel_size - 1) / plan.morsel_size;
}

// One morsel of a generic parallel operator (join run-emission, partial
// aggregation): `m` is the morsel index, [begin, end) the item range. The
// body typically writes a caller-owned slot indexed by `m`; no two
// invocations share a morsel index. Long-running bodies should poll
// `stop.Interrupted()` and bail early.
using MorselRunFn = std::function<void(uint64_t m, uint64_t begin,
                                       uint64_t end, const MorselStop& stop)>;

// Generic morsel fan-out for operators above the scan: runs `body` over
// every morsel of [0, item_count) on the plan's pool, the coordinator
// participating like in ScanSlots. Returns true when every morsel
// completed; false when `ctx` tripped first (per-morsel CheckNow on the
// coordinator), in which case some slots may be unwritten and the caller
// must discard the output. Either way no worker is still touching the
// caller's slots on return (the scheduler drain in Retire provides the
// happens-before edge for the coordinator's subsequent merge).
bool ParallelMorselRun(const ParallelScanPlan& plan, uint64_t item_count,
                       QueryContext* ctx, const MorselRunFn& body);

// ---- Partition scans: one per-row body per access path ----------------
//
// An engine writes the per-row logic of each access path once, as a
// callable `bool visit(uint64_t rid, auto& sink)` that is generic over the
// sink:
//
//   if (!part.IsLive(rid)) return true;  // dead slot: not examined
//   if (!sink.Examine()) return false;   // interruption poll + count
//   ... build `row`; return true if a temporal or residual filter fails ...
//   return sink.Emit(row);               // false: the scan must stop
//
// Index access calls the body once per candidate row id with a ScanSink;
// ScanSlots drives it over every slot of a partition, serially or
// morsel-parallel. The body must be safe to run on distinct slots
// concurrently (pure reads). ScanSlots copies it once per morsel, so it may
// carry mutable scratch state, e.g. a reusable row buffer.

// The sink of index access and of the serial scan: polls the query context
// per examined row, counts into the scan's counters and hands each row
// straight to `cb`, without a copy. `*stopped` is set (never cleared) when
// the scan ends early, on a tripped context or on `cb` returning false.
struct ScanSink {
  QueryContext* ctx;
  uint64_t* rows_examined;
  uint64_t* rows_output;
  bool* stopped;
  const std::function<bool(const Row&)>& cb;

  bool Examine() {
    if (ctx != nullptr && !ctx->KeepGoing()) return Stop();
    ++*rows_examined;
    return true;
  }
  bool Emit(const Row& row) {
    ++*rows_output;
    return cb(row) || Stop();
  }
  bool Stop() {
    *stopped = true;
    return false;
  }
};

// The sink of one morsel on the parallel path: buffers the qualifying rows
// in slot order, each with the number of rows the morsel had examined when
// it was produced, so the coordinator can emit morsels in order and, when
// the consumer stops at some row, report the exact rows_examined the serial
// scan would have.
class MorselSink {
 public:
  MorselSink(const MorselStop& stop, std::vector<Row>* rows,
             std::vector<uint64_t>* examined_at)
      : stop_(stop), rows_(rows), examined_at_(examined_at) {}

  bool Examine() {
    if (stop_.Interrupted()) return false;
    ++rows_examined_;
    return true;
  }
  bool Emit(const Row& row) {
    rows_->push_back(row);
    examined_at_->push_back(rows_examined_);
    return true;
  }
  uint64_t rows_examined() const { return rows_examined_; }

 private:
  const MorselStop& stop_;
  std::vector<Row>* rows_;
  std::vector<uint64_t>* examined_at_;
  uint64_t rows_examined_ = 0;
};

namespace parallel_internal {

// The morsel-parallel leg of ScanSlots: runs `scan` over every morsel of a
// `slot_count`-slot partition on the plan's pool and emits the buffered
// rows through `sink` in exact serial order. The coordinator checks the
// context per claimed morsel and per emitted row; on return no worker is
// still touching this scan's state.
void ScanMorsels(
    const ParallelScanPlan& plan, uint64_t slot_count,
    const std::function<void(uint64_t begin, uint64_t end, MorselSink& out)>&
        scan,
    ScanSink& sink);

}  // namespace parallel_internal

// Runs `visit` over slots [0, slot_count) into `sink`. Serial unless the
// plan engages for this many slots; either way the rows reach `sink.cb` in
// slot order and the counters and `*sink.stopped` end up exactly as the
// serial loop leaves them, including under Top-N early stop and a tripped
// context.
template <typename Visit>
void ScanSlots(const ParallelScanPlan& plan, uint64_t slot_count,
               ScanSink& sink, Visit visit) {
  if (plan.Engage(slot_count)) {
    parallel_internal::ScanMorsels(
        plan, slot_count,
        [&visit](uint64_t begin, uint64_t end, MorselSink& out) {
          Visit local = visit;  // per-morsel scratch state
          for (uint64_t rid = begin; rid < end; ++rid) {
            if (!local(rid, out)) return;
          }
        },
        sink);
    return;
  }
  for (uint64_t rid = 0; rid < slot_count; ++rid) {
    if (!visit(rid, sink)) return;
  }
}

}  // namespace bih

#endif  // TPCBIH_EXEC_PARALLEL_H_
