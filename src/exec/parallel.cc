#include "exec/parallel.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

namespace bih {

namespace {

constexpr int kMaxScanThreads = 64;

int EnvScanThreads() {
  static const int parsed = [] {
    const char* v = std::getenv("BIH_SCAN_THREADS");
    if (v == nullptr) return 1;
    const int n = std::atoi(v);
    return std::clamp(n, 1, kMaxScanThreads);
  }();
  return parsed;
}

// 0 = no override (fall back to the environment).
std::atomic<int> g_thread_override{0};

}  // namespace

int DefaultScanThreads() {
  const int o = g_thread_override.load(std::memory_order_relaxed);
  return o > 0 ? o : EnvScanThreads();
}

void SetDefaultScanThreads(int threads) {
  g_thread_override.store(threads < 1 ? 0 : std::min(threads, kMaxScanThreads),
                          std::memory_order_relaxed);
}

// The shared state of one parallel run (a partition scan or an operator
// fan-out). Owned jointly (via shared_ptr) by the coordinator and the
// scheduler's job board, so a helper that raced with teardown still holds
// valid memory while it observes the stop flag.
struct ParallelJob {
  ParallelJob(const ParallelScanPlan& plan, uint64_t items, QueryContext* c,
              MorselRunFn fn)
      : body(std::move(fn)),
        item_count(items),
        morsel_size(plan.morsel_size),
        num_morsels(PlanMorselCount(plan, items)),
        ctx(c),
        helper_slots(plan.threads - 1),
        done(new std::atomic<bool>[num_morsels]) {
    for (uint64_t m = 0; m < num_morsels; ++m) {
      done[m].store(false, std::memory_order_relaxed);
    }
  }

  // Runs morsel `m` and publishes it. Release pairs with the coordinator's
  // acquire load in Done: once it sees done[m], everything the body wrote
  // for the morsel is visible.
  void Run(uint64_t m) {
    const uint64_t begin = m * morsel_size;
    body(m, begin, std::min(begin + morsel_size, item_count), interrupt);
    done[m].store(true, std::memory_order_release);
  }
  bool Done(uint64_t m) const {
    return done[m].load(std::memory_order_acquire);
  }

  const MorselRunFn body;
  const uint64_t item_count;
  const uint64_t morsel_size;
  const uint64_t num_morsels;
  QueryContext* const ctx;  // borrowed; workers only read the cancel flag

  // Work claiming: morsel m covers items [m*morsel_size, ...). A morsel is
  // claimed by whoever fetch_adds `next` to its index first.
  std::atomic<uint64_t> next{0};

  // Raised by the coordinator on early exit and always before Retire. Also
  // the fence helpers re-check (seq_cst) before each claim so a helper that
  // wakes late never runs `body` after the coordinator moved on.
  std::atomic<bool> stop{false};
  const MorselStop interrupt{stop, ctx};  // what bodies poll

  // How many helpers may still join (threads - 1 at launch); decremented by
  // CAS when a helper signs on, so a 2-thread scan on an 8-thread pool gets
  // exactly one helper.
  std::atomic<int> helper_slots;

  // Helpers currently inside RunMorsels. Retire spins until it reaches
  // zero; the seq_cst increment/stop-check pair makes that spin sufficient
  // for the coordinator to reuse/destroy everything `body` captures.
  std::atomic<int> helpers_active{0};

  const std::unique_ptr<std::atomic<bool>[]> done;  // per-morsel flag
};

namespace {

// Claims and runs morsels until the board is empty or the job stops.
// Shared by helpers and the coordinator.
void RunMorsels(ParallelJob* job) {
  while (!job->stop.load(std::memory_order_seq_cst)) {
    const uint64_t m = job->next.fetch_add(1, std::memory_order_relaxed);
    if (m >= job->num_morsels) return;
    job->Run(m);
  }
}

// Posts a job for `body` over [0, item_count) on the plan's pool.
std::shared_ptr<ParallelJob> LaunchJob(const ParallelScanPlan& plan,
                                       uint64_t item_count, QueryContext* ctx,
                                       MorselRunFn body) {
  auto job =
      std::make_shared<ParallelJob>(plan, item_count, ctx, std::move(body));
  plan.scheduler->Launch(job);
  return job;
}

// The coordinator's deadline check, the parallel analogue of the serial
// loops' periodic clock sampling.
bool Tripped(QueryContext* ctx) {
  return ctx != nullptr && !ctx->CheckNow().ok();
}

// Waits for the helper that claimed morsel `m`; false if `ctx` tripped
// first.
bool AwaitMorsel(const ParallelJob& job, uint64_t m) {
  while (!job.Done(m)) {
    if (Tripped(job.ctx)) return false;
    std::this_thread::yield();
  }
  return true;
}

// Qualifying rows of one scan morsel, in slot order (see MorselSink).
struct MorselOutput {
  std::vector<Row> rows;
  std::vector<uint64_t> examined_at;
  uint64_t rows_examined = 0;
};

// Emits one finished morsel through `sink`; false when the scan must stop.
bool EmitMorsel(MorselOutput* out, ScanSink& sink) {
  for (size_t j = 0; j < out->rows.size(); ++j) {
    // Same per-emitted-row discipline as the serial loop.
    if (sink.ctx != nullptr && !sink.ctx->KeepGoing()) return false;
    if (!sink.Emit(out->rows[j])) {
      // The serial scan would have stopped mid-morsel: count exactly the
      // rows it would have examined up to this emission.
      *sink.rows_examined += out->examined_at[j];
      return false;
    }
  }
  *sink.rows_examined += out->rows_examined;
  // Free emitted buffers eagerly; a wide scan should hold at most the
  // in-flight morsels, not the whole result set twice.
  *out = MorselOutput{};
  return true;
}

}  // namespace

ScanScheduler::ScanScheduler(int helpers) {
  workers_.reserve(static_cast<size_t>(std::max(helpers, 0)));
  for (int i = 0; i < helpers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ScanScheduler::~ScanScheduler() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

ScanScheduler* ScanScheduler::Default() {
  // Leaked on purpose (see header). Sized so the 1..8-thread bench sweeps
  // and tests never starve, even if the first caller only wanted 2 threads.
  static ScanScheduler* pool =
      new ScanScheduler(std::max(DefaultScanThreads(), 8) - 1);
  return pool;
}

void ScanScheduler::Launch(const std::shared_ptr<ParallelJob>& job) {
  {
    MutexLock lock(mu_);
    board_ = job;
    ++job_seq_;
  }
  cv_.NotifyAll();
}

void ScanScheduler::Retire(const std::shared_ptr<ParallelJob>& job) {
  // Raise the stop flag: no helper starts another morsel of this job.
  job->stop.store(true, std::memory_order_seq_cst);
  {
    MutexLock lock(mu_);
    if (board_ == job) board_.reset();
  }
  // Drain: a helper either (a) already incremented helpers_active — we spin
  // until its matching decrement — or (b) increments after our 0-read; by
  // the seq_cst total order that helper's subsequent stop check sees true
  // and it exits RunMorsels without running the body. Either way, once this
  // loop observes zero no helper will touch the job's body again. This is a
  // documented bare-atomic handoff, not a lock: the pairing is the seq_cst
  // increment/stop-check in WorkerLoop (regression-tested by the
  // RetireDrains* cases in tests/parallel_scan_test.cc).
  while (job->helpers_active.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
}

void ScanScheduler::WorkerLoop() {
  uint64_t seen_seq = 0;
  while (true) {
    std::shared_ptr<ParallelJob> job;
    {
      MutexLock lock(mu_);
      idle_.fetch_add(1, std::memory_order_acq_rel);
      // Explicit predicate loop (not a wait(lock, pred) lambda) so the
      // analysis sees the guarded reads of shutdown_/job_seq_ under mu_.
      while (!shutdown_ && job_seq_ == seen_seq) cv_.Wait(mu_);
      idle_.fetch_sub(1, std::memory_order_acq_rel);
      if (shutdown_) return;
      seen_seq = job_seq_;
      job = board_;
    }
    if (job == nullptr) continue;  // retired before we woke

    // Sign on within the job's helper quota.
    int slots = job->helper_slots.load(std::memory_order_relaxed);
    bool claimed = false;
    while (slots > 0 && !claimed) {
      claimed = job->helper_slots.compare_exchange_weak(
          slots, slots - 1, std::memory_order_acq_rel);
    }
    if (!claimed) continue;

    job->helpers_active.fetch_add(1, std::memory_order_seq_cst);
    RunMorsels(job.get());
    job->helpers_active.fetch_sub(1, std::memory_order_seq_cst);
  }
}

ParallelScanPlan ResolveScanPlan(int requested_threads,
                                 ScanScheduler* scheduler,
                                 uint64_t morsel_size) {
  ParallelScanPlan plan;
  plan.threads = requested_threads > 0
                     ? std::min(requested_threads, kMaxScanThreads)
                     : DefaultScanThreads();
  plan.morsel_size = morsel_size > 0 ? morsel_size : kDefaultMorselSize;
  if (plan.threads > 1) {
    plan.scheduler = scheduler != nullptr ? scheduler : ScanScheduler::Default();
  }
  if (plan.scheduler == nullptr) plan.threads = 1;
  return plan;
}

namespace parallel_internal {

void ScanMorsels(
    const ParallelScanPlan& plan, uint64_t slot_count,
    const std::function<void(uint64_t begin, uint64_t end, MorselSink& out)>&
        scan,
    ScanSink& sink) {
  std::vector<MorselOutput> outputs(PlanMorselCount(plan, slot_count));
  const std::shared_ptr<ParallelJob> job = LaunchJob(
      plan, slot_count, sink.ctx,
      [&outputs, &scan](uint64_t m, uint64_t begin, uint64_t end,
                        const MorselStop& stop) {
        MorselOutput& out = outputs[m];
        MorselSink morsel(stop, &out.rows, &out.examined_at);
        scan(begin, end, morsel);
        out.rows_examined = morsel.rows_examined();
      });

  bool stopped = false;  // the context tripped or the consumer said stop
  uint64_t cursor = 0;   // next morsel to emit, in order
  while (!stopped && cursor < job->num_morsels) {
    if (!job->Done(cursor)) {
      // The in-order morsel is not ready: be useful, claim one ourselves.
      const uint64_t m = job->next.fetch_add(1, std::memory_order_relaxed);
      if (m < job->num_morsels) {
        job->Run(m);
        stopped = Tripped(sink.ctx);
        continue;
      }
      // All morsels claimed; wait for the helper that owns `cursor`.
      if (!AwaitMorsel(*job, cursor)) {
        stopped = true;
        continue;
      }
    }
    // Per-morsel deadline check on the emit path too: when helpers outpace
    // the coordinator the claim branch above never runs, and the per-row
    // KeepGoing alone would defer an expired deadline for a full clock
    // interval's worth of rows.
    stopped = Tripped(sink.ctx) || !EmitMorsel(&outputs[cursor], sink);
    ++cursor;
  }

  plan.scheduler->Retire(job);
  if (stopped) sink.Stop();
}

}  // namespace parallel_internal

bool ParallelMorselRun(const ParallelScanPlan& plan, uint64_t item_count,
                       QueryContext* ctx, const MorselRunFn& body) {
  const std::shared_ptr<ParallelJob> job =
      LaunchJob(plan, item_count, ctx, body);
  bool tripped = false;
  // Coordinator participates: claim and run morsels like a helper, with a
  // deadline check per morsel.
  while (!tripped) {
    const uint64_t m = job->next.fetch_add(1, std::memory_order_relaxed);
    if (m >= job->num_morsels) break;
    job->Run(m);
    tripped = Tripped(ctx);
  }
  // Wait for helpers to finish the morsels they claimed.
  for (uint64_t m = 0; m < job->num_morsels && !tripped; ++m) {
    tripped = !AwaitMorsel(*job, m);
  }
  plan.scheduler->Retire(job);
  return !tripped;
}

}  // namespace bih
