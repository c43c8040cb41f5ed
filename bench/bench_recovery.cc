// Beyond the paper's figures: the recovery bound that checkpointing buys.
//
// Cold-start recovery without a checkpoint replays the entire mutation
// history, so its cost grows linearly with the archive (exactly the
// "history is unbounded" pressure of Section 2). A checkpoint converts
// that into (snapshot load) + (tail replay since the checkpoint): the
// operator picks the cadence, the cadence picks the bound.
//
// This bench loads one shared workload archive into an engine with the WAL
// enabled, taking N evenly spaced checkpoints during the replay
// (N = 0, 1, 2, 4, 8), then measures a cold RecoverEngine() from the
// resulting on-disk state. Reported per cadence: load cost, cumulative
// checkpoint cost, recovery time, and what recovery actually did (tail
// records replayed, snapshot rows loaded, segments scanned).
//
// BIH_NO_FSYNC is set for the whole process: the bench churns throwaway
// logs and measures CPU/replay cost, not device sync latency (the recovery
// path itself never syncs — it only reads).
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include "bench_common.h"
#include "bih/generator.h"
#include "durability/checkpoint.h"
#include "durability/wal.h"
#include "engine/recovery.h"

namespace bih {
namespace bench {
namespace {

// Removes every on-disk trace of the log at `base` (segments + checkpoint)
// so a stale file from an earlier run cannot leak into this measurement.
void RemoveLogFamily(const std::string& base) {
  for (const WalSegment& seg : ListWalSegments(base)) {
    std::filesystem::remove(seg.path);
  }
  std::filesystem::remove(Checkpointer::CheckpointPath(base));
}

void Run() {
  // Recovery replay is engine-neutral, so one engine is representative.
  const std::string letter = "A";
  SharedWorkload& w = SharedWorkload::Get();
  const TpchData& initial = w.ctx().initial;
  const History& history = w.ctx().history;

  size_t total_ops = 0;
  for (const HistoryTransaction& txn : history) total_ops += txn.ops.size();
  PrintHeader("Recovery time vs checkpoint cadence (System " + letter +
              ", " + std::to_string(history.size()) + " scenarios, " +
              std::to_string(total_ops) + " ops)");
  std::printf("%-10s %12s %12s %12s %10s %10s %9s\n", "ckpts", "load_ms",
              "ckpt_ms", "recover_ms", "tail_recs", "snap_rows", "segments");

  const std::string dir =
      std::filesystem::temp_directory_path().generic_string();
  for (size_t ckpts : {size_t{0}, size_t{1}, size_t{2}, size_t{4},
                       size_t{8}}) {
    const std::string base =
        dir + "/bench_recovery_" + letter + "_" + std::to_string(ckpts) +
        ".wal";
    RemoveLogFamily(base);

    std::unique_ptr<TemporalEngine> engine = MakeEngine(letter);
    Status st = engine->EnableWal(base);
    if (!st.ok()) {
      std::fprintf(stderr, "EnableWal: %s\n", st.ToString().c_str());
      return;
    }
    Checkpointer cp(base);
    double ckpt_ms = 0.0;
    auto t0 = std::chrono::steady_clock::now();
    st = CreateBiHTables(*engine);
    if (st.ok()) st = LoadInitialData(*engine, initial);
    // Replay in ckpts+1 evenly sized slices with a checkpoint at each
    // internal boundary, modelling a server that checkpoints on a timer
    // while the load runs.
    const size_t slices = ckpts + 1;
    for (size_t s = 0; st.ok() && s < slices; ++s) {
      const size_t begin = history.size() * s / slices;
      const size_t end = history.size() * (s + 1) / slices;
      History slice(history.begin() + static_cast<ptrdiff_t>(begin),
                    history.begin() + static_cast<ptrdiff_t>(end));
      st = ReplayHistory(*engine, slice, /*batch_size=*/32);
      if (st.ok() && s + 1 < slices) {
        CheckpointInfo info;
        ckpt_ms += TimeMs([&] { st = cp.Write(engine.get(), &info); }, 1);
      }
    }
    if (!st.ok()) {
      std::fprintf(stderr, "load: %s\n", st.ToString().c_str());
      return;
    }
    engine->Maintain();
    auto t1 = std::chrono::steady_clock::now();
    const double load_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count() - ckpt_ms;
    engine.reset();  // close the log: cold recovery starts from disk only

    std::unique_ptr<TemporalEngine> recovered;
    RecoveryReport report;
    const double recover_ms = TimeMs(
        [&] {
          recovered.reset();
          Status rs = RecoverEngine(letter, base, &recovered, &report);
          if (!rs.ok()) {
            std::fprintf(stderr, "recover: %s\n", rs.ToString().c_str());
          }
        },
        3);
    std::printf("%-10zu %12.1f %12.1f %12.1f %10llu %10llu %9llu\n", ckpts,
                load_ms, ckpt_ms, recover_ms,
                static_cast<unsigned long long>(report.records_total),
                static_cast<unsigned long long>(report.checkpoint_rows),
                static_cast<unsigned long long>(report.segments_scanned));
    RemoveLogFamily(base);
  }
}

}  // namespace
}  // namespace bench
}  // namespace bih

int main() {
  // Throwaway logs: measure replay cost, not device sync latency.
  setenv("BIH_NO_FSYNC", "1", 1);
  bih::bench::Run();
  return 0;
}
