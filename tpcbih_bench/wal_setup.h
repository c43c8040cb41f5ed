// System A with a WAL, and the keyed update stream, shared by
// durable_updates, served_mixed and the layer probes.
#ifndef TPCBIH_BENCH_WAL_SETUP_H_
#define TPCBIH_BENCH_WAL_SETUP_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "dataset.h"
#include "durability/group_commit.h"
#include "harness.h"

namespace bih {
class SessionManager;
}

namespace bench {

struct WalSetup {
  Dataset data;
  LoadedEngine a;
  std::string wal_path;
  double seconds = 0.0;  // generate + load + WAL attach + checkpoint
  bih::Status status;
};

// Seed -> data -> System A -> WAL in a freshly emptied `dir`, with a
// checkpoint of the loaded state so the log alone recovers the engine.
WalSetup SetupWalEngine(const std::string& dir, double scale, uint64_t seed);

// SetupWalEngine kSetupRepeats times (the median is setup_s), tracing only
// the last of a traced run; records the first set-up's bih and storage
// layers and the flush policy (WAL file system, fdatasync, group commit) in
// the fingerprint. The last copy serves the measurement.
WalSetup RepeatWalSetup(const Args& args, const std::string& dir, double scale,
                        Result* r, std::vector<double>* setup_s,
                        double* traced_setup_s);

struct WalCounters {
  uint64_t syncs = 0;
  uint64_t bytes = 0;
};
WalCounters ReadWalCounters(bih::SessionManager& session);

// durability.* per-layer metrics over `acked` writes between two counter
// readings, with the group-commit stats of the same interval.
void DurabilityLayers(const WalCounters& before, const WalCounters& after,
                      uint64_t acked, const bih::GroupCommit::Stats& g,
                      Result* r);

// One acknowledged single-key update of the stream.
struct UpdateOp {
  int kind = 0;  // index into UpdateKindNames()
  int64_t k1 = 0, k2 = 0;
  double value = 0.0;
  int64_t begin_day = 0;  // delay availability: start of the new price
};
const std::vector<std::string>& UpdateKindNames();

// The same update applied directly to an engine.
bih::Status ApplyUpdate(bih::TemporalEngine& e, const UpdateOp& op);

struct UpdateStreamOut {
  std::vector<std::vector<double>> by_kind;  // latency per kind, us
  std::vector<double> all_us;
  std::vector<Sample> samples;  // every acknowledged write, time-stamped
  double seconds = 0.0;
  uint64_t attempted = 0;
  std::vector<std::string> errors;
};

// `threads` closed-loop writers on disjoint key stripes for `seconds`:
// Receive Payment (UpdateCurrent on CUSTOMER), Update Stock (UpdateCurrent
// on PARTSUPP) and Delay Availability (UpdateSequenced on PART via
// WriteKeyed), in Table 1's relative frequencies. Returns the acknowledged
// updates, each thread's in issue order.
std::vector<UpdateOp> RunUpdateWriters(bih::SessionManager& session,
                                       const Dataset& data, uint64_t seed,
                                       double seconds, int threads,
                                       UpdateStreamOut* out);

}  // namespace bench

#endif  // TPCBIH_BENCH_WAL_SETUP_H_
