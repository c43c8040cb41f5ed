// Concurrency: throughput of the session layer under parallel readers, a
// mixed read/write stream, and deliberate overload. Not a paper figure —
// the EDBT 2014 study is single-stream — but the natural follow-up
// question: what do the four architectures cost once a server puts real
// concurrency in front of them?
//
//   reads:    point lookups + occasional audit scans, 1..8 threads
//   mixed:    as above with one write per 32 operations per thread
//   overload: 8 threads against 2 admission slots and 2ms deadlines; the
//             counts report how much load the server sheds to keep the
//             latency of admitted queries flat.
//
// Each lane is a closed loop of kOpsPerThread operations per thread; a row
// reports the median wall time of three runs, the throughput it implies,
// and how the last run's operations ended (ok + shed + deadline = ops).
#include <atomic>
#include <functional>

#include "bench_common.h"
#include "server/session.h"

namespace bih {
namespace bench {
namespace {

constexpr int kOpsPerThread = 1000;

uint64_t NextHash(uint64_t* h) {
  *h = *h * 6364136223846793005ULL + 1442695040888963407ULL;
  return *h >> 16;
}

ScanRequest PointLookup(int64_t custkey) {
  ScanRequest req;
  req.table = "CUSTOMER";
  req.equals = {{0, Value(custkey)}};
  return req;
}

ScanRequest AuditScan() {
  ScanRequest req;
  req.table = "CUSTOMER";
  req.temporal.system_time = TemporalSelector::All();
  req.temporal.app_time = TemporalSelector::All();
  return req;
}

// Runs `op` (given a per-thread pseudo-random draw) kOpsPerThread times on
// each of `threads` threads and prints the lane's row.
void Lane(const std::string& label, int threads,
          const std::function<Status(uint64_t)>& op) {
  std::atomic<uint64_t> ok{0}, shed{0}, late{0};
  const double ms = TimeMs([&] {
    ok = shed = late = 0;
    RunThreads(threads, [&](int t) {
      uint64_t h = 0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(t) + 1);
      uint64_t n_ok = 0, n_shed = 0, n_late = 0;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const Status st = op(NextHash(&h));
        if (st.ok()) {
          ++n_ok;
        } else if (st.code() == Status::Code::kResourceExhausted) {
          ++n_shed;
        } else {
          ++n_late;
        }
      }
      ok += n_ok;
      shed += n_shed;
      late += n_late;
    });
  });
  const double ops = static_cast<double>(threads) * kOpsPerThread;
  PrintRow(label,
           {{"wall_ms", ms},
            {"ops_per_s", ms > 0.0 ? ops * 1000.0 / ms : 0.0},
            {"ok", static_cast<double>(ok)},
            {"shed", static_cast<double>(shed)},
            {"deadline", static_cast<double>(late)}},
           "");
}

void Run() {
  SharedWorkload& w = SharedWorkload::Get();
  const uint64_t n_cust = w.ctx().initial.customer.size();
  auto key_of = [n_cust](uint64_t r) {
    return 1 + static_cast<int64_t>(r % n_cust);
  };
  PrintHeader("Concurrency: session-layer throughput");
  for (const std::string& letter : AllEngineLetters()) {
    TemporalEngine& engine = w.Engine(letter);
    const std::string suffix = "/System" + letter + "/real_time/threads:";
    SessionManager server(&engine);
    for (int threads : {1, 2, 4, 8}) {
      Lane("Concurrency/reads" + suffix + std::to_string(threads), threads,
           [&](uint64_t r) {
             std::vector<Row> out;
             return server.Read(r % 64 == 0 ? AuditScan()
                                            : PointLookup(key_of(r)),
                                nullptr, &out);
           });
    }
    Lane("Concurrency/mixed" + suffix + "4", 4, [&](uint64_t r) {
      if (r % 32 == 0) {
        return server.UpdateCurrent("CUSTOMER", {Value(key_of(r))},
                                    {{5, Value(double(r % 10000))}});
      }
      std::vector<Row> out;
      return server.Read(PointLookup(key_of(r)), nullptr, &out);
    });

    // A separate session over the same engine with tight admission: 8
    // threads into 2 slots. Shed + deadline + ok accounts for every query.
    SessionConfig tight;
    tight.admission.max_inflight = 2;
    tight.admission.max_queued = 2;
    SessionManager tight_server(&engine, tight);
    Lane("Concurrency/overload" + suffix + "8", 8, [&](uint64_t r) {
      QueryContext ctx(QueryContext::Clock::now() +
                       std::chrono::milliseconds(2));
      std::vector<Row> out;
      return tight_server.Read(r % 8 == 0 ? AuditScan()
                                          : PointLookup(key_of(r)),
                               &ctx, &out);
    });
  }
}

}  // namespace
}  // namespace bench
}  // namespace bih

int main() {
  bih::bench::Run();
  return 0;
}
