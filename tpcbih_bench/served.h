// The served read/write load shared by served_mixed and the layer probes
// of the other workloads' traced runs, and the statement mix sql_mixed
// sends in-process.
#ifndef TPCBIH_BENCH_SERVED_H_
#define TPCBIH_BENCH_SERVED_H_

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "exec/rows.h"
#include "harness.h"
#include "workloads.h"

namespace bih {
class SessionManager;
namespace net {
class Server;
}
}  // namespace bih

namespace bench {

struct ServedLoad {
  std::vector<std::vector<double>> by_kind;  // read latencies per kind, us
  std::vector<double> read_us;
  // Reads and writes stamped with their completion time.
  std::vector<Sample> read_samples, write_samples;
  std::vector<double> write_current_us, write_portion_us;
  double seconds = 0.0;
  uint64_t attempted = 0;
  std::vector<std::string> errors;
  // First reply of each statement on a key the writer never touched.
  std::vector<std::pair<std::string, bih::Rows>> checks;
  // Last acknowledged C_ACCTBAL per written key: any update, and current
  // (whole business time) updates only.
  std::map<int64_t, double> last_any, last_current;
};

std::vector<int64_t> CustomerKeys(const Dataset& data);

// The key-in-time SQL read statements: current lookup, FOR SYSTEM_TIME ALL
// history, FOR SYSTEM_TIME AS OF and FOR BUSINESS_TIME AS OF point reads,
// over uniformly chosen customer keys.
struct ReadStatement {
  int kind = 0;  // index into ReadKindNames()
  int64_t custkey = 0;
  std::string sql;
};
const std::vector<std::string>& ReadKindNames();
// `n` statements drawn from (`seed`, `stream`): half current lookups, a
// sixth of each other kind, over uniformly chosen keys.
std::vector<ReadStatement> MakeReads(const std::vector<int64_t>& keys,
                                     const TimeAnchors& at, uint64_t seed,
                                     int stream, size_t n);

// The writer's keys: a seed-chosen eighth of `keys`.
std::vector<int64_t> WriterKeys(const std::vector<int64_t>& keys,
                                uint64_t seed);

// SQL UPDATE of C_ACCTBAL: current (whole business time) or FOR PORTION OF
// BUSINESS_TIME over the writer's one-year window.
std::string UpdateStatement(int64_t custkey, bool portion, double value);

// Every written key must read back its last acknowledged value inside the
// writer's window (`last_any`) and after it (`last_current`); `query` runs
// one SQL read and returns false on an error.
void CheckReadBack(
    const std::map<int64_t, double>& last_any,
    const std::map<int64_t, double>& last_current,
    const std::function<bool(const std::string&, bih::Rows*)>& query,
    Result* r);

// Three closed-loop reader connections (and one writer when `with_writer`)
// against the server on `port` for `seconds`.
ServedLoad RunServedLoad(uint16_t port, const Dataset& data,
                         const TimeAnchors& at, uint64_t seed, double seconds,
                         bool with_writer);

// Counts the load's operations and failures into `r` and runs its checks:
// untouched-key replies equal in-process ExecuteSql, written keys read
// back their last acknowledged value.
void CheckServedLoad(bih::SessionManager& session, uint16_t port,
                     const ServedLoad& load, Result* r);

// Admission and tenant shed counters.
uint64_t ShedCount(bih::SessionManager& session, bih::net::Server& server);

// The same kind of read statements, uncontended: ExecuteSql on the engine,
// ReadTxn around it, and Client::Query on one idle connection.
struct UncontendedReads {
  std::vector<double> sql_us, txn_us, net_us;
};
UncontendedReads MeasureUncontended(bih::SessionManager& session,
                                    uint16_t port, const Dataset& data,
                                    const TimeAnchors& at, uint64_t seed,
                                    size_t n);

// sql.*, server.* and net.* per-layer metrics from a loaded and an
// uncontended measurement of the same statement mix.
void ServedLayers(const ServedLoad& loaded, const UncontendedReads& u,
                  uint64_t shed, Result* r);

}  // namespace bench

#endif  // TPCBIH_BENCH_SERVED_H_
