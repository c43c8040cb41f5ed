#ifndef TPCBIH_ENGINE_ENGINE_H_
#define TPCBIH_ENGINE_ENGINE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/schema.h"
#include "common/chrono.h"
#include "common/query_context.h"
#include "common/thread_annotations.h"
#include "common/value.h"
#include "durability/wal.h"
#include "exec/exec_options.h"
#include "storage/hash_index.h"
#include "temporal/clock.h"
#include "temporal/sequenced.h"
#include "temporal/temporal.h"

namespace bih {

class ScanScheduler;  // src/exec/parallel.h

// Index structure choices offered by the tuning experiments (Section 5.1).
enum class IndexType { kBTree, kRTree, kHash };

// Which physical partition of a table an index is built on. Engines without
// a current/history split treat kCurrent/kHistory as the single table.
enum class PartitionSel { kCurrent, kHistory };

// A tuning index request. `columns` are positions in the table's *scan
// schema* (user columns followed by the two system-time columns, see
// TemporalEngine::ScanSchema). For kRTree the columns must name one or two
// (begin, end) period column pairs.
struct IndexSpec {
  std::string table;
  PartitionSel partition = PartitionSel::kCurrent;
  std::vector<int> columns;
  IndexType type = IndexType::kBTree;
  std::string name;
};

// Execution counters for the last Scan; the tests assert plan shape (which
// partitions were touched, whether an index was chosen) and the benches
// report them next to timings.
struct ExecStats {
  uint64_t rows_examined = 0;
  uint64_t rows_output = 0;
  int partitions_touched = 0;
  // True when any scanned partition was served by an index; index_name then
  // lists the chosen index of each served partition in scan order,
  // comma-separated. Engines that never consult indexes (System C ignores
  // them, Section 5.3.2) leave both at their defaults.
  bool used_index = false;
  std::string index_name;
  bool touched_history = false;
};

// One table access issued by a benchmark query.
struct ScanRequest {
  std::string table;
  TemporalScanSpec temporal;
  // Equality constraints on scan-schema columns (typically the primary key).
  std::vector<std::pair<int, Value>> equals;
  // Optional range constraint lo <= col <= hi; a null Value leaves the side
  // unbounded. Used by the value-in-time queries (K6).
  int range_col = -1;
  Value range_lo;
  Value range_hi;
  // Columns the consumer will read; empty means all. Column-store engines
  // only guarantee the projected columns are populated in emitted rows.
  std::vector<int> projection;
  // Cooperative deadline/cancellation token (borrowed, may be null). The
  // scan loops consult it per row and stop early once it trips; the token
  // then carries kDeadlineExceeded or kCancelled. Engine state is never
  // touched by an interrupted read.
  QueryContext* ctx = nullptr;
  // When set, the scan's counters are written here instead of the engine's
  // last_stats() slot. Publication to the shared slot is serialized (no
  // data race), but concurrent scans overwrite each other's counters
  // last-writer-wins — a caller that needs the counters of *its own* scan
  // (the morsel scheduler, join probes, the server layer) sets this.
  ExecStats* stats = nullptr;
  // Consolidated intra-query parallelism knobs (threads, morsel size, worker
  // pool). Unset fields resolve through the session's ExecOptions and then
  // the process defaults; see exec/exec_options.h. Index access paths are
  // always serial. Results and counters are byte-identical to the serial
  // scan at any setting.
  ExecOptions exec;
};

// Per-table size information (Section 5.2 architecture analysis).
struct TableStats {
  size_t current_rows = 0;
  size_t history_rows = 0;
  size_t pending_undo = 0;  // System B only
};

using RowCallback = std::function<bool(const Row&)>;

// Abstract bitemporal storage engine. The four implementations reproduce
// the four anonymized systems of the paper (see DESIGN.md for the mapping).
//
// Scan output layout ("scan schema"): the user columns of the table
// definition in order, then SYS_TIME_START and SYS_TIME_END (timestamps).
// Application-time periods are ordinary user columns per the TableDef.
//
// The table catalog (name -> per-table state, each with its definition,
// scan schema and primary-key index of current versions) lives here too:
// the four architectures differ in how they store versions, not in how a
// table is named, found or keyed.
//
// DDL and DML are template methods: the public non-virtual entry points
// allocate the commit timestamp, run the statement, and mirror every
// successful mutation to the attached write-ahead log — so all four
// architectures gain durability without engine-specific code. The
// bitemporal meaning of a DML statement (which versions it closes and which
// it opens) is likewise written once here; an engine supplies only the
// physical version primitives of its storage layout (see "Version
// primitives" below).
class TemporalEngine {
 public:
  virtual ~TemporalEngine() = default;

  virtual std::string name() const = 0;

  // True when the engine natively supports application-time periods.
  // Engines without native support (Systems C and D) still store the period
  // columns as plain data; sequenced DML is then emulated client-side by
  // the engine wrapper, mirroring how the paper ports the workload.
  virtual bool native_app_time() const { return true; }

  // --- DDL -----------------------------------------------------------
  Status CreateTable(const TableDef& def);
  // Both return NotFound for an unknown table.
  Status CreateIndex(const IndexSpec& spec);
  Status DropIndexes(const std::string& table);

  // The table must exist (checked).
  const TableDef& GetTableDef(const std::string& table) const;
  const Schema& ScanSchema(const std::string& table) const;
  bool HasTable(const std::string& table) const {
    return tables_.count(table) > 0;
  }

  // --- Transactions ----------------------------------------------------
  // DML statements outside Begin/Commit auto-commit individually. Batched
  // statements share one commit timestamp (the Fig. 13 batch-size knob).
  // With a WAL attached, a batch is durable only once Commit has flushed
  // its records plus a commit marker; auto-commit statements flush
  // individually.
  void Begin();
  Status Commit();

  // --- DML -------------------------------------------------------------
  Status Insert(const std::string& table, Row row);

  // Bulk load with explicit system-time periods appended to each row
  // (arity = user columns + 2). Only engines without engine-managed system
  // time accept this (System D); others return Unimplemented, which is the
  // paper's reason history loading must replay individual transactions.
  Status BulkLoad(const std::string& table, std::vector<Row> rows);

  // Updates every currently visible version of `key` (non-temporal update:
  // only the system time moves).
  Status UpdateCurrent(const std::string& table, const std::vector<Value>& key,
                       const std::vector<ColumnAssignment>& set);

  // SEQUENCED VALIDTIME UPDATE over `period` of application time dimension
  // `period_index`.
  Status UpdateSequenced(const std::string& table,
                         const std::vector<Value>& key, int period_index,
                         const Period& period,
                         const std::vector<ColumnAssignment>& set);

  // Overwrite semantics (Table 2 "Overwrite App.Time"): replaces the
  // overlapped range with a single new version spanning exactly `period`.
  Status UpdateOverwrite(const std::string& table,
                         const std::vector<Value>& key, int period_index,
                         const Period& period,
                         const std::vector<ColumnAssignment>& set);

  // Deletes every currently visible version of `key`.
  Status DeleteCurrent(const std::string& table,
                       const std::vector<Value>& key);

  Status DeleteSequenced(const std::string& table,
                         const std::vector<Value>& key, int period_index,
                         const Period& period);

  // --- Durability ------------------------------------------------------
  // Opens (creating/truncating) a write-ahead log at `path`; from here on
  // every committed mutation — DDL included — is mirrored to it. `fault`
  // (optional, borrowed) injects deterministic write failures for crash
  // testing. When a log write fails, the mutating call returns kIoError:
  // the in-memory state is then ahead of the durable state, exactly as in
  // a crashed process, and recovery from the log yields the state at the
  // last durable commit.
  Status EnableWal(const std::string& path, FaultInjector* fault = nullptr);
  Status AttachWal(std::unique_ptr<WalWriter> wal);
  WalWriter* wal() const { return wal_.get(); }
  // Shared ownership handle for the group-commit coordinator: durability
  // waiters hold this so a session-level writer swap (the revive path) can
  // never close the FILE* from under an in-flight group sync.
  std::shared_ptr<WalWriter> SharedWal() const { return wal_; }

  // Applies one logged mutation at its original commit timestamp, keeping
  // the engine clock ahead of it; crash recovery only (engine/recovery.h).
  // Never mirrored to an attached WAL.
  Status ApplyWalRecord(const WalRecord& rec);

  // --- Checkpointing ---------------------------------------------------
  // Table names in deterministic (sorted) order; the checkpointer walks
  // these to snapshot the whole engine.
  std::vector<std::string> ListTables() const;

  // --- Query -----------------------------------------------------------
  // Resets the request's counters (req.stats, or a local set published to
  // last_stats() afterwards) and runs the engine's ScanTable on the
  // request's table, which must exist (checked).
  void Scan(const ScanRequest& req, const RowCallback& cb);

  // Counters of the most recently completed Scan that did not redirect them
  // via ScanRequest::stats. Publication is serialized, so concurrent readers
  // are race-free, but which scan "wins" the slot is last-writer-wins —
  // callers that need their own scan's counters pass ScanRequest::stats.
  ExecStats last_stats() const {
    MutexLock lock(stats_mu_);
    return stats_;
  }
  // The table must exist (checked).
  TableStats GetTableStats(const std::string& table) const;

  // Engine-maintenance hook: System C's delta->main merge; no-op elsewhere.
  virtual void Maintain() {}

  // Publishes any lazily-deferred state so that subsequent Scans are pure
  // reads. The session layer (src/server/) calls this while it still holds
  // the exclusive writer lock after each mutation; concurrent snapshot
  // readers may then share the engine without mutating it. System B drains
  // its undo log here (its history scans otherwise flush on demand);
  // elsewhere a no-op.
  virtual void PrepareForReads() {}

  Timestamp Now() const { return clock_.Now(); }

 protected:
  // Base of each engine's per-table state.
  struct TableState {
    // The scan schema is the user schema plus the two system-time columns;
    // the engine names them (System C calls them VALID_FROM/VALID_TO).
    explicit TableState(TableDef d, const char* sys_from = "SYS_TIME_START",
                        const char* sys_to = "SYS_TIME_END")
        : def(std::move(d)),
          scan_schema(def.schema.Extend({{sys_from, ColumnType::kTimestamp},
                                         {sys_to, ColumnType::kTimestamp}})) {}
    virtual ~TableState() = default;
    TableState(const TableState&) = delete;
    TableState& operator=(const TableState&) = delete;
    TableDef def;
    Schema scan_schema;
    // Primary key -> the VersionRefs of the key's current versions, in the
    // order they were opened. The base updates it around every OpenVersion
    // and CloseVersion; System C's merge re-points entries in place and
    // System D's bulk load adds its open rows. Systems A and B also serve
    // key-equality scans of the current partition from it.
    HashIndex pk_current;
  };

  // A new, empty table of this engine's layout for `def`.
  virtual std::unique_ptr<TableState> NewTable(const TableDef& def) = 0;
  // The table's state, or null when there is no such table.
  TableState* Find(const std::string& table);
  const TableState* Find(const std::string& table) const;
  void ForEachTable(const std::function<void(TableState*)>& fn);

  // One access to table `t`; counters go to `stats`, already reset by Scan.
  virtual void ScanTable(TableState* t, const ScanRequest& req,
                         ExecStats* stats, const RowCallback& cb) = 0;
  // The per-table work of BulkLoad, CreateIndex, DropIndexes and
  // GetTableStats, on the table the base has resolved. DoBulkLoad must not
  // allocate a commit timestamp: the rows carry their own system time.
  virtual Status DoBulkLoad(TableState* t, std::vector<Row> rows);
  virtual Status CreateIndexOn(TableState* t, const IndexSpec& spec) = 0;
  virtual void DropIndexesOn(TableState* t) = 0;
  virtual TableStats StatsOf(const TableState* t) const = 0;

  // --- Version primitives ----------------------------------------------
  // What one engine's storage layout contributes to DML. The statement
  // logic calls them in a fixed order, which fixes the physical slot order
  // of the versions they write: an UpdateCurrent closes and then opens each
  // version in turn; a sequenced statement issues all closes, then all
  // opens.

  // Opaque reference to one current version, valid until the statement
  // that looked it up ends. Row stores use the RowId; System C packs its
  // (fragment, rid) location.
  using VersionRef = uint64_t;
  // Kind of the statement a close or open belongs to; the values double as
  // System B's STMT_TYPE metadata.
  enum class DmlKind : int64_t { kInsert = 0, kUpdate = 1, kDelete = 2 };

  // The user columns of version `v`.
  virtual Row ReadVersion(TableState* t, VersionRef v) = 0;
  // Ends version `v`'s system time at `ts`. A version that `ts` itself
  // opened (same-transaction churn) was never visible: the engine drops it
  // instead of versioning it.
  virtual void CloseVersion(TableState* t, VersionRef v, Timestamp ts,
                            DmlKind kind) = 0;
  // Stores `user_row` as a current version whose system time starts at
  // `ts` and returns its reference.
  virtual VersionRef OpenVersion(TableState* t, Row user_row, Timestamp ts,
                                 DmlKind kind) = 0;
  // Runs once after each successful DML statement and after each open
  // version a checkpoint restore installs.
  virtual void EndStatement(TableState* /*t*/) {}
  // Checkpoint restore of a closed version (scan-schema layout): placed
  // directly into the engine's history, bypassing DML semantics. Open
  // versions are restored through OpenVersion.
  virtual void InstallClosedVersion(TableState* t, Row stored) = 0;

  // Commit timestamp for the mutation being executed, as allocated by the
  // dispatching wrapper: a fresh tick in auto-commit mode, the transaction
  // stamp inside Begin/Commit, the logged stamp during recovery.
  Timestamp MutationTime() const { return mutation_time_; }

  // The engine is externally synchronized: every mutation (and so every
  // touch of the transaction state below) runs under the session layer's
  // exclusive rw_mu_. stats_mu_ exists only for the last_stats() slot,
  // which concurrent readers hit; it guards nothing else in this class.
  CommitClock clock_;    // bih-lint: allow(guard-coverage)
  bool in_txn_ = false;  // bih-lint: allow(guard-coverage)
  Timestamp txn_time_;   // bih-lint: allow(guard-coverage)

 private:
  mutable Mutex stats_mu_;
  mutable ExecStats stats_ GUARDED_BY(stats_mu_);

  // Adds a new table named def.name; AlreadyExists when there is one.
  Status AddTable(const TableDef& def);
  // OpenVersion/CloseVersion plus the key-index upkeep. `key` is the
  // primary key the closed version is indexed under.
  void Open(TableState* t, Row user_row, Timestamp ts, DmlKind kind);
  void Close(TableState* t, const IndexKey& key, VersionRef v, Timestamp ts,
             DmlKind kind);
  // Installs one stored version of a checkpoint (scan-schema layout).
  Status InstallVersion(TableState* t, const Row& stored);

  // Allocates the stamp MutationTime() hands to the statement logic.
  void AllocateMutationTime() {
    mutation_time_ = in_txn_ ? txn_time_ : clock_.NextCommit();
  }
  // Statement logic at MutationTime(), shared by the public entry points
  // and WAL replay. The key-addressed statements are named by their log
  // record kind: the WAL logs statements, not physical version changes.
  Status ApplyInsert(const std::string& table, Row row);
  Status ApplyKeyed(WalRecord::Kind kind, const std::string& table,
                    const std::vector<Value>& key, int period_index,
                    const Period& period,
                    const std::vector<ColumnAssignment>& set);
  // Allocates the stamp, runs ApplyKeyed and logs the statement.
  Status LoggedKeyed(WalRecord::Kind kind, const std::string& table,
                     const std::vector<Value>& key, int period_index,
                     const Period& period,
                     const std::vector<ColumnAssignment>& set);
  // Mirrors a successful mutation to the WAL: buffered inside a
  // transaction, appended + flushed immediately in auto-commit mode.
  Status LogMutation(WalRecord rec);

  Timestamp mutation_time_;  // bih-lint: allow(guard-coverage) write path only
  // Written by DDL only, which runs like every mutation under the session
  // layer's exclusive lock; scans only look tables up.
  std::map<std::string, std::unique_ptr<TableState>> tables_;  // bih-lint: allow(guard-coverage) write path only
  // Shared with the group-commit coordinator (see SharedWal()); the engine
  // is still the writer's home — AttachWal replaces it wholesale.
  std::shared_ptr<WalWriter> wal_;
  std::vector<WalRecord> txn_wal_;  // bih-lint: allow(guard-coverage) write path only
};

// Factory: engines named "A".."D" (architecture letter as in the paper).
std::unique_ptr<TemporalEngine> MakeEngine(const std::string& letter);

// All four architecture letters, in paper order.
const std::vector<std::string>& AllEngineLetters();

}  // namespace bih

#endif  // TPCBIH_ENGINE_ENGINE_H_
