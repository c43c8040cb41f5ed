#ifndef TPCBIH_ENGINE_SYSTEM_B_H_
#define TPCBIH_ENGINE_SYSTEM_B_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/engine.h"
#include "engine/index_set.h"
#include "engine/scan_util.h"
#include "exec/parallel.h"
#include "storage/row_table.h"

namespace bih {

// Architecture B: row store with native bitemporal support and the most
// elaborate bookkeeping of the four systems (Section 5.2):
//  * The current table holds no temporal information at all; system-time
//    metadata (start timestamp, transaction id, statement type) lives in a
//    vertically partitioned side table and must be joined back — by an
//    actual sort/merge join with sorting on both sides — whenever a query
//    involves system time.
//  * The history table extends the user schema with the system interval
//    plus the extra metadata columns.
//  * Updates are first buffered in an undo log; a simulated background
//    process moves them to the history table in batches, which produces the
//    97th-percentile loading spikes of Fig. 16.
class SystemBEngine : public TemporalEngine {
 public:
  // Undo entries accumulated before the background writer kicks in. Sized
  // so that a few percent of update transactions hit the drain, matching
  // the paper's observation that ~5% of loading latencies spike by orders
  // of magnitude (Section 5.8).
  static constexpr size_t kUndoFlushThreshold = 32;

  std::string name() const override { return "SystemB"; }

  // Drains every table's undo log so that concurrent snapshot readers never
  // trigger the background-writer simulation from the scan path.
  void PrepareForReads() override;

 protected:
  void ScanTable(TableState* t, const ScanRequest& req, ExecStats* stats,
                 const RowCallback& cb) override;
  Status CreateIndexOn(TableState* t, const IndexSpec& spec) override;
  void DropIndexesOn(TableState* t) override;
  TableStats StatsOf(const TableState* t) const override;

 private:
  // Metadata record of one current row in the vertical partition.
  struct VersionMeta {
    RowId row_ref = kInvalidRowId;
    int64_t sys_from = 0;
    int64_t txn_id = 0;
    DmlKind stmt_type = DmlKind::kInsert;
  };

  struct Table : TableState {
    RowTable current;       // user columns only
    // Vertical partition. Kept in *update order*, not row order: every
    // update re-appends the row's metadata record, so reconstruction really
    // has to sort (Section 5.3.1 attributes B's overhead to this join).
    std::vector<VersionMeta> versions;
    std::unordered_map<RowId, size_t> version_slot;  // row -> versions index
    // Scan-schema columns followed by TXN_ID and STMT_TYPE.
    RowTable history;
    std::vector<Row> undo_log;  // closed versions awaiting the writer
    IndexSet current_indexes;   // indexed over scan-schema rows
    IndexSet history_indexes;

    explicit Table(const TableDef& d)
        : TableState(d),
          current(def.schema),
          history(scan_schema.Extend({{"TXN_ID", ColumnType::kInt},
                                      {"STMT_TYPE", ColumnType::kInt}})) {}
  };

  std::unique_ptr<TableState> NewTable(const TableDef& def) override {
    return std::make_unique<Table>(def);
  }

  Row StoredRowOf(const Table& t, RowId rid) const;

  // Version primitives: a version is its RowId in the current partition.
  Row ReadVersion(TableState* t, VersionRef v) override;
  // Queues the closed version, with its metadata, on the undo log.
  void CloseVersion(TableState* t, VersionRef v, Timestamp ts,
                    DmlKind kind) override;
  // Appends the user row and its metadata record.
  VersionRef OpenVersion(TableState* t, Row user_row, Timestamp ts,
                         DmlKind kind) override;
  // Restored closed versions carry zeroed metadata: a restored store has
  // no live transaction ids, and scans never emit them.
  void InstallClosedVersion(TableState* t, Row stored) override;
  // Advances the statement counter recorded as TXN_ID.
  void EndStatement(TableState* t) override;
  void FlushUndo(Table* t);

  void ScanCurrentWithReconstruction(Table* t, const ScanRequest& req,
                                     const TemporalCols& tc,
                                     const ParallelScanPlan& plan,
                                     ExecStats* stats, bool* stopped,
                                     const RowCallback& cb);

  int64_t next_txn_id_ = 1;
};

}  // namespace bih

#endif  // TPCBIH_ENGINE_SYSTEM_B_H_
