#ifndef TPCBIH_ENGINE_SYSTEM_A_H_
#define TPCBIH_ENGINE_SYSTEM_A_H_

#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/index_set.h"
#include "engine/scan_util.h"
#include "exec/parallel.h"
#include "storage/row_table.h"

namespace bih {

// Architecture A: disk-style row store with native bitemporal support.
//  * Horizontal partitioning: a current table and a history table with the
//    same schema (user columns + system-time interval).
//  * Updates move the outdated version to the history table instantly.
//  * A system-created key index exists on the current table only (the
//    base's pk_current, which queries use too); history tables carry no
//    indexes unless tuning adds them (Section 5.2).
class SystemAEngine : public TemporalEngine {
 public:
  std::string name() const override { return "SystemA"; }

 protected:
  void ScanTable(TableState* t, const ScanRequest& req, ExecStats* stats,
                 const RowCallback& cb) override;
  Status CreateIndexOn(TableState* t, const IndexSpec& spec) override;
  void DropIndexesOn(TableState* t) override;
  TableStats StatsOf(const TableState* t) const override;

 private:
  // Both partitions store scan-schema rows.
  struct Table : TableState {
    RowTable current;
    RowTable history;
    IndexSet current_indexes;
    IndexSet history_indexes;

    explicit Table(const TableDef& d)
        : TableState(d), current(scan_schema), history(scan_schema) {}
  };

  std::unique_ptr<TableState> NewTable(const TableDef& def) override {
    return std::make_unique<Table>(def);
  }

  // Version primitives: a version is its RowId in the current partition.
  Row ReadVersion(TableState* t, VersionRef v) override;
  // Appends the version to history with the system interval truncated and
  // removes it from the current partition.
  void CloseVersion(TableState* t, VersionRef v, Timestamp ts,
                    DmlKind kind) override;
  // Appends a current version with system interval [ts, forever).
  VersionRef OpenVersion(TableState* t, Row user_row, Timestamp ts,
                         DmlKind kind) override;
  void InstallClosedVersion(TableState* t, Row stored) override;

  void ScanPartition(const Table& t, bool is_history, const ScanRequest& req,
                     const TemporalCols& tc, const IndexSet& tuning,
                     const ParallelScanPlan& plan, ExecStats* stats,
                     bool* stopped, const RowCallback& cb);
};

}  // namespace bih

#endif  // TPCBIH_ENGINE_SYSTEM_A_H_
