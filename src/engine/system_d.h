#ifndef TPCBIH_ENGINE_SYSTEM_D_H_
#define TPCBIH_ENGINE_SYSTEM_D_H_

#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/index_set.h"
#include "engine/scan_util.h"
#include "exec/parallel.h"
#include "storage/row_table.h"

namespace bih {

// Architecture D: disk-style row store *without* native temporal support
// (Section 2.5). The application models both time dimensions as ordinary
// columns in one non-partitioned table:
//  * no current/history split — every query sees all versions and filters;
//  * system time is maintained by the application layer (this wrapper), so
//    explicit timestamps are allowed and histories can be bulk loaded,
//    which is why loading is far cheaper than on the native engines;
//  * both B-tree and GiST (R-tree) tuning indexes are available.
class SystemDEngine : public TemporalEngine {
 public:
  std::string name() const override { return "SystemD"; }
  bool native_app_time() const override { return false; }

 protected:
  void ScanTable(TableState* t, const ScanRequest& req, ExecStats* stats,
                 const RowCallback& cb) override;
  Status DoBulkLoad(TableState* t, std::vector<Row> rows) override;
  Status CreateIndexOn(TableState* t, const IndexSpec& spec) override;
  void DropIndexesOn(TableState* t) override;
  TableStats StatsOf(const TableState* t) const override;

 private:
  // One table of scan-schema rows. The base's pk_current plays the
  // application-side bookkeeping of the visible versions per key that the
  // paper says non-temporal deployments must implement themselves; query
  // planning never consults it.
  struct Table : TableState {
    RowTable data;
    IndexSet indexes;

    explicit Table(const TableDef& d) : TableState(d), data(scan_schema) {}
  };

  std::unique_ptr<TableState> NewTable(const TableDef& def) override {
    return std::make_unique<Table>(def);
  }

  // Version primitives: a version is its RowId; closing it sets
  // SYS_TIME_END in place.
  Row ReadVersion(TableState* t, VersionRef v) override;
  void CloseVersion(TableState* t, VersionRef v, Timestamp ts,
                    DmlKind kind) override;
  VersionRef OpenVersion(TableState* t, Row user_row, Timestamp ts,
                         DmlKind kind) override;
  // The single-table layout stores scan-schema rows verbatim.
  void InstallClosedVersion(TableState* t, Row stored) override;
};

}  // namespace bih

#endif  // TPCBIH_ENGINE_SYSTEM_D_H_
