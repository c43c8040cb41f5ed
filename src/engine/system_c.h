#ifndef TPCBIH_ENGINE_SYSTEM_C_H_
#define TPCBIH_ENGINE_SYSTEM_C_H_

#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/index_set.h"
#include "engine/scan_util.h"
#include "exec/parallel.h"
#include "storage/column_table.h"

namespace bih {

// Architecture C: in-memory column store with native system time only
// (Section 2.6).
//  * Every table is columnar with two hidden columns VALID_FROM/VALID_TO
//    tracking the system time of a version; visible rows have an open
//    VALID_TO.
//  * Storage is split into a write-optimized delta, a read-optimized main,
//    and a history partition. The merge operation moves delta rows into
//    main and relocates invalidated versions into the history partition.
//  * Execution is scan-based: tuning indexes are accepted but never used,
//    matching the measurement that B-trees bring System C no benefit.
//  * Application time has no native support; the period columns are plain
//    data and the engine wrapper emulates sequenced semantics client-side,
//    like the paper's "simulated application time".
class SystemCEngine : public TemporalEngine {
 public:
  // Delta size that triggers an automatic merge.
  static constexpr size_t kMergeThreshold = 1 << 16;

  std::string name() const override { return "SystemC"; }
  bool native_app_time() const override { return false; }

  // Delta->main merge for every table (history relocation included).
  void Maintain() override;

 protected:
  void ScanTable(TableState* t, const ScanRequest& req, ExecStats* stats,
                 const RowCallback& cb) override;
  Status CreateIndexOn(TableState* t, const IndexSpec& spec) override;
  void DropIndexesOn(TableState* t) override;
  TableStats StatsOf(const TableState* t) const override;

 private:
  enum class Part : uint8_t { kDelta = 0, kMain = 1 };

  struct Loc {
    Part part;
    RowId rid;
  };
  // A VersionRef packs a Loc: rid in the high bits, part in bit 0. The
  // base's pk_current holds these packed refs, so it plays the column
  // store's dictionary-based key access; the merge re-points them.
  static VersionRef RefOf(const Loc& l) {
    return (l.rid << 1) | static_cast<VersionRef>(l.part);
  }
  static Loc LocOf(VersionRef v) {
    return Loc{static_cast<Part>(v & 1), v >> 1};
  }

  // The hidden system-time columns VALID_FROM/VALID_TO sit at the scan
  // schema positions other engines expose SYS_TIME_START/SYS_TIME_END.
  struct Table : TableState {
    ColumnTable delta;
    ColumnTable main;
    ColumnTable history;
    std::vector<std::string> ignored_indexes;  // accepted but unused

    explicit Table(const TableDef& d)
        : TableState(d, "VALID_FROM", "VALID_TO"),
          delta(scan_schema),
          main(scan_schema),
          history(scan_schema) {}
  };

  std::unique_ptr<TableState> NewTable(const TableDef& def) override {
    return std::make_unique<Table>(def);
  }

  ColumnTable* PartOf(Table* t, Part p) {
    return p == Part::kDelta ? &t->delta : &t->main;
  }

  void MergeTable(Table* t);

  // Version primitives: a version is its packed Loc in delta or main.
  Row ReadVersion(TableState* t, VersionRef v) override;
  // Sets VALID_TO in place; relocation to history waits for the merge.
  void CloseVersion(TableState* t, VersionRef v, Timestamp ts,
                    DmlKind kind) override;
  // Appends to the write-optimized delta.
  VersionRef OpenVersion(TableState* t, Row user_row, Timestamp ts,
                         DmlKind kind) override;
  // Invalidated versions land in history directly, never passing delta.
  void InstallClosedVersion(TableState* t, Row stored) override;
  // Merges once the delta reaches kMergeThreshold.
  void EndStatement(TableState* t) override;

  void ScanPartition(const Table& t, const ColumnTable& part, bool is_history,
                     const ScanRequest& req, const TemporalCols& tc,
                     const ParallelScanPlan& plan, ExecStats* stats,
                     bool* stopped, const RowCallback& cb);
};

}  // namespace bih

#endif  // TPCBIH_ENGINE_SYSTEM_C_H_
