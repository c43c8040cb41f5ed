#ifndef TPCBIH_ENGINE_SYSTEM_C_H_
#define TPCBIH_ENGINE_SYSTEM_C_H_

#include <string>
#include <unordered_map>
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

  Status DoCreateTable(const TableDef& def) override;
  Status CreateIndex(const IndexSpec& spec) override;
  Status DropIndexes(const std::string& table) override;
  const TableDef& GetTableDef(const std::string& table) const override;
  Schema ScanSchema(const std::string& table) const override;
  bool HasTable(const std::string& table) const override {
    return tables_.count(table) > 0;
  }

  std::vector<std::string> ListTables() const override;
  Status DoInstallVersion(const std::string& table, const Row& stored) override;

  TableStats GetTableStats(const std::string& table) const override;

  // Delta->main merge for every table (history relocation included).
  void Maintain() override;

 protected:
  void ScanTable(const ScanRequest& req, ExecStats* stats,
                 const RowCallback& cb) override;

 private:
  enum class Part : uint8_t { kDelta = 0, kMain = 1 };

  struct Loc {
    Part part;
    RowId rid;
  };
  // A VersionRef packs a Loc: rid in the high bits, part in bit 0.
  static VersionRef RefOf(const Loc& l) {
    return (l.rid << 1) | static_cast<VersionRef>(l.part);
  }
  static Loc LocOf(VersionRef v) {
    return Loc{static_cast<Part>(v & 1), v >> 1};
  }

  struct KeyHash {
    size_t operator()(const IndexKey& k) const {
      size_t h = 0x345678;
      for (const Value& v : k) h = h * 1000003ULL ^ v.Hash();
      return h;
    }
  };
  struct KeyEq {
    bool operator()(const IndexKey& a, const IndexKey& b) const {
      return CompareKeys(a, b) == 0;
    }
  };

  struct Table : TableState {
    Schema stored_schema;  // user columns + VALID_FROM + VALID_TO
    ColumnTable delta;
    ColumnTable main;
    ColumnTable history;
    // Inverted index on the key columns, like the column store's dictionary
    // based key access; maps a key to its visible versions.
    std::unordered_map<IndexKey, std::vector<Loc>, KeyHash, KeyEq> current_by_key;
    std::vector<std::string> ignored_indexes;  // accepted but unused

    Table(TableDef d, Schema stored)
        : TableState(std::move(d)),
          delta(stored),
          main(stored),
          history(stored) {
      stored_schema = stored;
    }
  };

  Table* Find(const std::string& name) override;
  const Table* Find(const std::string& name) const;

  ColumnTable* PartOf(Table* t, Part p) {
    return p == Part::kDelta ? &t->delta : &t->main;
  }

  void MergeTable(Table* t);

  // Version primitives: a version is its packed Loc in delta or main.
  void CurrentVersions(TableState* t, const std::vector<Value>& key,
                       std::vector<VersionRef>* out) override;
  Row ReadVersion(TableState* t, VersionRef v) override;
  // Sets VALID_TO in place; relocation to history waits for the merge.
  void CloseVersion(TableState* t, VersionRef v, Timestamp ts,
                    DmlKind kind) override;
  // Appends to the write-optimized delta.
  void OpenVersion(TableState* t, Row user_row, Timestamp ts,
                   DmlKind kind) override;
  // Merges once the delta reaches kMergeThreshold.
  void EndStatement(TableState* t) override;

  void ScanPartition(const Table& t, const ColumnTable& part, bool is_history,
                     const ScanRequest& req, const TemporalCols& tc,
                     const ParallelScanPlan& plan, ExecStats* stats,
                     bool* stopped, const RowCallback& cb);

  std::unordered_map<std::string, Table> tables_;
};

}  // namespace bih

#endif  // TPCBIH_ENGINE_SYSTEM_C_H_
