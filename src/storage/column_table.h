#ifndef TPCBIH_STORAGE_COLUMN_TABLE_H_
#define TPCBIH_STORAGE_COLUMN_TABLE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "catalog/schema.h"
#include "common/value.h"
#include "storage/row_table.h"

namespace bih {

// Columnar storage segment: one typed vector per column plus a per-row
// tombstone vector. Models the main/delta fragments of an in-memory column
// store (System C). Strings are dictionary-encoded per column, the classic
// column-store representation, which keeps scans cache-friendly.
class ColumnTable {
 public:
  explicit ColumnTable(Schema schema);

  const Schema& schema() const { return schema_; }

  RowId Append(const Row& row);

  size_t LiveCount() const { return live_count_; }
  size_t SlotCount() const { return size_; }

  bool IsLive(RowId id) const { return id < size_ && !deleted_[id]; }

  Value Get(RowId id, int col) const;
  Row GetRow(RowId id) const;

  // In-place single-cell update (System C uses this only for the hidden
  // system-time columns when invalidating a version).
  void Set(RowId id, int col, const Value& v);

  void Delete(RowId id);

  // Full-row scan over live rows; fn returning false stops the scan.
  void Scan(const std::function<bool(RowId, const Row&)>& fn) const;

  void Clear();

 private:
  struct StringColumn {
    std::vector<std::string> dict;
    std::vector<uint32_t> codes;
    std::unordered_map<std::string, uint32_t> lookup;
    // Dictionary interning is append-only; distinct values per column are
    // few relative to row count in the benchmark data.
    uint32_t Intern(const std::string& s);
  };
  using ColumnData = std::variant<std::vector<int64_t>, std::vector<double>,
                                  StringColumn>;

  Schema schema_;
  std::vector<ColumnData> columns_;
  std::vector<uint8_t> nulls_;  // size_ * num_columns bitmap, byte per cell
  std::vector<uint8_t> deleted_;
  size_t size_ = 0;
  size_t live_count_ = 0;
};

}  // namespace bih

#endif  // TPCBIH_STORAGE_COLUMN_TABLE_H_
