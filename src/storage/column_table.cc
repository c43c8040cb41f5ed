#include "storage/column_table.h"

namespace bih {

uint32_t ColumnTable::StringColumn::Intern(const std::string& s) {
  auto it = lookup.find(s);
  if (it != lookup.end()) return it->second;
  uint32_t code = static_cast<uint32_t>(dict.size());
  dict.push_back(s);
  lookup.emplace(s, code);
  return code;
}

ColumnTable::ColumnTable(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(static_cast<size_t>(schema_.num_columns()));
  for (const Column& c : schema_.columns()) {
    switch (c.type) {
      case ColumnType::kInt:
      case ColumnType::kDate:
      case ColumnType::kTimestamp:
        columns_.emplace_back(std::vector<int64_t>{});
        break;
      case ColumnType::kDouble:
        columns_.emplace_back(std::vector<double>{});
        break;
      case ColumnType::kString:
        columns_.emplace_back(StringColumn{});
        break;
    }
  }
}

RowId ColumnTable::Append(const Row& row) {
  BIH_CHECK_MSG(static_cast<int>(row.size()) == schema_.num_columns(),
                "row arity mismatch for " + schema_.ToString());
  for (int c = 0; c < schema_.num_columns(); ++c) {
    const Value& v = row[static_cast<size_t>(c)];
    nulls_.push_back(v.is_null() ? 1 : 0);
    ColumnData& col = columns_[static_cast<size_t>(c)];
    if (auto* iv = std::get_if<std::vector<int64_t>>(&col)) {
      iv->push_back(v.is_null() ? 0 : v.AsInt());
    } else if (auto* dv = std::get_if<std::vector<double>>(&col)) {
      dv->push_back(v.is_null() ? 0.0 : v.AsDouble());
    } else {
      auto& sc = std::get<StringColumn>(col);
      sc.codes.push_back(v.is_null() ? 0 : sc.Intern(v.AsString()));
    }
  }
  deleted_.push_back(0);
  ++size_;
  ++live_count_;
  return size_ - 1;
}

Value ColumnTable::Get(RowId id, int col) const {
  BIH_CHECK(id < size_);
  if (nulls_[id * static_cast<size_t>(schema_.num_columns()) +
             static_cast<size_t>(col)]) {
    return Value::Null();
  }
  const ColumnData& c = columns_[static_cast<size_t>(col)];
  if (auto* iv = std::get_if<std::vector<int64_t>>(&c)) return Value((*iv)[id]);
  if (auto* dv = std::get_if<std::vector<double>>(&c)) return Value((*dv)[id]);
  const auto& sc = std::get<StringColumn>(c);
  return Value(sc.dict[sc.codes[id]]);
}

Row ColumnTable::GetRow(RowId id) const {
  Row row(static_cast<size_t>(schema_.num_columns()));
  for (int c = 0; c < schema_.num_columns(); ++c) {
    row[static_cast<size_t>(c)] = Get(id, c);
  }
  return row;
}

void ColumnTable::Set(RowId id, int col, const Value& v) {
  BIH_CHECK(id < size_);
  size_t null_pos = id * static_cast<size_t>(schema_.num_columns()) +
                    static_cast<size_t>(col);
  nulls_[null_pos] = v.is_null() ? 1 : 0;
  if (v.is_null()) return;
  ColumnData& c = columns_[static_cast<size_t>(col)];
  if (auto* iv = std::get_if<std::vector<int64_t>>(&c)) {
    (*iv)[id] = v.AsInt();
  } else if (auto* dv = std::get_if<std::vector<double>>(&c)) {
    (*dv)[id] = v.AsDouble();
  } else {
    auto& sc = std::get<StringColumn>(c);
    sc.codes[id] = sc.Intern(v.AsString());
  }
}

void ColumnTable::Delete(RowId id) {
  BIH_CHECK(id < size_);
  if (!deleted_[id]) {
    deleted_[id] = 1;
    --live_count_;
  }
}

void ColumnTable::Scan(const std::function<bool(RowId, const Row&)>& fn) const {
  for (RowId id = 0; id < size_; ++id) {
    if (deleted_[id]) continue;
    Row row = GetRow(id);
    if (!fn(id, row)) return;
  }
}

void ColumnTable::Clear() {
  for (size_t c = 0; c < columns_.size(); ++c) {
    ColumnData& col = columns_[c];
    if (auto* iv = std::get_if<std::vector<int64_t>>(&col)) {
      iv->clear();
    } else if (auto* dv = std::get_if<std::vector<double>>(&col)) {
      dv->clear();
    } else {
      auto& sc = std::get<StringColumn>(col);
      sc.codes.clear();
      // Keep the dictionary: re-interning after a merge is wasted work.
    }
  }
  nulls_.clear();
  deleted_.clear();
  size_ = 0;
  live_count_ = 0;
}

}  // namespace bih
