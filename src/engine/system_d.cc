#include "engine/system_d.h"

#include <algorithm>

namespace bih {

namespace {

Schema StoredSchema(const TableDef& def) {
  return def.schema.Extend({{"SYS_TIME_START", ColumnType::kTimestamp},
                            {"SYS_TIME_END", ColumnType::kTimestamp}});
}

}  // namespace

SystemDEngine::Table* SystemDEngine::Find(const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

const SystemDEngine::Table* SystemDEngine::Find(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

Status SystemDEngine::DoCreateTable(const TableDef& def) {
  if (tables_.count(def.name)) {
    return Status::AlreadyExists("table " + def.name);
  }
  tables_.emplace(def.name, Table(def, StoredSchema(def)));
  return Status::OK();
}

Status SystemDEngine::CreateIndex(const IndexSpec& spec) {
  Table* t = Find(spec.table);
  if (t == nullptr) return Status::NotFound("table " + spec.table);
  // Single partition: both partition selectors address the same table.
  t->indexes.AddIndex(
      spec, [&](const std::function<void(RowId, const Row&)>& fn) {
        t->data.Scan([&](RowId rid, const Row& row) {
          fn(rid, row);
          return true;
        });
      });
  return Status::OK();
}

Status SystemDEngine::DropIndexes(const std::string& table) {
  Table* t = Find(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  t->indexes.Clear();
  return Status::OK();
}

const TableDef& SystemDEngine::GetTableDef(const std::string& table) const {
  const Table* t = Find(table);
  BIH_CHECK_MSG(t != nullptr, "no table " + table);
  return t->def;
}

Schema SystemDEngine::ScanSchema(const std::string& table) const {
  const Table* t = Find(table);
  BIH_CHECK_MSG(t != nullptr, "no table " + table);
  return t->stored_schema;
}

void SystemDEngine::CurrentVersions(TableState* t,
                                    const std::vector<Value>& key,
                                    std::vector<VersionRef>* out) {
  static_cast<Table*>(t)->current_by_key.Lookup(key, [&](RowId rid) {
    out->push_back(rid);
    return true;
  });
}

Row SystemDEngine::ReadVersion(TableState* t, VersionRef v) {
  const Row& stored = static_cast<Table*>(t)->data.Get(v);
  return Row(stored.begin(), stored.end() - 2);  // strip system columns
}

void SystemDEngine::OpenVersion(TableState* state, Row user_row, Timestamp ts,
                                DmlKind /*kind*/) {
  Table* t = static_cast<Table*>(state);
  user_row.emplace_back(ts);
  user_row.emplace_back(Period::kForever);
  RowId rid = t->data.Append(std::move(user_row));
  const Row& stored = t->data.Get(rid);
  t->current_by_key.Insert(PrimaryKeyOf(t->def, stored), rid);
  t->indexes.OnInsert(stored, rid);
}

void SystemDEngine::CloseVersion(TableState* state, VersionRef rid,
                                 Timestamp ts, DmlKind /*kind*/) {
  Table* t = static_cast<Table*>(state);
  Row* row = t->data.GetMutable(rid);
  t->current_by_key.Erase(PrimaryKeyOf(t->def, *row), rid);
  if ((*row)[row->size() - 2].AsInt() == ts.micros()) {
    // Same-transaction churn: the version was never visible; drop it.
    t->indexes.OnDelete(*row, rid);
    t->data.Delete(rid);
    return;
  }
  Row old_row = *row;
  (*row)[row->size() - 1] = Value(ts);
  t->indexes.OnUpdate(old_row, *row, rid);
}

Status SystemDEngine::DoBulkLoad(const std::string& table,
                               std::vector<Row> rows) {
  Table* t = Find(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  const size_t arity = static_cast<size_t>(t->stored_schema.num_columns());
  for (Row& row : rows) {
    if (row.size() != arity) {
      return Status::InvalidArgument(
          "bulk rows must carry explicit system-time columns");
    }
    RowId rid = t->data.Append(std::move(row));
    const Row& stored = t->data.Get(rid);
    if (stored[arity - 1].AsInt() == Period::kForever) {
      t->current_by_key.Insert(PrimaryKeyOf(t->def, stored), rid);
    }
    t->indexes.OnInsert(stored, rid);
  }
  return Status::OK();
}

void SystemDEngine::ScanTable(const ScanRequest& req, ExecStats* stats,
                              const RowCallback& cb) {
  Table* t = Find(req.table);
  BIH_CHECK_MSG(t != nullptr, "no table " + req.table);
  const TemporalCols tc = ResolveTemporalCols(t->def, req.temporal.app_period_index);
  stats->partitions_touched = 1;
  // No current/history split: any scan sees all versions.
  stats->touched_history = t->def.system_versioned;

  const auto visit =
      StoredRowVisit(t->data, req, tc, clock_.Now().micros());
  bool stopped = false;
  ScanSink sink = MakeScanSink(req, stats, &stopped, cb);
  std::string index_name;
  if (t->indexes.TryIndexAccess(req, tc, t->data.LiveCount(), &index_name,
                                [&](RowId rid) { return visit(rid, sink); })) {
    RecordIndexUse(stats, index_name);
  } else {
    ScanSlots(ResolveScanPlan(req.exec), t->data.SlotCount(), sink, visit);
  }
}

std::vector<std::string> SystemDEngine::ListTables() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, t] : tables_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

Status SystemDEngine::DoInstallVersion(const std::string& table,
                                       const Row& stored) {
  // The single-table layout stores scan-schema rows verbatim; installing a
  // snapshot version is exactly a one-row bulk load.
  return DoBulkLoad(table, {stored});
}

TableStats SystemDEngine::GetTableStats(const std::string& table) const {
  const Table* t = Find(table);
  BIH_CHECK_MSG(t != nullptr, "no table " + table);
  TableStats s;
  s.current_rows = t->current_by_key.size();
  s.history_rows = t->data.LiveCount() - t->current_by_key.size();
  return s;
}

}  // namespace bih
