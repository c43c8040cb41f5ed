#include "engine/system_d.h"

namespace bih {

Status SystemDEngine::CreateIndexOn(TableState* state, const IndexSpec& spec) {
  Table* t = static_cast<Table*>(state);
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

void SystemDEngine::DropIndexesOn(TableState* state) {
  Table* t = static_cast<Table*>(state);
  t->indexes.Clear();
}

Row SystemDEngine::ReadVersion(TableState* t, VersionRef v) {
  const Row& stored = static_cast<Table*>(t)->data.Get(v);
  return Row(stored.begin(), stored.end() - 2);  // strip system columns
}

TemporalEngine::VersionRef SystemDEngine::OpenVersion(TableState* state,
                                                      Row user_row,
                                                      Timestamp ts,
                                                      DmlKind /*kind*/) {
  Table* t = static_cast<Table*>(state);
  user_row.emplace_back(ts);
  user_row.emplace_back(Period::kForever);
  RowId rid = t->data.Append(std::move(user_row));
  t->indexes.OnInsert(t->data.Get(rid), rid);
  return rid;
}

void SystemDEngine::InstallClosedVersion(TableState* state, Row stored) {
  Table* t = static_cast<Table*>(state);
  RowId rid = t->data.Append(std::move(stored));
  t->indexes.OnInsert(t->data.Get(rid), rid);
}

void SystemDEngine::CloseVersion(TableState* state, VersionRef rid,
                                 Timestamp ts, DmlKind /*kind*/) {
  Table* t = static_cast<Table*>(state);
  Row* row = t->data.GetMutable(rid);
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

Status SystemDEngine::DoBulkLoad(TableState* state, std::vector<Row> rows) {
  Table* t = static_cast<Table*>(state);
  const size_t arity = static_cast<size_t>(t->scan_schema.num_columns());
  for (Row& row : rows) {
    if (row.size() != arity) {
      return Status::InvalidArgument(
          "bulk rows must carry explicit system-time columns");
    }
    RowId rid = t->data.Append(std::move(row));
    const Row& stored = t->data.Get(rid);
    if (stored[arity - 1].AsInt() == Period::kForever) {
      t->pk_current.Insert(PrimaryKeyOf(t->def, stored), rid);
    }
    t->indexes.OnInsert(stored, rid);
  }
  return Status::OK();
}

void SystemDEngine::ScanTable(TableState* state, const ScanRequest& req,
                              ExecStats* stats, const RowCallback& cb) {
  Table* t = static_cast<Table*>(state);
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

TableStats SystemDEngine::StatsOf(const TableState* state) const {
  const Table* t = static_cast<const Table*>(state);
  TableStats s;
  s.current_rows = t->pk_current.size();
  s.history_rows = t->data.LiveCount() - t->pk_current.size();
  return s;
}

}  // namespace bih
