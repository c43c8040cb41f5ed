#include "engine/system_c.h"

#include <algorithm>

namespace bih {

Status SystemCEngine::CreateIndexOn(TableState* state, const IndexSpec& spec) {
  Table* t = static_cast<Table*>(state);
  if (spec.type == IndexType::kRTree) {
    return Status::Unimplemented("System C supports only B-tree indexes");
  }
  // Accepted, never consulted: the scan-based executor gains nothing from
  // secondary B-trees (Section 5.3.2: "System C does not benefit at all
  // from the additional B-Tree index").
  t->ignored_indexes.push_back(spec.name);
  return Status::OK();
}

void SystemCEngine::DropIndexesOn(TableState* state) {
  Table* t = static_cast<Table*>(state);
  t->ignored_indexes.clear();
}

Row SystemCEngine::ReadVersion(TableState* t, VersionRef v) {
  const Loc loc = LocOf(v);
  const ColumnTable* part = PartOf(static_cast<Table*>(t), loc.part);
  Row row(static_cast<size_t>(t->def.schema.num_columns()));
  for (size_t c = 0; c < row.size(); ++c) {
    row[c] = part->Get(loc.rid, static_cast<int>(c));
  }
  return row;
}

TemporalEngine::VersionRef SystemCEngine::OpenVersion(TableState* state,
                                                      Row user_row,
                                                      Timestamp ts,
                                                      DmlKind /*kind*/) {
  Table* t = static_cast<Table*>(state);
  user_row.emplace_back(ts);
  user_row.emplace_back(Period::kForever);
  return RefOf(Loc{Part::kDelta, t->delta.Append(user_row)});
}

void SystemCEngine::CloseVersion(TableState* state, VersionRef v, Timestamp ts,
                                 DmlKind /*kind*/) {
  Table* t = static_cast<Table*>(state);
  const Loc loc = LocOf(v);
  ColumnTable* part = PartOf(t, loc.part);
  const int vt_col = t->scan_schema.num_columns() - 1;
  const int vf_col = vt_col - 1;
  if (part->Get(loc.rid, vf_col).AsInt() == ts.micros()) {
    // Opened by the same transaction: physically drop instead of keeping a
    // never-visible version.
    part->Delete(loc.rid);
  } else {
    part->Set(loc.rid, vt_col, Value(ts));
  }
}

void SystemCEngine::EndStatement(TableState* state) {
  Table* t = static_cast<Table*>(state);
  if (t->delta.SlotCount() >= kMergeThreshold) MergeTable(t);
}

void SystemCEngine::MergeTable(Table* t) {
  const int vt_col = t->scan_schema.num_columns() - 1;
  // Move delta rows: visible versions to main, invalidated ones straight to
  // history. Row ids change; re-point the key index in place, so each key
  // keeps the order of its versions.
  t->delta.Scan([&](RowId old_rid, const Row& row) {
    const Value& vt = row[static_cast<size_t>(vt_col)];
    const bool open = !vt.is_null() && vt.AsInt() == Period::kForever;
    if (open) {
      const RowId new_rid = t->main.Append(row);
      const bool moved = t->pk_current.Replace(
          PrimaryKeyOf(t->def, row), RefOf(Loc{Part::kDelta, old_rid}),
          RefOf(Loc{Part::kMain, new_rid}));
      BIH_CHECK(moved);
    } else {
      t->history.Append(row);
    }
    return true;
  });
  t->delta.Clear();
  // Relocate main rows invalidated since the last merge.
  const size_t main_size = t->main.SlotCount();
  for (RowId rid = 0; rid < main_size; ++rid) {
    if (!t->main.IsLive(rid)) continue;
    Value vt = t->main.Get(rid, vt_col);
    if (!vt.is_null() && vt.AsInt() != Period::kForever) {
      t->history.Append(t->main.GetRow(rid));
      t->main.Delete(rid);
    }
  }
}

void SystemCEngine::Maintain() {
  ForEachTable([this](TableState* t) { MergeTable(static_cast<Table*>(t)); });
}

void SystemCEngine::ScanPartition(const Table& t, const ColumnTable& part,
                                  bool is_history, const ScanRequest& req,
                                  const TemporalCols& tc,
                                  const ParallelScanPlan& plan,
                                  ExecStats* stats, bool* stopped,
                                  const RowCallback& cb) {
  ++stats->partitions_touched;
  if (is_history) stats->touched_history = true;
  const int64_t now = clock_.Now().micros();
  const int ncols = t.scan_schema.num_columns();

  // Columns that predicates read; fetched before materialization so a scan
  // touches only the filter columns of non-qualifying rows — the column
  // store's advantage.
  std::vector<uint8_t> checked(static_cast<size_t>(ncols), 0);
  checked[static_cast<size_t>(tc.sys_from)] = 1;
  checked[static_cast<size_t>(tc.sys_to)] = 1;
  if (tc.app_begin >= 0) {
    checked[static_cast<size_t>(tc.app_begin)] = 1;
    checked[static_cast<size_t>(tc.app_end)] = 1;
  }
  for (const auto& [c, v] : req.equals) checked[static_cast<size_t>(c)] = 1;
  if (req.range_col >= 0) checked[static_cast<size_t>(req.range_col)] = 1;

  // Columns to materialize in emitted rows.
  std::vector<uint8_t> emit_col(static_cast<size_t>(ncols), 0);
  if (req.projection.empty()) {
    std::fill(emit_col.begin(), emit_col.end(), 1);
  } else {
    for (int c : req.projection) emit_col[static_cast<size_t>(c)] = 1;
    emit_col[static_cast<size_t>(tc.sys_from)] = 1;
    emit_col[static_cast<size_t>(tc.sys_to)] = 1;
  }

  // The scratch row is reused across slots: checked columns are rewritten
  // for every examined row, emit columns for every qualifying one, and the
  // rest stay null.
  auto visit = [&, row = Row(static_cast<size_t>(ncols))](
                   RowId rid, auto& sink) mutable -> bool {
    if (!part.IsLive(rid)) return true;
    if (!sink.Examine()) return false;
    for (int c = 0; c < ncols; ++c) {
      if (checked[static_cast<size_t>(c)]) row[static_cast<size_t>(c)] = part.Get(rid, c);
    }
    if (!MatchesTemporal(row, req.temporal, tc, now)) return true;
    if (!MatchesConstraints(row, req)) return true;
    for (int c = 0; c < ncols; ++c) {
      if (emit_col[static_cast<size_t>(c)] && !checked[static_cast<size_t>(c)]) {
        row[static_cast<size_t>(c)] = part.Get(rid, c);
      }
    }
    return sink.Emit(row);
  };
  ScanSink sink = MakeScanSink(req, stats, stopped, cb);
  ScanSlots(plan, part.SlotCount(), sink, std::move(visit));
}

void SystemCEngine::ScanTable(TableState* state, const ScanRequest& req,
                              ExecStats* stats, const RowCallback& cb) {
  Table* t = static_cast<Table*>(state);
  const TemporalCols tc = ResolveTemporalCols(t->def, req.temporal.app_period_index);
  const ParallelScanPlan plan = ResolveScanPlan(req.exec);
  bool stopped = false;
  ScanPartition(*t, t->delta, /*is_history=*/false, req, tc, plan, stats,
                &stopped, cb);
  if (!stopped) {
    ScanPartition(*t, t->main, /*is_history=*/false, req, tc, plan, stats,
                  &stopped, cb);
  }
  if (!stopped && t->def.system_versioned &&
      req.temporal.system_time.kind != TemporalSelector::Kind::kImplicitCurrent) {
    ScanPartition(*t, t->history, /*is_history=*/true, req, tc, plan, stats,
                  &stopped, cb);
  }
}

void SystemCEngine::InstallClosedVersion(TableState* t, Row stored) {
  static_cast<Table*>(t)->history.Append(stored);
}

TableStats SystemCEngine::StatsOf(const TableState* state) const {
  const Table* t = static_cast<const Table*>(state);
  TableStats s;
  s.current_rows = t->delta.LiveCount() + t->main.LiveCount();
  s.history_rows = t->history.LiveCount();
  return s;
}

}  // namespace bih
