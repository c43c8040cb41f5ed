#include "engine/system_b.h"

#include <algorithm>

namespace bih {

Status SystemBEngine::CreateIndexOn(TableState* state, const IndexSpec& spec) {
  Table* t = static_cast<Table*>(state);
  if (spec.type == IndexType::kRTree) {
    return Status::Unimplemented("System B supports only B-tree indexes");
  }
  if (spec.partition == PartitionSel::kCurrent) {
    t->current_indexes.AddIndex(
        spec, [&](const std::function<void(RowId, const Row&)>& fn) {
          t->current.Scan([&](RowId rid, const Row&) {
            fn(rid, StoredRowOf(*t, rid));
            return true;
          });
        });
  } else {
    FlushUndo(t);
    t->history_indexes.AddIndex(
        spec, [&](const std::function<void(RowId, const Row&)>& fn) {
          t->history.Scan([&](RowId rid, const Row& row) {
            fn(rid, row);
            return true;
          });
        });
  }
  return Status::OK();
}

void SystemBEngine::DropIndexesOn(TableState* state) {
  Table* t = static_cast<Table*>(state);
  t->current_indexes.Clear();
  t->history_indexes.Clear();
}

Row SystemBEngine::StoredRowOf(const Table& t, RowId rid) const {
  Row row = t.current.Get(rid);
  auto it = t.version_slot.find(rid);
  BIH_CHECK(it != t.version_slot.end());
  row.push_back(Value(t.versions[it->second].sys_from));
  row.push_back(Value(Period::kForever));
  return row;
}

Row SystemBEngine::ReadVersion(TableState* t, VersionRef v) {
  return static_cast<Table*>(t)->current.Get(v);
}

TemporalEngine::VersionRef SystemBEngine::OpenVersion(TableState* state,
                                                      Row user_row,
                                                      Timestamp ts,
                                                      DmlKind kind) {
  Table* t = static_cast<Table*>(state);
  RowId rid = t->current.Append(std::move(user_row));
  VersionMeta meta;
  meta.row_ref = rid;
  meta.sys_from = ts.micros();
  meta.txn_id = next_txn_id_;
  meta.stmt_type = kind;
  t->versions.push_back(meta);
  t->version_slot[rid] = t->versions.size() - 1;
  if (!t->current_indexes.empty()) {
    t->current_indexes.OnInsert(StoredRowOf(*t, rid), rid);
  }
  return rid;
}

void SystemBEngine::CloseVersion(TableState* state, VersionRef rid,
                                 Timestamp ts, DmlKind kind) {
  Table* t = static_cast<Table*>(state);
  auto it = t->version_slot.find(rid);
  BIH_CHECK(it != t->version_slot.end());
  VersionMeta& meta = t->versions[it->second];
  // Same-transaction churn is not versioned.
  const bool visible = meta.sys_from != ts.micros();
  if (visible) {
    Row hist = t->current.Get(rid);
    if (!t->current_indexes.empty()) {
      t->current_indexes.OnDelete(StoredRowOf(*t, rid), rid);
    }
    hist.emplace_back(meta.sys_from);
    hist.emplace_back(ts);
    hist.emplace_back(meta.txn_id);
    hist.emplace_back(static_cast<int64_t>(kind));
    t->undo_log.push_back(std::move(hist));
  } else if (!t->current_indexes.empty()) {
    t->current_indexes.OnDelete(StoredRowOf(*t, rid), rid);
  }
  t->current.Delete(rid);
  meta.row_ref = kInvalidRowId;
  t->version_slot.erase(it);
  // Simulated background writer: drains the undo log once it fills up.
  // The unlucky transaction crossing the threshold pays for the batch,
  // which is what produces the 97th-percentile spikes of Fig. 16.
  if (t->undo_log.size() >= kUndoFlushThreshold) FlushUndo(t);
}

void SystemBEngine::EndStatement(TableState* /*t*/) { ++next_txn_id_; }

void SystemBEngine::FlushUndo(Table* t) {
  // Nothing pending and no compaction due: return before touching anything,
  // so a Scan-path call on a prepared table is a pure read (concurrent
  // snapshot readers rely on this — see PrepareForReads).
  if (t->undo_log.empty() &&
      !(t->versions.size() > 64 &&
        t->version_slot.size() * 2 < t->versions.size())) {
    return;
  }
  for (Row& row : t->undo_log) {
    RowId hid = t->history.Append(std::move(row));
    if (!t->history_indexes.empty()) {
      t->history_indexes.OnInsert(t->history.Get(hid), hid);
    }
  }
  t->undo_log.clear();
  // Compact the version partition when closed entries dominate it.
  if (t->versions.size() > 64 &&
      t->version_slot.size() * 2 < t->versions.size()) {
    std::vector<VersionMeta> live;
    live.reserve(t->version_slot.size());
    for (const VersionMeta& m : t->versions) {
      if (m.row_ref != kInvalidRowId) live.push_back(m);
    }
    t->versions = std::move(live);
    t->version_slot.clear();
    for (size_t i = 0; i < t->versions.size(); ++i) {
      t->version_slot[t->versions[i].row_ref] = i;
    }
  }
}

void SystemBEngine::ScanCurrentWithReconstruction(Table* t,
                                                  const ScanRequest& req,
                                                  const TemporalCols& tc,
                                                  const ParallelScanPlan& plan,
                                                  ExecStats* stats,
                                                  bool* stopped,
                                                  const RowCallback& cb) {
  ++stats->partitions_touched;  // current
  ++stats->partitions_touched;  // vertical temporal partition
  const int64_t now = clock_.Now().micros();

  // Sort/merge join between the current table and its vertical temporal
  // partition. The version records are in update order, so the join has to
  // sort them — this is the reconstruction overhead the paper attributes
  // System B's history-query penalty to (Sections 5.3.1, 5.5).
  std::vector<VersionMeta> sorted = t->versions;
  std::sort(sorted.begin(), sorted.end(),
            [](const VersionMeta& a, const VersionMeta& b) {
              return a.row_ref < b.row_ref;
            });
  std::vector<int64_t> sys_from_of(t->current.SlotCount(), 0);
  for (const VersionMeta& m : sorted) {
    if (m.row_ref != kInvalidRowId) sys_from_of[m.row_ref] = m.sys_from;
  }

  auto visit = [&, row = Row()](RowId rid, auto& sink) mutable -> bool {
    if (!t->current.IsLive(rid)) return true;
    if (!sink.Examine()) return false;
    const Row& user_row = t->current.Get(rid);
    row.assign(user_row.begin(), user_row.end());
    row.push_back(Value(sys_from_of[rid]));
    row.push_back(Value(Period::kForever));
    if (!MatchesTemporal(row, req.temporal, tc, now)) return true;
    if (!MatchesConstraints(row, req)) return true;
    return sink.Emit(row);
  };
  ScanSink sink = MakeScanSink(req, stats, stopped, cb);

  std::string index_name;
  if (t->current_indexes.TryIndexAccess(
          req, tc, t->current.LiveCount(), &index_name,
          [&](RowId rid) { return visit(rid, sink); })) {
    RecordIndexUse(stats, index_name);
    return;
  }
  // The sorted sys_from_of join result is built once on the coordinator
  // above; the morsels only read it.
  ScanSlots(plan, t->current.SlotCount(), sink, visit);
}

void SystemBEngine::ScanTable(TableState* state, const ScanRequest& req,
                              ExecStats* stats, const RowCallback& cb) {
  Table* t = static_cast<Table*>(state);
  const TemporalCols tc = ResolveTemporalCols(t->def, req.temporal.app_period_index);
  const int64_t now = clock_.Now().micros();
  const ParallelScanPlan plan = ResolveScanPlan(req.exec);
  const bool needs_history =
      t->def.system_versioned &&
      req.temporal.system_time.kind != TemporalSelector::Kind::kImplicitCurrent;
  bool stopped = false;

  if (!needs_history) {
    // Fast path: current partition only; the system time of a current row
    // is fetched through the row-reference without a join.
    ++stats->partitions_touched;
    auto visit = [&, row = Row()](RowId rid, auto& sink) mutable -> bool {
      if (!t->current.IsLive(rid)) return true;
      if (!sink.Examine()) return false;
      const Row& user_row = t->current.Get(rid);
      row.assign(user_row.begin(), user_row.end());
      auto it = t->version_slot.find(rid);
      row.push_back(Value(t->versions[it->second].sys_from));
      row.push_back(Value(Period::kForever));
      if (!MatchesTemporal(row, req.temporal, tc, now)) return true;
      if (!MatchesConstraints(row, req)) return true;
      return sink.Emit(row);
    };
    ScanSink sink = MakeScanSink(req, stats, &stopped, cb);
    auto emit_rid = [&](RowId rid) { return visit(rid, sink); };
    std::string index_name;
    if (t->current_indexes.TryIndexAccess(req, tc, t->current.LiveCount(),
                                          &index_name, emit_rid)) {
      RecordIndexUse(stats, index_name);
      return;
    }
    IndexKey key;
    if (PrimaryKeyFromEquals(t->def, req, &key)) {
      RecordIndexUse(stats, "pk_current(" + t->def.name + ")");
      t->pk_current.Lookup(key, emit_rid);
      return;
    }
    ScanSlots(plan, t->current.SlotCount(), sink, visit);
    return;
  }

  // System time involved: make pending history visible, reconstruct the
  // current partition's temporal information, then union with history.
  // Under the session layer PrepareForReads has already drained the undo
  // log, making this call a no-op on the concurrent read path.
  FlushUndo(t);
  ScanCurrentWithReconstruction(t, req, tc, plan, stats, &stopped, cb);

  if (!stopped) {
    ++stats->partitions_touched;
    stats->touched_history = true;
    const int scan_width = t->scan_schema.num_columns();
    auto visit = [&, row = Row()](RowId rid, auto& sink) mutable -> bool {
      if (!t->history.IsLive(rid)) return true;
      if (!sink.Examine()) return false;
      // History rows carry extra metadata columns; project to the scan
      // schema.
      const Row& hist_row = t->history.Get(rid);
      row.assign(hist_row.begin(), hist_row.begin() + scan_width);
      if (!MatchesTemporal(row, req.temporal, tc, now)) return true;
      if (!MatchesConstraints(row, req)) return true;
      return sink.Emit(row);
    };
    ScanSink sink = MakeScanSink(req, stats, &stopped, cb);
    std::string index_name;
    if (t->history_indexes.TryIndexAccess(
            req, tc, t->history.LiveCount(), &index_name,
            [&](RowId rid) { return visit(rid, sink); })) {
      RecordIndexUse(stats, index_name);
    } else {
      ScanSlots(plan, t->history.SlotCount(), sink, visit);
    }
  }
}

void SystemBEngine::PrepareForReads() {
  ForEachTable([this](TableState* t) { FlushUndo(static_cast<Table*>(t)); });
}

void SystemBEngine::InstallClosedVersion(TableState* state, Row stored) {
  Table* t = static_cast<Table*>(state);
  stored.push_back(Value(static_cast<int64_t>(0)));  // TXN_ID
  stored.push_back(Value(static_cast<int64_t>(0)));  // STMT_TYPE
  RowId hid = t->history.Append(std::move(stored));
  if (!t->history_indexes.empty()) {
    t->history_indexes.OnInsert(t->history.Get(hid), hid);
  }
}

TableStats SystemBEngine::StatsOf(const TableState* state) const {
  const Table* t = static_cast<const Table*>(state);
  TableStats s;
  s.current_rows = t->current.LiveCount();
  s.history_rows = t->history.LiveCount();
  s.pending_undo = t->undo_log.size();
  return s;
}

}  // namespace bih
