#include "engine/system_a.h"

namespace bih {

Status SystemAEngine::CreateIndexOn(TableState* state, const IndexSpec& spec) {
  Table* t = static_cast<Table*>(state);
  if (spec.type == IndexType::kRTree) {
    // Architecture A exposes only B-tree (and hash) structures, like the
    // commercial systems in the study (Section 5.2).
    return Status::Unimplemented("System A supports only B-tree indexes");
  }
  auto build = [&](RowTable* part) {
    return [part](const std::function<void(RowId, const Row&)>& fn) {
      part->Scan([&](RowId rid, const Row& row) {
        fn(rid, row);
        return true;
      });
    };
  };
  if (spec.partition == PartitionSel::kCurrent) {
    t->current_indexes.AddIndex(spec, build(&t->current));
  } else {
    t->history_indexes.AddIndex(spec, build(&t->history));
  }
  return Status::OK();
}

void SystemAEngine::DropIndexesOn(TableState* state) {
  Table* t = static_cast<Table*>(state);
  t->current_indexes.Clear();
  t->history_indexes.Clear();
}

Row SystemAEngine::ReadVersion(TableState* t, VersionRef v) {
  const Row& stored = static_cast<Table*>(t)->current.Get(v);
  return Row(stored.begin(), stored.end() - 2);  // strip system columns
}

TemporalEngine::VersionRef SystemAEngine::OpenVersion(TableState* state,
                                                      Row user_row,
                                                      Timestamp ts,
                                                      DmlKind /*kind*/) {
  Table* t = static_cast<Table*>(state);
  user_row.emplace_back(ts);
  user_row.emplace_back(Period::kForever);
  RowId rid = t->current.Append(std::move(user_row));
  t->current_indexes.OnInsert(t->current.Get(rid), rid);
  return rid;
}

void SystemAEngine::CloseVersion(TableState* state, VersionRef rid,
                                 Timestamp ts, DmlKind /*kind*/) {
  Table* t = static_cast<Table*>(state);
  Row closed = t->current.Get(rid);
  t->current_indexes.OnDelete(closed, rid);
  t->current.Delete(rid);
  // A version opened and closed by the same transaction was never visible;
  // only the transaction's final state is versioned.
  if (closed[closed.size() - 2].AsInt() == ts.micros()) return;
  closed[closed.size() - 1] = Value(ts);  // SYS_TIME_END
  InstallClosedVersion(t, std::move(closed));
}

void SystemAEngine::InstallClosedVersion(TableState* state, Row stored) {
  Table* t = static_cast<Table*>(state);
  RowId hid = t->history.Append(std::move(stored));
  t->history_indexes.OnInsert(t->history.Get(hid), hid);
}

void SystemAEngine::ScanPartition(const Table& t, bool is_history,
                                  const ScanRequest& req,
                                  const TemporalCols& tc,
                                  const IndexSet& tuning,
                                  const ParallelScanPlan& plan,
                                  ExecStats* stats, bool* stopped,
                                  const RowCallback& cb) {
  const RowTable& part = is_history ? t.history : t.current;
  ++stats->partitions_touched;
  if (is_history) stats->touched_history = true;
  const auto visit = StoredRowVisit(part, req, tc, clock_.Now().micros());
  ScanSink sink = MakeScanSink(req, stats, stopped, cb);

  // Access path: tuning indexes first; the system key index on the current
  // partition next; table scan as the fallback.
  std::string index_name;
  auto emit_rid = [&](RowId rid) { return visit(rid, sink); };
  if (tuning.TryIndexAccess(req, tc, part.LiveCount(), &index_name, emit_rid)) {
    RecordIndexUse(stats, index_name);
    return;
  }
  IndexKey key;
  if (!is_history && PrimaryKeyFromEquals(t.def, req, &key)) {
    // The system-created key index serves full-key equality on current.
    RecordIndexUse(stats, "pk_current(" + t.def.name + ")");
    t.pk_current.Lookup(key, emit_rid);
    return;
  }
  ScanSlots(plan, part.SlotCount(), sink, visit);
}

void SystemAEngine::ScanTable(TableState* state, const ScanRequest& req,
                              ExecStats* stats, const RowCallback& cb) {
  Table* t = static_cast<Table*>(state);
  const TemporalCols tc = ResolveTemporalCols(t->def, req.temporal.app_period_index);
  const ParallelScanPlan plan = ResolveScanPlan(req.exec);
  bool stopped = false;
  // Partition pruning: only the implicit-current case avoids the history
  // table. An explicit AS OF <now> is *not* recognized (Section 5.3.5).
  ScanPartition(*t, /*is_history=*/false, req, tc, t->current_indexes, plan,
                stats, &stopped, cb);
  if (!stopped && t->def.system_versioned &&
      req.temporal.system_time.kind != TemporalSelector::Kind::kImplicitCurrent) {
    ScanPartition(*t, /*is_history=*/true, req, tc, t->history_indexes, plan,
                  stats, &stopped, cb);
  }
}

TableStats SystemAEngine::StatsOf(const TableState* state) const {
  const Table* t = static_cast<const Table*>(state);
  TableStats s;
  s.current_rows = t->current.LiveCount();
  s.history_rows = t->history.LiveCount();
  return s;
}

}  // namespace bih
