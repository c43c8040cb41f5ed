#include "engine/engine.h"

#include "engine/scan_util.h"
#include "engine/system_a.h"
#include "engine/system_b.h"
#include "engine/system_c.h"
#include "engine/system_d.h"

namespace bih {

void TemporalEngine::Begin() {
  BIH_CHECK_MSG(!in_txn_, "nested transactions are not supported");
  in_txn_ = true;
  txn_time_ = clock_.NextCommit();
  txn_wal_.clear();
}

Status TemporalEngine::Commit() {
  BIH_CHECK_MSG(in_txn_, "Commit without Begin");
  in_txn_ = false;
  if (wal_ == nullptr || txn_wal_.empty()) {
    txn_wal_.clear();
    return Status::OK();
  }
  // The batch becomes durable atomically: its records followed by a commit
  // marker, then one flush. A crash anywhere before the marker lands makes
  // recovery discard the whole batch.
  Status st;
  for (const WalRecord& rec : txn_wal_) {
    st = wal_->Append(rec);
    if (!st.ok()) break;
  }
  if (st.ok()) {
    WalRecord commit;
    commit.kind = WalRecord::Kind::kCommit;
    commit.ts = txn_time_.micros();
    st = wal_->Append(commit);
  }
  txn_wal_.clear();
  if (!st.ok()) return st;
  return wal_->Flush();
}

Status TemporalEngine::LogMutation(WalRecord rec) {
  if (in_txn_) {
    rec.flags |= WalRecord::kInTxn;
    txn_wal_.push_back(std::move(rec));
    return Status::OK();
  }
  BIH_RETURN_IF_ERROR(wal_->Append(rec));
  return wal_->Flush();
}

Status TemporalEngine::AddTable(const TableDef& def) {
  if (tables_.count(def.name)) {
    return Status::AlreadyExists("table " + def.name);
  }
  tables_.emplace(def.name, NewTable(def));
  return Status::OK();
}

TemporalEngine::TableState* TemporalEngine::Find(const std::string& table) {
  auto it = tables_.find(table);
  return it == tables_.end() ? nullptr : it->second.get();
}

const TemporalEngine::TableState* TemporalEngine::Find(
    const std::string& table) const {
  auto it = tables_.find(table);
  return it == tables_.end() ? nullptr : it->second.get();
}

void TemporalEngine::ForEachTable(
    const std::function<void(TableState*)>& fn) {
  for (auto& [name, t] : tables_) fn(t.get());
}

const TableDef& TemporalEngine::GetTableDef(const std::string& table) const {
  const TableState* t = Find(table);
  BIH_CHECK_MSG(t != nullptr, "no table " + table);
  return t->def;
}

const Schema& TemporalEngine::ScanSchema(const std::string& table) const {
  const TableState* t = Find(table);
  BIH_CHECK_MSG(t != nullptr, "no table " + table);
  return t->scan_schema;
}

Status TemporalEngine::CreateIndex(const IndexSpec& spec) {
  TableState* t = Find(spec.table);
  if (t == nullptr) return Status::NotFound("table " + spec.table);
  return CreateIndexOn(t, spec);
}

Status TemporalEngine::DropIndexes(const std::string& table) {
  TableState* t = Find(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  DropIndexesOn(t);
  return Status::OK();
}

TableStats TemporalEngine::GetTableStats(const std::string& table) const {
  const TableState* t = Find(table);
  BIH_CHECK_MSG(t != nullptr, "no table " + table);
  return StatsOf(t);
}

std::vector<std::string> TemporalEngine::ListTables() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, t] : tables_) names.push_back(name);
  return names;  // the map keeps them sorted
}

Status TemporalEngine::CreateTable(const TableDef& def) {
  Status st = AddTable(def);
  if (st.ok() && wal_ != nullptr) {
    WalRecord rec;
    rec.kind = WalRecord::Kind::kCreateTable;
    rec.def = def;
    BIH_RETURN_IF_ERROR(LogMutation(std::move(rec)));
  }
  return st;
}

Status TemporalEngine::Insert(const std::string& table, Row row) {
  AllocateMutationTime();
  WalRecord rec;
  if (wal_ != nullptr) {
    rec.kind = WalRecord::Kind::kInsert;
    rec.ts = MutationTime().micros();
    rec.table = table;
    rec.row = row;
  }
  Status st = ApplyInsert(table, std::move(row));
  if (st.ok() && wal_ != nullptr) {
    BIH_RETURN_IF_ERROR(LogMutation(std::move(rec)));
  }
  return st;
}

Status TemporalEngine::BulkLoad(const std::string& table,
                                std::vector<Row> rows) {
  TableState* t = Find(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  WalRecord rec;
  if (wal_ != nullptr) {
    rec.kind = WalRecord::Kind::kBulkLoad;
    rec.table = table;
    rec.rows = rows;
  }
  Status st = DoBulkLoad(t, std::move(rows));
  if (st.ok() && wal_ != nullptr) {
    BIH_RETURN_IF_ERROR(LogMutation(std::move(rec)));
  }
  return st;
}

Status TemporalEngine::UpdateCurrent(const std::string& table,
                                     const std::vector<Value>& key,
                                     const std::vector<ColumnAssignment>& set) {
  return LoggedKeyed(WalRecord::Kind::kUpdateCurrent, table, key, 0, Period(),
                     set);
}

Status TemporalEngine::UpdateSequenced(
    const std::string& table, const std::vector<Value>& key, int period_index,
    const Period& period, const std::vector<ColumnAssignment>& set) {
  return LoggedKeyed(WalRecord::Kind::kUpdateSequenced, table, key,
                     period_index, period, set);
}

Status TemporalEngine::UpdateOverwrite(
    const std::string& table, const std::vector<Value>& key, int period_index,
    const Period& period, const std::vector<ColumnAssignment>& set) {
  return LoggedKeyed(WalRecord::Kind::kUpdateOverwrite, table, key,
                     period_index, period, set);
}

Status TemporalEngine::DeleteCurrent(const std::string& table,
                                     const std::vector<Value>& key) {
  return LoggedKeyed(WalRecord::Kind::kDeleteCurrent, table, key, 0, Period(),
                     {});
}

Status TemporalEngine::DeleteSequenced(const std::string& table,
                                       const std::vector<Value>& key,
                                       int period_index, const Period& period) {
  return LoggedKeyed(WalRecord::Kind::kDeleteSequenced, table, key,
                     period_index, period, {});
}

Status TemporalEngine::LoggedKeyed(WalRecord::Kind kind,
                                   const std::string& table,
                                   const std::vector<Value>& key,
                                   int period_index, const Period& period,
                                   const std::vector<ColumnAssignment>& set) {
  AllocateMutationTime();
  Status st = ApplyKeyed(kind, table, key, period_index, period, set);
  if (st.ok() && wal_ != nullptr) {
    WalRecord rec;
    rec.kind = kind;
    rec.ts = MutationTime().micros();
    rec.table = table;
    rec.key = key;
    rec.period_index = period_index;
    rec.period = period;
    rec.set = set;
    BIH_RETURN_IF_ERROR(LogMutation(std::move(rec)));
  }
  return st;
}

Status TemporalEngine::ApplyInsert(const std::string& table, Row row) {
  TableState* t = Find(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  if (static_cast<int>(row.size()) != t->def.schema.num_columns()) {
    return Status::InvalidArgument("row arity mismatch for " + table);
  }
  Open(t, std::move(row), MutationTime(), DmlKind::kInsert);
  EndStatement(t);
  return Status::OK();
}

void TemporalEngine::Open(TableState* t, Row user_row, Timestamp ts,
                          DmlKind kind) {
  IndexKey key = PrimaryKeyOf(t->def, user_row);
  t->pk_current.Insert(key, OpenVersion(t, std::move(user_row), ts, kind));
}

void TemporalEngine::Close(TableState* t, const IndexKey& key, VersionRef v,
                           Timestamp ts, DmlKind kind) {
  CloseVersion(t, v, ts, kind);
  t->pk_current.Erase(key, v);
}

Status TemporalEngine::ApplyKeyed(WalRecord::Kind kind,
                                  const std::string& table,
                                  const std::vector<Value>& key,
                                  int period_index, const Period& period,
                                  const std::vector<ColumnAssignment>& set) {
  using Kind = WalRecord::Kind;
  TableState* t = Find(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  const bool sequenced =
      kind != Kind::kUpdateCurrent && kind != Kind::kDeleteCurrent;
  const int periods = static_cast<int>(t->def.app_periods.size());
  if (sequenced && (period_index < 0 || period_index >= periods)) {
    return Status::InvalidArgument("no such application-time period");
  }
  std::vector<VersionRef> refs;
  t->pk_current.Lookup(key, [&](VersionRef v) {
    refs.push_back(v);
    return true;
  });
  if (refs.empty()) return Status::NotFound("no current version of key");
  const Timestamp ts = MutationTime();
  const DmlKind dml =
      kind == Kind::kDeleteCurrent || kind == Kind::kDeleteSequenced
          ? DmlKind::kDelete
          : DmlKind::kUpdate;

  if (kind == Kind::kDeleteCurrent) {
    for (VersionRef v : refs) Close(t, key, v, ts, dml);
  } else if (kind == Kind::kUpdateCurrent) {
    // Only the system time moves: each version is replaced in turn.
    for (VersionRef v : refs) {
      Row row = ReadVersion(t, v);
      for (const ColumnAssignment& a : set) {
        row[static_cast<size_t>(a.column)] = a.value;
      }
      Close(t, key, v, ts, dml);
      Open(t, std::move(row), ts, dml);
    }
  } else {
    std::vector<Row> versions;
    versions.reserve(refs.size());
    for (VersionRef v : refs) versions.push_back(ReadVersion(t, v));
    const AppPeriodDef& ap =
        t->def.app_periods[static_cast<size_t>(period_index)];
    SequencedOps ops;
    if (kind == Kind::kUpdateSequenced) {
      ops = PlanSequencedUpdate(versions, ap.begin_col, ap.end_col, period,
                                set);
    } else if (kind == Kind::kDeleteSequenced) {
      ops = PlanSequencedDelete(versions, ap.begin_col, ap.end_col, period);
    } else {
      ops = PlanOverwriteUpdate(versions, ap.begin_col, ap.end_col, period,
                                set);
    }
    for (size_t vi : ops.to_close) Close(t, key, refs[vi], ts, dml);
    for (Row& row : ops.to_insert) Open(t, std::move(row), ts, dml);
  }
  EndStatement(t);
  return Status::OK();
}

Status TemporalEngine::EnableWal(const std::string& path,
                                 FaultInjector* fault) {
  std::unique_ptr<WalWriter> wal;
  BIH_RETURN_IF_ERROR(WalWriter::Open(path, fault, &wal));
  return AttachWal(std::move(wal));
}

Status TemporalEngine::AttachWal(std::unique_ptr<WalWriter> wal) {
  if (in_txn_) {
    return Status::InvalidArgument("cannot attach a WAL inside a transaction");
  }
  wal_ = std::move(wal);
  txn_wal_.clear();
  return Status::OK();
}

Status TemporalEngine::ApplyWalRecord(const WalRecord& rec) {
  mutation_time_ = Timestamp(rec.ts);
  if (clock_.Now().micros() < rec.ts) {
    clock_.Reset(Timestamp(rec.ts));
  }
  switch (rec.kind) {
    case WalRecord::Kind::kCreateTable:
      return AddTable(rec.def);
    case WalRecord::Kind::kInsert:
      return ApplyInsert(rec.table, rec.row);
    case WalRecord::Kind::kBulkLoad: {
      TableState* t = Find(rec.table);
      if (t == nullptr) return Status::NotFound("table " + rec.table);
      return DoBulkLoad(t, rec.rows);
    }
    case WalRecord::Kind::kUpdateCurrent:
    case WalRecord::Kind::kUpdateSequenced:
    case WalRecord::Kind::kUpdateOverwrite:
    case WalRecord::Kind::kDeleteCurrent:
    case WalRecord::Kind::kDeleteSequenced:
      return ApplyKeyed(rec.kind, rec.table, rec.key, rec.period_index,
                        rec.period, rec.set);
    case WalRecord::Kind::kCommit:
      return Status::OK();
    case WalRecord::Kind::kSnapshotRows: {
      TableState* t = Find(rec.table);
      if (t == nullptr) return Status::NotFound("table " + rec.table);
      for (const Row& stored : rec.rows) {
        BIH_RETURN_IF_ERROR(InstallVersion(t, stored));
      }
      return Status::OK();
    }
    case WalRecord::Kind::kCheckpointFooter:
      // Nothing to install: the clock reset above already restored the
      // commit watermark the footer carries in ts.
      return Status::OK();
  }
  return Status::Internal("unhandled wal record kind");
}

Status TemporalEngine::InstallVersion(TableState* t, const Row& stored) {
  if (static_cast<int>(stored.size()) != t->scan_schema.num_columns()) {
    return Status::InvalidArgument("snapshot row arity mismatch for " +
                                   t->def.name);
  }
  const size_t user_cols = static_cast<size_t>(t->def.schema.num_columns());
  if (stored[user_cols + 1].AsInt() != Period::kForever) {
    InstallClosedVersion(t, stored);
    return Status::OK();
  }
  Row user_row(stored.begin(), stored.begin() + static_cast<long>(user_cols));
  Open(t, std::move(user_row), Timestamp(stored[user_cols].AsInt()),
       DmlKind::kInsert);
  EndStatement(t);
  return Status::OK();
}

void TemporalEngine::Scan(const ScanRequest& req, const RowCallback& cb) {
  ExecStats local;
  ExecStats* stats = req.stats != nullptr ? req.stats : &local;
  *stats = ExecStats{};
  TableState* t = Find(req.table);
  BIH_CHECK_MSG(t != nullptr, "no table " + req.table);
  ScanTable(t, req, stats, cb);
  if (req.stats == nullptr) {
    // The lock only serializes the publication slot; it is never held while
    // scanning, so concurrent readers contend for nanoseconds per query.
    MutexLock lock(stats_mu_);
    stats_ = local;
  }
}

Status TemporalEngine::DoBulkLoad(TableState* t, std::vector<Row> rows) {
  (void)t;
  (void)rows;
  // Engines with engine-managed system time cannot accept explicit
  // timestamps; the history generator must replay transactions instead
  // (Section 4.2 of the paper).
  return Status::Unimplemented(
      "bulk load with explicit system time requires an engine without "
      "native system versioning");
}

std::unique_ptr<TemporalEngine> MakeEngine(const std::string& letter) {
  if (letter == "A") return std::make_unique<SystemAEngine>();
  if (letter == "B") return std::make_unique<SystemBEngine>();
  if (letter == "C") return std::make_unique<SystemCEngine>();
  if (letter == "D") return std::make_unique<SystemDEngine>();
  BIH_CHECK_MSG(false, "unknown engine letter: " + letter);
  return nullptr;
}

const std::vector<std::string>& AllEngineLetters() {
  static const std::vector<std::string>* letters =
      new std::vector<std::string>{"A", "B", "C", "D"};
  return *letters;
}

}  // namespace bih
