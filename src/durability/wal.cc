#include "durability/wal.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "common/codec.h"

namespace bih {

namespace {

// Backoff before retry `attempt` (1-based attempt that just failed):
// 1ms, 2ms, 4ms, ... Bounded by kMaxWriteAttempts so the worst case adds
// single-digit milliseconds to a commit.
void BackoffAfterAttempt(int attempt) {
  std::this_thread::sleep_for(std::chrono::milliseconds(1ll << (attempt - 1)));
}

void PutTableDef(const TableDef& def, std::string* out) {
  PutString(def.name, out);
  PutU32(static_cast<uint32_t>(def.schema.num_columns()), out);
  for (const Column& c : def.schema.columns()) {
    PutString(c.name, out);
    PutU8(static_cast<uint8_t>(c.type), out);
  }
  PutU32(static_cast<uint32_t>(def.primary_key.size()), out);
  for (int k : def.primary_key) PutU32(static_cast<uint32_t>(k), out);
  PutU32(static_cast<uint32_t>(def.app_periods.size()), out);
  for (const AppPeriodDef& ap : def.app_periods) {
    PutString(ap.name, out);
    PutU32(static_cast<uint32_t>(ap.begin_col), out);
    PutU32(static_cast<uint32_t>(ap.end_col), out);
  }
  PutU8(def.system_versioned ? 1 : 0, out);
}

bool GetTableDef(Cursor* c, TableDef* def) {
  if (!c->GetString(&def->name)) return false;
  uint32_t ncols;
  if (!c->GetCount(&ncols)) return false;
  std::vector<Column> cols;
  cols.reserve(ncols);
  for (uint32_t i = 0; i < ncols; ++i) {
    Column col;
    uint8_t ty;
    if (!c->GetString(&col.name) || !c->GetU8(&ty)) return false;
    col.type = static_cast<ColumnType>(ty);
    cols.push_back(std::move(col));
  }
  def->schema = Schema(std::move(cols));
  uint32_t npk;
  if (!c->GetCount(&npk)) return false;
  def->primary_key.clear();
  for (uint32_t i = 0; i < npk; ++i) {
    uint32_t k;
    if (!c->GetU32(&k)) return false;
    def->primary_key.push_back(static_cast<int>(k));
  }
  uint32_t nap;
  if (!c->GetCount(&nap)) return false;
  def->app_periods.clear();
  for (uint32_t i = 0; i < nap; ++i) {
    AppPeriodDef ap;
    uint32_t b, e;
    if (!c->GetString(&ap.name) || !c->GetU32(&b) || !c->GetU32(&e)) {
      return false;
    }
    ap.begin_col = static_cast<int>(b);
    ap.end_col = static_cast<int>(e);
    def->app_periods.push_back(std::move(ap));
  }
  uint8_t sv;
  if (!c->GetU8(&sv)) return false;
  def->system_versioned = sv != 0;
  return true;
}

// The keyed kinds write the table and the key, then the period of the
// sequenced kinds, then the SET list of the update kinds.
bool HasPeriod(WalRecord::Kind k) {
  return k == WalRecord::Kind::kUpdateSequenced ||
         k == WalRecord::Kind::kUpdateOverwrite ||
         k == WalRecord::Kind::kDeleteSequenced;
}

bool HasSet(WalRecord::Kind k) {
  return k == WalRecord::Kind::kUpdateCurrent ||
         k == WalRecord::Kind::kUpdateSequenced ||
         k == WalRecord::Kind::kUpdateOverwrite;
}

// A SET list: a u32 count, then (u32 column, value) pairs.
void PutAssignments(const std::vector<ColumnAssignment>& set,
                    std::string* out) {
  PutU32(static_cast<uint32_t>(set.size()), out);
  for (const ColumnAssignment& a : set) {
    PutU32(static_cast<uint32_t>(a.column), out);
    PutValue(a.value, out);
  }
}

bool GetAssignments(Cursor* c, std::vector<ColumnAssignment>* set) {
  uint32_t n;
  if (!c->GetCount(&n)) return false;
  set->clear();
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t col;
    Value v;
    if (!c->GetU32(&col) || !c->GetValue(&v)) return false;
    set->push_back(ColumnAssignment{static_cast<int>(col), std::move(v)});
  }
  return true;
}

const char kWalMagic[8] = {'B', 'I', 'H', 'W', 'A', 'L', '0', '1'};

}  // namespace

std::string WalFileMagic() {
  return std::string(kWalMagic, sizeof(kWalMagic));
}

void EncodeWalFrame(const WalRecord& rec, std::string* payload,
                    std::string* frame) {
  EncodeWalRecord(rec, payload);
  frame->clear();
  AppendFrame(*payload, frame);
}

// --- durable-sync primitives ----------------------------------------------

bool DurableSyncEnabled() {
  return std::getenv("BIH_NO_FSYNC") == nullptr;
}

Status SyncFileNow(std::FILE* f, const std::string& path) {
  if (!DurableSyncEnabled()) return Status::OK();
#if defined(__unix__) || defined(__APPLE__)
  const int fd = fileno(f);
  if (fd < 0) {
    return Status::IoError("no descriptor to sync for " + path);
  }
  int rc;
#if defined(__APPLE__)
  while ((rc = fsync(fd)) != 0 && errno == EINTR) {
  }
#else
  while ((rc = fdatasync(fd)) != 0 && errno == EINTR) {
  }
#endif
  if (rc != 0) {
    return Status::IoError("fdatasync failed for " + path + ": " +
                           std::strerror(errno));
  }
#else
  (void)f;
  (void)path;
#endif
  return Status::OK();
}

Status SyncParentDir(const std::string& path) {
  if (!DurableSyncEnabled()) return Status::OK();
#if defined(__unix__) || defined(__APPLE__)
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open directory " + dir +
                           " for sync: " + std::strerror(errno));
  }
  int rc;
  while ((rc = fsync(fd)) != 0 && errno == EINTR) {
  }
  const int saved_errno = errno;
  ::close(fd);
  if (rc != 0) {
    return Status::IoError("directory fsync failed for " + dir + ": " +
                           std::strerror(saved_errno));
  }
#else
  (void)path;
#endif
  return Status::OK();
}

// --- segment naming -------------------------------------------------------

std::string WalSegmentPath(const std::string& base, uint64_t index) {
  if (index <= 1) return base;
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), ".%06llu",
                static_cast<unsigned long long>(index));
  return base + suffix;
}

std::vector<WalSegment> ListWalSegments(const std::string& base) {
  std::vector<WalSegment> segments;
  std::error_code ec;
  if (std::filesystem::exists(base, ec)) {
    segments.push_back(WalSegment{1, base});
  }
  const std::filesystem::path base_path(base);
  const std::string stem = base_path.filename().string() + ".";
  std::filesystem::path dir = base_path.parent_path();
  if (dir.empty()) dir = ".";
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= stem.size() || name.compare(0, stem.size(), stem) != 0) {
      continue;
    }
    const std::string suffix = name.substr(stem.size());
    if (suffix.size() < 6 ||
        !std::all_of(suffix.begin(), suffix.end(),
                     [](char c) { return c >= '0' && c <= '9'; })) {
      continue;  // not a segment (e.g. base.ckpt, base.ckpt.tmp)
    }
    const uint64_t index = std::strtoull(suffix.c_str(), nullptr, 10);
    if (index >= 2) segments.push_back(WalSegment{index, entry.path().string()});
  }
  std::sort(segments.begin(), segments.end(),
            [](const WalSegment& a, const WalSegment& b) {
              return a.index < b.index;
            });
  return segments;
}

Status RemoveWalSegmentsBefore(const std::string& base, uint64_t keep_from,
                               uint64_t* removed) {
  uint64_t count = 0;
  Status first_error = Status::OK();
  for (const WalSegment& seg : ListWalSegments(base)) {
    if (seg.index >= keep_from) continue;
    std::error_code ec;
    const bool did_remove = std::filesystem::remove(seg.path, ec);
    if (ec) {
      if (first_error.ok()) {
        first_error = Status::IoError("cannot remove wal segment " + seg.path +
                                      ": " + ec.message());
      }
    } else if (did_remove) {
      ++count;
    }
  }
  if (removed != nullptr) *removed = count;
  return first_error;
}

void EncodeWalRecord(const WalRecord& rec, std::string* out) {
  out->clear();
  PutU8(static_cast<uint8_t>(rec.kind), out);
  PutU8(rec.flags, out);
  PutI64(rec.ts, out);
  switch (rec.kind) {
    case WalRecord::Kind::kCreateTable:
      PutTableDef(rec.def, out);
      break;
    case WalRecord::Kind::kInsert:
      PutString(rec.table, out);
      PutRow(rec.row, out);
      break;
    case WalRecord::Kind::kBulkLoad:
    case WalRecord::Kind::kSnapshotRows:
      PutString(rec.table, out);
      PutRows(rec.rows, out);
      break;
    case WalRecord::Kind::kUpdateCurrent:
    case WalRecord::Kind::kUpdateSequenced:
    case WalRecord::Kind::kUpdateOverwrite:
    case WalRecord::Kind::kDeleteCurrent:
    case WalRecord::Kind::kDeleteSequenced:
      PutString(rec.table, out);
      PutRow(rec.key, out);
      if (HasPeriod(rec.kind)) {
        PutU32(static_cast<uint32_t>(rec.period_index), out);
        PutI64(rec.period.begin, out);
        PutI64(rec.period.end, out);
      }
      if (HasSet(rec.kind)) PutAssignments(rec.set, out);
      break;
    case WalRecord::Kind::kCommit:
      break;
    case WalRecord::Kind::kCheckpointFooter:
      PutI64(static_cast<int64_t>(rec.segments_covered), out);
      break;
  }
}

Status DecodeWalRecord(const uint8_t* data, size_t n, WalRecord* out) {
  Cursor c{data, n};
  uint8_t kind, flags;
  int64_t ts;
  if (!c.GetU8(&kind) || !c.GetU8(&flags) || !c.GetI64(&ts)) {
    return Status::IoError("wal record header truncated");
  }
  if (kind < static_cast<uint8_t>(WalRecord::Kind::kCreateTable) ||
      kind > static_cast<uint8_t>(WalRecord::Kind::kCheckpointFooter)) {
    return Status::IoError("wal record has unknown kind " +
                           std::to_string(kind));
  }
  out->kind = static_cast<WalRecord::Kind>(kind);
  out->flags = flags;
  out->ts = ts;
  bool ok = true;
  switch (out->kind) {
    case WalRecord::Kind::kCreateTable:
      ok = GetTableDef(&c, &out->def);
      break;
    case WalRecord::Kind::kInsert:
      ok = c.GetString(&out->table) && c.GetRow(&out->row);
      break;
    case WalRecord::Kind::kBulkLoad:
    case WalRecord::Kind::kSnapshotRows:
      ok = c.GetString(&out->table) && c.GetRows(&out->rows);
      break;
    case WalRecord::Kind::kUpdateCurrent:
    case WalRecord::Kind::kUpdateSequenced:
    case WalRecord::Kind::kUpdateOverwrite:
    case WalRecord::Kind::kDeleteCurrent:
    case WalRecord::Kind::kDeleteSequenced: {
      uint32_t pi = 0;
      ok = c.GetString(&out->table) && c.GetRow(&out->key) &&
           (!HasPeriod(out->kind) ||
            (c.GetU32(&pi) && c.GetI64(&out->period.begin) &&
             c.GetI64(&out->period.end))) &&
           (!HasSet(out->kind) || GetAssignments(&c, &out->set));
      out->period_index = static_cast<int>(pi);
      break;
    }
    case WalRecord::Kind::kCommit:
      break;
    case WalRecord::Kind::kCheckpointFooter: {
      int64_t covered = 0;
      ok = c.GetI64(&covered) && covered >= 0;
      out->segments_covered = static_cast<uint64_t>(covered);
      break;
    }
  }
  if (!ok || c.left != 0) {
    return Status::IoError("wal record payload malformed");
  }
  return Status::OK();
}

// --- writer --------------------------------------------------------------

WalWriter::~WalWriter() {
  MutexLock lock(mu_);
  // Shared ownership (engine + group-commit coordinator) means destruction
  // only happens after the last waiter is gone, but an in-flight sync must
  // still finish before the FILE* goes away.
  while (sync_inflight_) sync_cv_.Wait(mu_);
  if (file_ != nullptr) std::fclose(file_);
}

Status WalWriter::Open(const std::string& path, FaultInjector* fault,
                       std::unique_ptr<WalWriter>* out) {
  return OpenAt(path, 1, fault, out);
}

namespace {

// Creates the segment file `seg_path` holding just the magic. The empty
// segment itself must survive a crash: the file is synced, then the parent
// directory so the new name is durable too.
Status CreateWalSegment(const std::string& seg_path, std::FILE** out) {
  std::FILE* f = std::fopen(seg_path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot create wal segment " + seg_path);
  }
  if (std::fwrite(kWalMagic, 1, sizeof(kWalMagic), f) != sizeof(kWalMagic) ||
      std::fflush(f) != 0) {
    std::fclose(f);
    return Status::IoError("cannot write wal magic to " + seg_path);
  }
  Status st = SyncFileNow(f, seg_path);
  if (st.ok()) st = SyncParentDir(seg_path);
  if (!st.ok()) {
    std::fclose(f);
    return st;
  }
  *out = f;
  return Status::OK();
}

}  // namespace

Status WalWriter::OpenAt(const std::string& path, uint64_t segment_index,
                         FaultInjector* fault,
                         std::unique_ptr<WalWriter>* out) {
  if (segment_index == 0) segment_index = 1;
  std::FILE* f = nullptr;
  BIH_RETURN_IF_ERROR(
      CreateWalSegment(WalSegmentPath(path, segment_index), &f));
  out->reset(new WalWriter(path, f, fault, sizeof(kWalMagic), segment_index));
  return Status::OK();
}

Status WalWriter::MarkDead(std::string reason) {
  dead_ = true;
  dead_reason_ = std::move(reason);
  return Status::IoError(dead_reason_);
}

Status WalWriter::DeadStatus() const {
  // Deliberately terse and stable: the actionable detail was surfaced once
  // by the call that killed the writer and stays available in dead_reason();
  // a load loop retrying thousands of appends should not spam variants.
  return Status::IoError("wal writer for " + path_ +
                         " is dead; writes are rejected until recovery");
}

Status WalWriter::FlushLocked() {
  // fflush failures (EINTR, momentary ENOSPC) leave the stream buffer
  // intact, so the flush can simply be retried.
  for (int attempt = 1; std::fflush(file_) != 0; ++attempt) {
    if (attempt >= kMaxWriteAttempts) {
      return MarkDead("wal flush failed for " + path_ + ": " +
                      std::strerror(errno));
    }
    BackoffAfterAttempt(attempt);
  }
  return Status::OK();
}

Status WalWriter::SyncLocked() {
  const uint64_t sync_index = syncs_ + 1;
  for (int attempt = 1;; ++attempt) {
    std::string cause;
    if (fault_ != nullptr && fault_->OnSync(sync_index).fail) {
      cause = "injected sync failure at sync point " +
              std::to_string(sync_index);
    } else {
      Status st = SyncFileNow(file_, path_);
      if (!st.ok()) cause = st.message();
    }
    if (cause.empty()) {
      ++syncs_;
      return Status::OK();
    }
    // A failed fdatasync leaves the durable prefix unknown but the stream
    // intact; retrying the sync is safe (it either completes, proving the
    // full prefix durable, or the writer dies here).
    if (attempt >= kMaxWriteAttempts) {
      return MarkDead("wal sync failed for " + path_ + " (" + cause + ")");
    }
    BackoffAfterAttempt(attempt);
  }
}

Status WalWriter::Append(const WalRecord& rec) {
  MutexLock lock(mu_);
  if (dead_) return DeadStatus();
  std::string& frame = frame_buf_;
  EncodeWalFrame(rec, &payload_buf_, &frame);

  for (int attempt = 1;; ++attempt) {
    size_t write_len = frame.size();
    if (fault_ != nullptr) {
      FaultInjector::Action a =
          fault_->OnWrite(records_written_ + 1, frame.size());
      if (a.fail) {
        // A clean failure: nothing reached the file, so retrying the same
        // frame is safe. Transient errors pass on a later attempt; a
        // crashed injector keeps failing until the attempts run out.
        if (attempt < kMaxWriteAttempts) {
          BackoffAfterAttempt(attempt);
          continue;
        }
        return MarkDead("injected write failure on wal record " +
                        std::to_string(records_written_ + 1) + " of " + path_);
      }
      if (a.flip) {
        frame[a.flip_offset] = static_cast<char>(
            static_cast<uint8_t>(frame[a.flip_offset]) ^ a.flip_mask);
      }
      if (a.torn) write_len = a.keep_bytes;
    }
    size_t n = std::fwrite(frame.data(), 1, write_len, file_);
    bytes_written_ += n;
    if (n != write_len || write_len != frame.size()) {
      // A short physical write is not retryable: an unknown prefix of the
      // frame is already on disk, and appending the frame again would
      // corrupt the log rather than repair it.
      std::fflush(file_);
      return MarkDead("torn wal write on record " +
                      std::to_string(records_written_ + 1) + " of " + path_);
    }
    ++records_written_;
    return Status::OK();
  }
}

Status WalWriter::Flush() {
  MutexLock lock(mu_);
  if (dead_) return DeadStatus();
  BIH_RETURN_IF_ERROR(FlushLocked());
  // Deferred mode: the record is staged in the OS; the group-commit leader
  // pays the device sync for the whole batch in SyncGroup().
  if (deferred_sync_) return Status::OK();
  return SyncLocked();
}

void WalWriter::SetDeferredSync(bool deferred) {
  MutexLock lock(mu_);
  deferred_sync_ = deferred;
}

uint64_t WalWriter::appended_lsn() const {
  MutexLock lock(mu_);
  return records_written_;
}

Status WalWriter::SyncGroup(uint64_t* durable_upto) {
  mu_.lock();
  // A previous group's device sync may still be in flight (another leader,
  // or a rotation); the FILE* must stay stable for the wait below.
  while (sync_inflight_) sync_cv_.Wait(mu_);
  if (dead_) {
    Status dead = DeadStatus();
    mu_.unlock();
    return dead;
  }
  Status st = FlushLocked();
  if (st.ok()) {
    const uint64_t group_index = group_syncs_ + 1;
    if (fault_ != nullptr && fault_->OnGroupFlush(group_index).fail) {
      // Crash between staging the group and its device sync: the batch sits
      // in the page cache, no transaction in it was ever acknowledged.
      st = MarkDead("injected group-flush crash at group " +
                    std::to_string(group_index) + " of " + path_);
    }
  }
  if (!st.ok()) {
    mu_.unlock();
    return st;
  }
  // Everything appended up to here is staged; that is what this sync makes
  // durable. Appends that land during the device wait ride the next group.
  const uint64_t target = records_written_;
  ++group_syncs_;
  sync_inflight_ = true;
  for (int attempt = 1;; ++attempt) {
    const uint64_t sync_index = syncs_ + 1;
    const bool injected =
        fault_ != nullptr && fault_->OnSync(sync_index).fail;
    std::FILE* f = file_;  // stable: rotation waits for !sync_inflight_
    mu_.unlock();
    // The device wait runs unlocked — this is the commit pipeline: later
    // transactions append (and even fflush) into the stream while the
    // group's fdatasync is in flight.
    std::string cause;
    if (injected) {
      cause =
          "injected sync failure at sync point " + std::to_string(sync_index);
    } else {
      Status sync_st = SyncFileNow(f, path_);
      if (!sync_st.ok()) cause = sync_st.message();
    }
    mu_.lock();
    if (cause.empty()) {
      ++syncs_;
      break;
    }
    if (attempt >= kMaxWriteAttempts) {
      st = MarkDead("wal sync failed for " + path_ + " (" + cause + ")");
      break;
    }
    BackoffAfterAttempt(attempt);
  }
  sync_inflight_ = false;
  sync_cv_.NotifyAll();
  if (st.ok() && durable_upto != nullptr) *durable_upto = target;
  mu_.unlock();
  return st;
}

Status WalWriter::Rotate() {
  MutexLock lock(mu_);
  // Never swap the FILE* from under an in-flight group sync.
  while (sync_inflight_) sync_cv_.Wait(mu_);
  if (dead_) return DeadStatus();
  // Finish the outgoing segment first: rotation must never leave synced
  // and unsynced bytes on different sides of the boundary.
  BIH_RETURN_IF_ERROR(FlushLocked());
  BIH_RETURN_IF_ERROR(SyncLocked());
  const uint64_t rotate_index = rotations_ + 1;
  if (fault_ != nullptr && fault_->OnRotate(rotate_index).fail) {
    return MarkDead("injected rotation failure at rotation " +
                    std::to_string(rotate_index) + " of " + path_);
  }
  std::FILE* next = nullptr;
  Status st =
      CreateWalSegment(WalSegmentPath(path_, segment_index_ + 1), &next);
  if (!st.ok()) return MarkDead("wal rotation failed: " + st.message());
  std::fclose(file_);
  file_ = next;
  ++segment_index_;
  ++rotations_;
  bytes_written_ += sizeof(kWalMagic);
  return Status::OK();
}

// --- reader --------------------------------------------------------------

Status ScanWal(const std::string& path, WalScanResult* out) {
  *out = WalScanResult();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open wal file " + path);
  }
  std::string contents;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, n);
  }
  bool read_err = std::ferror(f) != 0;
  std::fclose(f);
  if (read_err) {
    return Status::IoError("read error on wal file " + path);
  }
  out->bytes_total = contents.size();
  if (contents.size() < sizeof(kWalMagic) ||
      std::memcmp(contents.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::IoError("bad wal magic in " + path);
  }
  const uint8_t* base = reinterpret_cast<const uint8_t*>(contents.data());
  size_t pos = sizeof(kWalMagic);
  out->bytes_salvaged = pos;
  while (pos < contents.size()) {
    // A log frame has no length limit, so a bad length shows as a torn
    // payload.
    const FrameSlice f =
        SliceFrame(base + pos, contents.size() - pos, UINT32_MAX);
    std::string cut;
    WalRecord rec;
    if (f.state == FrameSlice::State::kShortHeader) {
      cut = "torn frame header";
    } else if (f.state == FrameSlice::State::kShortPayload) {
      cut = "torn record payload";
    } else if (f.state == FrameSlice::State::kBadCrc) {
      cut = "crc mismatch";
    } else {
      Status st = DecodeWalRecord(f.payload, f.len, &rec);
      if (!st.ok()) cut = st.message();
    }
    if (!cut.empty()) {
      out->tail_dropped = true;
      out->tail_reason = cut + " at offset " + std::to_string(pos);
      break;
    }
    out->records.push_back(std::move(rec));
    pos += f.size();
    out->bytes_salvaged = pos;
  }
  return Status::OK();
}

Status TruncateWalTail(const std::string& path, uint64_t bytes) {
  // Portable truncate: rewrite the prefix. WAL repair is a recovery-time
  // operation, not a hot path.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open wal file " + path);
  std::string contents(bytes, '\0');
  size_t n = std::fread(contents.data(), 1, bytes, f);
  std::fclose(f);
  if (n != bytes) {
    return Status::IoError("wal file " + path + " shorter than salvage point");
  }
  f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot rewrite wal file " + path);
  bool ok = std::fwrite(contents.data(), 1, bytes, f) == bytes;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) return Status::IoError("failed truncating wal file " + path);
  return Status::OK();
}

}  // namespace bih
