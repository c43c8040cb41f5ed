#ifndef TPCBIH_DURABILITY_WAL_H_
#define TPCBIH_DURABILITY_WAL_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/period.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/value.h"
#include "durability/fault.h"
#include "temporal/sequenced.h"

namespace bih {

// Binary write-ahead log shared by all four engines. The log is engine-
// neutral: it records logical mutations (the same vocabulary as the archive
// Operation) together with the commit timestamp the engine assigned, so
// replaying it into a fresh engine of any architecture reproduces the exact
// bitemporal state — including system-time coordinates.
//
// File layout: an 8-byte magic ("BIHWAL01"), then records, each in the
// CRC-guarded frame of common/codec.h:
//
//   [u32 payload_len][u32 crc32(payload)][payload]
//
// payload = u8 kind, u8 flags, i64 commit_ts, kind-specific body, written
// with the strings, values and rows of common/codec.h.
// A record with flags bit kInTxn set is only durable once a later kCommit
// record closes its transaction; recovery discards an unterminated batch,
// which is how a crash between Begin and the Commit flush loses exactly the
// uncommitted suffix and nothing else.
//
// The log is segmented: segment 1 lives at the base path itself (so a
// never-rotated log is byte-compatible with the pre-segmentation format)
// and segment i >= 2 at "<base>.NNNNNN". Rotation is driven by the
// checkpointer (durability/checkpoint.h); recovery replays the segment
// chain in index order.

// The 8-byte file magic shared by log segments and checkpoint files.
std::string WalFileMagic();

// --- durable-sync primitives ---------------------------------------------
// These are the only sanctioned fsync/fdatasync call sites in the tree
// (tools/bih_lint enforces it): every durability decision goes through
// here, where BIH_NO_FSYNC can turn real device syncs off for tests and
// benches that churn thousands of tiny throwaway logs.

// True unless BIH_NO_FSYNC is set (re-read per call so tests can flip it).
bool DurableSyncEnabled();
// fdatasync of `f`'s descriptor; EINTR is retried. No-op when sync is
// disabled. `path` is only used for error messages.
Status SyncFileNow(std::FILE* f, const std::string& path);
// fsync of the directory containing `path`, making a create/rename of that
// name durable. No-op when sync is disabled.
Status SyncParentDir(const std::string& path);

// --- segment naming -------------------------------------------------------

// Path of segment `index` (1-based) of the log at `base`: `base` itself for
// index 1, "<base>.NNNNNN" (zero-padded) beyond.
std::string WalSegmentPath(const std::string& base, uint64_t index);

struct WalSegment {
  uint64_t index = 0;
  std::string path;
};

// All existing segments of the log at `base`, sorted by index. Missing
// leading segments (truncated by a checkpoint) are simply absent.
std::vector<WalSegment> ListWalSegments(const std::string& base);

// Deletes segments with index < keep_from (checkpoint truncation). The
// number of files removed is reported via `removed` when non-null.
Status RemoveWalSegmentsBefore(const std::string& base, uint64_t keep_from,
                               uint64_t* removed = nullptr);

struct WalRecord {
  enum class Kind : uint8_t {
    kCreateTable = 1,
    kInsert = 2,
    kUpdateCurrent = 3,
    kUpdateSequenced = 4,
    kUpdateOverwrite = 5,
    kDeleteCurrent = 6,
    kDeleteSequenced = 7,
    kBulkLoad = 8,
    kCommit = 9,  // closes the open transaction's records
    // Checkpoint-file records (durability/checkpoint.h); never produced by
    // live mutation logging.
    kSnapshotRows = 10,     // a chunk of stored versions of one table
    kCheckpointFooter = 11  // marks the checkpoint complete and readable
  };
  static constexpr uint8_t kInTxn = 0x01;  // flags bit

  Kind kind = Kind::kCommit;
  uint8_t flags = 0;
  int64_t ts = 0;  // commit timestamp (micros); 0 for DDL;
                   // clock watermark for kCheckpointFooter

  std::string table;                    // all DML kinds, kSnapshotRows
  TableDef def;                         // kCreateTable
  Row row;                              // kInsert
  std::vector<Row> rows;                // kBulkLoad, kSnapshotRows
  std::vector<Value> key;               // update/delete kinds
  int period_index = 0;                 // sequenced kinds
  Period period;                        // sequenced kinds
  std::vector<ColumnAssignment> set;    // update kinds
  uint64_t segments_covered = 0;        // kCheckpointFooter: highest WAL
                                        // segment folded into the snapshot

  bool in_txn() const { return (flags & kInTxn) != 0; }
};

// Serializes `rec` into the payload encoding (no frame header).
void EncodeWalRecord(const WalRecord& rec, std::string* out);
// Encodes `rec` as one file frame, [len][crc32(payload)][payload], into
// *frame — the framing of log segments and checkpoint files alike.
// `payload` is scratch space the caller may reuse across calls.
void EncodeWalFrame(const WalRecord& rec, std::string* payload,
                    std::string* frame);
// Parses a payload produced by EncodeWalRecord.
Status DecodeWalRecord(const uint8_t* data, size_t n, WalRecord* out);

// Appends framed records to a log file. Writes go through the optional
// FaultInjector. Clean failures (an injected EIO before any byte landed,
// or a failed fflush/fdatasync) are retried with bounded exponential
// backoff before giving up; a short physical write is never retried,
// because the on-disk state is unknown. Once an append, flush or rotation
// has definitively failed, the writer is dead: dead_reason() keeps the one
// actionable first error and every further call returns the same terse
// kIoError referencing it (the in-memory engine state is then ahead of the
// durable state, exactly like a real crash — the session layer reacts by
// degrading to read-only).
//
// Flush() is the durability point of a commit: it pushes buffered bytes to
// the OS and then fdatasyncs the segment (unless BIH_NO_FSYNC is set).
//
// Group commit: SetDeferredSync(true) turns Flush() into a stage-only
// operation (fflush to the OS, no device sync); durability then comes from
// SyncGroup(), which flushes the stream, captures the append LSN, and pays
// one fdatasync for every record appended so far — with the writer's mutex
// released during the device wait, so later transactions keep appending
// into the stream while the sync is in flight (commit pipelining). The
// group-commit coordinator (durability/group_commit.h) elects the leader
// that calls it.
//
// Thread safety: the writer carries its own mutex, so Append/Flush/Rotate
// are safe from any thread. In the session layer all writes already arrive
// serialized under the exclusive engine lock; the internal lock makes the
// log's frame integrity independent of that outer discipline (and lets
// -Wthread-safety prove nothing touches the stream unlocked).
class WalWriter {
 public:
  // Attempts per record/flush/sync: the first try plus two retries, backing
  // off 1ms then 2ms. Enough to ride out a transient EINTR/ENOSPC-race
  // style hiccup without stalling a commit visibly.
  static constexpr int kMaxWriteAttempts = 3;

  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  // Creates/truncates segment 1 of the log at `path`, writes the magic and
  // makes the creation durable (file + parent directory sync). The injector
  // (optional) is borrowed and must outlive the writer.
  static Status Open(const std::string& path, FaultInjector* fault,
                     std::unique_ptr<WalWriter>* out);

  // Creates/truncates segment `segment_index` (>= 1) of the log at `path`
  // and opens a writer positioned there, leaving earlier segments alone.
  // This is the revive path out of read-only degradation: a session whose
  // writer died at segment k opens a fresh writer at k+1, checkpoints the
  // in-memory state (covering everything before the fresh segment), and
  // resumes writes — recovery then never needs the dead segment's lost
  // suffix.
  static Status OpenAt(const std::string& path, uint64_t segment_index,
                       FaultInjector* fault, std::unique_ptr<WalWriter>* out);

  Status Append(const WalRecord& rec) EXCLUDES(mu_);
  // Pushes buffered bytes to the OS and syncs the device (the durability
  // point of a commit). In deferred-sync mode the device sync is skipped:
  // the record is staged and SyncGroup() pays for it later.
  Status Flush() EXCLUDES(mu_);
  // Finishes the current segment (flush + sync) and starts the next one.
  // Called by the checkpointer at the checkpoint watermark so the snapshot
  // covers exactly the finished segments. Rotation always syncs the device,
  // deferred mode or not: a segment boundary is a durability boundary.
  Status Rotate() EXCLUDES(mu_);

  // --- group commit ------------------------------------------------------
  // Switches Flush() between sync-per-commit (false, the default) and
  // stage-only (true). The session layer flips this once when it takes
  // ownership of durability via a GroupCommit coordinator.
  void SetDeferredSync(bool deferred) EXCLUDES(mu_);
  // Records appended so far across segments — the LSN ticket a transaction
  // hands to the group-commit coordinator ("make everything up to here
  // durable").
  uint64_t appended_lsn() const EXCLUDES(mu_);
  // One batched durability point: flush the stream, capture the append
  // LSN, fdatasync the device (fault-checked per attempt via OnSync, with
  // the same retry/backoff as the per-commit path; OnGroupFlush fires once
  // between staging and the sync — the "crash with the group in the page
  // cache" point). The writer's mutex is RELEASED during the device wait.
  // On success *durable_upto (optional) is the LSN the sync proved durable.
  Status SyncGroup(uint64_t* durable_upto) EXCLUDES(mu_);

  const std::string& path() const { return path_; }
  uint64_t records_written() const {
    MutexLock lock(mu_);
    return records_written_;
  }
  uint64_t bytes_written() const {
    MutexLock lock(mu_);
    return bytes_written_;
  }
  uint64_t segment_index() const {
    MutexLock lock(mu_);
    return segment_index_;
  }
  uint64_t syncs() const {
    MutexLock lock(mu_);
    return syncs_;
  }
  uint64_t group_syncs() const {
    MutexLock lock(mu_);
    return group_syncs_;
  }
  bool dead() const {
    MutexLock lock(mu_);
    return dead_;
  }
  // The first definitive failure, verbatim; empty while the writer lives.
  std::string dead_reason() const {
    MutexLock lock(mu_);
    return dead_reason_;
  }

 private:
  WalWriter(std::string path, std::FILE* f, FaultInjector* fault,
            uint64_t header_bytes, uint64_t segment_index = 1)
      : path_(std::move(path)),
        file_(f),
        fault_(fault),
        bytes_written_(header_bytes),
        segment_index_(segment_index) {}

  // Records the first definitive failure and returns its status; later
  // calls while dead get the same stable terse error from DeadStatus().
  Status MarkDead(std::string reason) REQUIRES(mu_);
  Status DeadStatus() const REQUIRES(mu_);
  // fflush with bounded retries; marks the writer dead on exhaustion.
  Status FlushLocked() REQUIRES(mu_);
  // One sync point (fault-checked, retried, BIH_NO_FSYNC-gated).
  Status SyncLocked() REQUIRES(mu_);

  const std::string path_;  // base path (= segment 1), immutable

  // Everything below is the log stream's integrity: the FILE*, the injected
  // fault plan (its trigger counter mutates per write), the frame counters
  // and the scratch buffers must move together, one frame at a time.
  mutable Mutex mu_;
  std::FILE* file_ GUARDED_BY(mu_) = nullptr;
  FaultInjector* fault_ GUARDED_BY(mu_) PT_GUARDED_BY(mu_) = nullptr;  // not owned
  uint64_t records_written_ GUARDED_BY(mu_) = 0;  // across all segments
  uint64_t bytes_written_ GUARDED_BY(mu_) = 0;    // across all segments
  uint64_t segment_index_ GUARDED_BY(mu_) = 1;
  uint64_t syncs_ GUARDED_BY(mu_) = 0;
  uint64_t group_syncs_ GUARDED_BY(mu_) = 0;
  uint64_t rotations_ GUARDED_BY(mu_) = 0;
  // Group-commit state. While a group's device sync is in flight the FILE*
  // must not be swapped or closed: SyncGroup sets sync_inflight_ and drops
  // mu_ for the wait; Rotate and the destructor wait on sync_cv_ for the
  // flag to clear before touching file_.
  bool deferred_sync_ GUARDED_BY(mu_) = false;
  bool sync_inflight_ GUARDED_BY(mu_) = false;
  CondVar sync_cv_;
  bool dead_ GUARDED_BY(mu_) = false;
  std::string dead_reason_ GUARDED_BY(mu_);
  // Scratch space reused across Append calls; at steady state appending a
  // record allocates nothing (this keeps the logging tax on the Fig. 16
  // loading path well under 2x).
  std::string payload_buf_ GUARDED_BY(mu_);
  std::string frame_buf_ GUARDED_BY(mu_);
};

// Result of scanning a log file up to the first torn or corrupt frame.
struct WalScanResult {
  std::vector<WalRecord> records;  // the valid prefix
  uint64_t bytes_total = 0;        // file size
  uint64_t bytes_salvaged = 0;     // offset just past the last valid record
  bool tail_dropped = false;       // trailing garbage was ignored
  std::string tail_reason;         // why the tail was cut (empty when clean)
};

// Reads every valid record of `path`. A bad magic is an error; a torn or
// CRC-corrupt tail is NOT — the valid prefix is returned and the tail
// described in `out` (graceful degradation; the caller decides whether to
// TruncateWalTail the file).
Status ScanWal(const std::string& path, WalScanResult* out);

// Truncates `path` to `bytes`, discarding a corrupt tail found by ScanWal
// so future appends extend a clean log.
Status TruncateWalTail(const std::string& path, uint64_t bytes);

}  // namespace bih

#endif  // TPCBIH_DURABILITY_WAL_H_
