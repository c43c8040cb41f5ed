#include "durability/checkpoint.h"

#include <cstdio>
#include <filesystem>
#include <vector>

#include "engine/engine.h"

namespace bih {

namespace {

// Versions per kSnapshotRows frame. Small enough that a frame stays cheap
// to CRC and decode, large enough that framing overhead is negligible.
constexpr size_t kSnapshotChunkRows = 256;

}  // namespace

std::string CheckpointInfo::ToString() const {
  return "checkpoint " + path + ": " + std::to_string(rows) + " rows of " +
         std::to_string(tables) + " tables, " + std::to_string(bytes) +
         " bytes, covers " + std::to_string(segments_covered) +
         " wal segments (" + std::to_string(segments_removed) + " removed)";
}

Status Checkpointer::Write(TemporalEngine* engine, CheckpointInfo* info) {
  *info = CheckpointInfo();
  WalWriter* wal = engine->wal();
  if (wal == nullptr) {
    return Status::InvalidArgument(
        "checkpoint requires an attached WAL (the snapshot is defined by a "
        "segment boundary)");
  }
  // 1. Rotation first: every commit the snapshot will contain is now in a
  // finished, synced segment, and everything after this point lands in the
  // tail the snapshot does not cover.
  BIH_RETURN_IF_ERROR(wal->Rotate());
  const uint64_t segments_covered = wal->segment_index() - 1;

  // Publish lazily-deferred engine state (System B's undo log) so the
  // snapshot scan below is a pure read.
  engine->PrepareForReads();

  const std::string final_path = CheckpointPath(base_);
  const std::string tmp_path = final_path + ".tmp";
  std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot create checkpoint file " + tmp_path);
  }
  const std::string magic = WalFileMagic();
  if (std::fwrite(magic.data(), 1, magic.size(), f) != magic.size()) {
    std::fclose(f);
    return Status::IoError("cannot write checkpoint magic to " + tmp_path);
  }

  // Frame writer with crash-point injection. On an injected failure the
  // torn .tmp file is deliberately left behind — that is the crash state
  // recovery must shrug off (it only ever reads the published .ckpt).
  std::string payload, frame;
  auto write_frame = [&](const WalRecord& rec) -> Status {
    if (fault_ != nullptr && fault_->OnCheckpointWrite(frames_written_ + 1).fail) {
      std::fclose(f);
      return Status::IoError("injected checkpoint failure at frame " +
                             std::to_string(frames_written_ + 1) + " of " +
                             tmp_path);
    }
    EncodeWalFrame(rec, &payload, &frame);
    if (std::fwrite(frame.data(), 1, frame.size(), f) != frame.size()) {
      std::fclose(f);
      return Status::IoError("short write on checkpoint file " + tmp_path);
    }
    ++frames_written_;
    return Status::OK();
  };

  // 2. Stream the snapshot: per table its definition, then its stored
  // versions in chunks. Scan order within a table is arbitrary; recovery
  // fidelity is defined on version sets, not physical order.
  for (const std::string& table : engine->ListTables()) {
    WalRecord def_rec;
    def_rec.kind = WalRecord::Kind::kCreateTable;
    def_rec.def = engine->GetTableDef(table);
    BIH_RETURN_IF_ERROR(write_frame(def_rec));
    ++info->tables;

    WalRecord chunk;
    chunk.kind = WalRecord::Kind::kSnapshotRows;
    chunk.table = table;
    Status chunk_status = Status::OK();
    ScanRequest req;
    req.table = table;
    req.temporal.system_time = TemporalSelector::All();
    req.temporal.app_time = TemporalSelector::All();
    ExecStats stats;
    req.stats = &stats;
    engine->Scan(req, [&](const Row& stored) {
      chunk.rows.push_back(stored);
      ++info->rows;
      if (chunk.rows.size() >= kSnapshotChunkRows) {
        chunk_status = write_frame(chunk);
        chunk.rows.clear();
      }
      return chunk_status.ok();
    });
    if (chunk_status.ok() && !chunk.rows.empty()) {
      chunk_status = write_frame(chunk);
    }
    BIH_RETURN_IF_ERROR(chunk_status);
  }

  // 3. Footer, sync, atomic publish.
  WalRecord footer;
  footer.kind = WalRecord::Kind::kCheckpointFooter;
  footer.ts = engine->Now().micros();
  footer.segments_covered = segments_covered;
  BIH_RETURN_IF_ERROR(write_frame(footer));
  info->clock_micros = footer.ts;

  if (std::fflush(f) != 0) {
    std::fclose(f);
    return Status::IoError("cannot flush checkpoint file " + tmp_path);
  }
  Status sync_st = SyncFileNow(f, tmp_path);
  if (!sync_st.ok()) {
    std::fclose(f);
    return sync_st;
  }
  const long size = std::ftell(f);
  info->bytes = size < 0 ? 0 : static_cast<uint64_t>(size);
  std::fclose(f);

  if (fault_ != nullptr && fault_->OnRename(renames_ + 1).fail) {
    // Crash before publication: the finished .tmp is never renamed, the
    // previous checkpoint (if any) stays authoritative.
    return Status::IoError("injected crash before checkpoint rename of " +
                           tmp_path);
  }
  ++renames_;
  std::error_code ec;
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec) {
    return Status::IoError("cannot publish checkpoint " + final_path + ": " +
                           ec.message());
  }
  BIH_RETURN_IF_ERROR(SyncParentDir(final_path));

  // 4. The covered segments are dead weight now; recovery starts from the
  // snapshot and replays only the tail.
  BIH_RETURN_IF_ERROR(RemoveWalSegmentsBefore(base_, segments_covered + 1,
                                              &info->segments_removed));
  info->path = final_path;
  info->segments_covered = segments_covered;
  return Status::OK();
}

}  // namespace bih
