#include "sqldb/storage.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <unordered_set>

#include "sqldb/database.h"
#include "sqldb/storage_serde.h"

namespace p3pdb::sqldb {

namespace {

constexpr uint32_t kMetaMagic = 0x50334442;  // "P3DB"
constexpr uint32_t kMetaVersion = 1;
constexpr size_t kMetaSlotSize = 64;
constexpr uint32_t kCheckpointMagic = 0x5033434B;  // "P3CK"

// ---- WAL payload encodings -------------------------------------------------

std::vector<uint8_t> EncodeCreateTable(const TableSchema& schema) {
  ByteWriter w;
  w.PutSchema(schema);
  return std::move(w.bytes);
}

std::vector<uint8_t> EncodeDropTable(const std::string& name) {
  ByteWriter w;
  w.PutString(name);
  return std::move(w.bytes);
}

std::vector<uint8_t> EncodeCreateIndex(const Table& table,
                                       const Index& index) {
  ByteWriter w;
  w.PutString(table.schema().name());
  w.PutIndexDef(table.schema(), index);
  return std::move(w.bytes);
}

std::vector<uint8_t> EncodeInsert(const Table& table, size_t row_id,
                                  RowView row) {
  ByteWriter w;
  w.PutString(table.schema().name());
  w.PutU64(row_id);
  w.PutRow(row);
  return std::move(w.bytes);
}

std::vector<uint8_t> EncodeDelete(const Table& table, size_t row_id) {
  ByteWriter w;
  w.PutString(table.schema().name());
  w.PutU64(row_id);
  return std::move(w.bytes);
}

// ---- Checkpoint image streams ----------------------------------------------

// Streams a checkpoint image to its file through one page-sized staging
// buffer: every full page is one WriteAt, and the last, partial page one
// more, so a crash tears the image only at a page boundary or inside one
// page write.
class CheckpointWriter {
 public:
  explicit CheckpointWriter(FileBackend* file) : file_(file) {
    page_.reserve(kPageSize);
  }

  Status Append(const ByteWriter& w) {
    const uint8_t* data = w.bytes.data();
    size_t len = w.bytes.size();
    while (len > 0) {
      const size_t n = std::min(len, kPageSize - page_.size());
      page_.insert(page_.end(), data, data + n);
      data += n;
      len -= n;
      if (page_.size() == kPageSize) P3PDB_RETURN_IF_ERROR(WritePage());
    }
    return Status::OK();
  }

  /// Appends `body` behind its u32 byte length.
  Status AppendFramed(const ByteWriter& body) {
    ByteWriter len;
    len.PutU32(static_cast<uint32_t>(body.bytes.size()));
    P3PDB_RETURN_IF_ERROR(Append(len));
    return Append(body);
  }

  /// Writes the partial last page. Does not sync the file.
  Status Finish() { return page_.empty() ? Status::OK() : WritePage(); }

  uint64_t total_bytes() const { return written_ + page_.size(); }

 private:
  Status WritePage() {
    P3PDB_RETURN_IF_ERROR(file_->WriteAt(written_, page_.data(), page_.size()));
    written_ += page_.size();
    page_.clear();
    return Status::OK();
  }

  FileBackend* file_;
  std::vector<uint8_t> page_;
  uint64_t written_ = 0;
};

// Reads the first `total_bytes` of a checkpoint image back in order through
// one page-sized buffer. A file shorter than the image is an error.
class CheckpointReader {
 public:
  CheckpointReader(FileBackend* file, uint64_t total_bytes)
      : file_(file), end_(total_bytes), remaining_(total_bytes) {}

  Status Read(uint8_t* out, size_t len) {
    if (len > remaining_) {
      return Status::ParseError("checkpoint image: read past end");
    }
    remaining_ -= len;
    while (len > 0) {
      if (pos_ == page_.size()) P3PDB_RETURN_IF_ERROR(Fill());
      const size_t n = std::min(len, page_.size() - pos_);
      std::memcpy(out, page_.data() + pos_, n);
      pos_ += n;
      out += n;
      len -= n;
    }
    return Status::OK();
  }

  Result<std::vector<uint8_t>> ReadChunk(size_t len) {
    std::vector<uint8_t> buf;
    P3PDB_RETURN_IF_ERROR(ReadChunk(len, &buf));
    return buf;
  }
  /// ReadChunk into `buf`, reusing its capacity.
  Status ReadChunk(size_t len, std::vector<uint8_t>* buf) {
    buf->resize(len);
    return Read(buf->data(), len);
  }

  Result<uint32_t> ReadU32() {
    uint8_t raw[4];
    P3PDB_RETURN_IF_ERROR(Read(raw, 4));
    return ByteReader(raw, 4).GetU32();
  }

  Result<uint64_t> ReadU64() {
    uint8_t raw[8];
    P3PDB_RETURN_IF_ERROR(Read(raw, 8));
    return ByteReader(raw, 8).GetU64();
  }

 private:
  // Loads the next page, or the image's tail when less than a page is left.
  // Read calls this only with unread image bytes outstanding, so `want` > 0.
  Status Fill() {
    const size_t want =
        static_cast<size_t>(std::min<uint64_t>(kPageSize, end_ - offset_));
    page_.resize(want);
    size_t got = 0;
    P3PDB_RETURN_IF_ERROR(file_->ReadAt(offset_, page_.data(), want, &got));
    if (got < want) {
      return Status::ParseError(
          "checkpoint image: file ends before the recorded image length");
    }
    offset_ += want;
    pos_ = 0;
    return Status::OK();
  }

  FileBackend* file_;
  const uint64_t end_;
  uint64_t remaining_;  // image bytes not yet returned by Read
  uint64_t offset_ = 0;  // file offset of the next page to load
  std::vector<uint8_t> page_;
  size_t pos_ = 0;
};

bool IsImplicitPkIndex(const Table& table, const Index& index) {
  return index.name() == "pk_" + table.schema().name();
}

}  // namespace

// ---- Open / meta -----------------------------------------------------------

Result<std::unique_ptr<StorageEngine>> StorageEngine::Open(Options options) {
  if (options.path.empty()) {
    return Status::InvalidArgument("storage path is empty");
  }
  if (!options.backend_factory) {
    options.backend_factory = [](const std::string& path) {
      return OpenPosixFile(path);
    };
  }
  std::error_code ec;
  std::filesystem::create_directories(options.path, ec);
  if (ec) {
    return Status::Internal("storage mkdir '" + options.path +
                            "': " + ec.message());
  }
  std::unique_ptr<StorageEngine> engine(new StorageEngine(std::move(options)));
  P3PDB_ASSIGN_OR_RETURN(engine->meta_file_, engine->OpenFile("meta"));
  P3PDB_RETURN_IF_ERROR(engine->ReadMeta());
  return engine;
}

std::string StorageEngine::FilePath(const std::string& name) const {
  return options_.path + "/" + name;
}

Result<std::unique_ptr<FileBackend>> StorageEngine::OpenFile(
    const std::string& name) {
  return options_.backend_factory(FilePath(name));
}

namespace {

// One meta slot: magic, version, generation, checkpoint byte length, and a
// checksum over the lot. 64 bytes, zero-padded.
std::vector<uint8_t> EncodeMetaSlot(uint64_t generation,
                                    uint64_t checkpoint_bytes) {
  ByteWriter w;
  w.PutU32(kMetaMagic);
  w.PutU32(kMetaVersion);
  w.PutU64(generation);
  w.PutU64(checkpoint_bytes);
  w.PutU64(StorageChecksum(w.bytes.data(), w.bytes.size()));
  w.bytes.resize(kMetaSlotSize, 0);
  return std::move(w.bytes);
}

// Returns true and fills the outputs when the slot decodes and checksums.
bool DecodeMetaSlot(const uint8_t* data, uint64_t* generation,
                    uint64_t* checkpoint_bytes) {
  ByteReader r(data, kMetaSlotSize);
  auto magic = r.GetU32();
  auto version = r.GetU32();
  auto gen = r.GetU64();
  auto bytes = r.GetU64();
  auto sum = r.GetU64();
  if (!magic.ok() || !version.ok() || !gen.ok() || !bytes.ok() || !sum.ok()) {
    return false;
  }
  if (magic.value() != kMetaMagic || version.value() != kMetaVersion) {
    return false;
  }
  if (StorageChecksum(data, 4 + 4 + 8 + 8) != sum.value()) return false;
  *generation = gen.value();
  *checkpoint_bytes = bytes.value();
  return true;
}

}  // namespace

Status StorageEngine::ReadMeta() {
  uint8_t slots[2 * kMetaSlotSize];
  size_t got = 0;
  P3PDB_RETURN_IF_ERROR(
      meta_file_->ReadAt(0, slots, sizeof(slots), &got));
  std::memset(slots + got, 0, sizeof(slots) - got);

  uint64_t best_gen = 0, best_bytes = 0;
  bool found = false;
  for (int slot = 0; slot < 2; ++slot) {
    uint64_t gen = 0, bytes = 0;
    if (DecodeMetaSlot(slots + slot * kMetaSlotSize, &gen, &bytes) &&
        (!found || gen > best_gen)) {
      best_gen = gen;
      best_bytes = bytes;
      found = true;
    }
  }
  if (!found) {
    // No valid slot. Either the directory is fresh (empty meta file) or the
    // very first meta write was torn by a crash — the initial write is the
    // creation commit point, and a checkpoint flip always leaves the
    // previous generation's slot intact, so "no valid slot" can only mean
    // the database was never successfully created. Reinitialize, clearing
    // any torn bytes first so they can never decode as a slot later.
    if (got != 0) {
      P3PDB_RETURN_IF_ERROR(meta_file_->Truncate(0));
    }
    generation_ = 1;
    checkpoint_bytes_ = 0;
    P3PDB_RETURN_IF_ERROR(WriteMeta());
    P3PDB_RETURN_IF_ERROR(meta_file_->Sync());
  } else {
    generation_ = best_gen;
    checkpoint_bytes_ = best_bytes;
  }
  P3PDB_ASSIGN_OR_RETURN(
      wal_file_, OpenFile("wal." + std::to_string(generation_) + ".log"));
  return Status::OK();
}

Status StorageEngine::WriteMeta() {
  std::vector<uint8_t> slot = EncodeMetaSlot(generation_, checkpoint_bytes_);
  const uint64_t offset = (generation_ % 2) * kMetaSlotSize;
  return meta_file_->WriteAt(offset, slot.data(), slot.size());
}

// ---- Recovery --------------------------------------------------------------

Status StorageEngine::LoadCheckpoint(Database* db) {
  if (checkpoint_bytes_ == 0) return Status::OK();
  P3PDB_ASSIGN_OR_RETURN(
      std::unique_ptr<FileBackend> file,
      OpenFile("checkpoint." + std::to_string(generation_) + ".db"));
  CheckpointReader reader(file.get(), checkpoint_bytes_);

  P3PDB_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kCheckpointMagic) {
    return Status::ParseError("checkpoint image: bad magic");
  }
  P3PDB_ASSIGN_OR_RETURN(uint32_t table_count, reader.ReadU32());
  for (uint32_t t = 0; t < table_count; ++t) {
    // Each table section is a length-prefixed header blob (schema + index
    // defs) followed by length-prefixed slot blobs.
    P3PDB_ASSIGN_OR_RETURN(uint32_t header_len, reader.ReadU32());
    P3PDB_ASSIGN_OR_RETURN(std::vector<uint8_t> header,
                           reader.ReadChunk(header_len));
    ByteReader hr(header.data(), header.size());
    P3PDB_ASSIGN_OR_RETURN(TableSchema schema, hr.GetSchema());
    Table* table = db->RestoreTable(std::move(schema));
    if (table == nullptr) {
      return Status::Internal("checkpoint image: duplicate table");
    }
    P3PDB_ASSIGN_OR_RETURN(uint32_t index_count, hr.GetU32());
    for (uint32_t i = 0; i < index_count; ++i) {
      P3PDB_ASSIGN_OR_RETURN(IndexDef def, hr.GetIndexDef());
      Status st = table->CreateIndex(def.name, def.columns, def.unique);
      // The implicit PK index already exists; a name collision with it is
      // not corruption.
      if (!st.ok() && st.code() != StatusCode::kAlreadyExists) return st;
    }
    P3PDB_ASSIGN_OR_RETURN(uint64_t slot_count, reader.ReadU64());
    // A slot takes at least its 4-byte frame and live byte, so a count the
    // image cannot hold is corruption the loop below reports, not a size.
    if (slot_count <= checkpoint_bytes_ / 5) table->ReserveSlots(slot_count);
    // One slot at a time through the same two buffers: the table keeps
    // its own copy of each row.
    std::vector<uint8_t> blob;
    Row row;
    for (uint64_t s = 0; s < slot_count; ++s) {
      P3PDB_ASSIGN_OR_RETURN(uint32_t slot_len, reader.ReadU32());
      P3PDB_RETURN_IF_ERROR(reader.ReadChunk(slot_len, &blob));
      ByteReader sr(blob.data(), blob.size());
      P3PDB_ASSIGN_OR_RETURN(uint8_t live, sr.GetU8());
      if (live != 0) {
        P3PDB_RETURN_IF_ERROR(sr.GetRow(&row));
        P3PDB_RETURN_IF_ERROR(table->RestoreSlot(row, true));
      } else {
        // Tombstone: a placeholder slot keeps the slot array aligned so
        // WAL row ids land where they did in the original run.
        P3PDB_RETURN_IF_ERROR(table->RestoreSlot({}, false));
      }
    }
  }
  return Status::OK();
}

Status StorageEngine::ApplyRecord(Database* db, const WalRecord& record) {
  ByteReader r(record.payload.data(), record.payload.size());
  switch (record.type) {
    case WalRecordType::kCommit:
      return Status::OK();
    case WalRecordType::kCreateTable: {
      P3PDB_ASSIGN_OR_RETURN(TableSchema schema, r.GetSchema());
      if (db->RestoreTable(std::move(schema)) == nullptr) {
        return Status::Internal("WAL replay: duplicate CREATE TABLE");
      }
      return Status::OK();
    }
    case WalRecordType::kDropTable: {
      P3PDB_ASSIGN_OR_RETURN(std::string name, r.GetString());
      return db->DropTable(name, /*if_exists=*/false);
    }
    case WalRecordType::kCreateIndex: {
      P3PDB_ASSIGN_OR_RETURN(std::string table_name, r.GetString());
      P3PDB_ASSIGN_OR_RETURN(IndexDef def, r.GetIndexDef());
      Table* table = db->GetMutableTable(table_name);
      if (table == nullptr) {
        return Status::Internal("WAL replay: CREATE INDEX on missing table '" +
                                table_name + "'");
      }
      return table->CreateIndex(def.name, def.columns, def.unique);
    }
    case WalRecordType::kInsert: {
      P3PDB_ASSIGN_OR_RETURN(std::string table_name, r.GetString());
      P3PDB_ASSIGN_OR_RETURN(uint64_t row_id, r.GetU64());
      P3PDB_ASSIGN_OR_RETURN(Row row, r.GetRow());
      Table* table = db->GetMutableTable(table_name);
      if (table == nullptr) {
        return Status::Internal("WAL replay: INSERT into missing table '" +
                                table_name + "'");
      }
      if (table->SlotCount() != row_id) {
        // Replay must reproduce the original row ids exactly; drift means
        // the log and checkpoint disagree about slot layout.
        return Status::Internal(
            "WAL replay: row id drift in '" + table_name + "' (expected " +
            std::to_string(row_id) + ", next slot is " +
            std::to_string(table->SlotCount()) + ")");
      }
      return table->Insert(row);
    }
    case WalRecordType::kDelete: {
      P3PDB_ASSIGN_OR_RETURN(std::string table_name, r.GetString());
      P3PDB_ASSIGN_OR_RETURN(uint64_t row_id, r.GetU64());
      Table* table = db->GetMutableTable(table_name);
      if (table == nullptr) {
        return Status::Internal("WAL replay: DELETE from missing table '" +
                                table_name + "'");
      }
      table->Delete(row_id);
      return Status::OK();
    }
  }
  return Status::Internal("WAL replay: unknown record type");
}

Status StorageEngine::RecoverInto(Database* db) {
  replaying_ = true;
  Status st = [&]() -> Status {
    P3PDB_RETURN_IF_ERROR(LoadCheckpoint(db));
    P3PDB_ASSIGN_OR_RETURN(WalScan scan, ScanWal(wal_file_.get()));
    stats_.recovered_torn_tail = scan.truncated_tail;

    // Pass 1: which transactions reached their commit record?
    std::unordered_set<uint64_t> committed;
    for (const WalRecord& record : scan.records) {
      if (record.type == WalRecordType::kCommit) {
        committed.insert(record.txn_id);
      }
      if (record.txn_id >= next_txn_id_) next_txn_id_ = record.txn_id + 1;
    }

    // Pass 2: redo the committed records in log order.
    for (const WalRecord& record : scan.records) {
      if (record.type == WalRecordType::kCommit) continue;
      if (committed.count(record.txn_id) == 0) continue;
      P3PDB_RETURN_IF_ERROR(ApplyRecord(db, record));
      ++stats_.recovered_records;
    }
    stats_.recovered_txns = committed.size();

    // Appends resume over the torn/uncommitted tail.
    wal_writer_ =
        std::make_unique<WalWriter>(wal_file_.get(), scan.valid_end_offset);
    wal_bytes_since_checkpoint_ = scan.valid_end_offset;
    return Status::OK();
  }();
  replaying_ = false;
  return st;
}

// ---- Logging hooks ---------------------------------------------------------

Status StorageEngine::FirstError() const {
  std::lock_guard<std::mutex> lock(err_mu_);
  return io_error_;
}

void StorageEngine::RecordError(const Status& st) {
  std::lock_guard<std::mutex> lock(err_mu_);
  if (io_error_.ok()) io_error_ = st;
}

Status StorageEngine::EnsureTxn() {
  P3PDB_RETURN_IF_ERROR(FirstError());
  if (current_txn_id_ == 0) {
    current_txn_id_ = next_txn_id_++;
    pending_ops_ = 0;
  }
  return Status::OK();
}

Status StorageEngine::AppendRecord(WalRecordType type,
                                   std::vector<uint8_t> payload) {
  P3PDB_RETURN_IF_ERROR(EnsureTxn());
  WalRecord record;
  record.txn_id = current_txn_id_;
  record.type = type;
  record.payload = std::move(payload);
  Status st = wal_writer_->Append(record);
  if (!st.ok()) {
    RecordError(st);
    return st;
  }
  ++pending_ops_;
  ++stats_.wal_records;
  return Status::OK();
}

void StorageEngine::OnInsert(const Table& table, size_t row_id,
                             RowView row) {
  if (replaying_) return;
  (void)AppendRecord(WalRecordType::kInsert, EncodeInsert(table, row_id, row));
}

void StorageEngine::OnDelete(const Table& table, size_t row_id) {
  if (replaying_) return;
  (void)AppendRecord(WalRecordType::kDelete, EncodeDelete(table, row_id));
}

void StorageEngine::OnCreateIndex(const Table& table, const Index& index) {
  if (replaying_) return;
  (void)AppendRecord(WalRecordType::kCreateIndex,
                     EncodeCreateIndex(table, index));
}

void StorageEngine::LogCreateTable(const TableSchema& schema) {
  if (replaying_) return;
  (void)AppendRecord(WalRecordType::kCreateTable, EncodeCreateTable(schema));
}

void StorageEngine::LogDropTable(const std::string& name) {
  if (replaying_) return;
  (void)AppendRecord(WalRecordType::kDropTable, EncodeDropTable(name));
}

// ---- Commit ----------------------------------------------------------------

Status StorageEngine::Begin() {
  P3PDB_RETURN_IF_ERROR(FirstError());
  if (explicit_txn_) {
    return Status::Internal("nested explicit transaction");
  }
  explicit_txn_ = true;
  return Status::OK();
}

Status StorageEngine::Commit() {
  if (!explicit_txn_) {
    return Status::Internal("COMMIT without an open transaction");
  }
  explicit_txn_ = false;
  return CommitCurrentTxn();
}

Status StorageEngine::CommitIfImplicit() {
  if (explicit_txn_) return Status::OK();
  return CommitCurrentTxn();
}

Status StorageEngine::CommitCurrentTxn() {
  P3PDB_ASSIGN_OR_RETURN(uint64_t ticket, StageCurrentTxn());
  if (options_.group_commit) {
    // Even a lone committer goes through the queue, so a commit racing a
    // leader's in-flight fsync piggybacks on it instead of issuing its own.
    return WaitDurable(ticket);
  }
  if (ticket == 0) return Status::OK();
  Status st = wal_writer_->Sync();
  if (!st.ok()) {
    RecordError(st);
    return st;
  }
  // The fsync covers every ticket staged so far; a WaitDurable on one of
  // them returns without another.
  std::lock_guard<std::mutex> lock(gc_mu_);
  synced_seq_ = std::max(synced_seq_, ticket);
  return Status::OK();
}

Result<uint64_t> StorageEngine::StageCurrentTxn() {
  P3PDB_RETURN_IF_ERROR(FirstError());
  if (current_txn_id_ == 0 || pending_ops_ == 0) {
    current_txn_id_ = 0;  // an empty transaction writes nothing
    return 0;
  }
  WalRecord commit;
  commit.txn_id = current_txn_id_;
  commit.type = WalRecordType::kCommit;
  Status st = wal_writer_->Append(commit);
  if (!st.ok()) {
    RecordError(st);
    return st;
  }
  ++stats_.wal_records;
  ++stats_.wal_commits;
  current_txn_id_ = 0;
  pending_ops_ = 0;
  // The ticket is issued after the append (still under the caller's append
  // serialization), so every ticket <= commit_seq_ has its commit record
  // fully written — a leader that fsyncs up to commit_seq_ covers them all.
  std::lock_guard<std::mutex> lock(gc_mu_);
  return ++commit_seq_;
}

Result<uint64_t> StorageEngine::CommitStaged() {
  if (!explicit_txn_) {
    return Status::Internal("COMMIT without an open transaction");
  }
  explicit_txn_ = false;
  return StageCurrentTxn();
}

Status StorageEngine::WaitDurable(uint64_t ticket) {
  if (ticket == 0) return Status::OK();
  std::unique_lock<std::mutex> lock(gc_mu_);
  for (;;) {
    if (synced_seq_ >= ticket) return Status::OK();
    {
      std::lock_guard<std::mutex> err_lock(err_mu_);
      if (!io_error_.ok()) return io_error_;
    }
    if (!sync_in_progress_) break;  // no leader active: become one
    gc_cv_.wait(lock);
  }
  sync_in_progress_ = true;
  if (options_.group_commit_window_us > 0) {
    // Hold the leader role (but not the lock) briefly so more committers
    // can stage behind this fsync. Spurious wakeups only shorten the wait.
    gc_cv_.wait_for(
        lock, std::chrono::microseconds(options_.group_commit_window_us));
  }
  const uint64_t target = commit_seq_;
  // Checkpoint swaps wal_writer_ only after waiting for !sync_in_progress_,
  // so the pointer captured here stays valid for the unlocked fsync below.
  WalWriter* writer = wal_writer_.get();
  lock.unlock();
  Status st = writer->Sync();
  lock.lock();
  sync_in_progress_ = false;
  group_syncs_.fetch_add(1, std::memory_order_relaxed);
  if (!st.ok()) {
    RecordError(st);
    gc_cv_.notify_all();
    return st;
  }
  if (target > synced_seq_) synced_seq_ = target;
  gc_cv_.notify_all();
  return Status::OK();
}

// ---- Checkpoint ------------------------------------------------------------

Status StorageEngine::Checkpoint(const Database& db) {
  P3PDB_RETURN_IF_ERROR(FirstError());
  if (explicit_txn_ || current_txn_id_ != 0) {
    // A checkpoint mid-transaction would make uncommitted rows durable.
    return Status::OK();
  }
  const uint64_t next_gen = generation_ + 1;
  const std::string ckpt_name = "checkpoint." + std::to_string(next_gen) +
                                ".db";
  const std::string wal_name = "wal." + std::to_string(next_gen) + ".log";

  // 1. Write the full catalog image to the next-generation checkpoint file.
  P3PDB_ASSIGN_OR_RETURN(std::unique_ptr<FileBackend> ckpt_file,
                         OpenFile(ckpt_name));
  P3PDB_RETURN_IF_ERROR(ckpt_file->Truncate(0));  // a stale attempt may exist
  CheckpointWriter writer(ckpt_file.get());
  {
    ByteWriter head;
    head.PutU32(kCheckpointMagic);
    head.PutU32(static_cast<uint32_t>(db.TableNames().size()));
    P3PDB_RETURN_IF_ERROR(writer.Append(head));
  }
  for (const std::string& name : db.TableNames()) {
    const Table* table = db.LookupTable(name);
    ByteWriter header;
    header.PutSchema(table->schema());
    std::vector<const Index*> secondary;
    for (const auto& index : table->indexes()) {
      if (!IsImplicitPkIndex(*table, *index)) secondary.push_back(index.get());
    }
    header.PutU32(static_cast<uint32_t>(secondary.size()));
    for (const Index* index : secondary) {
      header.PutIndexDef(table->schema(), *index);
    }
    P3PDB_RETURN_IF_ERROR(writer.AppendFramed(header));
    ByteWriter slot_count;
    slot_count.PutU64(table->SlotCount());
    P3PDB_RETURN_IF_ERROR(writer.Append(slot_count));
    for (size_t slot = 0; slot < table->SlotCount(); ++slot) {
      ByteWriter blob;
      if (table->IsLive(slot)) {
        blob.PutU8(1);
        blob.PutRow(table->RowAt(slot));
      } else {
        blob.PutU8(0);
      }
      P3PDB_RETURN_IF_ERROR(writer.AppendFramed(blob));
    }
  }
  P3PDB_RETURN_IF_ERROR(writer.Finish());
  P3PDB_RETURN_IF_ERROR(ckpt_file->Sync());

  // 2. Create the empty next-generation WAL (truncating a stale attempt).
  P3PDB_ASSIGN_OR_RETURN(std::unique_ptr<FileBackend> new_wal,
                         OpenFile(wal_name));
  P3PDB_RETURN_IF_ERROR(new_wal->Truncate(0));
  P3PDB_RETURN_IF_ERROR(new_wal->Sync());

  // 3. Flip the meta slot — this is the atomic commit point of the
  //    checkpoint. A crash before this line recovers at the old
  //    generation; after it, at the new one.
  const uint64_t old_gen = generation_;
  generation_ = next_gen;
  checkpoint_bytes_ = writer.total_bytes();
  Status st = WriteMeta();
  if (st.ok()) st = meta_file_->Sync();
  if (!st.ok()) {
    generation_ = old_gen;
    RecordError(st);
    return st;
  }

  // 4. Retire the old generation's files (best-effort; stale files are
  //    ignored by recovery). A group-commit leader may still be fsyncing
  //    the retired WAL — wait it out under gc_mu_ before freeing the file,
  //    then mark every staged commit durable: the image just made durable
  //    (fsync before the meta flip) contains all of them, so waiters can
  //    stop waiting for a WAL fsync that will never cover them.
  {
    std::unique_lock<std::mutex> lock(gc_mu_);
    gc_cv_.wait(lock, [this] { return !sync_in_progress_; });
    if (wal_writer_ != nullptr) {
      // Fold the retired writer's tallies in so stats stay monotonic across
      // the swap (the server's delta-sync metrics depend on that).
      stats_.wal_bytes += wal_writer_->bytes_written();
      stats_.wal_syncs += wal_writer_->syncs();
    }
    wal_file_ = std::move(new_wal);
    wal_writer_ = std::make_unique<WalWriter>(wal_file_.get(), 0);
    synced_seq_ = commit_seq_;
    gc_cv_.notify_all();
  }
  wal_bytes_since_checkpoint_ = 0;
  std::error_code ec;
  std::filesystem::remove(FilePath("wal." + std::to_string(old_gen) + ".log"),
                          ec);
  std::filesystem::remove(
      FilePath("checkpoint." + std::to_string(old_gen) + ".db"), ec);
  ++stats_.checkpoints;
  return Status::OK();
}

Status StorageEngine::MaybeCheckpoint(const Database& db) {
  if (options_.checkpoint_wal_bytes == 0) return Status::OK();
  if (wal_writer_ == nullptr) return Status::OK();
  if (wal_bytes_since_checkpoint_ + wal_writer_->bytes_written() <
      options_.checkpoint_wal_bytes) {
    return Status::OK();
  }
  return Checkpoint(db);
}

StorageStats StorageEngine::stats() const {
  StorageStats s = stats_;
  if (wal_writer_ != nullptr) {
    s.wal_bytes += wal_writer_->bytes_written();
    s.wal_syncs += wal_writer_->syncs();
  }
  s.wal_group_syncs = group_syncs_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace p3pdb::sqldb
