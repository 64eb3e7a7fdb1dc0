#include "sqldb/wal.h"

#include <cstring>

#include "common/fnv.h"
#include "sqldb/storage_serde.h"

namespace p3pdb::sqldb {

namespace {

constexpr size_t kHeaderSize = 4 + 8 + 8 + 1;  // len, checksum, txn_id, type

// Checksum covers txn_id + type + payload (not the length prefix; a torn
// length is caught by the payload falling short of it).
uint64_t RecordChecksum(uint64_t txn_id, uint8_t type,
                        const std::vector<uint8_t>& payload) {
  ByteWriter w;
  w.PutU64(txn_id);
  w.PutU8(type);
  const uint64_t h = StorageChecksum(w.bytes.data(), w.bytes.size());
  // Chain the payload through the same FNV stream.
  return FnvHash(payload, h);
}

}  // namespace

Status WalWriter::Append(const WalRecord& record) {
  ByteWriter frame;
  frame.PutU32(static_cast<uint32_t>(record.payload.size()));
  frame.PutU64(RecordChecksum(record.txn_id,
                              static_cast<uint8_t>(record.type),
                              record.payload));
  frame.PutU64(record.txn_id);
  frame.PutU8(static_cast<uint8_t>(record.type));
  frame.bytes.insert(frame.bytes.end(), record.payload.begin(),
                     record.payload.end());
  P3PDB_RETURN_IF_ERROR(
      file_->WriteAt(offset_.load(std::memory_order_relaxed),
                     frame.bytes.data(), frame.bytes.size()));
  offset_.fetch_add(frame.bytes.size(), std::memory_order_relaxed);
  bytes_written_.fetch_add(frame.bytes.size(), std::memory_order_relaxed);
  records_written_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status WalWriter::Sync() {
  syncs_.fetch_add(1, std::memory_order_relaxed);
  return file_->Sync();
}

Result<WalScan> ScanWal(FileBackend* file) {
  P3PDB_ASSIGN_OR_RETURN(uint64_t size, file->Size());
  WalScan scan;
  uint64_t offset = 0;
  std::vector<uint8_t> buf;
  while (offset + kHeaderSize <= size) {
    uint8_t header[kHeaderSize];
    size_t got = 0;
    P3PDB_RETURN_IF_ERROR(file->ReadAt(offset, header, kHeaderSize, &got));
    if (got < kHeaderSize) {
      scan.truncated_tail = true;
      break;
    }
    ByteReader hr(header, kHeaderSize);
    const uint32_t payload_len = std::move(hr.GetU32()).value();
    const uint64_t checksum = std::move(hr.GetU64()).value();
    const uint64_t txn_id = std::move(hr.GetU64()).value();
    const uint8_t type = std::move(hr.GetU8()).value();
    if (type > static_cast<uint8_t>(WalRecordType::kDelete) ||
        offset + kHeaderSize + payload_len > size) {
      scan.truncated_tail = true;
      break;
    }
    buf.resize(payload_len);
    if (payload_len > 0) {
      P3PDB_RETURN_IF_ERROR(
          file->ReadAt(offset + kHeaderSize, buf.data(), payload_len, &got));
      if (got < payload_len) {
        scan.truncated_tail = true;
        break;
      }
    }
    if (RecordChecksum(txn_id, type, buf) != checksum) {
      scan.truncated_tail = true;
      break;
    }
    WalRecord record;
    record.txn_id = txn_id;
    record.type = static_cast<WalRecordType>(type);
    record.payload = buf;
    scan.records.push_back(std::move(record));
    offset += kHeaderSize + payload_len;
  }
  if (offset + kHeaderSize > size && offset < size && !scan.truncated_tail) {
    // A few stray bytes after the last record: torn header.
    scan.truncated_tail = true;
  }
  scan.valid_end_offset = offset;
  return scan;
}

}  // namespace p3pdb::sqldb
