// Unit tests for the disk-backed storage engine's layers: serde encoding,
// WAL framing and torn-tail scanning, the fault-injecting file backend,
// the checkpoint image's page writes and its reader's length checks,
// Database close/reopen/checkpoint durability, and PolicyServer catalog
// recovery.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>
#include <unistd.h>

#include "server/policy_server.h"
#include "sqldb/database.h"
#include "sqldb/file_backend.h"
#include "sqldb/storage_serde.h"
#include "sqldb/wal.h"
#include "workload/corpus.h"
#include "workload/jrc_preferences.h"
#include "workload/paper_examples.h"

namespace p3pdb::sqldb {
namespace {

using server::EngineKind;
using server::PolicyServer;

std::string TestDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "p3pdb_storage_" +
                    std::to_string(::getpid()) + "_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------- serde --

TEST(StorageSerde, ValueAndRowRoundtrip) {
  ByteWriter writer;
  // 8 bytes with an embedded NUL: a const char* would stop at the NUL.
  const std::string nul_text("h\xc3\xa9llo\0x", 8);
  Row row = {Value::Null(), Value::Integer(-42), Value::Text(nul_text),
             Value::Integer(INT64_MAX), Value::Text("")};
  writer.PutRow(row);

  // The on-disk encoding of this row (WAL records and checkpoints share
  // it): a u32 count, then per value a tag byte (0 NULL, 1 integer, 2
  // text) and a little-endian u64 or a u32 length and the bytes.
  const std::vector<uint8_t> golden = {
      0x05, 0x00, 0x00, 0x00, 0x00, 0x01, 0xd6, 0xff, 0xff, 0xff, 0xff,
      0xff, 0xff, 0xff, 0x02, 0x08, 0x00, 0x00, 0x00, 0x68, 0xc3, 0xa9,
      0x6c, 0x6c, 0x6f, 0x00, 0x78, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff,
      0xff, 0xff, 0x7f, 0x02, 0x00, 0x00, 0x00, 0x00};
  EXPECT_EQ(writer.bytes, golden);

  ByteReader reader(writer.bytes.data(), writer.bytes.size());
  auto decoded = reader.GetRow();
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_TRUE(reader.exhausted());
  ASSERT_EQ(decoded.value().size(), row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(Value::OrderCompare(decoded.value()[i], row[i]), 0) << i;
  }
  EXPECT_EQ(decoded.value()[2].AsText().size(), 8u);
  EXPECT_EQ(decoded.value()[2].AsText(), nul_text);
}

TEST(StorageSerde, SchemaRoundtripKeepsKeysAndConstraints) {
  TableSchema schema(
      "Widgets",
      {ColumnDef{"id", ColumnType::kInteger, /*nullable=*/false},
       ColumnDef{"parent", ColumnType::kInteger, /*nullable=*/true},
       ColumnDef{"label", ColumnType::kText, /*nullable=*/true}});
  schema.set_primary_key({"id"});
  ForeignKeyDef fk;
  fk.columns = {"parent"};
  fk.referenced_table = "Widgets";
  fk.referenced_columns = {"id"};
  schema.AddForeignKey(fk);

  ByteWriter writer;
  writer.PutSchema(schema);
  ByteReader reader(writer.bytes.data(), writer.bytes.size());
  auto decoded = reader.GetSchema();
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded.value().name(), "Widgets");
  ASSERT_EQ(decoded.value().columns().size(), 3u);
  EXPECT_EQ(decoded.value().columns()[1].name, "parent");
  EXPECT_FALSE(decoded.value().columns()[0].nullable);
  EXPECT_EQ(decoded.value().primary_key(), schema.primary_key());
  ASSERT_EQ(decoded.value().foreign_keys().size(), 1u);
  EXPECT_EQ(decoded.value().foreign_keys()[0].referenced_table, "Widgets");

  // An index stores its key columns by name, in key order.
  ByteWriter index_writer;
  index_writer.PutIndexDef(schema, Index("idx_label_id", {2, 0}, true));
  ByteReader index_reader(index_writer.bytes.data(),
                          index_writer.bytes.size());
  auto index = index_reader.GetIndexDef();
  ASSERT_TRUE(index.ok()) << index.status();
  EXPECT_TRUE(index_reader.exhausted());
  EXPECT_EQ(index.value().name, "idx_label_id");
  EXPECT_EQ(index.value().columns,
            (std::vector<std::string>{"label", "id"}));
  EXPECT_TRUE(index.value().unique);
}

TEST(StorageSerde, TruncatedBufferFailsCleanly) {
  ByteWriter writer;
  writer.PutRow(Row{Value::Text("abcdefgh"), Value::Integer(7)});
  for (size_t cut = 0; cut < writer.bytes.size(); ++cut) {
    ByteReader reader(writer.bytes.data(), cut);
    EXPECT_FALSE(reader.GetRow().ok()) << "cut at " << cut;
  }
}

// ------------------------------------------------------------------ WAL --

WalRecord MakeRecord(uint64_t txn, WalRecordType type, size_t payload_len) {
  WalRecord record;
  record.txn_id = txn;
  record.type = type;
  record.payload.assign(payload_len, static_cast<uint8_t>(txn * 31 + 1));
  return record;
}

TEST(Wal, AppendScanRoundtrip) {
  const std::string dir = TestDir("wal_roundtrip");
  std::filesystem::create_directories(dir);
  auto file = OpenPosixFile(dir + "/wal.log");
  ASSERT_TRUE(file.ok());

  WalWriter writer(file.value().get(), 0);
  std::vector<WalRecord> written;
  written.push_back(MakeRecord(1, WalRecordType::kInsert, 40));
  written.push_back(MakeRecord(1, WalRecordType::kDelete, 12));
  written.push_back(MakeRecord(1, WalRecordType::kCommit, 0));
  written.push_back(MakeRecord(2, WalRecordType::kCreateTable, 200));
  for (const WalRecord& record : written) {
    ASSERT_TRUE(writer.Append(record).ok());
  }
  ASSERT_TRUE(writer.Sync().ok());
  EXPECT_EQ(writer.records_written(), written.size());

  auto scan = ScanWal(file.value().get());
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_FALSE(scan.value().truncated_tail);
  EXPECT_EQ(scan.value().valid_end_offset, writer.offset());
  ASSERT_EQ(scan.value().records.size(), written.size());
  for (size_t i = 0; i < written.size(); ++i) {
    EXPECT_EQ(scan.value().records[i].txn_id, written[i].txn_id);
    EXPECT_EQ(scan.value().records[i].type, written[i].type);
    EXPECT_EQ(scan.value().records[i].payload, written[i].payload);
  }
}

TEST(Wal, TornTailIsCutAndOverwritten) {
  const std::string dir = TestDir("wal_torn");
  std::filesystem::create_directories(dir);
  auto file = OpenPosixFile(dir + "/wal.log");
  ASSERT_TRUE(file.ok());

  WalWriter writer(file.value().get(), 0);
  ASSERT_TRUE(writer.Append(MakeRecord(1, WalRecordType::kInsert, 64)).ok());
  ASSERT_TRUE(writer.Append(MakeRecord(1, WalRecordType::kCommit, 0)).ok());
  const uint64_t good_end = writer.offset();
  // A torn append: only half of the next record's bytes reached the file.
  WalRecord torn = MakeRecord(2, WalRecordType::kInsert, 100);
  ASSERT_TRUE(writer.Append(torn).ok());
  ASSERT_TRUE(file.value()->Truncate(good_end + 20).ok());

  auto scan = ScanWal(file.value().get());
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_TRUE(scan.value().truncated_tail);
  EXPECT_EQ(scan.value().valid_end_offset, good_end);
  ASSERT_EQ(scan.value().records.size(), 2u);

  // A recovered writer resumes at the cut point; the re-appended record
  // replaces the torn bytes and the log scans clean again.
  WalWriter resumed(file.value().get(), scan.value().valid_end_offset);
  ASSERT_TRUE(resumed.Append(torn).ok());
  ASSERT_TRUE(
      resumed.Append(MakeRecord(2, WalRecordType::kCommit, 0)).ok());
  auto rescan = ScanWal(file.value().get());
  ASSERT_TRUE(rescan.ok());
  EXPECT_FALSE(rescan.value().truncated_tail);
  ASSERT_EQ(rescan.value().records.size(), 4u);
  EXPECT_EQ(rescan.value().records[2].payload, torn.payload);
}

TEST(Wal, CorruptChecksumStopsScan) {
  const std::string dir = TestDir("wal_corrupt");
  std::filesystem::create_directories(dir);
  auto file = OpenPosixFile(dir + "/wal.log");
  ASSERT_TRUE(file.ok());
  WalWriter writer(file.value().get(), 0);
  ASSERT_TRUE(writer.Append(MakeRecord(1, WalRecordType::kCommit, 0)).ok());
  const uint64_t second_start = writer.offset();
  ASSERT_TRUE(writer.Append(MakeRecord(2, WalRecordType::kInsert, 32)).ok());
  // Flip one payload byte of the second record.
  uint8_t byte = 0;
  size_t n = 0;
  ASSERT_TRUE(
      file.value()->ReadAt(second_start + 25, &byte, 1, &n).ok());
  byte ^= 0xFF;
  ASSERT_TRUE(file.value()->WriteAt(second_start + 25, &byte, 1).ok());

  auto scan = ScanWal(file.value().get());
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan.value().truncated_tail);
  EXPECT_EQ(scan.value().valid_end_offset, second_start);
  ASSERT_EQ(scan.value().records.size(), 1u);
}

// -------------------------------------------------------- fault backend --

TEST(FaultBackend, CrashesAtTheConfiguredOpWithPartialWrite) {
  const std::string dir = TestDir("fault");
  std::filesystem::create_directories(dir);

  auto plan = std::make_shared<FaultPlan>();
  plan->crash_at_op = 3;
  plan->partial_fraction = 0.5;
  bool crashed = false;
  plan->on_crash = [&crashed] { crashed = true; };
  FileBackendFactory factory = MakeFaultInjectingFactory(plan);

  auto file = factory(dir + "/f.bin");
  ASSERT_TRUE(file.ok());
  const char bytes[8] = {'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h'};
  ASSERT_TRUE(file.value()->WriteAt(0, bytes, 8).ok());
  ASSERT_TRUE(file.value()->WriteAt(8, bytes, 8).ok());
  EXPECT_FALSE(crashed);
  // Third write dies halfway: 4 of 8 bytes land, then the crash hook runs
  // and the write reports failure.
  Status st = file.value()->WriteAt(16, bytes, 8);
  EXPECT_TRUE(crashed);
  EXPECT_FALSE(st.ok());
  auto size = file.value()->Size();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size.value(), 20u);
}

// ------------------------------------------------- database durability --

TEST(DatabaseStorage, UncommittedExplicitTransactionIsDroppedOnReopen) {
  const std::string dir = TestDir("db_uncommitted");
  {
    Database db(Database::Options{.storage = {.path = dir}});
    ASSERT_TRUE(db.storage_status().ok());
    ASSERT_TRUE(
        db.ExecuteScript("CREATE TABLE t (k INTEGER, PRIMARY KEY (k));")
            .ok());
    ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1)").ok());
    // Open a transaction, write, and close WITHOUT committing. The
    // destructor's checkpoint must refuse to run (it would make the
    // uncommitted row durable), and recovery must drop the txn.
    ASSERT_TRUE(db.BeginTransaction().ok());
    ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (2)").ok());
  }
  {
    Database db(Database::Options{.storage = {.path = dir}});
    ASSERT_TRUE(db.storage_status().ok()) << db.storage_status();
    auto rows = db.Execute("SELECT k FROM t ORDER BY k");
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows.value().rows.size(), 1u);
    EXPECT_EQ(rows.value().rows[0][0].AsInteger(), 1);
  }
}

TEST(DatabaseStorage, CheckpointTruncatesWalAndSurvivesReopen) {
  const std::string dir = TestDir("db_checkpoint");
  {
    Database db(Database::Options{.storage = {.path = dir}});
    ASSERT_TRUE(db.storage_status().ok());
    ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (k INTEGER, v VARCHAR(8));")
                    .ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                             ", 'v" + std::to_string(i % 7) + "')")
                      .ok());
    }
    ASSERT_TRUE(db.Execute("DELETE FROM t WHERE k >= 40").ok());
    ASSERT_TRUE(db.Checkpoint().ok());
    EXPECT_EQ(db.storage_stats().checkpoints, 1u);
    // Post-checkpoint writes land in the fresh WAL.
    ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (100, 'after')").ok());
  }
  {
    Database db(Database::Options{.storage = {.path = dir},
                                  .storage_checkpoint_on_close = false});
    ASSERT_TRUE(db.storage_status().ok()) << db.storage_status();
    auto count = db.Execute("SELECT COUNT(*) FROM t");
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(count.value().rows[0][0].AsInteger(), 41);
    auto after = db.Execute("SELECT v FROM t WHERE k = 100");
    ASSERT_TRUE(after.ok());
    ASSERT_EQ(after.value().rows.size(), 1u);
    EXPECT_EQ(after.value().rows[0][0].AsText(), "after");
    // Tombstones survived the checkpoint: re-inserting a deleted key works
    // and row ids keep advancing (no drift).
    ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (40, 'again')").ok());
  }
  // Third generation: the previous (non-checkpointing) close left the
  // insert only in the WAL; replay must still apply it.
  {
    Database db(Database::Options{.storage = {.path = dir}});
    ASSERT_TRUE(db.storage_status().ok()) << db.storage_status();
    auto again = db.Execute("SELECT COUNT(*) FROM t WHERE k = 40");
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value().rows[0][0].AsInteger(), 1);
    EXPECT_GT(db.storage_stats().recovered_records, 0u);
  }
}

TEST(DatabaseStorage, InMemoryDatabaseHasZeroStorageFootprint) {
  Database db;
  EXPECT_TRUE(db.storage_status().ok());
  EXPECT_FALSE(db.storage_active());
  EXPECT_EQ(db.storage_stats().wal_records, 0u);
  EXPECT_TRUE(db.BeginTransaction().ok());   // no-ops, not errors
  EXPECT_TRUE(db.CommitTransaction().ok());
  EXPECT_TRUE(db.Checkpoint().ok());
}

TEST(DatabaseStorage, SecondaryIndexesAreRebuiltConsistently) {
  const std::string dir = TestDir("db_indexes");
  {
    Database db(Database::Options{.storage = {.path = dir}});
    ASSERT_TRUE(db.storage_status().ok());
    ASSERT_TRUE(db.ExecuteScript(
                      "CREATE TABLE t (k INTEGER, g INTEGER, "
                      "PRIMARY KEY (k));"
                      "CREATE INDEX idx_t_g ON t (g);")
                    .ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                             ", " + std::to_string(i % 4) + ")")
                      .ok());
    }
  }
  {
    Database db(Database::Options{.storage = {.path = dir}});
    ASSERT_TRUE(db.storage_status().ok()) << db.storage_status();
    // The PK index must reject duplicates on recovered data.
    EXPECT_FALSE(db.Execute("INSERT INTO t VALUES (5, 0)").ok());
    // The secondary index answers point queries over recovered rows.
    auto grouped = db.Execute("SELECT COUNT(*) FROM t WHERE g = 2");
    ASSERT_TRUE(grouped.ok());
    EXPECT_EQ(grouped.value().rows[0][0].AsInteger(), 5);
    const Table* table = db.LookupTable("t");
    ASSERT_NE(table, nullptr);
    ASSERT_EQ(table->indexes().size(), 2u);  // pk + idx_t_g
  }
}

// ------------------------------------------------- checkpoint image ----

// The one checkpoint.<gen>.db in `dir`.
std::string CheckpointFile(const std::string& dir) {
  std::vector<std::string> found;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("checkpoint.", 0) == 0) found.push_back(entry.path());
  }
  EXPECT_EQ(found.size(), 1u);
  return found.empty() ? "" : found[0];
}

// Every table's name and slots (liveness + row), encoded: equal dumps mean
// equal catalogs, tombstones included.
std::vector<uint8_t> CatalogDump(const Database& db) {
  ByteWriter w;
  for (const std::string& name : db.TableNames()) {
    const Table* table = db.LookupTable(name);
    w.PutSchema(table->schema());
    w.PutU64(table->SlotCount());
    for (size_t slot = 0; slot < table->SlotCount(); ++slot) {
      w.PutU8(table->IsLive(slot) ? 1 : 0);
      if (table->IsLive(slot)) w.PutRow(table->RowAt(slot));
    }
  }
  return std::move(w.bytes);
}

// Fills `t` with rows wide enough that its checkpoint spans several pages;
// the last row ends in INTEGER 0, so the image's last bytes are zeros.
void FillWideTable(Database* db) {
  ASSERT_TRUE(
      db->ExecuteScript("CREATE TABLE t (k INTEGER, s VARCHAR(300), "
                        "z INTEGER, PRIMARY KEY (k));")
          .ok());
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(db->InsertRow("t", {Value::Integer(i),
                                    Value::Text(std::string(250, 'a' + i % 26)),
                                    Value::Integer(i % 2 == 0 ? 0 : i)})
                    .ok());
  }
  ASSERT_TRUE(db->Execute("DELETE FROM t WHERE k = 7").ok());
}

// Checkpoint images written before the page-streaming writer were padded
// with zeros to a whole number of pages; the reader stops at the image
// length the meta slot records, so such an image loads the same catalog.
TEST(CheckpointImage, ZeroPaddedImageRecoversTheSameCatalog) {
  const std::string dir = TestDir("ckpt_padded");
  {
    Database db(Database::Options{.storage = {.path = dir}});
    ASSERT_TRUE(db.storage_status().ok());
    FillWideTable(&db);
  }
  std::vector<uint8_t> unpadded;
  {
    Database db(Database::Options{.storage = {.path = dir},
                                  .storage_checkpoint_on_close = false});
    ASSERT_TRUE(db.storage_status().ok()) << db.storage_status();
    unpadded = CatalogDump(db);
  }
  const std::string image = CheckpointFile(dir);
  const uint64_t bytes = std::filesystem::file_size(image);
  ASSERT_NE(bytes % kPageSize, 0u);
  std::filesystem::resize_file(image, (bytes / kPageSize + 1) * kPageSize);

  Database db(Database::Options{.storage = {.path = dir},
                                .storage_checkpoint_on_close = false});
  ASSERT_TRUE(db.storage_status().ok()) << db.storage_status();
  EXPECT_EQ(CatalogDump(db), unpadded);
  EXPECT_EQ(db.LookupTable("t")->SlotCount(), 120u);
}

// A checkpoint file shorter than the image length its meta slot records is
// damage, not zeros: the open fails instead of loading a zero tail. The
// image here ends in zero bytes, so reading zeros past the end of the file
// would load the same rows and hide the damage.
TEST(CheckpointImage, TruncatedImageFailsTheOpen) {
  const std::string dir = TestDir("ckpt_truncated");
  {
    Database db(Database::Options{.storage = {.path = dir}});
    ASSERT_TRUE(db.storage_status().ok());
    FillWideTable(&db);
  }
  const std::string image = CheckpointFile(dir);
  std::filesystem::resize_file(image, std::filesystem::file_size(image) - 4);

  Database db(Database::Options{.storage = {.path = dir},
                                .storage_checkpoint_on_close = false});
  EXPECT_FALSE(db.storage_status().ok());
  EXPECT_FALSE(db.storage_active());
}

// Counts WriteAt calls on checkpoint files and passes every call through.
class CountingFileBackend : public FileBackend {
 public:
  CountingFileBackend(std::unique_ptr<FileBackend> inner,
                      std::vector<size_t>* checkpoint_writes)
      : inner_(std::move(inner)), checkpoint_writes_(checkpoint_writes) {}

  Status ReadAt(uint64_t offset, void* buf, size_t len,
                size_t* bytes_read) override {
    return inner_->ReadAt(offset, buf, len, bytes_read);
  }
  Status WriteAt(uint64_t offset, const void* buf, size_t len) override {
    if (checkpoint_writes_ != nullptr) checkpoint_writes_->push_back(len);
    return inner_->WriteAt(offset, buf, len);
  }
  Status Sync() override { return inner_->Sync(); }
  Status Truncate(uint64_t size) override { return inner_->Truncate(size); }
  Result<uint64_t> Size() override { return inner_->Size(); }

 private:
  std::unique_ptr<FileBackend> inner_;
  std::vector<size_t>* checkpoint_writes_;  // null: not a checkpoint file
};

// The checkpoint goes to disk one page per WriteAt, so the fault harness,
// which crashes at the Nth WriteAt, can tear it at every page.
TEST(CheckpointImage, MultiPageImageTakesOneWritePerPage) {
  const std::string dir = TestDir("ckpt_pages");
  std::vector<size_t> writes;
  Database::Options options{.storage = {.path = dir}};
  options.storage.backend_factory = [&writes](const std::string& path)
      -> Result<std::unique_ptr<FileBackend>> {
    P3PDB_ASSIGN_OR_RETURN(std::unique_ptr<FileBackend> inner,
                           OpenPosixFile(path));
    const std::string name = std::filesystem::path(path).filename();
    const bool checkpoint = name.rfind("checkpoint.", 0) == 0;
    return std::unique_ptr<FileBackend>(std::make_unique<CountingFileBackend>(
        std::move(inner), checkpoint ? &writes : nullptr));
  };
  Database db(options);
  ASSERT_TRUE(db.storage_status().ok());
  FillWideTable(&db);
  ASSERT_TRUE(db.Checkpoint().ok());

  const uint64_t bytes = std::filesystem::file_size(CheckpointFile(dir));
  ASSERT_GT(bytes, 2 * kPageSize);
  EXPECT_GE(writes.size(), (bytes + kPageSize - 1) / kPageSize);
  for (size_t len : writes) EXPECT_LE(len, kPageSize);
}

// --------------------------------------------------- server recovery ----

// A SQL engine resolves URIs through Policyref.policy_id, which an install
// behind the reference file rebinds in the install's own durable unit: the
// binding of a policy installed (and re-installed) after the file must
// survive a reopen.
TEST(ServerStorage, RefBindingsOfLaterInstallsSurviveReopen) {
  for (EngineKind engine : {EngineKind::kSql, EngineKind::kSqlSimple}) {
    SCOPED_TRACE(server::EngineKindName(engine));
    const std::string dir = TestDir("ref_rebind");
    PolicyServer::Options options;
    options.engine = engine;
    options.storage_path = dir;
    int64_t latest = -1;
    {
      auto server = PolicyServer::Create(options);
      ASSERT_TRUE(server.ok()) << server.status();
      ASSERT_TRUE(server.value()
                      ->InstallReferenceFile(workload::VolgaReferenceFile())
                      .ok());
      ASSERT_TRUE(
          server.value()->InstallPolicy(workload::VolgaPolicy()).ok());
      auto again = server.value()->InstallPolicy(workload::VolgaPolicy());
      ASSERT_TRUE(again.ok()) << again.status();
      latest = again.value();
    }
    auto server = PolicyServer::Create(options);
    ASSERT_TRUE(server.ok()) << server.status();
    auto pref = server.value()->CompilePreference(workload::JanePreference());
    ASSERT_TRUE(pref.ok());
    auto match = server.value()->MatchUri(pref.value(), "/catalog");
    ASSERT_TRUE(match.ok()) << match.status();
    EXPECT_TRUE(match.value().policy_found);
    EXPECT_EQ(match.value().policy_id, latest);
  }
}

TEST(ServerStorage, CatalogAndMatchingSurviveReopen) {
  const std::string dir = TestDir("server_reopen");
  PolicyServer::Options options;
  options.engine = EngineKind::kSql;
  options.storage_path = dir;

  std::string behavior_before;
  int64_t volga_id = -1;
  {
    auto server = PolicyServer::Create(options);
    ASSERT_TRUE(server.ok()) << server.status();
    ASSERT_TRUE(
        server.value()->InstallPolicy(workload::VolgaPolicy()).ok());
    // Re-install to create version 2 (exercises versioning recovery).
    p3p::Policy v2 = workload::VolgaPolicy();
    v2.statements[0].recipients.push_back(
        p3p::RecipientItem{"unrelated", p3p::Required::kAlways});
    auto id2 = server.value()->InstallPolicy(v2);
    ASSERT_TRUE(id2.ok());
    volga_id = id2.value();
    ASSERT_TRUE(server.value()
                    ->InstallReferenceFile(workload::VolgaReferenceFile())
                    .ok());

    auto pref =
        server.value()->CompilePreference(workload::JanePreference());
    ASSERT_TRUE(pref.ok());
    auto match = server.value()->MatchUri(pref.value(), "/catalog");
    ASSERT_TRUE(match.ok());
    behavior_before = match.value().behavior;
    EXPECT_EQ(server.value()->PolicyVersion("volga"), 2);
  }

  {
    auto server = PolicyServer::Create(options);
    ASSERT_TRUE(server.ok()) << server.status();
    // Catalog state recovered: ids, versions, reference resolution.
    EXPECT_EQ(server.value()->policy_ids().size(), 2u);
    EXPECT_EQ(server.value()->PolicyVersion("volga"), 2);
    auto resolved = server.value()->FindPolicyIdByAbout("#volga");
    ASSERT_TRUE(resolved.has_value());
    EXPECT_EQ(*resolved, volga_id);

    // Matching over recovered shredded tables gives identical results.
    auto pref =
        server.value()->CompilePreference(workload::JanePreference());
    ASSERT_TRUE(pref.ok());
    auto match = server.value()->MatchUri(pref.value(), "/catalog");
    ASSERT_TRUE(match.ok()) << match.status();
    EXPECT_EQ(match.value().behavior, behavior_before);
    EXPECT_EQ(match.value().policy_id, volga_id);

    // A fresh install on the recovered server must not collide with
    // recovered ids (shredder sequences resumed past them).
    p3p::Policy extra = workload::VolgaPolicy();
    extra.name = "extra";
    auto extra_id = server.value()->InstallPolicy(extra);
    ASSERT_TRUE(extra_id.ok()) << extra_id.status();
    EXPECT_GT(extra_id.value(), volga_id);

    // Storage metrics are exposed for disk-backed servers.
    const std::string metrics = server.value()->RenderMetricsText();
    EXPECT_NE(metrics.find("p3p_storage_wal_records_total"),
              std::string::npos);
    EXPECT_NE(metrics.find("p3p_storage_recovered_txns_total"),
              std::string::npos);
  }

  // In-memory servers expose exactly the metric set they always did.
  auto memory_server = PolicyServer::Create({});
  ASSERT_TRUE(memory_server.ok());
  EXPECT_EQ(memory_server.value()->RenderMetricsText().find("p3p_storage_"),
            std::string::npos);
}

// Parses the counters out of Prometheus exposition text: name -> value for
// every `# TYPE <name> counter` block whose name starts with one of
// `prefixes`. A sample line without its TYPE comment is a test failure.
std::map<std::string, uint64_t> ExportedCounters(
    const std::string& text, const std::vector<std::string>& prefixes) {
  std::map<std::string, uint64_t> counters;
  std::set<std::string> typed;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::string type_prefix = "# TYPE ";
    if (line.rfind(type_prefix, 0) == 0) {
      std::istringstream fields(line.substr(type_prefix.size()));
      std::string name, kind;
      fields >> name >> kind;
      if (kind == "counter") typed.insert(name);
      continue;
    }
    const size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    const std::string name = line.substr(0, space);
    bool wanted = false;
    for (const std::string& p : prefixes) wanted |= name.rfind(p, 0) == 0;
    if (!wanted) continue;
    EXPECT_TRUE(typed.count(name) != 0) << name << " lacks '# TYPE counter'";
    counters[name] = std::stoull(line.substr(space + 1));
  }
  return counters;
}

TEST(ServerStorage, ExportedSqldbAndStorageMetricNamesArePinned) {
  const std::string dir = TestDir("server_metric_names");
  PolicyServer::Options options;
  options.engine = EngineKind::kSql;
  options.storage_path = dir;
  const std::vector<p3p::Policy> corpus = workload::FortuneCorpus();
  {
    // No close-time checkpoint: the reopen replays the WAL, so the
    // recovery counter carries a value too.
    PolicyServer::Options first = options;
    first.storage_checkpoint_on_close = false;
    auto server = PolicyServer::Create(first);
    ASSERT_TRUE(server.ok()) << server.status();
    for (size_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(server.value()->InstallPolicy(corpus[i]).ok());
    }
  }
  auto server = PolicyServer::Create(options);
  ASSERT_TRUE(server.ok()) << server.status();
  PolicyServer& s = *server.value();
  for (size_t i = 3; i < 6; ++i) ASSERT_TRUE(s.InstallPolicy(corpus[i]).ok());
  for (workload::PreferenceLevel level : workload::AllPreferenceLevels()) {
    auto pref = s.CompilePreference(workload::JrcPreference(level));
    ASSERT_TRUE(pref.ok()) << pref.status();
    for (int64_t id : s.policy_ids()) {
      ASSERT_TRUE(s.MatchPolicyId(pref.value(), id).ok());
    }
  }

  const std::map<std::string, uint64_t> exported =
      ExportedCounters(s.RenderMetricsText(), {"sqldb_", "p3p_storage_"});
  const ExecStats exec = s.database()->stats();
  const StatsCounters catalog = s.database()->stats_catalog().counters();
  const StorageStats storage = s.database()->storage_stats();
  const std::map<std::string, uint64_t> expected = {
      {"sqldb_plans_built_total", exec.plans_built},
      {"sqldb_plan_cache_hits_total", exec.plan_cache_hits},
      {"sqldb_semi_join_rewrites_total", exec.semi_join_rewrites},
      {"sqldb_anti_join_rewrites_total", exec.anti_join_rewrites},
      {"sqldb_hash_join_builds_total", exec.hash_join_builds},
      {"sqldb_hash_join_probes_total", exec.hash_join_probes},
      {"sqldb_cost_exists_kept_total", exec.cost_exists_kept},
      {"sqldb_cost_join_reorders_total", exec.cost_join_reorders},
      {"sqldb_cost_seq_forced_total", exec.cost_seq_forced},
      {"sqldb_plan_recosts_total", exec.plan_recosts},
      {"sqldb_stats_updates_total", catalog.updates},
      {"sqldb_stats_rebuilds_total", catalog.rebuilds},
      {"sqldb_stats_epoch_bumps_total", catalog.epoch_bumps},
      {"p3p_storage_wal_records_total", storage.wal_records},
      {"p3p_storage_wal_commits_total", storage.wal_commits},
      {"p3p_storage_wal_syncs_total", storage.wal_syncs},
      {"p3p_storage_wal_group_syncs_total", storage.wal_group_syncs},
      {"p3p_storage_wal_bytes_total", storage.wal_bytes},
      {"p3p_storage_checkpoints_total", storage.checkpoints},
      {"p3p_storage_recovered_txns_total", storage.recovered_txns},
  };
  EXPECT_EQ(exported, expected);
  EXPECT_GT(exec.plans_built, 0u);
  EXPECT_GT(storage.recovered_txns, 0u);

  // An in-memory server exports the sqldb_* set but no p3p_storage_* name.
  PolicyServer::Options memory;
  memory.engine = EngineKind::kSql;
  auto memory_server = PolicyServer::Create(memory);
  ASSERT_TRUE(memory_server.ok());
  const std::map<std::string, uint64_t> memory_exported = ExportedCounters(
      memory_server.value()->RenderMetricsText(), {"sqldb_", "p3p_storage_"});
  EXPECT_EQ(memory_exported.size(), 13u);
  EXPECT_EQ(memory_server.value()->RenderMetricsText().find("p3p_storage_"),
            std::string::npos);
}

TEST(ServerStorage, ReopenUnderDifferentEngineIsRejected) {
  const std::string dir = TestDir("server_engine_mismatch");
  PolicyServer::Options sql;
  sql.engine = EngineKind::kSql;
  sql.storage_path = dir;
  {
    auto server = PolicyServer::Create(sql);
    ASSERT_TRUE(server.ok()) << server.status();
    ASSERT_TRUE(
        server.value()->InstallPolicy(workload::VolgaPolicy()).ok());
  }
  PolicyServer::Options simple = sql;
  simple.engine = EngineKind::kSqlSimple;
  auto mismatched = PolicyServer::Create(simple);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);
}

// Conflict counts live in memory, like every counter on /metrics: a reopen
// restores the catalog and starts the report from zero. A directory that
// holds a table this build never reads (older builds kept a match log
// table, with this DDL) still opens.
TEST(ServerStorage, ConflictCountsRestartAtReopen) {
  const std::string dir = TestDir("server_conflict_counts");
  PolicyServer::Options options;
  options.engine = EngineKind::kSql;
  options.storage_path = dir;
  auto match_total = [](PolicyServer* server) {
    auto pref = server->CompilePreference(workload::JanePreference());
    EXPECT_TRUE(pref.ok()) << pref.status();
    auto match = server->MatchUri(pref.value(), "/catalog");
    EXPECT_TRUE(match.ok()) << match.status();
    uint64_t total = 0;
    for (const server::ConflictCount& row : server->ConflictReport()) {
      total += row.matches;
    }
    return total;
  };
  {
    auto server = PolicyServer::Create(options);
    ASSERT_TRUE(server.ok()) << server.status();
    ASSERT_TRUE(
        server.value()->InstallPolicy(workload::VolgaPolicy()).ok());
    ASSERT_TRUE(server.value()
                    ->InstallReferenceFile(workload::VolgaReferenceFile())
                    .ok());
    EXPECT_EQ(match_total(server.value().get()), 1u);
    EXPECT_EQ(match_total(server.value().get()), 2u);
    sqldb::Database* db = server.value()->database();
    ASSERT_TRUE(db->ExecuteScript("CREATE TABLE LegacyLog ("
                                  "match_id INTEGER NOT NULL, "
                                  "policy_id INTEGER NOT NULL, "
                                  "behavior VARCHAR(32) NOT NULL, "
                                  "fired_rule INTEGER NOT NULL, "
                                  "PRIMARY KEY (match_id));")
                    .ok());
    ASSERT_TRUE(
        db->Execute("INSERT INTO LegacyLog VALUES (1, 1, 'request', 2)").ok());
  }
  {
    auto server = PolicyServer::Create(options);
    ASSERT_TRUE(server.ok()) << server.status();
    EXPECT_EQ(server.value()->PolicyVersion(workload::VolgaPolicy().name), 1);
    EXPECT_NE(server.value()->database()->LookupTable("LegacyLog"), nullptr);
    EXPECT_TRUE(server.value()->ConflictReport().empty());
    EXPECT_EQ(match_total(server.value().get()), 1u);
  }
}

// ------------------------------------------------------ policy id contract --

class PolicyIdContractTest
    : public ::testing::TestWithParam<server::EngineKind> {
 protected:
  /// Every engine mints ids in install order, so they ascend; only the
  /// installed ones match, and the in-memory latest version of each name is
  /// the catalog's latest row for it.
  static void ExpectIdContract(PolicyServer& server,
                               const std::vector<std::string>& names) {
    const std::vector<int64_t> ids = server.policy_ids();
    ASSERT_FALSE(ids.empty());
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
    auto pref = server.CompilePreference(workload::JanePreference());
    ASSERT_TRUE(pref.ok()) << pref.status();
    for (int64_t id : ids) {
      EXPECT_TRUE(server.MatchPolicyId(pref.value(), id).ok()) << id;
    }
    std::vector<int64_t> absent = {0, -1, ids.back() + 1};
    const bool shared_sequence =
        GetParam() == EngineKind::kSqlSimple ||
        GetParam() == EngineKind::kXQueryXTable;
    if (shared_sequence) {
      // The simple shredder's element rows share the policy id sequence,
      // so the ids between two policies' ids are child rows' ids.
      ASSERT_GT(ids[1], ids[0] + 1);
      absent.push_back(ids[0] + 1);
    }
    for (int64_t id : absent) {
      auto match = server.MatchPolicyId(pref.value(), id);
      ASSERT_FALSE(match.ok()) << id;
      EXPECT_EQ(match.status().code(), StatusCode::kNotFound) << id;
    }
    for (const std::string& name : names) {
      const int64_t version = server.PolicyVersion(name);
      EXPECT_GE(version, 1) << name;
      EXPECT_TRUE(server.PolicyXml(name, version).ok()) << name;
      auto next = server.PolicyXml(name, version + 1);
      ASSERT_FALSE(next.ok()) << name;
      EXPECT_EQ(next.status().code(), StatusCode::kNotFound) << name;
    }
  }
};

INSTANTIATE_TEST_SUITE_P(
    Engines, PolicyIdContractTest,
    ::testing::Values(EngineKind::kNativeAppel, EngineKind::kSql,
                      EngineKind::kSqlSimple, EngineKind::kXQueryNative,
                      EngineKind::kXQueryXTable),
    [](const auto& info) {
      std::string name = server::EngineKindName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST_P(PolicyIdContractTest, HoldsAcrossReinstallsAndReopen) {
  PolicyServer::Options options;
  options.engine = GetParam();
  options.storage_path =
      TestDir(std::string("id_contract_") + server::EngineKindName(GetParam()));
  const std::vector<p3p::Policy> corpus =
      workload::FortuneCorpus({.policy_count = 3});
  std::vector<std::string> names = {"volga"};
  for (const p3p::Policy& policy : corpus) names.push_back(policy.name);

  std::vector<int64_t> ids_before;
  {
    auto server = PolicyServer::Create(options);
    ASSERT_TRUE(server.ok()) << server.status();
    ASSERT_TRUE(server.value()->InstallPolicy(workload::VolgaPolicy()).ok());
    for (const p3p::Policy& policy : corpus) {
      ASSERT_TRUE(server.value()->InstallPolicy(policy).ok());
    }
    // Re-installs: volga reaches version 3, the first corpus name 2.
    ASSERT_TRUE(server.value()->InstallPolicy(workload::VolgaPolicy()).ok());
    ASSERT_TRUE(server.value()->InstallPolicy(corpus[0]).ok());
    ASSERT_TRUE(server.value()->InstallPolicy(workload::VolgaPolicy()).ok());
    EXPECT_EQ(server.value()->PolicyVersion("volga"), 3);
    EXPECT_EQ(server.value()->PolicyVersion(corpus[0].name), 2);
    ExpectIdContract(*server.value(), names);
    ids_before = server.value()->policy_ids();
  }

  auto server = PolicyServer::Create(options);
  ASSERT_TRUE(server.ok()) << server.status();
  EXPECT_EQ(server.value()->policy_ids(), ids_before);
  EXPECT_EQ(server.value()->PolicyVersion("volga"), 3);
  ExpectIdContract(*server.value(), names);
  // An install after the reopen continues the ascending sequence.
  auto id = server.value()->InstallPolicy(workload::VolgaPolicy());
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_GT(id.value(), ids_before.back());
  EXPECT_EQ(server.value()->PolicyVersion("volga"), 4);
  ExpectIdContract(*server.value(), names);
}

}  // namespace
}  // namespace p3pdb::sqldb
