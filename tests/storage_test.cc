// Unit tests for the disk-backed storage engine's layers: serde encoding,
// WAL framing and torn-tail scanning, buffer-pool replacement (LRU-K, pin
// counts, writeback), the fault-injecting file backend, Database
// close/reopen/checkpoint durability, and PolicyServer catalog recovery.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "server/policy_server.h"
#include "sqldb/buffer_pool.h"
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
  std::string dir = ::testing::TempDir() + "p3pdb_storage_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------- serde --

TEST(StorageSerde, ValueAndRowRoundtrip) {
  ByteWriter writer;
  Row row = {Value::Null(), Value::Integer(-42), Value::Text("héllo\0x"),
             Value::Integer(INT64_MAX), Value::Text("")};
  writer.PutRow(row);

  ByteReader reader(writer.bytes.data(), writer.bytes.size());
  auto decoded = reader.GetRow();
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_TRUE(reader.exhausted());
  ASSERT_EQ(decoded.value().size(), row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(Value::OrderCompare(decoded.value()[i], row[i]), 0) << i;
  }
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
}

TEST(StorageSerde, TruncatedBufferFailsCleanly) {
  ByteWriter writer;
  writer.PutRow({Value::Text("abcdefgh"), Value::Integer(7)});
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

// ---------------------------------------------------------- buffer pool --

TEST(BufferPoolTest, HitsMissesAndWriteback) {
  const std::string dir = TestDir("pool_basic");
  std::filesystem::create_directories(dir);
  auto file = OpenPosixFile(dir + "/data.db");
  ASSERT_TRUE(file.ok());

  BufferPool pool(file.value().get(), /*frame_count=*/4);
  auto page = pool.FetchPage(3);
  ASSERT_TRUE(page.ok());
  std::memcpy(page.value(), "paged bytes", 11);
  pool.UnpinPage(3, /*dirty=*/true);
  EXPECT_EQ(pool.stats().misses, 1u);

  // Same page again: a hit, served from the frame.
  auto again = pool.FetchPage(3);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(std::memcmp(again.value(), "paged bytes", 11), 0);
  pool.UnpinPage(3, false);
  EXPECT_EQ(pool.stats().hits, 1u);

  // FlushAll persists the dirty frame; a direct file read sees the bytes at
  // the page's offset.
  ASSERT_TRUE(pool.FlushAll().ok());
  char buf[12] = {0};
  size_t n = 0;
  ASSERT_TRUE(
      file.value()->ReadAt(3 * kPageSize, buf, 11, &n).ok());
  ASSERT_EQ(n, 11u);
  EXPECT_EQ(std::memcmp(buf, "paged bytes", 11), 0);
  EXPECT_GE(pool.stats().writebacks, 1u);
}

TEST(BufferPoolTest, PinnedFramesAreNeverEvicted) {
  const std::string dir = TestDir("pool_pins");
  std::filesystem::create_directories(dir);
  auto file = OpenPosixFile(dir + "/data.db");
  ASSERT_TRUE(file.ok());

  BufferPool pool(file.value().get(), /*frame_count=*/2);
  auto a = pool.FetchPage(0);
  auto b = pool.FetchPage(1);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Every frame pinned: a third fetch must fail rather than evict.
  EXPECT_FALSE(pool.FetchPage(2).ok());
  pool.UnpinPage(1, false);
  auto c = pool.FetchPage(2);
  EXPECT_TRUE(c.ok());
  EXPECT_EQ(pool.stats().evictions, 1u);
  pool.UnpinPage(0, false);
  pool.UnpinPage(2, false);
}

TEST(BufferPoolTest, LruKPrefersSingleUsePagesAsVictims) {
  const std::string dir = TestDir("pool_lruk");
  std::filesystem::create_directories(dir);
  auto file = OpenPosixFile(dir + "/data.db");
  ASSERT_TRUE(file.ok());

  BufferPool pool(file.value().get(), /*frame_count=*/3, /*k=*/2);
  auto touch = [&](PageId id) {
    auto page = pool.FetchPage(id);
    ASSERT_TRUE(page.ok());
    pool.UnpinPage(id, false);
  };
  // Page 0 is hot (two accesses -> finite k-distance); 1 and 2 are
  // scan-like single-access pages.
  touch(0);
  touch(0);
  touch(1);
  touch(2);
  // A new page must evict one of the single-use pages, not the hot one,
  // even though page 0's first access is the oldest (plain LRU would evict
  // it).
  touch(3);
  auto hot = pool.FetchPage(0);
  ASSERT_TRUE(hot.ok());
  pool.UnpinPage(0, false);
  const auto& stats = pool.stats();
  // Refetching page 0 was a hit: it was still resident.
  EXPECT_EQ(stats.hits, 2u);  // second touch(0) + the refetch
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
    Database db(Database::Options{.storage_path = dir});
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
    Database db(Database::Options{.storage_path = dir});
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
    Database db(Database::Options{.storage_path = dir});
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
    Database db(Database::Options{.storage_path = dir,
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
    Database db(Database::Options{.storage_path = dir});
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
    Database db(Database::Options{.storage_path = dir});
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
    Database db(Database::Options{.storage_path = dir});
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

// --------------------------------------------------- server recovery ----

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
      {"p3p_storage_buffer_pool_hits_total", storage.pool.hits},
      {"p3p_storage_buffer_pool_misses_total", storage.pool.misses},
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

TEST(ServerStorage, MatchLogAndConflictReportSurviveReopen) {
  const std::string dir = TestDir("server_matchlog");
  PolicyServer::Options options;
  options.engine = EngineKind::kSql;
  options.record_matches = true;
  options.storage_path = dir;
  {
    auto server = PolicyServer::Create(options);
    ASSERT_TRUE(server.ok()) << server.status();
    ASSERT_TRUE(
        server.value()->InstallPolicy(workload::VolgaPolicy()).ok());
    ASSERT_TRUE(server.value()
                    ->InstallReferenceFile(workload::VolgaReferenceFile())
                    .ok());
    auto pref =
        server.value()->CompilePreference(workload::JanePreference());
    ASSERT_TRUE(pref.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(server.value()->MatchUri(pref.value(), "/catalog").ok());
    }
  }
  {
    auto server = PolicyServer::Create(options);
    ASSERT_TRUE(server.ok()) << server.status();
    auto report = server.value()->ConflictReport();
    ASSERT_TRUE(report.ok());
    int64_t total = 0;
    for (const Row& row : report.value().rows) {
      total += row[2].AsInteger();
    }
    EXPECT_EQ(total, 3);
    // New matches extend, not collide with, the recovered log.
    auto pref =
        server.value()->CompilePreference(workload::JanePreference());
    ASSERT_TRUE(pref.ok());
    ASSERT_TRUE(server.value()->MatchUri(pref.value(), "/catalog").ok());
    auto after = server.value()->ConflictReport();
    ASSERT_TRUE(after.ok());
    total = 0;
    for (const Row& row : after.value().rows) {
      total += row[2].AsInteger();
    }
    EXPECT_EQ(total, 4);
  }
}

}  // namespace
}  // namespace p3pdb::sqldb
