// WAL group commit tests: the two-phase stage/wait surface, leader
// fsync coalescing across staged commits, durability across reopen, and
// the checkpoint interaction (a checkpoint image durably covers every
// commit staged before it).

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>
#include <unistd.h>

#include "server/policy_server.h"
#include "sqldb/database.h"
#include "workload/corpus.h"
#include "workload/jrc_preferences.h"

namespace p3pdb::sqldb {
namespace {

using server::EngineKind;
using server::PolicyServer;

std::string TestDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "p3pdb_group_commit_" +
                    std::to_string(::getpid()) + "_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

Database::Options GroupCommitOptions(const std::string& dir,
                                     uint64_t window_us = 0) {
  Database::Options o;
  o.storage.path = dir;
  o.storage.group_commit = true;
  o.storage.group_commit_window_us = window_us;
  return o;
}

// One WaitDurable on the newest ticket must cover every older staged
// commit with a single fsync — the deterministic (single-threaded) form of
// coalescing, independent of scheduler luck.
TEST(GroupCommitTest, OneSyncCoversAllStagedCommits) {
  const std::string dir = TestDir("stage_many");
  {
    Database db(GroupCommitOptions(dir));
    ASSERT_TRUE(db.storage_active()) << db.storage_status();
    ASSERT_TRUE(db.Execute("CREATE TABLE t (id INTEGER, PRIMARY KEY (id))")
                    .ok());

    const uint64_t syncs_before = db.storage_stats().wal_group_syncs;
    std::vector<uint64_t> tickets;
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(db.BeginTransaction().ok());
      ASSERT_TRUE(db.InsertRow("t", {Value::Integer(i)}).ok());
      auto ticket = db.CommitTransactionStaged();
      ASSERT_TRUE(ticket.ok()) << ticket.status();
      ASSERT_GT(ticket.value(), 0u);
      tickets.push_back(ticket.value());
    }
    // Waiting on the newest ticket makes this thread the leader; its one
    // fsync covers all eight staged commit records.
    ASSERT_TRUE(db.WaitDurable(tickets.back()).ok());
    EXPECT_EQ(db.storage_stats().wal_group_syncs, syncs_before + 1);
    // The older tickets are already durable; waiting on them adds no sync.
    for (uint64_t ticket : tickets) {
      ASSERT_TRUE(db.WaitDurable(ticket).ok());
    }
    EXPECT_EQ(db.storage_stats().wal_group_syncs, syncs_before + 1);
  }
  Database reopened(GroupCommitOptions(dir));
  ASSERT_TRUE(reopened.storage_active());
  auto rows = reopened.Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().rows[0][0].AsInteger(), 8);
  std::filesystem::remove_all(dir);
}

// Ticket 0 means "nothing to make durable" (an empty txn); WaitDurable on
// it must be a no-op rather than a hang.
TEST(GroupCommitTest, EmptyTransactionStagesTicketZero) {
  const std::string dir = TestDir("empty_txn");
  Database db(GroupCommitOptions(dir));
  ASSERT_TRUE(db.storage_active());
  ASSERT_TRUE(db.BeginTransaction().ok());
  auto ticket = db.CommitTransactionStaged();
  ASSERT_TRUE(ticket.ok());
  EXPECT_EQ(ticket.value(), 0u);
  EXPECT_TRUE(db.WaitDurable(0).ok());
  std::filesystem::remove_all(dir);
}

// Concurrent committers racing through the stage/wait path: all commits
// must be durable and the total fsync count must never exceed the commit
// count (followers ride the leader's sync; with a window the leader
// lingers so followers can join).
TEST(GroupCommitTest, ConcurrentCommittersAreDurableAndCoalesce) {
  const std::string dir = TestDir("concurrent");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 16;
  {
  Database db(GroupCommitOptions(dir, /*window_us=*/500));
  ASSERT_TRUE(db.storage_active());
  ASSERT_TRUE(db.Execute("CREATE TABLE t (id INTEGER, PRIMARY KEY (id))")
                  .ok());

  // The database serializes transaction building; the group-commit path is
  // about the fsync tail, so the race worth staging is stage-then-wait from
  // many threads with the staging serialized by a mutex, the waiting not.
  std::mutex stage_mu;
  std::atomic<int> errors{0};
  std::atomic<int> next_id{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        uint64_t ticket = 0;
        {
          std::lock_guard<std::mutex> lock(stage_mu);
          if (!db.BeginTransaction().ok() ||
              !db.InsertRow("t", {Value::Integer(next_id.fetch_add(1))})
                   .ok()) {
            ++errors;
            continue;
          }
          auto staged = db.CommitTransactionStaged();
          if (!staged.ok()) {
            ++errors;
            continue;
          }
          ticket = staged.value();
        }
        if (!db.WaitDurable(ticket).ok()) ++errors;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(errors.load(), 0);

  const StorageStats stats = db.storage_stats();
  EXPECT_GE(stats.wal_group_syncs, 1u);
  EXPECT_LE(stats.wal_group_syncs, stats.wal_commits);
  }
  Database reopened(GroupCommitOptions(dir));
  ASSERT_TRUE(reopened.storage_active());
  auto rows = reopened.Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().rows[0][0].AsInteger(), kThreads * kPerThread);
  std::filesystem::remove_all(dir);
}

// A checkpoint between staging and waiting: the checkpoint image durably
// contains the staged commit, so WaitDurable must return without another
// fsync of a (by then retired) WAL generation.
TEST(GroupCommitTest, CheckpointSatisfiesStagedTickets) {
  const std::string dir = TestDir("checkpoint");
  {
    Database db(GroupCommitOptions(dir));
    ASSERT_TRUE(db.storage_active());
    ASSERT_TRUE(db.Execute("CREATE TABLE t (id INTEGER, PRIMARY KEY (id))")
                    .ok());
    ASSERT_TRUE(db.BeginTransaction().ok());
    ASSERT_TRUE(db.InsertRow("t", {Value::Integer(1)}).ok());
    auto ticket = db.CommitTransactionStaged();
    ASSERT_TRUE(ticket.ok());
    ASSERT_GT(ticket.value(), 0u);

    const uint64_t syncs_before = db.storage_stats().wal_group_syncs;
    ASSERT_TRUE(db.Checkpoint().ok());
    // The ticket was covered by the checkpoint; no leader sync needed.
    ASSERT_TRUE(db.WaitDurable(ticket.value()).ok());
    EXPECT_EQ(db.storage_stats().wal_group_syncs, syncs_before);
  }
  Database reopened(GroupCommitOptions(dir));
  ASSERT_TRUE(reopened.storage_active());
  auto rows = reopened.Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().rows[0][0].AsInteger(), 1);
  std::filesystem::remove_all(dir);
}

// PolicyServer wiring: with storage_group_commit on, installs stay durable
// across reopen and the p3p_storage_wal_group_syncs_total counter moves.
TEST(GroupCommitTest, PolicyServerInstallsAreDurableUnderGroupCommit) {
  const std::string dir = TestDir("server");
  workload::CorpusOptions corpus_options;
  corpus_options.policy_count = 5;
  const std::vector<p3p::Policy> corpus =
      workload::FortuneCorpus(corpus_options);
  {
    PolicyServer::Options o;
    o.engine = EngineKind::kSql;
    o.storage_path = dir;
    o.storage_group_commit = true;
    auto server = PolicyServer::Create(o);
    ASSERT_TRUE(server.ok()) << server.status().message();
    for (const p3p::Policy& policy : corpus) {
      ASSERT_TRUE(server.value()->InstallPolicy(policy).ok());
    }
    ASSERT_TRUE(
        server.value()
            ->InstallReferenceFile(workload::CorpusReferenceFile(corpus))
            .ok());
    EXPECT_GE(server.value()->MetricsSnapshot().counters.at(
                  "p3p_storage_wal_group_syncs_total"),
              1u);
  }
  {
    PolicyServer::Options o;
    o.engine = EngineKind::kSql;
    o.storage_path = dir;
    o.storage_group_commit = true;
    auto server = PolicyServer::Create(o);
    ASSERT_TRUE(server.ok()) << server.status().message();
    EXPECT_EQ(server.value()->policy_ids().size(), corpus.size());
    auto pref = server.value()->CompilePreference(
        workload::JrcPreference(workload::PreferenceLevel::kMedium));
    ASSERT_TRUE(pref.ok());
    auto r = server.value()->MatchUri(
        pref.value(), "/" + corpus[0].name + "/index.html");
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().policy_found);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace p3pdb::sqldb
