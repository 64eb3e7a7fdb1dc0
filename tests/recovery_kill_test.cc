// Randomized kill-and-recover harness for the disk-backed storage engine.
//
// A child process applies a seeded workload — policy installs, reference-file
// installs, multi-statement DML transactions — against a disk-backed
// PolicyServer whose files run through a FaultInjectingFileBackend. The
// backend kills the process (raw _exit, no destructors, no checkpoint) at a
// chosen write op, optionally flushing only a prefix of that write (a torn
// mid-page or mid-WAL-record write). The parent then reopens the directory
// without fault injection and checks the recovery invariants:
//
//   1. Recovery always succeeds — no crash point may brick the directory.
//   2. Durability is a unit-exact prefix: every workload unit whose commit
//      returned before the kill is fully present; the in-flight unit is
//      fully present or fully absent; nothing beyond it exists.
//   3. Every table's indexes are consistent with its heap (each live row
//      findable under its key, unique indexes single-valued).
//   4. The recovered server is semantically identical to an in-memory
//      oracle that replays the committed unit prefix: same policy ids and
//      versions, same KvStore contents, and identical match results for a
//      compiled preference across every policy and reference-file lookup
//      (the Figure 20 workload as ground truth).
//
// The sweep kills the child at every write op of the schedule, so WAL
// appends, commit records, checkpoint page writes, meta flips, and
// close-time checkpoints all get killed. Every failure prints the (seed,
// crash-op, fraction) triple that reproduces it and preserves the storage
// directory under recovery_failure/.
//
// Environment knob:
//   P3PDB_RECOVERY_SEED    workload seed (default 20260808)

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/random.h"
#include "p3p/reference_file.h"
#include "server/policy_server.h"
#include "sqldb/file_backend.h"
#include "workload/corpus.h"
#include "workload/jrc_preferences.h"

namespace p3pdb::server {
namespace {

using sqldb::Value;

constexpr int kUnitCount = 12;
constexpr int kChildErrorExit = 1;

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

// ------------------------------------------------------------- workload --

struct Workload {
  std::vector<p3p::Policy> corpus;
  p3p::ReferenceFile rf1;
  p3p::ReferenceFile rf2;
};

Workload MakeWorkload(uint64_t seed) {
  Workload w;
  w.corpus = workload::FortuneCorpus({.seed = seed, .policy_count = 6});
  w.rf1 = workload::CorpusReferenceFile(
      {w.corpus.begin(), w.corpus.begin() + 3});
  w.rf2 = workload::CorpusReferenceFile(
      {w.corpus.begin(), w.corpus.begin() + 5});
  return w;
}

/// One multi-statement DML transaction. The marker row (k = 10000 + unit),
/// inserted last inside the transaction, is the unit's visibility witness:
/// transactional atomicity means it exists iff the whole unit does.
Status ApplyDmlUnit(sqldb::Database* db, int unit, uint64_t seed) {
  P3PDB_RETURN_IF_ERROR(db->BeginTransaction());
  Random rng(seed * 1315423911ull + static_cast<uint64_t>(unit));
  auto body = [&]() -> Status {
    if (unit == 2) {
      P3PDB_RETURN_IF_ERROR(
          db->ExecuteScript("CREATE TABLE KvStore (k INTEGER, v VARCHAR(16), "
                            "PRIMARY KEY (k));"
                            "CREATE INDEX idx_kv_v ON KvStore (v);"));
      for (int k = 0; k < 10; ++k) {
        P3PDB_RETURN_IF_ERROR(
            db->Execute("INSERT INTO KvStore VALUES (" + std::to_string(k) +
                        ", 'v" + std::to_string(rng.UniformInt(0, 4)) + "')")
                .status());
      }
    } else if (unit == 5) {
      for (int k = 10; k < 20; ++k) {
        P3PDB_RETURN_IF_ERROR(
            db->Execute("INSERT INTO KvStore VALUES (" + std::to_string(k) +
                        ", 'w" + std::to_string(rng.UniformInt(0, 4)) + "')")
                .status());
      }
      P3PDB_RETURN_IF_ERROR(
          db->Execute("UPDATE KvStore SET v = 'u5' WHERE k < " +
                      std::to_string(rng.UniformInt(3, 6)))
              .status());
      P3PDB_RETURN_IF_ERROR(
          db->Execute("DELETE FROM KvStore WHERE k = " +
                      std::to_string(rng.UniformInt(6, 9)))
              .status());
    } else {  // unit 9
      P3PDB_RETURN_IF_ERROR(
          db->Execute("UPDATE KvStore SET v = NULL WHERE k >= " +
                      std::to_string(rng.UniformInt(14, 17)))
              .status());
      P3PDB_RETURN_IF_ERROR(
          db->Execute("DELETE FROM KvStore WHERE k < " +
                      std::to_string(rng.UniformInt(2, 4)))
              .status());
      for (int k = 20; k < 25; ++k) {
        P3PDB_RETURN_IF_ERROR(
            db->Execute("INSERT INTO KvStore VALUES (" + std::to_string(k) +
                        ", 'z" + std::to_string(rng.UniformInt(0, 4)) + "')")
                .status());
      }
    }
    return db
        ->Execute("INSERT INTO KvStore VALUES (" +
                  std::to_string(10000 + unit) + ", 'marker')")
        .status();
  };
  Status st = body();
  Status commit = db->CommitTransaction();
  if (!st.ok()) return st;
  return commit;
}

/// Applies one workload unit. Shared verbatim by the crashing child and the
/// in-memory oracle, so "replay the committed prefix" is literal.
Status ApplyUnit(PolicyServer* server, const Workload& w, int unit,
                 uint64_t seed) {
  switch (unit) {
    case 0:
      return server->InstallPolicy(w.corpus[0]).status();
    case 1:
      return server->InstallPolicy(w.corpus[1]).status();
    case 2:
    case 5:
    case 9:
      return ApplyDmlUnit(server->database(), unit, seed);
    case 3:
      return server->InstallPolicy(w.corpus[2]).status();
    case 4:
      return server->InstallReferenceFile(w.rf1);
    case 6:
      // Re-install of unit 0's policy name: creates version 2.
      return server->InstallPolicy(w.corpus[0]).status();
    case 7:
      return server->InstallPolicy(w.corpus[3]).status();
    case 8:
      return server->InstallReferenceFile(w.rf2);
    case 10:
      return server->InstallPolicy(w.corpus[4]).status();
    default:
      return server->InstallPolicy(w.corpus[5]).status();
  }
}

/// True when `unit`'s committed effects are observable in `server`.
bool UnitVisible(PolicyServer* server, const Workload& w, int unit) {
  auto policy_version_at_least = [&](const std::string& name, int64_t v) {
    return server->PolicyVersion(name) >= v;
  };
  auto reference_file_is = [&](const p3p::ReferenceFile& rf) {
    auto xml = server->database()->Execute("SELECT xml FROM RefFileCatalog");
    if (!xml.ok() || xml.value().rows.empty()) return false;
    return xml.value().rows[0][0].AsText() == p3p::ReferenceFileToText(rf);
  };
  auto marker_present = [&](int u) {
    auto row = server->database()->Execute(
        "SELECT COUNT(*) FROM KvStore WHERE k = " + std::to_string(10000 + u));
    return row.ok() && row.value().rows[0][0].AsInteger() == 1;
  };
  switch (unit) {
    case 0:
      return policy_version_at_least(w.corpus[0].name, 1);
    case 1:
      return policy_version_at_least(w.corpus[1].name, 1);
    case 2:
    case 5:
    case 9:
      return marker_present(unit);
    case 3:
      return policy_version_at_least(w.corpus[2].name, 1);
    case 4:
      // Superseded by unit 8's reference file; once that is in, this was.
      return reference_file_is(w.rf1) || reference_file_is(w.rf2);
    case 6:
      return policy_version_at_least(w.corpus[0].name, 2);
    case 7:
      return policy_version_at_least(w.corpus[3].name, 1);
    case 8:
      return reference_file_is(w.rf2);
    case 10:
      return policy_version_at_least(w.corpus[4].name, 1);
    default:
      return policy_version_at_least(w.corpus[5].name, 1);
  }
}

// ---------------------------------------------------------------- child --

PolicyServer::Options ChildOptions(const std::string& dir) {
  PolicyServer::Options options;
  options.engine = EngineKind::kSql;
  options.storage_path = dir;
  // Aggressive checkpointing so the write schedule covers checkpoint page
  // writes, meta flips, and WAL switches — not just WAL appends.
  options.storage_checkpoint_wal_bytes = 16 << 10;
  return options;
}

/// Runs the workload in the (forked) child. Never returns: _exit(0) on
/// clean completion, kCrashExitCode via the fault hook, kChildErrorExit on
/// any unexpected error (reported through the progress file's .err side
/// channel for the parent to print).
void RunChildWorkload(const std::string& dir, const std::string& progress,
                      uint64_t seed, uint64_t crash_at_op, double fraction,
                      const std::string& ops_out) {
  auto die = [&](const std::string& why) {
    std::FILE* f = std::fopen((progress + ".err").c_str(), "w");
    if (f != nullptr) {
      std::fputs(why.c_str(), f);
      std::fclose(f);
    }
    _exit(kChildErrorExit);
  };

  auto plan = std::make_shared<sqldb::FaultPlan>();
  plan->crash_at_op = crash_at_op;
  plan->partial_fraction = fraction;
  PolicyServer::Options options = ChildOptions(dir);
  options.storage_backend_factory = sqldb::MakeFaultInjectingFactory(plan);

  Workload w = MakeWorkload(seed);
  std::FILE* log = std::fopen(progress.c_str(), "w");
  if (log == nullptr) die("cannot open progress file");
  {
    auto server = PolicyServer::Create(options);
    if (!server.ok()) die("create: " + server.status().ToString());
    for (int unit = 0; unit < kUnitCount; ++unit) {
      Status st = ApplyUnit(server.value().get(), w, unit, seed);
      if (!st.ok()) {
        die("unit " + std::to_string(unit) + ": " + st.ToString());
      }
      // The unit's commit fsync has returned; record it durably before
      // moving on, so the parent's marker count is a lower bound on what
      // recovery must find.
      std::fprintf(log, "%d\n", unit);
      std::fflush(log);
      fsync(fileno(log));
    }
    // Clean close: destructor checkpoint — also under fault injection.
  }
  std::fclose(log);
  if (!ops_out.empty()) {
    std::FILE* f = std::fopen(ops_out.c_str(), "w");
    if (f == nullptr) die("cannot open ops file");
    std::fprintf(f, "%llu\n",
                 static_cast<unsigned long long>(plan->op_counter->load()));
    std::fclose(f);
  }
  _exit(0);
}

// --------------------------------------------------------------- parent --

int CountProgressLines(const std::string& progress) {
  std::FILE* f = std::fopen(progress.c_str(), "r");
  if (f == nullptr) return 0;
  int lines = 0;
  int c;
  while ((c = std::fgetc(f)) != EOF) {
    if (c == '\n') ++lines;
  }
  std::fclose(f);
  return lines;
}

std::string ReadSmallFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return "";
  char buf[4096];
  size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  return buf;
}

/// Heap/index consistency: every live row findable under every index key,
/// unique indexes single-valued, live bitmap consistent with RowCount.
void VerifyTableIndexes(const sqldb::Table* table, const std::string& ctx) {
  size_t live = 0;
  for (size_t slot = 0; slot < table->SlotCount(); ++slot) {
    if (table->IsLive(slot)) ++live;
  }
  EXPECT_EQ(live, table->RowCount())
      << ctx << ": live bitmap disagrees with RowCount for table '"
      << table->schema().name() << "'";
  for (const auto& index : table->indexes()) {
    for (size_t slot = 0; slot < table->SlotCount(); ++slot) {
      if (!table->IsLive(slot)) continue;
      std::vector<const Value*> key;
      bool has_null = false;
      for (size_t ord : index->column_ordinals()) {
        key.push_back(&table->RowAt(slot)[ord]);
        has_null |= key.back()->is_null();
      }
      if (has_null) continue;  // NULL keys are not indexed
      const sqldb::IndexRows ids =
          index->Lookup(sqldb::IndexKeyView{key.data(), key.size()});
      ASSERT_FALSE(ids.empty())
          << ctx << ": row " << slot << " of '" << table->schema().name()
          << "' missing from index '" << index->name() << "'";
      EXPECT_NE(std::find(ids.begin(), ids.end(), slot), ids.end())
          << ctx << ": row " << slot << " of '" << table->schema().name()
          << "' not under its key in index '" << index->name() << "'";
      if (index->unique()) {
        EXPECT_EQ(std::distance(ids.begin(), ids.end()), 1)
            << ctx << ": unique index '" << index->name() << "' of '"
            << table->schema().name() << "' has duplicates";
      }
    }
  }
}

/// Compares the recovered server against an in-memory oracle that replayed
/// the same committed unit prefix: catalog state, KvStore contents, and the
/// full preference-match workload.
void CompareWithOracle(PolicyServer* recovered, const Workload& w,
                       int units_committed, uint64_t seed,
                       const std::string& ctx) {
  auto oracle_or = PolicyServer::Create(
      PolicyServer::Options{.engine = EngineKind::kSql});
  ASSERT_TRUE(oracle_or.ok()) << ctx << ": " << oracle_or.status();
  PolicyServer* oracle = oracle_or.value().get();
  for (int unit = 0; unit < units_committed; ++unit) {
    ASSERT_TRUE(ApplyUnit(oracle, w, unit, seed).ok()) << ctx;
  }

  EXPECT_EQ(recovered->policy_ids(), oracle->policy_ids()) << ctx;
  for (const p3p::Policy& policy : w.corpus) {
    EXPECT_EQ(recovered->PolicyVersion(policy.name),
              oracle->PolicyVersion(policy.name))
        << ctx << ": version of '" << policy.name << "'";
  }

  auto kv_recovered =
      recovered->database()->Execute("SELECT k, v FROM KvStore ORDER BY k");
  auto kv_oracle =
      oracle->database()->Execute("SELECT k, v FROM KvStore ORDER BY k");
  ASSERT_EQ(kv_recovered.ok(), kv_oracle.ok()) << ctx;
  if (kv_recovered.ok()) {
    EXPECT_EQ(kv_recovered.value().ToString(), kv_oracle.value().ToString())
        << ctx << ": KvStore contents diverge";
  }

  // The match workload: every policy id plus the reference-file lookups.
  auto pref_recovered = recovered->CompilePreference(
      workload::JrcPreference(workload::PreferenceLevel::kMedium));
  auto pref_oracle = oracle->CompilePreference(
      workload::JrcPreference(workload::PreferenceLevel::kMedium));
  ASSERT_TRUE(pref_recovered.ok()) << ctx << ": " << pref_recovered.status();
  ASSERT_TRUE(pref_oracle.ok()) << ctx;
  for (int64_t id : oracle->policy_ids()) {
    auto got = recovered->MatchPolicyId(pref_recovered.value(), id);
    auto want = oracle->MatchPolicyId(pref_oracle.value(), id);
    ASSERT_EQ(got.ok(), want.ok()) << ctx << ": policy " << id;
    if (!got.ok()) continue;
    EXPECT_EQ(got.value().behavior, want.value().behavior)
        << ctx << ": policy " << id;
    EXPECT_EQ(got.value().fired_rule_index, want.value().fired_rule_index)
        << ctx << ": policy " << id;
  }
  for (const char* path : {"/", "/index.html", "/catalog/item?id=3"}) {
    auto got = recovered->MatchUri(pref_recovered.value(), path);
    auto want = oracle->MatchUri(pref_oracle.value(), path);
    ASSERT_EQ(got.ok(), want.ok()) << ctx << ": uri " << path;
    if (!got.ok()) continue;
    EXPECT_EQ(got.value().behavior, want.value().behavior)
        << ctx << ": uri " << path;
    EXPECT_EQ(got.value().policy_found, want.value().policy_found)
        << ctx << ": uri " << path;
    EXPECT_EQ(got.value().policy_id, want.value().policy_id)
        << ctx << ": uri " << path;
  }
}

/// Full invariant check of one crashed (or completed) run.
void VerifyRecovered(const std::string& dir, const Workload& w,
                     int marked_units, uint64_t seed, const std::string& ctx) {
  auto server_or = PolicyServer::Create(ChildOptions(dir));
  ASSERT_TRUE(server_or.ok())
      << ctx << ": recovery failed: " << server_or.status();
  PolicyServer* server = server_or.value().get();

  // Unit-exact prefix durability.
  int recovered_units = 0;
  while (recovered_units < kUnitCount &&
         UnitVisible(server, w, recovered_units)) {
    ++recovered_units;
  }
  EXPECT_GE(recovered_units, marked_units)
      << ctx << ": a unit whose commit returned before the kill is missing";
  EXPECT_LE(recovered_units, marked_units + 1)
      << ctx << ": more than the in-flight unit survived";
  for (int unit = recovered_units; unit < kUnitCount; ++unit) {
    EXPECT_FALSE(UnitVisible(server, w, unit))
        << ctx << ": unit " << unit
        << " is visible past the committed prefix (non-prefix durability)";
  }

  // Index/heap consistency of everything recovered.
  for (const char* name :
       {"PolicyCatalog", "RefFileCatalog", "KvStore", "Policy", "Statement",
        "Purpose", "Recipient", "Data", "Categories", "Meta", "Policyref",
        "Include", "Exclude", "CookieInclude", "CookieExclude",
        "ApplicablePolicy"}) {
    const sqldb::Table* table = server->database()->LookupTable(name);
    if (table != nullptr) VerifyTableIndexes(table, ctx);
  }

  CompareWithOracle(server, w, recovered_units, seed, ctx);
}

class RecoveryKillTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = ::testing::TempDir() + "p3pdb_recovery_" + std::to_string(::getpid());
    std::filesystem::remove_all(base_);
    std::filesystem::create_directories(base_);
  }

  /// Forks the workload child; returns its exit code.
  int RunChild(const std::string& dir, const std::string& progress,
               uint64_t seed, uint64_t crash_at_op, double fraction,
               const std::string& ops_out = "") {
    pid_t pid = fork();
    if (pid == 0) {
      RunChildWorkload(dir, progress, seed, crash_at_op, fraction, ops_out);
      _exit(kChildErrorExit);  // unreachable
    }
    EXPECT_GT(pid, 0) << "fork failed";
    if (pid <= 0) return -1;
    int status = 0;
    waitpid(pid, &status, 0);
    if (!WIFEXITED(status)) return -1;
    return WEXITSTATUS(status);
  }

  /// Copies the crashed run's storage directory and progress file into
  /// recovery_failure/ so CI can upload them.
  void PreserveArtifacts(const std::string& dir, const std::string& progress,
                         uint64_t seed, uint64_t crash_op) {
    const std::string out = "recovery_failure/seed" + std::to_string(seed) +
                            "_op" + std::to_string(crash_op);
    std::error_code ec;
    std::filesystem::create_directories(out, ec);
    std::filesystem::copy(dir, out + "/storage",
                          std::filesystem::copy_options::recursive, ec);
    std::filesystem::copy_file(
        progress, out + "/progress.txt",
        std::filesystem::copy_options::overwrite_existing, ec);
  }

  std::string base_;
};

TEST_F(RecoveryKillTest, SurvivesKillsAcrossTheWholeWriteSchedule) {
  const uint64_t seed = EnvOr("P3PDB_RECOVERY_SEED", 20260808);
  const Workload w = MakeWorkload(seed);

  // Calibration: one fault-free run measures the total write schedule and
  // checks the full workload recovers cleanly after a graceful close.
  const std::string calib_dir = base_ + "/calibration";
  const std::string calib_progress = base_ + "/calibration.progress";
  const std::string ops_file = base_ + "/calibration.ops";
  int exit_code = RunChild(calib_dir, calib_progress, seed,
                           /*crash_at_op=*/0, 0.0, ops_file);
  ASSERT_EQ(exit_code, 0) << "calibration child failed: "
                          << ReadSmallFile(calib_progress + ".err");
  const uint64_t total_ops =
      std::strtoull(ReadSmallFile(ops_file).c_str(), nullptr, 10);
  ASSERT_GE(total_ops, 200u)
      << "workload too small to cover 200 crash points";
  ASSERT_EQ(CountProgressLines(calib_progress), kUnitCount);
  VerifyRecovered(calib_dir, w, kUnitCount, seed, "calibration");
  ASSERT_FALSE(HasFailure());

  // Crash sweep: every write op of the schedule. Partial fractions rotate
  // so dropped, torn (quarter/half), and completed fatal writes are all
  // exercised.
  static const double kFractions[] = {0.0, 0.25, 0.5, 1.0};
  const auto sweep_start = std::chrono::steady_clock::now();
  uint64_t trials = 0;
  uint64_t crashes = 0;
  for (uint64_t op = 1; op <= total_ops; ++op) {
    const double fraction = kFractions[op % 4];
    const std::string dir = base_ + "/trial";
    const std::string progress = base_ + "/trial.progress";
    std::filesystem::remove_all(dir);
    std::filesystem::remove(progress);
    std::filesystem::remove(progress + ".err");

    exit_code = RunChild(dir, progress, seed, op, fraction);
    ++trials;
    const std::string ctx = "seed=" + std::to_string(seed) +
                            " crash_op=" + std::to_string(op) +
                            " fraction=" + std::to_string(fraction);
    if (exit_code == 0) {
      // The schedule shrank below this op (earlier checkpoint timing can
      // shift writes); a clean completion still must verify.
      VerifyRecovered(dir, w, kUnitCount, seed, ctx + " (completed)");
    } else {
      ASSERT_EQ(exit_code, sqldb::kCrashExitCode)
          << ctx << ": child failed instead of crashing: "
          << ReadSmallFile(progress + ".err");
      ++crashes;
      VerifyRecovered(dir, w, CountProgressLines(progress), seed, ctx);
    }
    if (HasFailure()) {
      PreserveArtifacts(dir, progress, seed, op);
      FAIL() << "recovery invariant violated at " << ctx
             << "\nreproduce with: P3PDB_RECOVERY_SEED=" << seed
             << " ./recovery_kill_test (artifacts in recovery_failure/)";
    }
  }
  const double sweep_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - sweep_start)
                             .count();
  std::printf("seed %llu: swept %llu write ops (%llu crashes) in %.1f s\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(total_ops),
              static_cast<unsigned long long>(crashes), sweep_s);
  // The sweep must actually have killed the process at every write op.
  EXPECT_EQ(trials, total_ops);
  EXPECT_GE(crashes, trials * 3 / 4)
      << "most trials should die mid-write; the fault plan looks inert";
  std::filesystem::remove_all(base_);
}

}  // namespace
}  // namespace p3pdb::server
