// The read-only match path: the generated rule queries take the applicable
// policy id as a bind parameter, so (a) their rows are identical to the
// paper-text queries that join a materialized ApplicablePolicy row, and
// (b) a match mutates no table at all, for every SQL engine, and writes
// no WAL record on a disk-backed server.

#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

#include "server/policy_server.h"
#include "translator/sql_optimized.h"
#include "translator/sql_simple.h"
#include "workload/corpus.h"
#include "workload/jrc_preferences.h"
#include "workload/paper_examples.h"

namespace p3pdb::server {
namespace {

using sqldb::Value;
using workload::JrcPreference;
using workload::PreferenceLevel;

Result<std::unique_ptr<PolicyServer>> CorpusServer(
    EngineKind engine, const std::vector<p3p::Policy>& corpus,
    std::vector<int64_t>* ids) {
  PolicyServer::Options options;
  options.engine = engine;
  P3PDB_ASSIGN_OR_RETURN(std::unique_ptr<PolicyServer> server,
                         PolicyServer::Create(options));
  for (const p3p::Policy& policy : corpus) {
    P3PDB_ASSIGN_OR_RETURN(int64_t id, server->InstallPolicy(policy));
    ids->push_back(id);
  }
  P3PDB_RETURN_IF_ERROR(
      server->InstallReferenceFile(workload::CorpusReferenceFile(corpus)));
  return server;
}

// PreparedStatement::Execute with params returns exactly the rows of the
// literal (paper-text) translation, for both the Figure 11 and the Figure
// 15 translators, with the ApplicablePolicy row set to the same policy.
TEST(MatchReadonlyTest, PreparedWithParamsMatchesLiteralQueryRows) {
  std::vector<p3p::Policy> corpus = workload::FortuneCorpus();
  for (EngineKind engine : {EngineKind::kSqlSimple, EngineKind::kSql}) {
    std::vector<int64_t> ids;
    auto server = CorpusServer(engine, corpus, &ids);
    ASSERT_TRUE(server.ok()) << server.status();
    const appel::AppelRule rule = workload::JaneSimplifiedFirstRule();

    std::string literal_sql, param_sql;
    if (engine == EngineKind::kSqlSimple) {
      auto lit = translator::SimpleSqlTranslator().TranslateRule(rule);
      ASSERT_TRUE(lit.ok()) << lit.status();
      auto par = translator::SimpleSqlTranslator(/*parameterized=*/true)
                     .TranslateRule(rule);
      ASSERT_TRUE(par.ok()) << par.status();
      literal_sql = lit.value();
      param_sql = par.value();
    } else {
      auto lit = translator::OptimizedSqlTranslator().TranslateRule(rule);
      ASSERT_TRUE(lit.ok()) << lit.status();
      auto par = translator::OptimizedSqlTranslator(/*parameterized=*/true)
                     .TranslateRule(rule);
      ASSERT_TRUE(par.ok()) << par.status();
      literal_sql = lit.value();
      param_sql = par.value();
    }

    sqldb::Database* db = server.value()->database();
    auto prepared = db->Prepare(param_sql);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    ASSERT_EQ(prepared.value().param_count(), 1u);

    int fired = 0;
    for (int64_t id : ids) {
      // Materialize `id` into the one-row table, the state the literal
      // query reads (the paper's Figure 13 preamble).
      auto set = db->Execute("UPDATE ApplicablePolicy SET policy_id = " +
                             std::to_string(id));
      ASSERT_TRUE(set.ok()) << set.status();
      auto literal = db->Execute(literal_sql);
      ASSERT_TRUE(literal.ok()) << literal.status();
      auto bound = prepared.value().Execute({Value::Integer(id)});
      ASSERT_TRUE(bound.ok()) << bound.status();
      ASSERT_EQ(literal.value().rows.size(), bound.value().rows.size());
      for (size_t r = 0; r < literal.value().rows.size(); ++r) {
        EXPECT_EQ(literal.value().rows[r], bound.value().rows[r]);
      }
      if (!bound.value().rows.empty()) ++fired;
    }
    // Guard against a vacuously-passing comparison: the Jane rule must
    // fire against some of the corpus and stay silent against some.
    EXPECT_GT(fired, 0);
    EXPECT_LT(fired, static_cast<int>(ids.size()));
  }
}

// Acceptance criterion of the read-only path: a match changes no table —
// neither live row counts nor tombstones.
TEST(MatchReadonlyTest, MatchMutatesNoTable) {
  std::vector<p3p::Policy> corpus = workload::FortuneCorpus();
  for (EngineKind engine : {EngineKind::kSql, EngineKind::kSqlSimple,
                            EngineKind::kXQueryXTable}) {
    SCOPED_TRACE(EngineKindName(engine));
    std::vector<int64_t> ids;
    auto server = CorpusServer(engine, corpus, &ids);
    ASSERT_TRUE(server.ok()) << server.status();
    auto pref = server.value()->CompilePreference(
        JrcPreference(PreferenceLevel::kHigh));
    ASSERT_TRUE(pref.ok());

    sqldb::Database* db = server.value()->database();
    auto table_state = [db] {
      std::vector<std::pair<std::string, std::pair<size_t, size_t>>> state;
      for (const std::string& name : db->TableNames()) {
        const sqldb::Table* table = db->LookupTable(name);
        size_t live = 0;
        for (size_t slot = 0; slot < table->SlotCount(); ++slot) {
          if (table->IsLive(slot)) ++live;
        }
        state.emplace_back(name, std::make_pair(table->SlotCount(), live));
      }
      return state;
    };

    const auto before = table_state();
    for (int64_t id : ids) {
      ASSERT_TRUE(server.value()->MatchPolicyId(pref.value(), id).ok());
    }
    for (const p3p::Policy& policy : corpus) {
      ASSERT_TRUE(server.value()
                      ->MatchUri(pref.value(), "/" + policy.name + "/x")
                      .ok());
    }
    EXPECT_EQ(table_state(), before);
  }
}

// On a disk-backed server a match writes nothing durable: across 100
// matches, by id and by URI, cached and computed, the WAL takes no record
// and no fsync.
TEST(MatchReadonlyTest, DiskBackedMatchWritesNoWal) {
  const std::string dir = ::testing::TempDir() + "p3pdb_match_readonly_wal_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::vector<p3p::Policy> corpus = workload::FortuneCorpus();
  PolicyServer::Options options;
  options.engine = EngineKind::kSql;
  options.storage_path = dir;
  auto server = PolicyServer::Create(options);
  ASSERT_TRUE(server.ok()) << server.status();
  std::vector<int64_t> ids;
  for (const p3p::Policy& policy : corpus) {
    auto id = server.value()->InstallPolicy(policy);
    ASSERT_TRUE(id.ok()) << id.status();
    ids.push_back(id.value());
  }
  ASSERT_TRUE(server.value()
                  ->InstallReferenceFile(workload::CorpusReferenceFile(corpus))
                  .ok());
  auto pref = server.value()->CompilePreference(
      JrcPreference(PreferenceLevel::kHigh));
  ASSERT_TRUE(pref.ok());

  auto wal = [&] {
    const obs::MetricsSnapshot snap = server.value()->MetricsSnapshot();
    return std::make_pair(snap.counters.at("p3p_storage_wal_records_total"),
                          snap.counters.at("p3p_storage_wal_syncs_total"));
  };
  const auto before = wal();
  EXPECT_GT(before.first, 0u);
  for (int i = 0; i < 100; ++i) {
    const size_t pick = static_cast<size_t>(i) % 20;
    auto match = i % 2 == 0
                     ? server.value()->MatchPolicyId(pref.value(), ids[pick])
                     : server.value()->MatchUri(
                           pref.value(), "/" + corpus[pick].name + "/x");
    ASSERT_TRUE(match.ok()) << match.status();
    EXPECT_TRUE(match.value().policy_found);
  }
  EXPECT_EQ(wal(), before);
  server.value().reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace p3pdb::server
