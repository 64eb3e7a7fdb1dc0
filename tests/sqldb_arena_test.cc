// Statement memory (ast.h): each parsed statement's nodes and lists live in
// one arena owned by its root, which must outlive every execution holding
// the plan, take no allocation once the plan is published, and free
// everything, finalizers included, on parse errors and on eviction. The
// threaded test runs under the `concurrency` label (TSan); the error-path
// and eviction tests are what LeakSanitizer and ASan check in the
// sanitizer job.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "sqldb/database.h"
#include "sqldb/parser.h"
#include "translator/sql_optimized.h"
#include "workload/random_preferences.h"

namespace p3pdb::sqldb {
namespace {

constexpr int kStatements = 8;
constexpr int64_t kKeys = 4;

/// Rule-query-shaped statement `i`: a correlated EXISTS and NOT EXISTS the
/// planner rewrites into hash joins, so the plan holds planner-placed nodes.
std::string RuleQuery(int i) {
  return "SELECT p.id FROM parent p WHERE p.k = ? AND EXISTS (SELECT * FROM "
         "child c WHERE c.pid = p.id AND c.v = " +
         std::to_string(i) +
         ") AND NOT EXISTS (SELECT * FROM child c2 WHERE c2.pid = p.id AND "
         "c2.s = 'no''" +
         std::to_string(i) + "')";
}

void Load(Database* db) {
  ASSERT_TRUE(db->ExecuteScript("CREATE TABLE parent (id INTEGER, k INTEGER);"
                                "CREATE TABLE child (pid INTEGER, v INTEGER, "
                                "s TEXT)")
                  .ok());
  for (int64_t id = 0; id < 64; ++id) {
    ASSERT_TRUE(db->InsertRow("parent", {Value::Integer(id),
                                         Value::Integer(id % kKeys)})
                    .ok());
    for (int64_t v = 0; v < kStatements; ++v) {
      if ((id + v) % 3 == 0) continue;
      const std::string s = (id + v) % 5 == 0 ? "no'" + std::to_string(v) : "";
      ASSERT_TRUE(db->InsertRow("child", {Value::Integer(id), Value::Integer(v),
                                          Value::Text(s)})
                      .ok());
    }
  }
}

Database::Options PlannedOptions(size_t plan_cache_capacity) {
  Database::Options options;
  options.enable_planner = true;
  options.enable_plan_cache = true;
  options.plan_cache_capacity = plan_cache_capacity;
  return options;
}

TEST(StatementArenaTest, CachedPlansOutliveEvictionMidExecution) {
  // A 2-entry plan cache against 8 statements: every miss evicts a plan
  // that another thread may be executing. The executing thread's
  // shared_ptr must keep the root, and with it the arena, alive.
  Database db(PlannedOptions(/*plan_cache_capacity=*/2));
  Load(&db);
  int64_t expected[kStatements][kKeys];
  for (int i = 0; i < kStatements; ++i) {
    for (int64_t k = 0; k < kKeys; ++k) {
      auto r = db.Execute(RuleQuery(i), {Value::Integer(k)});
      ASSERT_TRUE(r.ok()) << r.status();
      expected[i][k] = static_cast<int64_t>(r.value().rows.size());
    }
  }
  ASSERT_GT(db.stats().semi_join_rewrites, 0u);
  ASSERT_GT(db.stats().anti_join_rewrites, 0u);

  // A prepared statement shares the same lifetime rule from another owner.
  auto prepared = db.Prepare(RuleQuery(0));
  ASSERT_TRUE(prepared.ok()) << prepared.status();

  const uint64_t plans_before = db.stats().plans_built;
  std::atomic<int> mismatches{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      for (int iter = 0; iter < 120; ++iter) {
        const int i = (iter * 3 + t) % kStatements;
        const int64_t k = (iter + t) % kKeys;
        auto r = (iter % 5 == 0)
                     ? prepared.value().Execute({Value::Integer(k)})
                     : db.Execute(RuleQuery(i), {Value::Integer(k)});
        const int64_t want = (iter % 5 == 0) ? expected[0][k] : expected[i][k];
        if (!r.ok() || static_cast<int64_t>(r.value().rows.size()) != want) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  // The churner cycles the statements in reverse so evictions interleave
  // with the readers' lookups.
  threads.emplace_back([&] {
    int i = 0;
    while (!stop.load()) {
      i = (i + kStatements - 1) % kStatements;
      if (!db.Execute(RuleQuery(i), {Value::Integer(1)}).ok()) {
        mismatches.fetch_add(1);
      }
    }
  });
  for (int t = 0; t < 3; ++t) threads[t].join();
  stop.store(true);
  threads.back().join();
  EXPECT_EQ(mismatches.load(), 0);
  // The churn really evicted: most lookups missed and re-planned.
  EXPECT_GT(db.stats().plans_built - plans_before, 100u);
}

TEST(StatementArenaTest, PublishedPlansTakeNoArenaMemory) {
  Database db(PlannedOptions(/*plan_cache_capacity=*/16));
  Load(&db);
  auto prepared = db.Prepare(RuleQuery(3));
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  const StatementArena* arena = prepared.value().arena();
  ASSERT_NE(arena, nullptr);
  const size_t used = arena->used_bytes();
  const size_t reserved = arena->reserved_bytes();
  EXPECT_GT(used, 0u);
  EXPECT_LE(used, reserved);
  for (int64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(prepared.value().Execute({Value::Integer(k)}).ok());
  }
  EXPECT_EQ(arena->used_bytes(), used);
  EXPECT_EQ(arena->reserved_bytes(), reserved);
}

TEST(StatementArenaTest, ScriptStatementsGetArenasSizedFromTheirOwnText) {
  const std::string longer = RuleQuery(1) + " AND p.id > 0 AND p.id < 100";
  auto script = ParseScript("SELECT 1; " + longer + "; SELECT 2");
  ASSERT_TRUE(script.ok()) << script.status();
  ASSERT_EQ(script.value().size(), 3u);
  auto alone = ParseStatement("SELECT 1");
  ASSERT_TRUE(alone.ok());
  auto whole = ParseStatement(longer);
  ASSERT_TRUE(whole.ok());
  const std::vector<std::unique_ptr<Statement>>& stmts = script.value();
  for (const auto& stmt : stmts) ASSERT_NE(stmt->arena, nullptr);
  EXPECT_NE(stmts[0]->arena, stmts[2]->arena);
  // The short statements' first blocks are sized like the statement parsed
  // alone, not like the script.
  EXPECT_EQ(stmts[0]->arena->reserved_bytes(),
            alone.value()->arena->reserved_bytes());
  EXPECT_EQ(stmts[1]->arena->reserved_bytes(),
            whole.value()->arena->reserved_bytes());
  EXPECT_LT(stmts[0]->arena->reserved_bytes(),
            stmts[1]->arena->reserved_bytes());
  // Text that is mostly one long literal does not reserve six times its
  // size up front: the first block is capped at 64 KiB, and the arena
  // holds the literal's bytes (LiteralExpr::Make) once, in one more block.
  const size_t literal_size = size_t{1} << 20;
  auto literal = ParseStatement("SELECT 1 FROM t WHERE s = '" +
                                std::string(literal_size, 'x') + "'");
  ASSERT_TRUE(literal.ok()) << literal.status();
  EXPECT_LE(literal.value()->arena->reserved_bytes(),
            (size_t{64} << 10) + literal_size + literal_size / 4);
}

TEST(StatementArenaTest, EveryPrefixOfARuleQueryFailsCleanly) {
  // Cut the translator's rule queries at every byte: each prefix either
  // parses (some are complete statements) or fails with a ParseError, and
  // the partial tree and its arena are freed either way (LeakSanitizer
  // checks this in the sanitizer job).
  translator::OptimizedSqlTranslator translator(/*parameterized=*/true);
  size_t failures = 0;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Random rng(seed);
    auto rules = translator.TranslateRuleset(
        workload::RandomPreference(&rng, workload::RandomPreferenceOptions{}));
    ASSERT_TRUE(rules.ok()) << rules.status();
    for (const std::string& sql : rules.value().rule_queries) {
      ASSERT_TRUE(ParseStatement(sql).ok()) << sql;
      for (size_t len = 0; len < sql.size(); ++len) {
        auto parsed = ParseStatement(std::string_view(sql).substr(0, len));
        if (parsed.ok()) continue;
        ++failures;
        EXPECT_EQ(parsed.status().code(), StatusCode::kParseError)
            << sql.substr(0, len);
      }
    }
  }
  EXPECT_GT(failures, 0u);
}

TEST(StatementArenaTest, NodesAreDestroyedWithTheirStatement) {
  // Long literals put heap strings inside arena-placed nodes; unless their
  // finalizers run when the arena goes, LeakSanitizer reports them.
  const std::string literal(200, 'x');
  auto parsed = ParseStatement("SELECT 1 FROM t WHERE a = '" + literal +
                               "' AND b IN ('" + literal + "', '" + literal +
                               "') AND NOT EXISTS (SELECT * FROM u WHERE "
                               "u.c LIKE '" + literal + "%')");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_GT(parsed.value()->arena->used_bytes(), 0u);
  auto failed = ParseStatement("SELECT 1 FROM t WHERE a = '" + literal +
                               "' AND b IN ('" + literal + "', ");
  EXPECT_FALSE(failed.ok());

  // A cached plan owning every kind of memory outside its arena: long text
  // literals, a semi-join whose HashJoinRuntime has built its key set, and
  // column headers (a long alias) shared with a QueryResult. The 2-entry
  // cache evicts it; the result must still read its headers (ASan), and
  // everything else must be released with the plan (LeakSanitizer).
  Database db(PlannedOptions(/*plan_cache_capacity=*/2));
  Load(&db);
  const std::string alias = "parent_identifier_of_a_matching_row";
  const std::string planned =
      "SELECT p.id AS " + alias + ", '" + literal +
      "' FROM parent p WHERE p.k = ? AND EXISTS (SELECT * FROM child c WHERE "
      "c.pid = p.id AND c.s <> '" + literal + "') AND p.id <> " +
      std::to_string(literal.size());
  const uint64_t builds_before = db.stats().hash_join_builds;
  auto held = db.Execute(planned, {Value::Integer(1)});
  ASSERT_TRUE(held.ok()) << held.status();
  ASSERT_GT(held.value().rows.size(), 0u);
  EXPECT_GT(db.stats().semi_join_rewrites, 0u);
  EXPECT_GT(db.stats().hash_join_builds, builds_before);
  ASSERT_TRUE(db.Execute(planned, {Value::Integer(2)}).ok());  // a cache hit
  for (int i = 0; i < 2; ++i) {  // two more statements evict it
    ASSERT_TRUE(db.Execute(RuleQuery(i), {Value::Integer(0)}).ok());
  }
  const uint64_t plans_before = db.stats().plans_built;
  ASSERT_TRUE(db.Execute(planned, {Value::Integer(1)}).ok());
  EXPECT_EQ(db.stats().plans_built, plans_before + 1);  // it was evicted
  ASSERT_EQ(held.value().columns.size(), 2u);
  EXPECT_EQ(held.value().columns[0], alias);
  EXPECT_EQ(held.value().columns[1], "'" + literal + "'");
  EXPECT_EQ(held.value().rows[0][1].AsText(), literal);
}

TEST(StatementArenaTest, PlanCacheEvictsTheLeastRecentlyUsedPlan) {
  // The LRU order is threaded through the cache index's nodes; a hit moves
  // a plan to the front, so the next miss evicts the plan used longest ago.
  Database db(PlannedOptions(/*plan_cache_capacity=*/3));
  Load(&db);
  const auto run = [&](int i) {
    const ExecStats before = db.stats();
    EXPECT_TRUE(db.Execute(RuleQuery(i), {Value::Integer(0)}).ok());
    return db.stats().plan_cache_hits > before.plan_cache_hits;
  };
  EXPECT_FALSE(run(0));
  EXPECT_FALSE(run(1));
  EXPECT_FALSE(run(2));
  EXPECT_TRUE(run(0));   // order, newest first: 0 2 1
  EXPECT_FALSE(run(3));  // evicts 1: 3 0 2
  EXPECT_TRUE(run(2));   // 2 3 0
  EXPECT_TRUE(run(0));   // 0 2 3
  EXPECT_FALSE(run(1));  // evicts 3: 1 0 2
  EXPECT_TRUE(run(2));
  EXPECT_TRUE(run(0));
  EXPECT_TRUE(run(1));
  EXPECT_FALSE(run(3));  // evicts 2: 3 1 0
  EXPECT_FALSE(run(2));  // evicts 0: 2 3 1
  EXPECT_TRUE(run(1));
  EXPECT_TRUE(run(3));
}

}  // namespace
}  // namespace p3pdb::sqldb
