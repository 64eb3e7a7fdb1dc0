// The shared plan cache (plan_cache.h): databases of one schema identity
// run each other's plans against their own rows, each with its own
// hash-join key sets; the capacity bounds the live plans of every stripe
// together. The threaded test runs under the `concurrency` label (TSan).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sqldb/database.h"
#include "sqldb/plan_cache.h"

namespace p3pdb::sqldb {
namespace {

constexpr int64_t kKeys = 4;

// One correlated EXISTS without parameters below it: the planner rewrites
// it into a hash semi-join whose key set is built over `child`.
constexpr const char* kSemiJoin =
    "SELECT p.id FROM parent p WHERE p.k = ? AND EXISTS (SELECT * FROM child "
    "c WHERE c.pid = p.id AND c.v > 1)";

Database::Options RuleOptions(std::shared_ptr<PlanCache> cache) {
  Database::Options options;
  options.enable_planner = true;
  options.enable_plan_cache = true;
  options.enable_cost_model = false;  // the rewrite is unconditional
  options.plan_cache = std::move(cache);
  return options;
}

/// The schema, with rows that depend on `salt`: databases loaded with
/// different salts share a schema identity but not their answers.
void Load(Database* db, int64_t salt) {
  ASSERT_TRUE(db->ExecuteScript("CREATE TABLE parent (id INTEGER, k INTEGER);"
                                "CREATE TABLE child (pid INTEGER, v INTEGER);"
                                "CREATE INDEX child_pid ON child (pid)")
                  .ok());
  for (int64_t id = 0; id < 64; ++id) {
    ASSERT_TRUE(db->InsertRow("parent", {Value::Integer(id),
                                         Value::Integer(id % kKeys)})
                    .ok());
    if ((id + salt) % 3 == 0) continue;
    ASSERT_TRUE(db->InsertRow("child", {Value::Integer(id),
                                        Value::Integer((id * salt) % 4)})
                    .ok());
  }
}

/// Rows of kSemiJoin per key, as `db` answers it.
std::vector<std::string> Answers(Database* db) {
  std::vector<std::string> answers;
  for (int64_t k = 0; k < kKeys; ++k) {
    auto r = db->Execute(kSemiJoin, {Value::Integer(k)});
    EXPECT_TRUE(r.ok()) << r.status();
    answers.push_back(r.ok() ? r.value().ToString() : "");
  }
  return answers;
}

TEST(SharedPlanCacheTest, ReplicasShareAPlanButNotItsKeySets) {
  auto cache = std::make_shared<PlanCache>(64);
  Database a(RuleOptions(cache));
  Database b(RuleOptions(cache));
  Database a_twin(RuleOptions(nullptr));
  Database b_twin(RuleOptions(nullptr));
  Load(&a, 1);
  Load(&a_twin, 1);
  Load(&b, 2);
  Load(&b_twin, 2);
  ASSERT_EQ(a.schema_identity(), b.schema_identity());
  const std::vector<std::string> want_b = Answers(&b_twin);
  std::vector<std::string> want_a = Answers(&a_twin);
  ASSERT_NE(want_a, want_b);  // the salts really differ

  // `a` plans and builds its key set; `b` takes the plan from the cache.
  ASSERT_TRUE(a.Execute(kSemiJoin, {Value::Integer(0)}).ok());
  ASSERT_EQ(a.stats().semi_join_rewrites, 1u);
  ASSERT_EQ(a.stats().hash_join_builds, 1u);

  const auto hammer = [&](const std::vector<std::string>& expect_a) {
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        for (int iter = 0; iter < 200; ++iter) {
          const bool on_a = (iter + t) % 2 == 0;
          const int64_t k = (iter * 3 + t) % kKeys;
          Database& db = on_a ? a : b;
          auto r = db.Execute(kSemiJoin, {Value::Integer(k)});
          const std::string& want = on_a ? expect_a[k] : want_b[k];
          if (!r.ok() || r.value().ToString() != want) {
            mismatches.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    return mismatches.load();
  };
  EXPECT_EQ(hammer(want_a), 0);
  EXPECT_EQ(a.stats().plans_built + b.stats().plans_built, 1u);
  EXPECT_EQ(b.stats().plans_built, 0u);
  EXPECT_EQ(a.stats().hash_join_builds, 1u);
  EXPECT_EQ(b.stats().hash_join_builds, 1u);  // its own key set, once

  // A write to `a`'s child table moves only `a`'s table version: `a`
  // rebuilds its key set once, `b` keeps probing its own.
  for (Database* db : {&a, &a_twin}) {
    ASSERT_TRUE(
        db->InsertRow("child", {Value::Integer(3), Value::Integer(3)}).ok());
  }
  want_a = Answers(&a_twin);
  EXPECT_EQ(hammer(want_a), 0);
  EXPECT_EQ(a.stats().hash_join_builds, 2u);
  EXPECT_EQ(b.stats().hash_join_builds, 1u);
  EXPECT_EQ(a.stats().plans_built + b.stats().plans_built, 1u);
  const PlanCacheStats stats = cache->stats();
  EXPECT_EQ(stats.plans_built, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hits, a.stats().plan_cache_hits + b.stats().plan_cache_hits);
}

TEST(SharedPlanCacheTest, EachMemberTalliesItsOwnStatementStats) {
  auto cache = std::make_shared<PlanCache>(64);
  Database::Options options = RuleOptions(cache);
  options.enable_statement_stats = true;
  Database a(options);
  Database b(options);
  Load(&a, 1);
  Load(&b, 2);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(a.Execute(kSemiJoin, {Value::Integer(i)}).ok());
  }
  ASSERT_TRUE(b.Execute(kSemiJoin, {Value::Integer(0)}).ok());
  const auto a_stats = a.statement_stats().Snapshot();
  const auto b_stats = b.statement_stats().Snapshot();
  ASSERT_EQ(a_stats.size(), 1u);
  ASSERT_EQ(b_stats.size(), 1u);
  EXPECT_EQ(a_stats[0].calls, 3u);
  EXPECT_EQ(a_stats[0].plans_built, 1u);
  EXPECT_EQ(a_stats[0].plan_cache_hits, 2u);
  EXPECT_EQ(b_stats[0].calls, 1u);
  EXPECT_EQ(b_stats[0].plans_built, 0u);
  EXPECT_EQ(b_stats[0].plan_cache_hits, 1u);
}

TEST(SharedPlanCacheTest, CapacityBoundsEveryStripeTogether) {
  // 1,024 plans over 16 stripes, the serving tier's shape: however the
  // texts hash, the cache never holds more than its capacity, and evicts
  // exactly the overflow.
  auto cache = std::make_shared<PlanCache>(1024);
  ASSERT_EQ(cache->stripe_count(), 16u);
  Database db(RuleOptions(cache));
  Load(&db, 1);
  constexpr int kTexts = 3000;
  for (int i = 0; i < kTexts; ++i) {
    ASSERT_TRUE(db.Execute("SELECT id FROM parent WHERE k = " +
                           std::to_string(i))
                    .ok());
    ASSERT_LE(cache->stats().entries, 1024u);
  }
  const PlanCacheStats stats = cache->stats();
  EXPECT_EQ(stats.entries, 1024u);
  EXPECT_EQ(stats.plans_built, static_cast<uint64_t>(kTexts));
  EXPECT_EQ(stats.evictions, static_cast<uint64_t>(kTexts - 1024));
  EXPECT_EQ(stats.hits, 0u);
}

TEST(SharedPlanCacheTest, DdlChangesTheIdentityAndOnlyTheIdentity) {
  Database a(RuleOptions(nullptr));
  Database b(RuleOptions(nullptr));
  EXPECT_EQ(a.schema_identity(), b.schema_identity());
  Load(&a, 1);
  Load(&b, 5);
  EXPECT_EQ(a.schema_identity(), b.schema_identity());  // rows do not count
  const uint64_t loaded = a.schema_identity();
  ASSERT_TRUE(a.GetMutableTable("parent")->CreateIndex("parent_k", {"k"},
                                                       false)
                  .ok());
  EXPECT_NE(a.schema_identity(), loaded);
  const uint64_t indexed = a.schema_identity();
  ASSERT_TRUE(a.Execute("DROP TABLE child").ok());
  EXPECT_NE(a.schema_identity(), indexed);
  // Planning options shape plans, so they are part of the identity too.
  Database::Options costed = RuleOptions(nullptr);
  costed.enable_cost_model = !costed.enable_cost_model;
  EXPECT_NE(Database(costed).schema_identity(),
            Database(RuleOptions(nullptr)).schema_identity());
}

}  // namespace
}  // namespace p3pdb::sqldb
