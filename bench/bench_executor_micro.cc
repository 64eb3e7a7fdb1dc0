// Executor microbenchmarks on three query shapes: a filtered sequential
// scan, an operator-heavy predicate (LIKE / IN / OR), and hash semi-join
// probes, each against a freshly loaded database.
//
// `--json <path>` writes one record per run. Samples are per-query
// microseconds (so p50/p99 describe query latency); `matches_per_sec`
// carries the rows-per-second throughput (rows visited by the scan, or
// probes answered, divided by query time).
//
// `micro/prepare_cold` times the other half of a rule query's cost: the
// first-time Database::Prepare (parse, bind, plan) of the optimized
// translator's rule queries for seeded random preferences, against one
// shard's replica of the serving tier. Samples are per-statement
// microseconds; `matches_per_sec` carries statements prepared per second.
//
// `micro/index_lookup` times Index::Lookup alone: every (index, key) pair
// of a kSql replica holding all 1,000 corpus policies, probed in a seeded
// random order, each probe walking its rows. Samples are mean per-probe
// microseconds over one pass of all the keys; `matches_per_sec` carries
// probes per second.
//
// `micro/plan_evict_cold` times what the plan cache's eviction pays for a
// plan: destroying it. Rounds of 512 distinct rule queries (twice the
// default plan-cache capacity) are prepared and executed once on the same
// replica, 8 MiB of other memory is written so the plans go cold in the
// CPU caches, as a victim 256 misses old is under load, and the plans are
// destroyed oldest first. Samples are per-plan microseconds;
// `matches_per_sec` carries plans destroyed per second and `frees_per_op`
// the heap frees per destroyed plan (this binary counts operator delete).
//
// `micro/keyset_build` times what a plan miss pays per hash semi-join
// whose build side is a text column: the build of its key set. Over the
// Data table's `ref` column of a kSql replica holding all 1,000 corpus
// policies, each build runs the loop the executor's HashJoinKeySet runs
// per build row (the column read as Eval reads it, Value::Borrow, moved
// into a one-column IndexKey and inserted into a fresh
// HashJoinRuntime::KeySet). Samples are per-build microseconds;
// `matches_per_sec` carries build rows per second.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "server/policy_server.h"
#include "sqldb/database.h"
#include "sqldb/executor.h"
#include "translator/sql_optimized.h"
#include "workload/corpus.h"
#include "workload/random_preferences.h"

namespace {

// Heap frees, counted for micro/plan_evict_cold by the replaced global
// operator delete below (one relaxed increment per free).
std::atomic<uint64_t> g_frees{0};

void* Allocate(std::size_t size, std::size_t alignment) {
  if (size == 0) size = 1;
  void* p = nullptr;
  if (alignment <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else if (posix_memalign(&p, alignment, size) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void Free(void* p) {
  if (p == nullptr) return;
  g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) {
  return Allocate(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return Allocate(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t alignment) {
  return Allocate(size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return Allocate(size, static_cast<std::size_t>(alignment));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return Allocate(size, alignof(std::max_align_t));
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return Allocate(size, alignof(std::max_align_t));
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { Free(p); }
void operator delete[](void* p) noexcept { Free(p); }
void operator delete(void* p, std::size_t) noexcept { Free(p); }
void operator delete[](void* p, std::size_t) noexcept { Free(p); }
void operator delete(void* p, std::align_val_t) noexcept { Free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  Free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  Free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { Free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { Free(p); }

namespace p3pdb::bench {
namespace {

constexpr size_t kEventRows = 100000;
constexpr size_t kOuterRows = 10000;
constexpr int kWarmups = 2;
constexpr int kRepetitions = 20;

/// Builds the workload tables: `events` (the scanned fact table) and
/// `outer_t` (the probe side of the semi-join bench).
std::unique_ptr<sqldb::Database> MakeDatabase() {
  sqldb::Database::Options options;
  options.enable_planner = true;
  options.enable_plan_cache = true;
  auto db = std::make_unique<sqldb::Database>(options);

  auto check = [](const Status& st) {
    if (!st.ok()) {
      std::fprintf(stderr, "setup error: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  };
  check(db->ExecuteScript(
      "CREATE TABLE events (id INTEGER, k INTEGER, v INTEGER, s TEXT);"
      "CREATE TABLE outer_t (id INTEGER, k INTEGER)"));
  for (size_t i = 0; i < kEventRows; ++i) {
    sqldb::Row row;
    row.push_back(sqldb::Value::Integer(static_cast<int64_t>(i)));
    row.push_back(sqldb::Value::Integer(static_cast<int64_t>(i % 100)));
    // Every 97th v is NULL so the predicates see three-valued inputs.
    if (i % 97 == 0) {
      row.push_back(sqldb::Value::Null());
    } else {
      row.push_back(sqldb::Value::Integer(static_cast<int64_t>(i % 1000)));
    }
    row.push_back(sqldb::Value::Text((i % 7 == 0 ? "ab" : "zz") +
                                     std::to_string(i)));
    check(db->InsertRow("events", std::move(row)));
  }
  for (size_t i = 0; i < kOuterRows; ++i) {
    sqldb::Row row;
    row.push_back(sqldb::Value::Integer(static_cast<int64_t>(i)));
    row.push_back(sqldb::Value::Integer(static_cast<int64_t>(i % 128)));
    check(db->InsertRow("outer_t", std::move(row)));
  }
  return db;
}

struct MicroResult {
  TimingStats timings;   // per-query micros
  double rows_per_sec = 0.0;
};

/// Times `sql` against `db`: warm-ups (plan-cache fill, hash-join builds),
/// then kRepetitions timed executions. `rows_per_query` is the work notion
/// the throughput is reported in (rows scanned or probes answered).
MicroResult RunQuery(sqldb::Database* db, const std::string& sql,
                     size_t rows_per_query) {
  MicroResult out;
  for (int i = 0; i < kWarmups; ++i) {
    auto r = db->Execute(sql);
    if (!r.ok()) {
      std::fprintf(stderr, "query error: %s\n",
                   r.status().ToString().c_str());
      std::exit(1);
    }
  }
  for (int rep = 0; rep < kRepetitions; ++rep) {
    Stopwatch sw;
    auto r = db->Execute(sql);
    double us = sw.ElapsedMicros();
    if (!r.ok()) {
      std::fprintf(stderr, "query error: %s\n",
                   r.status().ToString().c_str());
      std::exit(1);
    }
    out.timings.Add(us);
  }
  out.rows_per_sec =
      static_cast<double>(rows_per_query) * 1e6 / out.timings.Average();
  return out;
}

BenchJsonRecord Record(std::string name, const MicroResult& r) {
  BenchJsonRecord rec = RecordFromTimings(std::move(name), r.timings);
  rec.matches_per_sec = r.rows_per_sec;  // rows/sec for the micro benches
  return rec;
}

std::string FormatRowsPerSec(double v) {
  char buf[64];
  if (v >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.1fM rows/s", v / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fk rows/s", v / 1e3);
  }
  return buf;
}

/// A kSql replica holding every 4th of 1,000 corpus policies (statement
/// stats off, as on the tier's replicas).
std::unique_ptr<server::PolicyServer> MakeReplica() {
  server::PolicyServer::Options options;
  options.engine = server::EngineKind::kSql;
  options.enable_statement_stats = false;
  options.collect_metrics = false;
  auto replica = server::PolicyServer::Create(std::move(options));
  if (!replica.ok()) {
    std::fprintf(stderr, "setup error: %s\n",
                 replica.status().ToString().c_str());
    std::exit(1);
  }
  const std::vector<p3p::Policy> corpus =
      workload::FortuneCorpus({.policy_count = 1000});
  for (size_t i = 0; i < corpus.size(); i += 4) {
    if (!replica.value()->InstallPolicy(corpus[i]).ok()) {
      std::fprintf(stderr, "setup error: install %s\n",
                   corpus[i].name.c_str());
      std::exit(1);
    }
  }
  return std::move(replica).value();
}

/// The optimized translator's rule queries for seeds 1000-1999, in order.
std::vector<std::string> RuleQueries() {
  translator::OptimizedSqlTranslator translator(/*parameterized=*/true);
  std::vector<std::string> out;
  for (uint64_t seed = 1000; seed < 2000; ++seed) {
    Random rng(seed);
    auto rules = translator.TranslateRuleset(
        workload::RandomPreference(&rng, workload::RandomPreferenceOptions{}));
    if (!rules.ok()) {
      std::fprintf(stderr, "translate error: %s\n",
                   rules.status().ToString().c_str());
      std::exit(1);
    }
    for (std::string& sql : rules.value().rule_queries) {
      out.push_back(std::move(sql));
    }
  }
  return out;
}

/// Cold prepares of the rule queries for preferences seeded 1000..1999 on
/// the replica. Every statement is prepared exactly once, so each sample is
/// a first-time Prepare.
MicroResult RunPrepareCold(size_t* statements, double* arena_reserved,
                           double* arena_used) {
  std::unique_ptr<server::PolicyServer> replica = MakeReplica();
  sqldb::Database* db = replica->database();
  MicroResult out;
  size_t reserved = 0;
  size_t used = 0;
  for (const std::string& sql : RuleQueries()) {
    Stopwatch sw;
    auto prepared = db->Prepare(sql);
    const double us = sw.ElapsedMicros();
    if (!prepared.ok()) {
      std::fprintf(stderr, "prepare error: %s\n",
                   prepared.status().ToString().c_str());
      std::exit(1);
    }
    out.timings.Add(us);
    reserved += prepared.value().arena()->reserved_bytes();
    used += prepared.value().arena()->used_bytes();
  }
  *statements = out.timings.count();
  const double n = static_cast<double>(*statements);
  *arena_reserved = static_cast<double>(reserved) / n;
  *arena_used = static_cast<double>(used) / n;
  out.rows_per_sec = 1e6 / out.timings.Average();
  return out;
}

constexpr int kLookupPasses = 15;

/// A kSql replica holding all 1,000 corpus policies.
std::unique_ptr<server::PolicyServer> MakeFullReplica() {
  server::PolicyServer::Options options;
  options.engine = server::EngineKind::kSql;
  options.enable_statement_stats = false;
  options.collect_metrics = false;
  auto replica = server::PolicyServer::Create(std::move(options));
  if (!replica.ok()) std::exit(1);
  for (const p3p::Policy& policy :
       workload::FortuneCorpus({.policy_count = 1000})) {
    if (!replica.value()->InstallPolicy(policy).ok()) std::exit(1);
  }
  return std::move(replica).value();
}

/// micro/index_lookup (see the header comment). `probes` gets the number
/// of (index, key) pairs in one pass.
MicroResult RunIndexLookup(size_t* probes) {
  std::unique_ptr<server::PolicyServer> replica = MakeFullReplica();
  const sqldb::Database& db = *replica->database();
  struct Probe {
    const sqldb::Index* index;
    std::vector<const sqldb::Value*> key;  // into the table's row
  };
  std::vector<Probe> order;
  for (const std::string& name : db.TableNames()) {
    const sqldb::Table& table = *db.LookupTable(name);
    for (const auto& index : table.indexes()) {
      std::set<size_t> seen_first;  // one probe per distinct key
      for (size_t row = 0; row < table.SlotCount(); ++row) {
        if (!table.IsLive(row)) continue;
        Probe probe{index.get(), {}};
        bool has_null = false;
        for (size_t ord : index->column_ordinals()) {
          probe.key.push_back(&table.RowAt(row)[ord]);
          has_null |= probe.key.back()->is_null();
        }
        if (has_null) continue;
        const sqldb::IndexRows rows = index->Lookup(
            sqldb::IndexKeyView{probe.key.data(), probe.key.size()});
        if (seen_first.insert(*rows.begin()).second) {
          order.push_back(std::move(probe));
        }
      }
    }
  }
  Random rng(38);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  MicroResult out;
  size_t sink = 0;
  for (int pass = 0; pass < kLookupPasses; ++pass) {
    Stopwatch sw;
    for (const Probe& probe : order) {
      for (size_t row : probe.index->Lookup(
               sqldb::IndexKeyView{probe.key.data(), probe.key.size()})) {
        sink += row;
      }
    }
    out.timings.Add(sw.ElapsedMicros() / static_cast<double>(order.size()));
  }
  if (sink == 0) std::exit(1);  // keeps the probes from being elided
  *probes = order.size();
  out.rows_per_sec = 1e6 / out.timings.Percentile(50.0);
  return out;
}

/// micro/keyset_build (see the header comment). `rows` gets the build rows
/// and `keys` the distinct keys of one set.
MicroResult RunKeySetBuild(size_t* rows, size_t* keys) {
  std::unique_ptr<server::PolicyServer> replica = MakeFullReplica();
  const sqldb::Table& data = *replica->database()->LookupTable("Data");
  const size_t ref = *data.schema().ColumnIndex("ref");
  MicroResult out;
  for (int rep = 0; rep < kWarmups + kRepetitions; ++rep) {
    Stopwatch sw;
    sqldb::HashJoinRuntime::KeySet set;
    for (size_t row = 0; row < data.SlotCount(); ++row) {
      if (!data.IsLive(row)) continue;
      sqldb::IndexKey key;
      key.values.reserve(1);
      key.values.push_back(data.RowAt(row)[ref].Borrow());
      set.insert(std::move(key));
    }
    const double us = sw.ElapsedMicros();
    if (rep >= kWarmups) out.timings.Add(us);
    *keys = set.size();
  }
  *rows = data.RowCount();
  out.rows_per_sec =
      static_cast<double>(*rows) * 1e6 / out.timings.Percentile(50.0);
  return out;
}

constexpr size_t kPlansPerRound = 2 * 256;      // twice the cache's default
constexpr size_t kColdBytes = size_t{8} << 20;  // written between build/destroy

/// micro/plan_evict_cold (see the header comment). `frees_per_plan` gets
/// the mean heap frees per destroyed plan.
MicroResult RunPlanEvictCold(size_t* plans, double* frees_per_plan) {
  std::unique_ptr<server::PolicyServer> replica = MakeReplica();
  sqldb::Database* db = replica->database();
  auto first_policy = db->Execute("SELECT MIN(policy_id) FROM Policy");
  if (!first_policy.ok()) {
    std::fprintf(stderr, "setup error: %s\n",
                 first_policy.status().ToString().c_str());
    std::exit(1);
  }
  const sqldb::Value policy_id = first_policy.value().rows.at(0).at(0);
  std::vector<std::string> statements;
  std::set<std::string> seen;
  for (std::string& sql : RuleQueries()) {
    if (seen.insert(sql).second) statements.push_back(std::move(sql));
  }
  std::vector<unsigned char> other(kColdBytes);
  MicroResult out;
  uint64_t frees = 0;
  for (size_t first = 0; first + kPlansPerRound <= statements.size();
       first += kPlansPerRound) {
    std::vector<sqldb::PreparedStatement> round;
    round.reserve(kPlansPerRound);
    for (size_t i = first; i < first + kPlansPerRound; ++i) {
      const std::string& sql = statements[i];
      auto prepared = db->Prepare(sql);
      if (!prepared.ok()) {
        std::fprintf(stderr, "prepare error: %s\n",
                     prepared.status().ToString().c_str());
        std::exit(1);
      }
      // Run it once, as a cached plan has been: hash-join key sets built,
      // column headers shared with a result that is gone again.
      const std::vector<sqldb::Value> params(
          static_cast<size_t>(std::count(sql.begin(), sql.end(), '?')),
          policy_id);
      if (!prepared.value().Execute(params).ok()) {
        std::fprintf(stderr, "execute error: %s\n", sql.c_str());
        std::exit(1);
      }
      round.push_back(std::move(prepared).value());
    }
    for (size_t i = 0; i < other.size(); i += 64) {
      other[i] = static_cast<unsigned char>(other[i] + i + first);
    }
    for (sqldb::PreparedStatement& plan : round) {
      const uint64_t frees_before = g_frees.load(std::memory_order_relaxed);
      Stopwatch sw;
      plan = sqldb::PreparedStatement();
      const double us = sw.ElapsedMicros();
      frees += g_frees.load(std::memory_order_relaxed) - frees_before;
      out.timings.Add(us);
    }
  }
  *plans = out.timings.count();
  *frees_per_plan = static_cast<double>(frees) / static_cast<double>(*plans);
  out.rows_per_sec = 1e6 / out.timings.Average();
  return out;
}

}  // namespace

int Main(int argc, char** argv) {
  const std::string json_path = JsonPathFromArgs(argc, argv);
  std::vector<BenchJsonRecord> records;

  struct Workload {
    const char* name;
    std::string sql;
    size_t rows_per_query;
  };
  const Workload workloads[] = {
      {"scan_filter",
       "SELECT id FROM events WHERE k = 7 AND v < 200", kEventRows},
      {"expr_eval",
       "SELECT id FROM events WHERE (v < 100 OR s LIKE 'ab%') "
       "AND k IN (1, 2, 3, 5, 8, 13)",
       kEventRows},
      {"hash_probe",
       "SELECT o.id FROM outer_t o WHERE EXISTS (SELECT * FROM events e "
       "WHERE e.k = o.k AND e.v < 50)",
       kOuterRows},
  };

  std::printf("Executor microbenchmarks (%zu-row events table, "
              "%d reps per cell)\n\n",
              kEventRows, kRepetitions);
  std::vector<int> widths = {12, 16, 12};
  PrintTableRule(widths);
  PrintTableRow({"workload", "throughput", "us/query"}, widths);
  PrintTableRule(widths);

  for (const Workload& w : workloads) {
    auto db = MakeDatabase();
    MicroResult r = RunQuery(db.get(), w.sql, w.rows_per_query);
    char us[32];
    std::snprintf(us, sizeof(us), "%.1f", r.timings.Average());
    PrintTableRow({w.name, FormatRowsPerSec(r.rows_per_sec), us}, widths);
    records.push_back(Record(std::string("micro/") + w.name, r));
  }
  PrintTableRule(widths);

  size_t statements = 0;
  double arena_reserved = 0.0;
  double arena_used = 0.0;
  MicroResult cold = RunPrepareCold(&statements, &arena_reserved, &arena_used);
  std::printf(
      "\nCold Prepare (%zu rule queries, 250-policy kSql replica): p50 "
      "%.1fus, p99 %.1fus per statement; arena bytes per plan reserved "
      "%.0f, used %.0f\n",
      statements, cold.timings.Percentile(50.0), cold.timings.Percentile(99.0),
      arena_reserved, arena_used);
  records.push_back(Record("micro/prepare_cold", cold));

  size_t probes = 0;
  MicroResult lookup = RunIndexLookup(&probes);
  std::printf(
      "Index lookup (%zu distinct keys over the indexes of a 1,000-policy "
      "kSql replica, random order, %d passes): p50 %.1fns, p99 %.1fns per "
      "probe\n",
      probes, kLookupPasses, lookup.timings.Percentile(50.0) * 1e3,
      lookup.timings.Percentile(99.0) * 1e3);
  records.push_back(Record("micro/index_lookup", lookup));

  size_t build_rows = 0;
  size_t build_keys = 0;
  MicroResult keyset = RunKeySetBuild(&build_rows, &build_keys);
  std::printf(
      "Key-set build (Data.ref of a 1,000-policy kSql replica, %zu rows, "
      "%zu keys): p50 %.1fus, p99 %.1fus per build, %.1fns per row\n",
      build_rows, build_keys, keyset.timings.Percentile(50.0),
      keyset.timings.Percentile(99.0),
      keyset.timings.Percentile(50.0) * 1e3 /
          static_cast<double>(build_rows));
  records.push_back(Record("micro/keyset_build", keyset));

  size_t plans = 0;
  double frees_per_plan = 0.0;
  MicroResult evict = RunPlanEvictCold(&plans, &frees_per_plan);
  std::printf(
      "Cold plan destruction (%zu plans in rounds of %zu, %zu MiB written "
      "between build and destroy): p50 %.2fus, p99 %.2fus per plan; %.2f "
      "heap frees per plan\n",
      plans, kPlansPerRound, kColdBytes >> 20, evict.timings.Percentile(50.0),
      evict.timings.Percentile(99.0), frees_per_plan);
  BenchJsonRecord evict_record = Record("micro/plan_evict_cold", evict);
  evict_record.frees_per_op = frees_per_plan;
  records.push_back(std::move(evict_record));

  if (!json_path.empty()) {
    auto written = WriteBenchJson(json_path, records);
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("\nwrote %zu records to %s\n", records.size(),
                json_path.c_str());
  }
  return 0;
}

}  // namespace p3pdb::bench

int main(int argc, char** argv) { return p3pdb::bench::Main(argc, argv); }
