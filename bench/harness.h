// Shared harness for the paper-reproduction benchmarks.
//
// The experiments of §6 measure the time to match a preference against a
// policy on three implementations: the native APPEL engine (client-centric
// baseline), the SQL implementation (conversion + query, Figure 15
// translator over the Figure 14 schema), and the XQuery path (APPEL ->
// XQuery -> XTABLE SQL over the Figure 8 schema). This harness installs the
// synthetic Fortune-1000 corpus in one server per engine, compiles the five
// JRC preference levels, and times matches the way the paper reports them
// (warm numbers; avg/max/min per match).

#ifndef P3PDB_BENCH_HARNESS_H_
#define P3PDB_BENCH_HARNESS_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/stopwatch.h"
#include "server/policy_server.h"
#include "workload/corpus.h"
#include "workload/jrc_preferences.h"

namespace p3pdb::bench {

/// The statement complexity budget of the XTABLE path's database, chosen so
/// that the Medium preference's deep DATA/CATEGORIES pattern exceeds it
/// (the paper: "the XTABLE translation ... was too complex for DB2").
inline constexpr int kXTableDepthBudget = 6;

/// Per-(level, policy) timings across the three implementations, in
/// microseconds per match.
struct LevelTimings {
  workload::PreferenceLevel level;
  TimingStats appel_engine;   // native APPEL engine, per-match augmentation
  TimingStats sql_convert;    // APPEL -> SQL translation
  TimingStats sql_query;      // query execution against shredded tables
  TimingStats sql_total;      // convert + query
  TimingStats xquery_total;   // APPEL -> XQuery -> XTABLE SQL -> execute
  bool xquery_supported = true;  // false when the translation fails to prepare
};

/// The full §6 matching experiment.
class MatchingExperiment {
 public:
  struct Options {
    uint64_t corpus_seed = 2003;
    size_t policy_count = 29;
    /// Matches per (level, policy) pair after one discarded warm-up pass.
    int repetitions = 3;
    /// Run the SQL servers with the rule-based planner + plan cache
    /// (`--no-planner` ablation flips this to false).
    bool enable_planner = sqldb::PlannerEnabledFromEnv();
  };

  static Result<std::unique_ptr<MatchingExperiment>> Create(Options options);
  static Result<std::unique_ptr<MatchingExperiment>> Create();

  /// Runs the experiment; one LevelTimings per JRC level, Figure 19 order.
  Result<std::vector<LevelTimings>> Run();

  const std::vector<p3p::Policy>& corpus() const { return corpus_; }
  server::PolicyServer* sql_server() { return sql_server_.get(); }
  server::PolicyServer* native_server() { return native_server_.get(); }
  server::PolicyServer* xtable_server() { return xtable_server_.get(); }

  const std::vector<int64_t>& sql_policy_ids() const {
    return sql_policy_ids_;
  }
  const std::vector<int64_t>& native_policy_ids() const {
    return native_policy_ids_;
  }
  const std::vector<int64_t>& xtable_policy_ids() const {
    return xtable_policy_ids_;
  }

 private:
  MatchingExperiment() = default;

  Options options_;
  std::vector<p3p::Policy> corpus_;
  std::unique_ptr<server::PolicyServer> native_server_;
  std::unique_ptr<server::PolicyServer> sql_server_;
  std::unique_ptr<server::PolicyServer> xtable_server_;
  std::vector<int64_t> native_policy_ids_;
  std::vector<int64_t> sql_policy_ids_;
  std::vector<int64_t> xtable_policy_ids_;
};

/// Creates a server of the given kind with the §6 defaults for it.
/// `enable_planner` toggles the database's EXISTS-decorrelation planner and
/// plan cache (the `--no-planner` ablation); the default honors
/// P3PDB_NO_PLANNER like every other server.
///
/// `steady_state` configures the server the way a deployed matcher runs
/// between policy updates: rule queries are prepared once at preference
/// compile time (conversion cost, reported separately by fig20) and the
/// server's own metrics registry is off, so per-match timings measure the
/// engine rather than text re-submission and counter upkeep. The default
/// keeps the paper methodology (SQL text submitted per match).
/// Observability add-ons for a bench server, driven by the `--admin`,
/// `--slow-us`, and `--trace-every` flags: statement telemetry plus the
/// embedded HTTP admin endpoint, so a run can be scraped live
/// (`curl :PORT/statements?top=5`) while it matches. All off by default —
/// the timed records stay free of telemetry unless a flag asks for it.
struct BenchObservability {
  bool enable_admin = false;
  uint16_t admin_port = 0;  // 0 = ephemeral (the chosen port is printed)
  uint64_t slow_query_threshold_us = 0;
  uint32_t trace_sample_every = 0;
};

Result<std::unique_ptr<server::PolicyServer>> MakeBenchServer(
    server::EngineKind kind, int max_subquery_depth = 32,
    bool enable_planner = sqldb::PlannerEnabledFromEnv(),
    bool steady_state = false, const BenchObservability& obs = {},
    const std::string& storage_path = {});

/// True when `flag` appears verbatim among the arguments (e.g.
/// `--no-planner`).
bool FlagInArgs(int argc, char** argv, std::string_view flag);

/// Returns the value following `flag` (`--flag <value>` or
/// `--flag=<value>`); empty string when absent.
std::string FlagValueFromArgs(int argc, char** argv, std::string_view flag);

/// seconds/milliseconds pretty-printing for the report tables.
std::string FormatMicros(double micros);

// -- machine-readable reports -----------------------------------------------

/// One benchmark result for the machine-readable report emitted with
/// `--json <path>` (tracking runs across commits; the tables above remain
/// the human report).
struct BenchJsonRecord {
  std::string name;
  uint64_t iters = 0;
  double ns_per_op = 0.0;
  double matches_per_sec = 0.0;  // 0 when the bench has no match notion
  // Latency distribution (nanoseconds). All zero when the bench only
  // measured an aggregate throughput, not per-op samples.
  double min_ns = 0.0;
  double max_ns = 0.0;
  double p50_ns = 0.0;
  double p90_ns = 0.0;
  double p99_ns = 0.0;
  // Match-cache effectiveness, for benches run against a cached server.
  // hit_rate < 0 means "not a cached run"; the three fields are then left
  // out of the JSON so existing tooling sees unchanged records.
  double hit_rate = -1.0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  // std::thread::hardware_concurrency() of the machine that produced the
  // record, for benches whose numbers only compare across runs on the same
  // core count. 0 (the default) leaves the field out of the JSON.
  unsigned hardware_concurrency = 0;
  // Heap frees per op, for benches that count them. Negative (the default)
  // leaves the field out of the JSON.
  double frees_per_op = -1.0;
  // Session throughput and plans built per session, for benches whose op
  // is a whole client session. Negative (the default) leaves each out of
  // the JSON.
  double sessions_per_sec = -1.0;
  double plans_per_session = -1.0;
  // ns per op of this record over ns per op of a baseline record (e.g. a
  // URI match over an id match, both on one thread). Negative (the
  // default) leaves it out of the JSON.
  double ns_ratio = -1.0;
};

/// Builds a record from per-op samples held in microseconds (the unit
/// TimingStats accumulates): avg/min/max plus p50/p90/p99, all in ns.
BenchJsonRecord RecordFromTimings(std::string name, const TimingStats& micros);

/// Renders the records as a JSON array, keys in declaration order.
std::string BenchRecordsToJson(const std::vector<BenchJsonRecord>& records);

/// Returns the path following a `--json` flag (`--json <path>` or
/// `--json=<path>`); empty string when the flag is absent.
std::string JsonPathFromArgs(int argc, char** argv);

/// Writes the records to `path` (overwriting) as a JSON array.
Status WriteBenchJson(const std::string& path,
                      const std::vector<BenchJsonRecord>& records);

/// Prints a Markdown-ish table row.
void PrintTableRule(const std::vector<int>& widths);
void PrintTableRow(const std::vector<std::string>& cells,
                   const std::vector<int>& widths);

}  // namespace p3pdb::bench

#endif  // P3PDB_BENCH_HARNESS_H_
