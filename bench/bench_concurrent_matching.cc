// E7 (beyond the paper) — concurrent matching throughput.
//
// The paper reports single-stream match latency; a deployed server-centric
// checker answers many page requests at once. The rule queries take the
// policy id as a bind parameter, so MatchUri is read-only and runs under a
// shared lock, and throughput should scale with threads. The "cached" mode
// adds the match-result cache to price the full deployment.
//
// The two tier modes price the deployed shape on its hottest path: a
// 4-shard ShardedPolicyServer holding 1,000 corpus policies, every match a
// warm cache hit. "tier_policy_id" runs MatchPolicyId, "tier_uri" runs
// MatchUri (reference-file resolution, then the hit). A warm hit loads the
// shard's published-replica index and takes that replica's striped shared
// lock (a URI hit also the directory's), so it writes only per-thread
// cache lines and should scale with cores.
//
// The report also gives tier_uri's 1-thread ns per match over
// tier_policy_id's: what resolving a URI adds to a warm hit (the JSON
// carries it as `ns_ratio` on the tier_uri threads:1 record).
//
// "tier_custom_session" prices the tier's cold path instead: each op is a
// new user's session — compile a fresh RandomPreference, then four
// MatchPolicyId calls, one on each shard. Every match misses the match
// cache and runs rule queries; the replicas share one plan cache, so a
// rule text planned on one shard is a plan hit on the others. Its records
// report sessions/s and the plans the tier built per session (from the
// shared plan cache's counters).
//
// Usage: bench_concurrent_matching [--json <path>]
// The JSON report carries (name, iters, ns/op, matches/sec) per
// (mode, thread-count) point.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/string_util.h"
#include "server/sharded_server.h"
#include "common/random.h"
#include "workload/corpus.h"
#include "workload/jrc_preferences.h"
#include "workload/random_preferences.h"

namespace p3pdb::bench {
namespace {

using server::EngineKind;
using server::PolicyServer;
using server::ShardedPolicyServer;
using workload::JrcPreference;
using workload::PreferenceLevel;

// 100 sampled matches per thread (see kSampleEvery).
constexpr int kMatchesPerThread = 6400;
// A warm tier hit costs well under a microsecond, so the tier modes need
// far more matches per point than the engine modes to dwarf thread startup.
// One timed loop (~10-25 ms at one thread) lands in one of two clusters on
// a shared host (~110 and ~180-260 ns per hit), so a tier point times
// kTierRepetitions loops and reports the fastest.
constexpr int kTierMatchesPerThread = 100000;
constexpr int kTierRepetitions = 7;
constexpr size_t kTierPolicies = 1000;
// A cold session costs ~100-200 us of thread time.
constexpr int kSessionsPerThread = 400;
constexpr int kMatchesPerSession = 4;
// The match loops time one match in every kSampleEvery for the
// percentiles and run the rest with no clock read: ns/op comes from the
// loop's wall time, and two clock reads are a sizeable share of a warm hit.
constexpr int kSampleEvery = 64;

/// Runs `match(n)` for n in [0, count), timing every kSampleEvery-th call
/// (not the first, which pays the thread's cold start) into `latency`.
/// Stops at the first error and returns it.
template <typename Match>
Status SampledMatches(int count, TimingStats* latency, const Match& match) {
  for (int n = 0; n < count; ++n) {
    if (n % kSampleEvery != kSampleEvery - 1) {
      P3PDB_RETURN_IF_ERROR(match(n).status());
      continue;
    }
    Stopwatch sw;
    auto r = match(n);
    const double us = sw.ElapsedMicros();
    P3PDB_RETURN_IF_ERROR(r.status());
    latency->Add(us);
  }
  return Status::OK();
}

/// Thread counts sized to the machine instead of a hard-coded {1,2,4,8}:
/// powers of two up to the hardware thread count, plus one 2x
/// oversubscription point (lock-convoy behavior only shows past the core
/// count), capped at 16 so CI runners with many cores stay fast. A
/// single-core machine still measures {1, 2} — the cross-thread contention
/// point is the whole reason this bench exists.
std::vector<int> ThreadCounts() {
  const int hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<int> counts;
  for (int t = 1; t <= std::min(hw, 16); t *= 2) counts.push_back(t);
  // One core short of the machine: the load-thread count of a deployment
  // that leaves a core to the rest of the process (3 on 4 cores).
  if (hw >= 3 && hw - 1 <= 16 &&
      std::find(counts.begin(), counts.end(), hw - 1) == counts.end()) {
    counts.push_back(hw - 1);
    std::sort(counts.begin(), counts.end());
  }
  const int oversubscribed = std::min(16, 2 * hw);
  if (oversubscribed > counts.back()) counts.push_back(oversubscribed);
  return counts;
}

struct ThroughputPoint {
  std::string mode;
  int threads = 0;
  uint64_t matches = 0;
  double elapsed_us = 0.0;
  // Sampled per-op wall time (one match in kSampleEvery; every session),
  // merged across threads.
  TimingStats latency_us;
  // Memo-cache counters over the measured region; hit_rate < 0 = uncached.
  double hit_rate = -1.0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  // Session modes: sessions run and plans the tier built during them.
  uint64_t sessions = 0;
  uint64_t plans_built = 0;

  double MatchesPerSec() const {
    return elapsed_us <= 0.0 ? 0.0 : matches / (elapsed_us / 1e6);
  }
  double NsPerOp() const {
    return matches == 0 ? 0.0 : elapsed_us * 1000.0 / matches;
  }
};

Result<std::unique_ptr<PolicyServer>> MakeServer(
    bool cached, const std::vector<p3p::Policy>& corpus) {
  PolicyServer::Options options;
  options.engine = EngineKind::kSql;
  // Figure-reproduction modes price the engine, so the memo cache is off;
  // the "cached" mode turns it on to price the full deployment.
  options.enable_match_cache = cached;
  P3PDB_ASSIGN_OR_RETURN(std::unique_ptr<PolicyServer> server,
                         PolicyServer::Create(options));
  for (const p3p::Policy& policy : corpus) {
    P3PDB_RETURN_IF_ERROR(server->InstallPolicy(policy).status());
  }
  P3PDB_RETURN_IF_ERROR(
      server->InstallReferenceFile(workload::CorpusReferenceFile(corpus)));
  return server;
}

Result<ThroughputPoint> Measure(PolicyServer* server, const char* mode,
                                const std::vector<std::string>& paths,
                                int threads) {
  P3PDB_ASSIGN_OR_RETURN(
      server::CompiledPreference pref,
      server->CompilePreference(JrcPreference(PreferenceLevel::kHigh)));

  // Warm-up (indexes touched, behaviors resolved once; on a cached server
  // this is the fill pass, so the measured region is the steady state).
  for (const std::string& path : paths) {
    P3PDB_RETURN_IF_ERROR(server->MatchUri(pref, path).status());
  }
  server::MatchCache::Stats cache_before;
  if (server->match_cache() != nullptr) {
    cache_before = server->match_cache()->TotalStats();
  }

  std::vector<std::thread> workers;
  std::vector<Status> outcomes(threads, Status::OK());
  // Per-thread sample vectors; merged after the join so the sampling adds
  // no cross-thread synchronization to the measured region.
  std::vector<TimingStats> latencies(threads);
  Stopwatch sw;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      outcomes[t] =
          SampledMatches(kMatchesPerThread, &latencies[t], [&](int i) {
            return server->MatchUri(pref, paths[(t + i) % paths.size()]);
          });
    });
  }
  for (std::thread& w : workers) w.join();
  ThroughputPoint point;
  point.elapsed_us = sw.ElapsedMicros();
  for (const Status& s : outcomes) {
    if (!s.ok()) return s;
  }
  for (const TimingStats& per_thread : latencies) {
    for (double us : per_thread.samples()) point.latency_us.Add(us);
  }
  point.mode = mode;
  point.threads = threads;
  point.matches = static_cast<uint64_t>(threads) * kMatchesPerThread;
  if (server->match_cache() != nullptr) {
    server::MatchCache::Stats after = server->match_cache()->TotalStats();
    point.cache_hits = after.hits - cache_before.hits;
    point.cache_misses = after.misses - cache_before.misses;
    uint64_t lookups = point.cache_hits + point.cache_misses;
    point.hit_rate =
        lookups == 0 ? 0.0 : static_cast<double>(point.cache_hits) / lookups;
  }
  return point;
}

/// A 4-shard tier over the 1,000-policy corpus, cache on (the default).
Result<std::unique_ptr<ShardedPolicyServer>> MakeTier(
    const std::vector<p3p::Policy>& corpus) {
  ShardedPolicyServer::Options options;
  options.shards = 4;
  P3PDB_ASSIGN_OR_RETURN(std::unique_ptr<ShardedPolicyServer> tier,
                         ShardedPolicyServer::Create(options));
  for (const p3p::Policy& policy : corpus) {
    P3PDB_RETURN_IF_ERROR(tier->InstallPolicy(policy).status());
  }
  P3PDB_RETURN_IF_ERROR(
      tier->InstallReferenceFile(workload::CorpusReferenceFile(corpus)));
  return tier;
}

/// Closed-loop warm matches on the tier: every thread sweeps all subjects
/// (ids or paths), each from its own offset. `by_uri` picks MatchUri over
/// MatchPolicyId. The subjects are matched once before timing, so every
/// timed match is a cache hit.
Result<ThroughputPoint> MeasureTier(ShardedPolicyServer* tier,
                                    const server::CompiledPreference& pref,
                                    const std::vector<int64_t>& ids,
                                    const std::vector<std::string>& paths,
                                    bool by_uri, int threads) {
  const size_t subjects = by_uri ? paths.size() : ids.size();
  auto match = [&](size_t i) {
    return by_uri ? tier->MatchUri(pref, paths[i])
                  : tier->MatchPolicyId(pref, ids[i]);
  };
  for (size_t i = 0; i < subjects; ++i) {
    P3PDB_RETURN_IF_ERROR(match(i).status());
  }

  ThroughputPoint point;
  for (int rep = 0; rep < kTierRepetitions; ++rep) {
    std::vector<std::thread> workers;
    std::vector<Status> outcomes(threads, Status::OK());
    std::vector<TimingStats> latencies(threads);
    std::atomic<bool> go{false};
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        while (!go.load()) std::this_thread::yield();
        size_t i = static_cast<size_t>(t) * subjects / threads;
        outcomes[t] = SampledMatches(kTierMatchesPerThread, &latencies[t],
                                     [&](int) {
                                       auto r = match(i);
                                       if (++i == subjects) i = 0;
                                       return r;
                                     });
      });
    }
    Stopwatch sw;
    go.store(true);
    for (std::thread& w : workers) w.join();
    const double elapsed_us = sw.ElapsedMicros();
    for (const Status& s : outcomes) {
      if (!s.ok()) return s;
    }
    if (rep > 0 && elapsed_us >= point.elapsed_us) continue;
    // The fastest loop so far: its wall time and its latency samples.
    point.elapsed_us = elapsed_us;
    point.latency_us = TimingStats();
    for (const TimingStats& per_thread : latencies) {
      for (double us : per_thread.samples()) point.latency_us.Add(us);
    }
  }
  point.mode = by_uri ? "tier_uri" : "tier_policy_id";
  point.threads = threads;
  point.matches = static_cast<uint64_t>(threads) * kTierMatchesPerThread;
  return point;
}

/// Closed-loop cold sessions on the tier: each op compiles a fresh
/// RandomPreference (the rulesets are drawn before timing; seeds never
/// repeat across points) and matches it against one policy on each shard.
/// `ids_by_shard[k]` lists shard k's global ids. `first_seed` numbers the
/// point's preferences.
Result<ThroughputPoint> MeasureTierSessions(
    ShardedPolicyServer* tier,
    const std::vector<std::vector<int64_t>>& ids_by_shard, int threads,
    uint64_t first_seed) {
  std::vector<std::vector<appel::AppelRuleset>> rulesets(threads);
  for (int t = 0; t < threads; ++t) {
    for (int s = 0; s < kSessionsPerThread; ++s) {
      Random rng(first_seed + static_cast<uint64_t>(t) * kSessionsPerThread +
                 static_cast<uint64_t>(s));
      rulesets[t].push_back(workload::RandomPreference(
          &rng, workload::RandomPreferenceOptions{}));
    }
  }
  std::vector<std::thread> workers;
  std::vector<Status> outcomes(threads, Status::OK());
  std::vector<TimingStats> latencies(threads);
  std::atomic<bool> go{false};
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      for (int s = 0; s < kSessionsPerThread; ++s) {
        Stopwatch session_sw;
        auto pref = tier->CompilePreference(rulesets[t][s]);
        if (!pref.ok()) {
          outcomes[t] = pref.status();
          return;
        }
        for (int m = 0; m < kMatchesPerSession; ++m) {
          const std::vector<int64_t>& ids =
              ids_by_shard[static_cast<size_t>(m) % ids_by_shard.size()];
          const size_t pick = static_cast<size_t>(t * 7919 + s * 31 + m);
          auto r = tier->MatchPolicyId(pref.value(), ids[pick % ids.size()]);
          if (!r.ok()) {
            outcomes[t] = r.status();
            return;
          }
        }
        latencies[t].Add(session_sw.ElapsedMicros());
      }
    });
  }
  const sqldb::PlanCacheStats before = tier->plan_cache().stats();
  Stopwatch sw;
  go.store(true);
  for (std::thread& w : workers) w.join();
  ThroughputPoint point;
  point.elapsed_us = sw.ElapsedMicros();
  for (const Status& s : outcomes) {
    if (!s.ok()) return s;
  }
  for (const TimingStats& per_thread : latencies) {
    for (double us : per_thread.samples()) point.latency_us.Add(us);
  }
  point.mode = "tier_custom_session";
  point.threads = threads;
  point.sessions = static_cast<uint64_t>(threads) * kSessionsPerThread;
  point.matches = point.sessions * kMatchesPerSession;
  point.plans_built =
      tier->plan_cache().stats().plans_built - before.plans_built;
  return point;
}

/// ns per match of `mode` on one thread (0 when not measured).
double OneThreadNsPerOp(const std::vector<ThroughputPoint>& points,
                        const std::string& mode) {
  for (const ThroughputPoint& p : points) {
    if (p.mode == mode && p.threads == 1) return p.NsPerOp();
  }
  return 0.0;
}

/// tier_uri over tier_policy_id ns per match, one thread each (negative
/// when either is missing).
double UriToIdRatio(const std::vector<ThroughputPoint>& points) {
  const double id_ns = OneThreadNsPerOp(points, "tier_policy_id");
  const double uri_ns = OneThreadNsPerOp(points, "tier_uri");
  return id_ns > 0.0 && uri_ns > 0.0 ? uri_ns / id_ns : -1.0;
}

struct ExperimentOutput {
  std::vector<ThroughputPoint> points;
  std::string metrics_text;  // parameterized server's registry, end of run
};

Result<ExperimentOutput> RunExperiment() {
  std::vector<p3p::Policy> corpus = workload::FortuneCorpus();
  std::vector<std::string> paths;
  for (const p3p::Policy& policy : corpus) {
    paths.push_back("/" + policy.name + "/index.html");
  }

  ExperimentOutput out;
  P3PDB_ASSIGN_OR_RETURN(auto parameterized,
                         MakeServer(/*cached=*/false, corpus));
  P3PDB_ASSIGN_OR_RETURN(auto cached, MakeServer(/*cached=*/true, corpus));
  for (int threads : ThreadCounts()) {
    P3PDB_ASSIGN_OR_RETURN(
        ThroughputPoint p,
        Measure(parameterized.get(), "parameterized", paths, threads));
    out.points.push_back(std::move(p));
    P3PDB_ASSIGN_OR_RETURN(ThroughputPoint c,
                           Measure(cached.get(), "cached", paths, threads));
    out.points.push_back(std::move(c));
  }
  // The server kept its own histograms while the harness timed externally —
  // the two views should agree. Emit the registry for eyeballing that.
  out.metrics_text = parameterized->RenderMetricsText();
  parameterized.reset();
  cached.reset();

  std::vector<p3p::Policy> tier_corpus =
      workload::FortuneCorpus({.policy_count = kTierPolicies});
  P3PDB_ASSIGN_OR_RETURN(auto tier, MakeTier(tier_corpus));
  P3PDB_ASSIGN_OR_RETURN(
      server::CompiledPreference pref,
      tier->CompilePreference(JrcPreference(PreferenceLevel::kHigh)));
  const std::vector<int64_t> ids = tier->GlobalPolicyIds();
  std::vector<std::string> tier_paths;
  for (const p3p::Policy& policy : tier_corpus) {
    tier_paths.push_back("/" + policy.name + "/index.html");
  }
  for (bool by_uri : {false, true}) {
    for (int threads : ThreadCounts()) {
      P3PDB_ASSIGN_OR_RETURN(
          ThroughputPoint p,
          MeasureTier(tier.get(), pref, ids, tier_paths, by_uri, threads));
      out.points.push_back(std::move(p));
    }
  }
  std::vector<std::vector<int64_t>> ids_by_shard(tier->shard_count());
  for (int64_t id : ids) {
    ids_by_shard[static_cast<size_t>(id) % ids_by_shard.size()].push_back(id);
  }
  uint64_t first_seed = 1;
  for (int threads : ThreadCounts()) {
    P3PDB_ASSIGN_OR_RETURN(
        ThroughputPoint p,
        MeasureTierSessions(tier.get(), ids_by_shard, threads, first_seed));
    first_seed += p.sessions;
    out.points.push_back(std::move(p));
  }
  return out;
}

void PrintReport(const std::vector<ThroughputPoint>& points) {
  const unsigned cores = std::thread::hardware_concurrency();
  int widest = 1;
  for (const ThroughputPoint& p : points) widest = std::max(widest, p.threads);
  std::printf(
      "E7: concurrent MatchUri throughput (SQL engine, High preference, "
      "29 policies; tier_* modes: 4-shard tier, 1000 policies, warm; "
      "tier_custom_session: one cold session = compile + 4 matches; "
      "%u core%s)\n",
      cores, cores == 1 ? "" : "s");
  if (static_cast<int>(cores) < widest) {
    std::printf(
        "note: fewer cores than the widest thread count — speedups are "
        "bounded by the\nhardware, not the locking.\n");
  }
  std::vector<int> widths = {20, 8, 12, 14, 10, 10, 10, 10, 10};
  PrintTableRule(widths);
  PrintTableRow({"Mode", "Threads", "ns/match", "Matches/sec", "Speedup",
                 "p50", "p90", "p99", "Hit rate"},
                widths);
  PrintTableRule(widths);
  double parameterized_1t = 0.0;
  double parameterized_widest = 0.0;
  double tier_1t = 0.0;
  double tier_most = 0.0;  // widest point within the core count
  int tier_most_threads = 0;
  for (const ThroughputPoint& p : points) {
    double base = 0.0;
    for (const ThroughputPoint& q : points) {
      if (q.mode == p.mode && q.threads == 1) base = q.MatchesPerSec();
    }
    if (p.mode == "parameterized") {
      if (p.threads == 1) parameterized_1t = p.MatchesPerSec();
      if (p.threads == widest) parameterized_widest = p.MatchesPerSec();
    }
    if (p.mode == "tier_policy_id") {
      if (p.threads == 1) tier_1t = p.MatchesPerSec();
      if (p.threads < static_cast<int>(cores) &&
          p.threads > tier_most_threads) {
        tier_most = p.MatchesPerSec();
        tier_most_threads = p.threads;
      }
    }
    PrintTableRow({p.mode, std::to_string(p.threads),
                   FormatDouble(p.NsPerOp(), 0),
                   FormatDouble(p.MatchesPerSec(), 0),
                   base <= 0.0 ? std::string("-")
                               : FormatDouble(p.MatchesPerSec() / base, 2) +
                                     "x",
                   FormatMicros(p.latency_us.Percentile(50.0)),
                   FormatMicros(p.latency_us.Percentile(90.0)),
                   FormatMicros(p.latency_us.Percentile(99.0)),
                   p.hit_rate < 0.0 ? std::string("-")
                                    : FormatDouble(p.hit_rate, 3)},
                  widths);
  }
  PrintTableRule(widths);
  for (const ThroughputPoint& p : points) {
    if (p.sessions == 0) continue;
    std::printf(
        "(%s, %d thread%s: %s sessions/s, %s plans built per session)\n",
        p.mode.c_str(), p.threads, p.threads == 1 ? "" : "s",
        FormatDouble(p.sessions / (p.elapsed_us / 1e6), 0).c_str(),
        FormatDouble(static_cast<double>(p.plans_built) / p.sessions, 3)
            .c_str());
  }
  std::printf("\n");
  if (parameterized_1t > 0.0) {
    std::printf(
        "(parameterized %d-thread speedup over 1 thread: %sx)\n\n",
        widest,
        FormatDouble(parameterized_widest / parameterized_1t, 2).c_str());
  }
  if (tier_1t > 0.0 && tier_most_threads > 1) {
    std::printf(
        "(tier_policy_id %d-thread speedup over 1 thread: %sx)\n",
        tier_most_threads, FormatDouble(tier_most / tier_1t, 2).c_str());
  }
  if (const double ratio = UriToIdRatio(points); ratio >= 0.0) {
    std::printf(
        "(tier_uri / tier_policy_id ns per match, 1 thread: %sx)\n",
        FormatDouble(ratio, 2).c_str());
  }
  std::printf("\n");
}

}  // namespace
}  // namespace p3pdb::bench

int main(int argc, char** argv) {
  using p3pdb::bench::BenchJsonRecord;
  auto output = p3pdb::bench::RunExperiment();
  if (!output.ok()) {
    std::printf("error: %s\n", output.status().ToString().c_str());
    return 1;
  }
  p3pdb::bench::PrintReport(output.value().points);
  std::printf("Parameterized server metrics (Prometheus exposition):\n%s\n",
              output.value().metrics_text.c_str());

  std::string json_path = p3pdb::bench::JsonPathFromArgs(argc, argv);
  if (!json_path.empty()) {
    std::vector<BenchJsonRecord> records;
    const double uri_to_id = p3pdb::bench::UriToIdRatio(output.value().points);
    for (const auto& p : output.value().points) {
      BenchJsonRecord record = p3pdb::bench::RecordFromTimings(
          "concurrent_match/" + p.mode +
              "/threads:" + std::to_string(p.threads),
          p.latency_us);
      // Throughput numbers come from the wall clock over the whole run,
      // not the per-match samples (threads overlap).
      record.iters = p.matches;
      record.ns_per_op = p.NsPerOp();
      record.matches_per_sec = p.MatchesPerSec();
      record.hit_rate = p.hit_rate;
      record.cache_hits = p.cache_hits;
      record.cache_misses = p.cache_misses;
      // Thread counts now scale with the machine, so a record is only
      // comparable to records produced on the same core count.
      record.hardware_concurrency = std::thread::hardware_concurrency();
      if (p.sessions > 0) {
        record.sessions_per_sec = p.sessions / (p.elapsed_us / 1e6);
        record.plans_per_session =
            static_cast<double>(p.plans_built) / p.sessions;
      }
      if (p.mode == "tier_uri" && p.threads == 1) record.ns_ratio = uri_to_id;
      records.push_back(std::move(record));
    }
    auto written = p3pdb::bench::WriteBenchJson(json_path, records);
    if (!written.ok()) {
      std::printf("error: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("wrote %zu records to %s\n", records.size(),
                json_path.c_str());
  }
  return 0;
}
