// Sustained-throughput benchmark for the sharded serving tier.
//
// The other benches are closed-loop: each thread fires its next match the
// moment the previous one returns, so a slow server quietly slows the
// *offered* load and the latency numbers hide the stall (coordinated
// omission). A serving tier is sized against an arrival rate it does not
// control, so this bench is open-loop: requests are scheduled on a fixed
// grid (request i is due at start + i/qps, regardless of how request i-1
// fared), a worker pool drains the grid, and each sample measures
// completion minus *scheduled* arrival — queueing delay from falling
// behind is part of the number, exactly as a client would see it.
//
// Traffic mix: ~80% MatchPolicyId / 20% MatchUri, each request carrying
// one of 2^20 distinct preference fingerprints (a tier serves many users,
// each with their own compiled preference identity; the match caches see a
// key space far larger than their capacity, so this prices the real match
// path, not a memo hit). Two measured phases plus the install-side view:
//
//   serving/match_baseline   match traffic only, quiescent catalog
//   serving/match_churn      same grid while an installer reinstalls
//                            policies at --install-qps (what publication,
//                            an index flip plus the retired replica's
//                            exclusive-lock wait, costs the match tail)
//   serving/install          per-install service latency during the churn
//                            phase (validate + two replica installs +
//                            publish; the tier has no storage_path, so no
//                            WAL commit)
//
// Usage: bench_serving [--duration-s N] [--qps N] [--install-qps N]
//                      [--shards N] [--threads N] [--json <path>]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "server/sharded_server.h"
#include "workload/corpus.h"
#include "workload/jrc_preferences.h"

namespace p3pdb::bench {
namespace {

using server::CompiledPreference;
using server::ShardedPolicyServer;
using workload::JrcPreference;
using workload::PreferenceLevel;

using Clock = std::chrono::steady_clock;

constexpr uint64_t kFingerprintSpace = 1ull << 20;
constexpr size_t kCorpusPolicies = 64;

struct ServingConfig {
  double duration_s = 3.0;
  double qps = 2000.0;
  double install_qps = 50.0;
  size_t shards = 4;
  int threads = 0;  // 0 = autodetect
};

/// Cheap per-ticket deterministic randomness (splitmix64): the op mix and
/// fingerprint of request i depend only on i, so runs are reproducible and
/// workers need no shared RNG state.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct OpenLoopResult {
  TimingStats latency_us;  // completion - scheduled arrival, per request
  uint64_t ops = 0;
  uint64_t errors = 0;
  uint64_t not_found = 0;  // matches that resolved no policy (should be 0)
  double elapsed_us = 0.0;

  double AchievedQps() const {
    return elapsed_us <= 0.0 ? 0.0 : ops / (elapsed_us / 1e6);
  }
};

/// Drains the arrival grid with `threads` workers until `duration` of
/// scheduled arrivals have been issued. Each worker owns one pre-compiled
/// preference (CompiledPreference is move-only: the XQuery ASTs don't
/// copy) and rewrites only its fingerprint per request — 2^20 distinct
/// cache identities without a per-request compile.
OpenLoopResult RunOpenLoop(ShardedPolicyServer* tier,
                           std::vector<CompiledPreference>& worker_prefs,
                           const std::vector<int64_t>& ids,
                           const std::vector<std::string>& paths,
                           const ServingConfig& config) {
  OpenLoopResult result;
  const uint64_t total =
      static_cast<uint64_t>(config.duration_s * config.qps);
  if (total == 0 || ids.empty() || paths.empty()) return result;

  std::atomic<uint64_t> next_ticket{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> not_found{0};
  std::vector<TimingStats> latencies(config.threads);
  std::vector<std::thread> workers;
  const Clock::time_point start = Clock::now();
  for (int t = 0; t < config.threads; ++t) {
    workers.emplace_back([&, t] {
      CompiledPreference& pref = worker_prefs[t];
      for (;;) {
        const uint64_t i = next_ticket.fetch_add(1);
        if (i >= total) return;
        const Clock::time_point scheduled =
            start + std::chrono::nanoseconds(
                        static_cast<uint64_t>(i * 1e9 / config.qps));
        std::this_thread::sleep_until(scheduled);
        const uint64_t r = Mix(i);
        pref.fingerprint = 1 + (r % kFingerprintSpace);
        Result<server::MatchResult> match =
            (r >> 32) % 10 < 8
                ? tier->MatchPolicyId(pref,
                                      ids[(r >> 40) % ids.size()])
                : tier->MatchUri(pref, paths[(r >> 40) % paths.size()]);
        const Clock::time_point done = Clock::now();
        if (!match.ok()) {
          errors.fetch_add(1);
          continue;
        }
        if (!match.value().policy_found) not_found.fetch_add(1);
        latencies[t].Add(
            std::chrono::duration_cast<std::chrono::nanoseconds>(done -
                                                                 scheduled)
                .count() /
            1000.0);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  result.elapsed_us =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count() /
      1000.0;
  for (const TimingStats& per_worker : latencies) {
    for (double us : per_worker.samples()) result.latency_us.Add(us);
  }
  result.ops = result.latency_us.samples().size();
  result.errors = errors.load();
  result.not_found = not_found.load();
  return result;
}

void PrintPhase(const char* name, const OpenLoopResult& r, double offered) {
  std::printf(
      "%-22s %8llu ops  offered %7.0f qps  achieved %7.0f qps  "
      "p50 %s  p99 %s  max %s\n",
      name, static_cast<unsigned long long>(r.ops), offered, r.AchievedQps(),
      FormatMicros(r.latency_us.Percentile(50.0)).c_str(),
      FormatMicros(r.latency_us.Percentile(99.0)).c_str(),
      FormatMicros(r.latency_us.Max()).c_str());
}

BenchJsonRecord PhaseRecord(const char* name, const OpenLoopResult& r) {
  BenchJsonRecord record = RecordFromTimings(name, r.latency_us);
  record.iters = r.ops;
  record.matches_per_sec = r.AchievedQps();
  record.hardware_concurrency = std::thread::hardware_concurrency();
  return record;
}

int RunServing(const ServingConfig& config, const std::string& json_path) {
  std::vector<p3p::Policy> corpus = workload::FortuneCorpus(
      {.seed = 2003, .policy_count = kCorpusPolicies});

  ShardedPolicyServer::Options options;
  options.shards = config.shards;
  auto tier = ShardedPolicyServer::Create(options);
  if (!tier.ok()) {
    std::printf("error: %s\n", tier.status().ToString().c_str());
    return 1;
  }
  std::vector<int64_t> ids;
  std::vector<std::string> paths;
  for (const p3p::Policy& policy : corpus) {
    auto id = tier.value()->InstallPolicy(policy);
    if (!id.ok()) {
      std::printf("error: %s\n", id.status().ToString().c_str());
      return 1;
    }
    ids.push_back(id.value());
    paths.push_back("/" + policy.name + "/index.html");
  }
  Status rf = tier.value()->InstallReferenceFile(
      workload::CorpusReferenceFile(corpus));
  if (!rf.ok()) {
    std::printf("error: %s\n", rf.ToString().c_str());
    return 1;
  }
  std::vector<CompiledPreference> worker_prefs;
  for (int t = 0; t < config.threads; ++t) {
    auto pref = tier.value()->CompilePreference(
        JrcPreference(PreferenceLevel::kHigh));
    if (!pref.ok()) {
      std::printf("error: %s\n", pref.status().ToString().c_str());
      return 1;
    }
    worker_prefs.push_back(std::move(pref).value());
  }
  // Warm-up outside the grid: every shard touched, behaviors resolved once.
  for (const std::string& path : paths) {
    auto warm = tier.value()->MatchUri(worker_prefs[0], path);
    if (!warm.ok()) {
      std::printf("error: %s\n", warm.status().ToString().c_str());
      return 1;
    }
  }

  std::printf(
      "Serving tier: %zu shards, %d workers, %zu policies, "
      "%.0fs @ %.0f qps (install churn %.0f qps)\n\n",
      config.shards, config.threads, corpus.size(), config.duration_s,
      config.qps, config.install_qps);

  OpenLoopResult baseline =
      RunOpenLoop(tier.value().get(), worker_prefs, ids, paths, config);
  PrintPhase("serving/match_baseline", baseline, config.qps);

  // Churn phase: the same match grid while an installer reinstalls
  // policies (same names — each reinstall is two replica installs around
  // the index flip that publishes it on that name's shard; the tier is
  // in-memory, so no WAL commit).
  std::atomic<bool> stop_installer{false};
  TimingStats install_latency_us;
  std::atomic<uint64_t> install_errors{0};
  std::thread installer([&] {
    const Clock::time_point start = Clock::now();
    for (uint64_t i = 0; !stop_installer.load(); ++i) {
      const Clock::time_point scheduled =
          start + std::chrono::nanoseconds(
                      static_cast<uint64_t>(i * 1e9 / config.install_qps));
      std::this_thread::sleep_until(scheduled);
      if (stop_installer.load()) return;
      Stopwatch sw;
      auto id = tier.value()->InstallPolicy(corpus[i % corpus.size()]);
      if (!id.ok()) {
        install_errors.fetch_add(1);
        return;
      }
      install_latency_us.Add(sw.ElapsedMicros());
    }
  });
  OpenLoopResult churn =
      RunOpenLoop(tier.value().get(), worker_prefs, ids, paths, config);
  stop_installer.store(true);
  installer.join();
  PrintPhase("serving/match_churn", churn, config.qps);
  std::printf(
      "%-22s %8zu ops  avg %s  p99 %s  (catalog epoch now %llu)\n\n",
      "serving/install", install_latency_us.samples().size(),
      FormatMicros(install_latency_us.Average()).c_str(),
      FormatMicros(install_latency_us.Percentile(99.0)).c_str(),
      static_cast<unsigned long long>(tier.value()->catalog_epoch()));

  const uint64_t errors = baseline.errors + churn.errors +
                          install_errors.load() + baseline.not_found +
                          churn.not_found;
  if (errors > 0) {
    std::printf("error: %llu failed or policy-less requests\n",
                static_cast<unsigned long long>(errors));
    return 1;
  }

  if (!json_path.empty()) {
    std::vector<BenchJsonRecord> records;
    records.push_back(PhaseRecord("serving/match_baseline", baseline));
    records.push_back(PhaseRecord("serving/match_churn", churn));
    BenchJsonRecord install =
        RecordFromTimings("serving/install", install_latency_us);
    install.iters = install_latency_us.samples().size();
    install.hardware_concurrency = std::thread::hardware_concurrency();
    records.push_back(install);
    auto written = WriteBenchJson(json_path, records);
    if (!written.ok()) {
      std::printf("error: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("wrote %zu records to %s\n", records.size(),
                json_path.c_str());
  }
  return 0;
}

double FlagOr(int argc, char** argv, std::string_view flag, double fallback) {
  const std::string value = FlagValueFromArgs(argc, argv, flag);
  return value.empty() ? fallback : std::atof(value.c_str());
}

}  // namespace
}  // namespace p3pdb::bench

int main(int argc, char** argv) {
  p3pdb::bench::ServingConfig config;
  config.duration_s =
      p3pdb::bench::FlagOr(argc, argv, "--duration-s", config.duration_s);
  config.qps = p3pdb::bench::FlagOr(argc, argv, "--qps", config.qps);
  config.install_qps =
      p3pdb::bench::FlagOr(argc, argv, "--install-qps", config.install_qps);
  config.shards = static_cast<size_t>(p3pdb::bench::FlagOr(
      argc, argv, "--shards", static_cast<double>(config.shards)));
  config.threads = static_cast<int>(
      p3pdb::bench::FlagOr(argc, argv, "--threads", 0.0));
  if (config.threads <= 0) {
    // Enough workers that one stalled request does not starve the grid,
    // even on a single-core runner.
    const unsigned hw = std::thread::hardware_concurrency();
    config.threads = std::max(4, static_cast<int>(hw == 0 ? 1 : hw));
    if (config.threads > 16) config.threads = 16;
  }
  if (config.duration_s <= 0.0 || config.qps <= 0.0 || config.shards == 0) {
    std::printf("error: --duration-s, --qps, and --shards must be > 0\n");
    return 1;
  }
  return p3pdb::bench::RunServing(
      config, p3pdb::bench::JsonPathFromArgs(argc, argv));
}
