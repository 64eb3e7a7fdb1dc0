#include "bench/harness.h"

#include <cstdio>
#include <string_view>

#include "common/string_util.h"

namespace p3pdb::bench {

using server::Augmentation;
using server::EngineKind;
using server::PolicyServer;
using workload::JrcPreference;
using workload::PreferenceLevel;

Result<std::unique_ptr<PolicyServer>> MakeBenchServer(
    EngineKind kind, int max_subquery_depth, bool enable_planner,
    bool steady_state, const BenchObservability& obs,
    const std::string& storage_path) {
  PolicyServer::Options options;
  options.engine = kind;
  options.storage_path = storage_path;  // empty = in-memory (the default)
  options.augmentation = kind == EngineKind::kNativeAppel
                             ? Augmentation::kPerMatch
                             : Augmentation::kAtInstall;
  options.max_subquery_depth = max_subquery_depth;
  options.enable_planner = enable_planner;
  if (steady_state) {
    // Deployed-matcher configuration: preferences compile to prepared rule
    // queries (per-match cost is execution only) and the metrics registry
    // and statement telemetry are off so timings don't include counter
    // upkeep. fig20's 10k-scale record uses this; the small-scale figures
    // keep the paper's text-per-match methodology.
    options.use_prepared_statements = true;
    options.collect_metrics = false;
    options.enable_statement_stats = false;
  }
  if (obs.enable_admin || obs.slow_query_threshold_us > 0 ||
      obs.trace_sample_every > 0) {
    // A flag asked for live introspection: turn telemetry back on (the
    // run's timings then include it, which the flags' users accept).
    options.enable_statement_stats = true;
    options.slow_query_threshold_us = obs.slow_query_threshold_us;
    options.trace_sample_every = obs.trace_sample_every;
    options.enable_admin_endpoint = obs.enable_admin;
    options.admin_port = obs.admin_port;
  }
  // The paper's figures measure engine cost per match; its methodology even
  // restarted DB2 between preferences to defeat database caching. Memoizing
  // repeated matches would report the cache, not the engine, so the figure
  // benches run uncached. bench_warm_cold builds its own cached servers to
  // measure the memo layer explicitly.
  options.enable_match_cache = false;
  return PolicyServer::Create(options);
}

Result<std::unique_ptr<MatchingExperiment>> MatchingExperiment::Create() {
  return Create(Options{});
}

Result<std::unique_ptr<MatchingExperiment>> MatchingExperiment::Create(
    Options options) {
  std::unique_ptr<MatchingExperiment> exp(new MatchingExperiment());
  exp->options_ = options;
  exp->corpus_ = workload::FortuneCorpus(
      {.seed = options.corpus_seed, .policy_count = options.policy_count});

  P3PDB_ASSIGN_OR_RETURN(exp->native_server_,
                         MakeBenchServer(EngineKind::kNativeAppel));
  P3PDB_ASSIGN_OR_RETURN(
      exp->sql_server_,
      MakeBenchServer(EngineKind::kSql, 32, options.enable_planner));
  P3PDB_ASSIGN_OR_RETURN(exp->xtable_server_,
                         MakeBenchServer(EngineKind::kXQueryXTable,
                                         kXTableDepthBudget,
                                         options.enable_planner));

  for (const p3p::Policy& policy : exp->corpus_) {
    P3PDB_ASSIGN_OR_RETURN(int64_t nid,
                           exp->native_server_->InstallPolicy(policy));
    exp->native_policy_ids_.push_back(nid);
    P3PDB_ASSIGN_OR_RETURN(int64_t sid,
                           exp->sql_server_->InstallPolicy(policy));
    exp->sql_policy_ids_.push_back(sid);
    P3PDB_ASSIGN_OR_RETURN(int64_t xid,
                           exp->xtable_server_->InstallPolicy(policy));
    exp->xtable_policy_ids_.push_back(xid);
  }
  return exp;
}

Result<std::vector<LevelTimings>> MatchingExperiment::Run() {
  std::vector<LevelTimings> results;
  for (PreferenceLevel level : workload::AllPreferenceLevels()) {
    LevelTimings timings;
    timings.level = level;
    appel::AppelRuleset ruleset = JrcPreference(level);

    // Compiled forms reused for the per-match query timings.
    P3PDB_ASSIGN_OR_RETURN(server::CompiledPreference native_pref,
                           native_server_->CompilePreference(ruleset));
    P3PDB_ASSIGN_OR_RETURN(server::CompiledPreference sql_pref,
                           sql_server_->CompilePreference(ruleset));
    auto xtable_pref = xtable_server_->CompilePreference(ruleset);
    timings.xquery_supported = xtable_pref.ok();

    // Warm-up pass (the paper reports warm numbers).
    for (size_t p = 0; p < corpus_.size(); ++p) {
      auto r1 = native_server_->MatchPolicyId(native_pref,
                                              native_policy_ids_[p]);
      if (!r1.ok()) return r1.status();
      auto r2 = sql_server_->MatchPolicyId(sql_pref, sql_policy_ids_[p]);
      if (!r2.ok()) return r2.status();
      if (timings.xquery_supported) {
        auto r3 = xtable_server_->MatchPolicyId(xtable_pref.value(),
                                                xtable_policy_ids_[p]);
        if (!r3.ok()) return r3.status();
      }
    }

    for (int rep = 0; rep < options_.repetitions; ++rep) {
      for (size_t p = 0; p < corpus_.size(); ++p) {
        // Native APPEL engine (includes per-match naive augmentation).
        {
          Stopwatch sw;
          auto r = native_server_->MatchPolicyId(native_pref,
                                                 native_policy_ids_[p]);
          double us = sw.ElapsedMicros();
          if (!r.ok()) return r.status();
          timings.appel_engine.Add(us);
        }
        // SQL: conversion measured as a fresh translation per match (the
        // paper's conversion column), query with the compiled form.
        {
          Stopwatch sw;
          auto compiled = sql_server_->CompilePreference(ruleset);
          double convert_us = sw.ElapsedMicros();
          if (!compiled.ok()) return compiled.status();
          Stopwatch sw2;
          auto r = sql_server_->MatchPolicyId(compiled.value(),
                                              sql_policy_ids_[p]);
          double query_us = sw2.ElapsedMicros();
          if (!r.ok()) return r.status();
          timings.sql_convert.Add(convert_us);
          timings.sql_query.Add(query_us);
          timings.sql_total.Add(convert_us + query_us);
        }
        // XQuery: conversion chain plus execution, per match.
        if (timings.xquery_supported) {
          Stopwatch sw;
          auto compiled = xtable_server_->CompilePreference(ruleset);
          if (!compiled.ok()) return compiled.status();
          auto r = xtable_server_->MatchPolicyId(compiled.value(),
                                                 xtable_policy_ids_[p]);
          double us = sw.ElapsedMicros();
          if (!r.ok()) return r.status();
          timings.xquery_total.Add(us);
        }
      }
    }
    results.push_back(std::move(timings));
  }
  return results;
}

std::string FormatMicros(double micros) {
  if (micros >= 1000.0) {
    return FormatDouble(micros / 1000.0, 2) + " ms";
  }
  return FormatDouble(micros, 1) + " us";
}

void PrintTableRule(const std::vector<int>& widths) {
  std::fputc('+', stdout);
  for (int w : widths) {
    for (int i = 0; i < w + 2; ++i) std::fputc('-', stdout);
    std::fputc('+', stdout);
  }
  std::fputc('\n', stdout);
}

void PrintTableRow(const std::vector<std::string>& cells,
                   const std::vector<int>& widths) {
  std::fputc('|', stdout);
  for (size_t i = 0; i < widths.size(); ++i) {
    const std::string& cell = i < cells.size() ? cells[i] : std::string();
    std::printf(" %-*s |", widths[i], cell.c_str());
  }
  std::fputc('\n', stdout);
}

BenchJsonRecord RecordFromTimings(std::string name,
                                  const TimingStats& micros) {
  BenchJsonRecord record;
  record.name = std::move(name);
  record.iters = micros.count();
  record.ns_per_op = micros.Average() * 1000.0;
  record.matches_per_sec =
      micros.Average() <= 0.0 ? 0.0 : 1e6 / micros.Average();
  record.min_ns = micros.Min() * 1000.0;
  record.max_ns = micros.Max() * 1000.0;
  record.p50_ns = micros.Percentile(50.0) * 1000.0;
  record.p90_ns = micros.Percentile(90.0) * 1000.0;
  record.p99_ns = micros.Percentile(99.0) * 1000.0;
  return record;
}

std::string BenchRecordsToJson(const std::vector<BenchJsonRecord>& records) {
  std::string out = "[\n";
  for (size_t i = 0; i < records.size(); ++i) {
    const BenchJsonRecord& r = records[i];
    out += "  {\"name\": \"" + JsonEscape(r.name) + "\", ";
    out += "\"iters\": " + std::to_string(r.iters) + ", ";
    out += "\"ns_per_op\": " + FormatDouble(r.ns_per_op, 1) + ", ";
    out += "\"matches_per_sec\": " + FormatDouble(r.matches_per_sec, 1) + ", ";
    out += "\"min_ns\": " + FormatDouble(r.min_ns, 1) + ", ";
    out += "\"max_ns\": " + FormatDouble(r.max_ns, 1) + ", ";
    out += "\"p50_ns\": " + FormatDouble(r.p50_ns, 1) + ", ";
    out += "\"p90_ns\": " + FormatDouble(r.p90_ns, 1) + ", ";
    out += "\"p99_ns\": " + FormatDouble(r.p99_ns, 1);
    if (r.hit_rate >= 0.0) {
      out += ", \"hit_rate\": " + FormatDouble(r.hit_rate, 4) + ", ";
      out += "\"cache_hits\": " + std::to_string(r.cache_hits) + ", ";
      out += "\"cache_misses\": " + std::to_string(r.cache_misses);
    }
    if (r.hardware_concurrency > 0) {
      out += ", \"hardware_concurrency\": " +
             std::to_string(r.hardware_concurrency);
    }
    if (r.frees_per_op >= 0.0) {
      out += ", \"frees_per_op\": " + FormatDouble(r.frees_per_op, 2);
    }
    if (r.sessions_per_sec >= 0.0) {
      out += ", \"sessions_per_sec\": " + FormatDouble(r.sessions_per_sec, 1);
    }
    if (r.plans_per_session >= 0.0) {
      out +=
          ", \"plans_per_session\": " + FormatDouble(r.plans_per_session, 3);
    }
    if (r.ns_ratio >= 0.0) {
      out += ", \"ns_ratio\": " + FormatDouble(r.ns_ratio, 3);
    }
    out += "}";
    if (i + 1 < records.size()) out += ",";
    out += "\n";
  }
  out += "]\n";
  return out;
}

bool FlagInArgs(int argc, char** argv, std::string_view flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == flag) return true;
  }
  return false;
}

std::string FlagValueFromArgs(int argc, char** argv, std::string_view flag) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == flag && i + 1 < argc) return argv[i + 1];
    if (arg.size() > flag.size() + 1 && arg.substr(0, flag.size()) == flag &&
        arg[flag.size()] == '=') {
      return std::string(arg.substr(flag.size() + 1));
    }
  }
  return std::string();
}

std::string JsonPathFromArgs(int argc, char** argv) {
  return FlagValueFromArgs(argc, argv, "--json");
}

Status WriteBenchJson(const std::string& path,
                      const std::vector<BenchJsonRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open '" + path + "' for writing");
  }
  const std::string json = BenchRecordsToJson(records);
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  if (std::fclose(f) != 0 || written != json.size()) {
    return Status::Internal("short write to '" + path + "'");
  }
  return Status::OK();
}

}  // namespace p3pdb::bench
