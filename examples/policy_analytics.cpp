// Site-owner analytics — the §4.2 advantage that "site owners can refine
// their policies if they know what policies have a conflict with the
// privacy preferences of their users", which "the current [client-centric]
// architecture does not allow".
//
// Installs the Fortune-1000 corpus and replays a stream of user checks at
// mixed sensitivity levels. The server counts every match per (policy,
// behavior), so its ConflictReport names the policies users block most;
// plain SQL over the shredded policy tables then says what those policies
// declare — the payoff of storing policies in a database.
//
//   $ ./policy_analytics

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "server/policy_server.h"
#include "workload/corpus.h"
#include "workload/jrc_preferences.h"

using p3pdb::Random;
using p3pdb::server::ConflictCount;
using p3pdb::server::EngineKind;
using p3pdb::server::PolicyServer;
using p3pdb::workload::AllPreferenceLevels;
using p3pdb::workload::JrcPreference;
using p3pdb::workload::PreferenceLevel;

namespace {

void RunQuery(PolicyServer* server, const char* question,
              const std::string& sql) {
  std::printf("-- %s\n   %s\n", question, sql.c_str());
  auto result = server->database()->Execute(sql);
  if (!result.ok()) {
    std::printf("error: %s\n\n", result.status().ToString().c_str());
    return;
  }
  std::printf("%s\n", result.value().ToString().c_str());
}

}  // namespace

int main() {
  PolicyServer::Options options;
  options.engine = EngineKind::kSql;
  auto server = PolicyServer::Create(options);
  if (!server.ok()) {
    std::fprintf(stderr, "server: %s\n", server.status().ToString().c_str());
    return 1;
  }

  std::vector<p3pdb::p3p::Policy> corpus = p3pdb::workload::FortuneCorpus();
  std::vector<long long> ids;
  for (const auto& policy : corpus) {
    auto id = server.value()->InstallPolicy(policy);
    if (!id.ok()) {
      std::fprintf(stderr, "install: %s\n", id.status().ToString().c_str());
      return 1;
    }
    ids.push_back(id.value());
  }
  std::printf("installed %zu policies\n", ids.size());

  // Simulate a day of preference checks: users arrive with mixed
  // sensitivity levels (more Medium/Low than Very High) and hit policies
  // unevenly.
  std::vector<p3pdb::server::CompiledPreference> prefs;
  for (PreferenceLevel level : AllPreferenceLevels()) {
    auto pref = server.value()->CompilePreference(JrcPreference(level));
    if (!pref.ok()) {
      std::fprintf(stderr, "compile: %s\n", pref.status().ToString().c_str());
      return 1;
    }
    prefs.push_back(std::move(pref).value());
  }
  const int level_weights[] = {1, 2, 4, 4, 2};  // VH, H, M, L, VL
  Random rng(7);
  int checks = 0;
  for (int i = 0; i < 2000; ++i) {
    int total_weight = 13;
    int pick = static_cast<int>(rng.Uniform(total_weight));
    size_t level = 0;
    for (int acc = 0; level < 5; ++level) {
      acc += level_weights[level];
      if (pick < acc) break;
    }
    size_t policy = rng.Uniform(ids.size());
    auto result =
        server.value()->MatchPolicyId(prefs[level], ids[policy]);
    if (!result.ok()) {
      std::fprintf(stderr, "match: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    ++checks;
  }
  std::printf("replayed %d preference checks\n\n", checks);

  // The server's conflict counts: one row per (policy, behavior).
  const std::vector<ConflictCount> report = server.value()->ConflictReport();
  std::map<std::string, uint64_t> outcomes;
  std::map<int64_t, uint64_t> checks_per_policy;
  std::vector<std::pair<uint64_t, int64_t>> blocks;  // (blocks, policy id)
  for (const ConflictCount& row : report) {
    outcomes[row.behavior] += row.matches;
    checks_per_policy[row.policy_id] += row.matches;
    if (row.behavior == "block") blocks.emplace_back(row.matches, row.policy_id);
  }
  std::sort(blocks.begin(), blocks.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  blocks.resize(std::min<size_t>(blocks.size(), 5));

  std::printf("-- How do outcomes split overall? (ConflictReport)\n");
  for (const auto& [behavior, matches] : outcomes) {
    std::printf("   %-8s %6llu\n", behavior.c_str(),
                static_cast<unsigned long long>(matches));
  }
  std::printf(
      "\n-- Which policies conflict with users' preferences the most?\n");
  std::printf("   policy_id  blocks  checks\n");
  std::string top_ids;
  for (const auto& [count, policy_id] : blocks) {
    std::printf("   %9lld  %6llu  %6llu\n", static_cast<long long>(policy_id),
                static_cast<unsigned long long>(count),
                static_cast<unsigned long long>(checks_per_policy[policy_id]));
    if (!top_ids.empty()) top_ids += ", ";
    top_ids += std::to_string(policy_id);
  }
  std::printf("\n");

  if (!top_ids.empty()) {
    RunQuery(server.value().get(),
             "Which purposes do the most-blocked policies declare? "
             "(the shredded Purpose table)",
             "SELECT purpose, COUNT(*) AS occurrences FROM Purpose "
             "WHERE policy_id IN (" + top_ids + ") "
             "GROUP BY purpose ORDER BY 2 DESC, 1 LIMIT 8");
    RunQuery(server.value().get(),
             "And to which recipients do they give the data?",
             "SELECT recipient, COUNT(*) AS occurrences FROM Recipient "
             "WHERE policy_id IN (" + top_ids + ") "
             "GROUP BY recipient ORDER BY 2 DESC, 1 LIMIT 8");
  }

  RunQuery(server.value().get(),
           "How many statements retain data indefinitely, per policy?",
           "SELECT policy_id, COUNT(*) AS stmts FROM Statement "
           "WHERE retention = 'indefinitely' GROUP BY policy_id "
           "ORDER BY 2 DESC LIMIT 5");

  RunQuery(server.value().get(),
           "And how does the engine run a translated rule? (EXPLAIN)",
           "EXPLAIN SELECT 'block' FROM ApplicablePolicy WHERE EXISTS "
           "(SELECT * FROM Policy WHERE Policy.policy_id = "
           "ApplicablePolicy.policy_id AND EXISTS (SELECT * FROM Statement "
           "WHERE Statement.policy_id = Policy.policy_id AND EXISTS "
           "(SELECT * FROM Purpose WHERE Purpose.policy_id = "
           "Statement.policy_id AND Purpose.statement_id = "
           "Statement.statement_id AND Purpose.purpose = 'telemarketing')))");

  std::printf(
      "A client-centric deployment never sees these numbers: the matching\n"
      "happens in the browser. Server-side matching over shredded tables\n"
      "makes policy refinement a reporting query.\n");
  return 0;
}
