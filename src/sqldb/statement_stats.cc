#include "sqldb/statement_stats.h"

#include <algorithm>
#include <cstdio>

#include "common/fnv.h"
#include "common/string_util.h"
#include "sqldb/lexer.h"

namespace p3pdb::sqldb {

namespace {

/// Relaxed atomic min/max: tallies, not synchronization points, so a lost
/// race only costs one sample's worth of precision for that instant.
void AtomicMin(std::atomic<uint64_t>& dst, uint64_t v) {
  uint64_t cur = dst.load(std::memory_order_relaxed);
  while (v < cur &&
         !dst.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<uint64_t>& dst, uint64_t v) {
  uint64_t cur = dst.load(std::memory_order_relaxed);
  while (v > cur &&
         !dst.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

std::string HexFingerprint(uint64_t fp) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fp));
  return std::string(buf);
}

/// Whitespace-collapsing fallback for text the lexer rejects (never the
/// engine's own statements, but Intern must not fail).
std::string CollapseWhitespace(std::string_view sql) {
  std::string out;
  out.reserve(sql.size());
  bool pending_space = false;
  for (char c : sql) {
    if (IsAsciiSpace(c)) {
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) out += ' ';
    pending_space = false;
    out += c;
  }
  return out;
}

}  // namespace

std::string NormalizeStatementText(std::string_view sql) {
  auto tokens = Tokenize(sql);
  if (!tokens.ok()) return CollapseWhitespace(sql);
  std::string out;
  out.reserve(sql.size());
  // `.` glues its neighbours together (t.col), and parens hug their
  // contents (`count (*)`): no space follows a dot or an opening paren, and
  // neither a dot nor a closing paren takes one before it.
  auto append = [&out](std::string_view piece, bool space_before) {
    if (space_before && !out.empty() && out.back() != '.' &&
        out.back() != '(') {
      out += ' ';
    }
    out += piece;
  };
  for (const Token& token : tokens.value()) {
    switch (token.type) {
      case TokenType::kEnd:
        break;
      case TokenType::kString:
      case TokenType::kInteger:
      case TokenType::kQuestion:
        // The normalization that makes literal-carrying and parameterized
        // submissions of the same query one fingerprint.
        append("?", true);
        break;
      case TokenType::kIdentifier:
        // Keywords and identifiers are case-insensitive in this dialect;
        // fold so `SELECT` and `select` agree.
        append(token.text, true);
        for (size_t i = out.size() - token.text.size(); i < out.size(); ++i) {
          if (out[i] >= 'A' && out[i] <= 'Z') out[i] += 'a' - 'A';
        }
        break;
      case TokenType::kOperator:
        append(token.text, true);
        break;
      case TokenType::kLeftParen:
        append("(", true);
        break;
      case TokenType::kRightParen:
        append(")", false);
        break;
      case TokenType::kComma:
        append(",", false);
        break;
      case TokenType::kDot:
        append(".", false);
        break;
      case TokenType::kStar:
        append("*", true);
        break;
      case TokenType::kSemicolon:
        append(";", false);
        break;
    }
  }
  return out;
}

uint64_t FingerprintStatementText(std::string_view normalized) {
  return FnvHash(normalized);
}

void StatementStatsEntry::RecordExecution(uint64_t rows, double elapsed_us,
                                          bool ok) {
  calls_.fetch_add(1, std::memory_order_relaxed);
  if (!ok) errors_.fetch_add(1, std::memory_order_relaxed);
  if (rows != 0) rows_returned_.fetch_add(rows, std::memory_order_relaxed);
  const uint64_t us = static_cast<uint64_t>(elapsed_us);
  total_us_.fetch_add(us, std::memory_order_relaxed);
  AtomicMin(min_us_, us);
  AtomicMax(max_us_, us);
  latency_us_.Record(us);
}

StatementStatsEntry* StatementStatsRegistry::Intern(std::string_view sql) {
  std::string normalized = NormalizeStatementText(sql);
  const uint64_t fp = FingerprintStatementText(normalized);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(fp);
  if (it == entries_.end()) {
    it = entries_
             .emplace(fp, std::make_unique<StatementStatsEntry>(
                              fp, std::move(normalized)))
             .first;
  }
  return it->second.get();
}

std::vector<StatementStatsSnapshot> StatementStatsRegistry::Snapshot(
    size_t top) const {
  std::vector<StatementStatsSnapshot> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(entries_.size());
    for (const auto& [fp, entry] : entries_) {
      StatementStatsSnapshot s;
      s.fingerprint = fp;
      s.normalized_sql = entry->normalized_sql_;
      s.calls = entry->calls_.load(std::memory_order_relaxed);
      s.errors = entry->errors_.load(std::memory_order_relaxed);
      s.rows_returned = entry->rows_returned_.load(std::memory_order_relaxed);
      s.plans_built = entry->plans_built_.load(std::memory_order_relaxed);
      s.plan_cache_hits =
          entry->plan_cache_hits_.load(std::memory_order_relaxed);
      s.semi_join_rewrites =
          entry->semi_join_rewrites_.load(std::memory_order_relaxed);
      s.anti_join_rewrites =
          entry->anti_join_rewrites_.load(std::memory_order_relaxed);
      s.total_us = entry->total_us_.load(std::memory_order_relaxed);
      const uint64_t min = entry->min_us_.load(std::memory_order_relaxed);
      s.min_us = min == UINT64_MAX ? 0 : min;
      s.max_us = entry->max_us_.load(std::memory_order_relaxed);
      const obs::HistogramSnapshot h = entry->latency_us_.Snapshot();
      s.p50_us = h.Percentile(50.0);
      s.p99_us = h.Percentile(99.0);
      out.push_back(std::move(s));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const StatementStatsSnapshot& a,
               const StatementStatsSnapshot& b) {
              if (a.total_us != b.total_us) return a.total_us > b.total_us;
              if (a.calls != b.calls) return a.calls > b.calls;
              return a.fingerprint < b.fingerprint;
            });
  if (top != 0 && out.size() > top) out.resize(top);
  return out;
}

std::string StatementStatsRegistry::RenderJson(size_t top) const {
  std::vector<StatementStatsSnapshot> snaps = Snapshot(top);
  std::string out = "[\n";
  for (size_t i = 0; i < snaps.size(); ++i) {
    const StatementStatsSnapshot& s = snaps[i];
    out += "  {\"fingerprint\": \"" + HexFingerprint(s.fingerprint) + "\", ";
    out += "\"sql\": \"" + JsonEscape(s.normalized_sql) + "\", ";
    out += "\"calls\": " + std::to_string(s.calls) + ", ";
    out += "\"errors\": " + std::to_string(s.errors) + ", ";
    out += "\"rows\": " + std::to_string(s.rows_returned) + ", ";
    out += "\"plans_built\": " + std::to_string(s.plans_built) + ", ";
    out += "\"plan_cache_hits\": " + std::to_string(s.plan_cache_hits) + ", ";
    out += "\"semi_join_rewrites\": " + std::to_string(s.semi_join_rewrites) +
           ", ";
    out += "\"anti_join_rewrites\": " + std::to_string(s.anti_join_rewrites) +
           ", ";
    out += "\"total_us\": " + std::to_string(s.total_us) + ", ";
    out += "\"min_us\": " + std::to_string(s.min_us) + ", ";
    out += "\"max_us\": " + std::to_string(s.max_us) + ", ";
    out += "\"p50_us\": " + FormatDouble(s.p50_us, 1) + ", ";
    out += "\"p99_us\": " + FormatDouble(s.p99_us, 1) + "}";
    if (i + 1 < snaps.size()) out += ",";
    out += "\n";
  }
  out += "]\n";
  return out;
}

std::string StatementStatsRegistry::RenderText(size_t top) const {
  std::vector<StatementStatsSnapshot> snaps = Snapshot(top);
  std::string out =
      "fingerprint      | calls | rows | cache-hits | total-us | p99-us | "
      "sql\n";
  for (const StatementStatsSnapshot& s : snaps) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s | %5llu | %4llu | %10llu | %8llu | %6.0f | ",
                  HexFingerprint(s.fingerprint).c_str(),
                  static_cast<unsigned long long>(s.calls),
                  static_cast<unsigned long long>(s.rows_returned),
                  static_cast<unsigned long long>(s.plan_cache_hits),
                  static_cast<unsigned long long>(s.total_us), s.p99_us);
    out += line;
    out += s.normalized_sql;
    out += '\n';
  }
  return out;
}

size_t StatementStatsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void StatementStatsRegistry::Reset() {
  // Entries are only zeroed, never erased: bound statements (the plan
  // cache, live PreparedStatements) hold raw entry pointers, so pointer
  // stability must survive a reset.
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [fp, entry] : entries_) {
    entry->calls_.store(0, std::memory_order_relaxed);
    entry->errors_.store(0, std::memory_order_relaxed);
    entry->rows_returned_.store(0, std::memory_order_relaxed);
    entry->plans_built_.store(0, std::memory_order_relaxed);
    entry->plan_cache_hits_.store(0, std::memory_order_relaxed);
    entry->semi_join_rewrites_.store(0, std::memory_order_relaxed);
    entry->anti_join_rewrites_.store(0, std::memory_order_relaxed);
    entry->total_us_.store(0, std::memory_order_relaxed);
    entry->min_us_.store(UINT64_MAX, std::memory_order_relaxed);
    entry->max_us_.store(0, std::memory_order_relaxed);
    entry->latency_us_.Reset();
  }
}

}  // namespace p3pdb::sqldb
