#include "obs/slow_log.h"

#include <chrono>
#include <cstdio>

#include "common/string_util.h"

namespace p3pdb::obs {

const char* SlowQueryKindName(SlowQueryEntry::Kind kind) {
  switch (kind) {
    case SlowQueryEntry::Kind::kSlow:
      return "slow";
    case SlowQueryEntry::Kind::kTraceSample:
      return "trace-sample";
  }
  return "?";
}

SlowQueryLog::SlowQueryLog(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_);
}

void SlowQueryLog::Add(SlowQueryEntry entry) {
  entry.unix_millis =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  std::lock_guard<std::mutex> lock(mu_);
  entry.sequence = ++total_;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(entry));
    return;
  }
  ring_[next_] = std::move(entry);
  next_ = (next_ + 1) % capacity_;
}

std::vector<SlowQueryEntry> SlowQueryLog::Entries(
    std::optional<SlowQueryEntry::Kind> kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SlowQueryEntry> out;
  out.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    const SlowQueryEntry& e = ring_[(next_ + i) % ring_.size()];
    if (kind.has_value() && e.kind != *kind) continue;
    out.push_back(e);
  }
  return out;
}

std::string SlowQueryLog::RenderJson(
    std::optional<SlowQueryEntry::Kind> kind) const {
  std::vector<SlowQueryEntry> entries = Entries(kind);
  std::string out = "[\n";
  for (size_t i = entries.size(); i-- > 0;) {
    const SlowQueryEntry& e = entries[i];
    char fp[17];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(e.fingerprint));
    out += "  {\"seq\": " + std::to_string(e.sequence) + ", ";
    out += "\"kind\": \"" + std::string(SlowQueryKindName(e.kind)) + "\", ";
    out += "\"unix_millis\": " + std::to_string(e.unix_millis) + ", ";
    out += "\"fingerprint\": \"" + std::string(fp) + "\", ";
    out += "\"elapsed_us\": " + FormatDouble(e.elapsed_us, 1) + ", ";
    out += "\"sql\": \"" + JsonEscape(e.sql) + "\", ";
    out += "\"params\": \"" + JsonEscape(e.params) + "\", ";
    out += "\"plan\": \"" + JsonEscape(e.plan) + "\"}";
    if (i != 0) out += ",";
    out += "\n";
  }
  out += "]\n";
  return out;
}

uint64_t SlowQueryLog::total_captured() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

}  // namespace p3pdb::obs
