#include "obs/metrics.h"

#include <bit>

#include "common/string_util.h"

namespace p3pdb::obs {

namespace {

bool IsValidMetricChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == ':';
}

/// Escapes a label value for exposition (`\`, `"`, newline).
std::string EscapeLabelValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\' || c == '"') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

std::string RenderInfoLine(const std::string& name, const InfoLabels& labels) {
  std::string out = name + "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i != 0) out += ",";
    out += SanitizeMetricName(labels[i].first) + "=\"" +
           EscapeLabelValue(labels[i].second) + "\"";
  }
  out += "} 1\n";
  return out;
}

}  // namespace

std::string SanitizeMetricName(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  if (!name.empty() && name[0] >= '0' && name[0] <= '9') out += '_';
  for (char c : name) out += IsValidMetricChar(c) ? c : '_';
  if (out.empty()) out = "_";
  return out;
}

uint64_t HistogramBucketUpperBound(size_t i) {
  if (i >= kHistogramBuckets) i = kHistogramBuckets - 1;
  return uint64_t{1} << i;
}

size_t HistogramBucketIndex(uint64_t value) {
  if (value <= 1) return 0;
  size_t i = static_cast<size_t>(std::bit_width(value - 1));
  return i < kHistogramBuckets ? i : kHistogramBuckets - 1;
}

double HistogramSnapshot::Percentile(double p) const {
  if (count == 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 100.0) p = 100.0;
  // Nearest-rank: the smallest bucket whose cumulative count reaches
  // ceil(p/100 * count), with rank at least 1.
  uint64_t rank = static_cast<uint64_t>(p / 100.0 * static_cast<double>(count));
  if (static_cast<double>(rank) < p / 100.0 * static_cast<double>(count)) {
    ++rank;
  }
  if (rank == 0) rank = 1;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) {
      return static_cast<double>(HistogramBucketUpperBound(i));
    }
  }
  return static_cast<double>(HistogramBucketUpperBound(kHistogramBuckets - 1));
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return snap;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::string key = SanitizeMetricName(name);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(key);
  if (it == counters_.end()) {
    it = counters_.emplace(std::move(key), std::make_unique<Counter>()).first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::string key = SanitizeMetricName(name);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(key);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::move(key), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  std::string key = SanitizeMetricName(name);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(key);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::move(key), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

void MetricsRegistry::SetInfo(std::string_view name, InfoLabels labels) {
  std::string key = SanitizeMetricName(name);
  std::lock_guard<std::mutex> lock(mu_);
  infos_[std::move(key)] = std::move(labels);
}

void MetricsRegistry::AddCollector(Collector collector) {
  std::lock_guard<std::mutex> lock(mu_);
  collectors_.push_back(std::move(collector));
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::vector<Collector> collectors;
  {
    std::lock_guard<std::mutex> lock(mu_);
    collectors = collectors_;
    for (const auto& [name, counter] : counters_) {
      snap.counters[name] = counter->value();
    }
    for (const auto& [name, gauge] : gauges_) {
      snap.gauges[name] = gauge->value();
    }
    for (const auto& [name, histogram] : histograms_) {
      snap.histograms[name] = histogram->Snapshot();
    }
    for (const auto& [name, labels] : infos_) snap.infos[name] = labels;
  }
  for (const Collector& collect : collectors) collect(&snap);
  return snap;
}

std::string MetricsRegistry::RenderText() const {
  MetricsSnapshot snap = Snapshot();
  std::string out;
  for (const auto& [name, labels] : snap.infos) {
    out += "# TYPE " + name + " gauge\n";
    out += RenderInfoLine(name, labels);
  }
  for (const auto& [name, value] : snap.counters) {
    out += "# TYPE " + name + " counter\n";
    out += name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    out += "# TYPE " + name + " gauge\n";
    out += name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    out += "# TYPE " + name + " histogram\n";
    uint64_t cumulative = 0;
    for (size_t i = 0; i < kHistogramBuckets; ++i) {
      cumulative += h.buckets[i];
      out += name + "_bucket{le=\"" +
             std::to_string(HistogramBucketUpperBound(i)) + "\"} " +
             std::to_string(cumulative) + "\n";
      // Collapse the empty tail into the single +Inf line.
      if (cumulative == h.count) break;
    }
    out += name + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += name + "_sum " + std::to_string(h.sum) + "\n";
    out += name + "_count " + std::to_string(h.count) + "\n";
    for (double q : {0.5, 0.9, 0.99}) {
      out += name + "{quantile=\"" + FormatDouble(q, 2) + "\"} " +
             FormatDouble(h.Percentile(q * 100.0), 1) + "\n";
    }
  }
  return out;
}

std::string MetricsRegistry::RenderJson() const {
  MetricsSnapshot snap = Snapshot();
  std::string out = "{\n";
  // Emitted only when SetInfo was called, so registries without info
  // metrics render exactly as they always did.
  if (!snap.infos.empty()) {
    out += "  \"infos\": {";
    bool first_info = true;
    for (const auto& [name, labels] : snap.infos) {
      out += first_info ? "\n" : ",\n";
      out += "    \"" + name + "\": {";
      for (size_t i = 0; i < labels.size(); ++i) {
        if (i != 0) out += ", ";
        out += "\"" + SanitizeMetricName(labels[i].first) + "\": \"" +
               JsonEscape(labels[i].second) + "\"";
      }
      out += "}";
      first_info = false;
    }
    out += "\n  },\n";
  }
  out += "  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    out += first ? "\n" : ",\n";
    out += "    \"" + name + "\": " + std::to_string(value);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    out += first ? "\n" : ",\n";
    out += "    \"" + name + "\": " + std::to_string(value);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    out += first ? "\n" : ",\n";
    out += "    \"" + name + "\": {\"count\": " + std::to_string(h.count) +
           ", \"sum\": " + std::to_string(h.sum) +
           ", \"avg\": " + FormatDouble(h.Average(), 1) +
           ", \"p50\": " + FormatDouble(h.Percentile(50.0), 1) +
           ", \"p90\": " + FormatDouble(h.Percentile(90.0), 1) +
           ", \"p99\": " + FormatDouble(h.Percentile(99.0), 1) + "}";
    first = false;
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

}  // namespace p3pdb::obs
