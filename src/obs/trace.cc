#include "obs/trace.h"

#include "common/string_util.h"

namespace p3pdb::obs {

uint64_t TraceSpan::CounterValue(std::string_view key) const {
  for (const auto& [k, v] : counters) {
    if (k == key) return v;
  }
  return 0;
}

const TraceSpan* TraceSpan::FindChild(std::string_view child_name) const {
  for (const auto& child : children) {
    if (child->name == child_name) return child.get();
  }
  return nullptr;
}

TraceSpan* TraceContext::BeginSpan(std::string_view name) {
  auto span = std::make_unique<TraceSpan>();
  span->name = std::string(name);
  TraceSpan* raw = span.get();
  if (open_.empty()) {
    root_ = std::move(span);  // new request: replace any previous tree
  } else {
    open_.back().first->children.push_back(std::move(span));
  }
  open_.emplace_back(raw, std::chrono::steady_clock::now());
  return raw;
}

void TraceContext::EndSpan() {
  if (open_.empty()) return;
  auto [span, start] = open_.back();
  open_.pop_back();
  span->elapsed_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - start)
          .count();
}

namespace {

const TraceSpan* FindSpanIn(const TraceSpan* span, std::string_view name) {
  if (span == nullptr) return nullptr;
  if (span->name == name) return span;
  for (const auto& child : span->children) {
    if (const TraceSpan* found = FindSpanIn(child.get(), name)) return found;
  }
  return nullptr;
}

void RenderSpanText(const TraceSpan& span, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += span.name + " " + FormatDouble(span.elapsed_us, 1) + "us";
  if (!span.attributes.empty()) {
    *out += " {";
    for (size_t i = 0; i < span.attributes.size(); ++i) {
      if (i > 0) *out += ", ";
      *out += span.attributes[i].first + "=" + span.attributes[i].second;
    }
    *out += "}";
  }
  if (!span.counters.empty()) {
    *out += " [";
    for (size_t i = 0; i < span.counters.size(); ++i) {
      if (i > 0) *out += ", ";
      *out += span.counters[i].first + "=" +
              std::to_string(span.counters[i].second);
    }
    *out += "]";
  }
  *out += "\n";
  for (const auto& child : span.children) {
    RenderSpanText(*child, depth + 1, out);
  }
}

void RenderSpanJson(const TraceSpan& span, std::string* out) {
  *out += "{\"name\": \"" + JsonEscape(span.name) + "\", \"elapsed_us\": " +
          FormatDouble(span.elapsed_us, 1);
  if (!span.attributes.empty()) {
    *out += ", \"attributes\": {";
    for (size_t i = 0; i < span.attributes.size(); ++i) {
      if (i > 0) *out += ", ";
      *out += "\"" + JsonEscape(span.attributes[i].first) + "\": \"" +
              JsonEscape(span.attributes[i].second) + "\"";
    }
    *out += "}";
  }
  if (!span.counters.empty()) {
    *out += ", \"counters\": {";
    for (size_t i = 0; i < span.counters.size(); ++i) {
      if (i > 0) *out += ", ";
      *out += "\"" + JsonEscape(span.counters[i].first) + "\": " +
              std::to_string(span.counters[i].second);
    }
    *out += "}";
  }
  if (!span.children.empty()) {
    *out += ", \"children\": [";
    for (size_t i = 0; i < span.children.size(); ++i) {
      if (i > 0) *out += ", ";
      RenderSpanJson(*span.children[i], out);
    }
    *out += "]";
  }
  *out += "}";
}

}  // namespace

const TraceSpan* TraceContext::FindSpan(std::string_view name) const {
  return FindSpanIn(root_.get(), name);
}

std::string TraceContext::RenderText() const {
  std::string out;
  if (root_ != nullptr) RenderSpanText(*root_, 0, &out);
  return out;
}

std::string TraceContext::RenderJson() const {
  std::string out;
  if (root_ == nullptr) return "{}\n";
  RenderSpanJson(*root_, &out);
  out += "\n";
  return out;
}

void ScopedSpan::AddCount(std::string_view key, uint64_t delta) {
  if (span_ == nullptr) return;
  for (auto& [k, v] : span_->counters) {
    if (k == key) {
      v += delta;
      return;
    }
  }
  span_->counters.emplace_back(std::string(key), delta);
}

}  // namespace p3pdb::obs
