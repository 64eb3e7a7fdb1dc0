// Tests for the observability subsystem: histogram bucket boundaries and
// percentile math (pure integer arithmetic, fully deterministic), the
// metrics registry's render formats, trace span nesting/rendering, and
// that the JSON renderers escape request-supplied text.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/slow_log.h"
#include "obs/trace.h"

namespace p3pdb::obs {
namespace {

/// Strict JSON syntax check (RFC 8259; numbers only loosely): whether a
/// renderer's output would parse.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool Valid() {
    SkipSpace();
    if (!Value()) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return Composite('}', /*object=*/true);
      case '[':
        return Composite(']', /*object=*/false);
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Composite(char close, bool object) {
    ++pos_;
    SkipSpace();
    if (Eat(close)) return true;
    for (;;) {
      if (object) {
        if (!String()) return false;
        SkipSpace();
        if (!Eat(':')) return false;
        SkipSpace();
      }
      if (!Value()) return false;
      SkipSpace();
      if (Eat(close)) return true;
      if (!Eat(',')) return false;
      SkipSpace();
    }
  }

  bool String() {
    if (!Eat('"')) return false;
    while (pos_ < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_++]);
      if (c == '"') return true;
      if (c < 0x20) return false;  // raw control characters are invalid
      if (c != '\\') continue;
      if (pos_ >= text_.size()) return false;
      const char escape = text_[pos_++];
      if (escape == 'u') {
        for (int i = 0; i < 4; ++i) {
          if (pos_ >= text_.size() ||
              !std::isxdigit(static_cast<unsigned char>(text_[pos_++]))) {
            return false;
          }
        }
      } else if (std::string_view("\"\\/bfnrt").find(escape) ==
                 std::string_view::npos) {
        return false;
      }
    }
    return false;
  }

  bool Number() {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            std::string_view("+-.eE").find(text_[pos_]) !=
                std::string_view::npos)) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool Eat(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::string_view(" \t\r\n").find(text_[pos_]) !=
               std::string_view::npos) {
      ++pos_;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

TEST(JsonCheckerTest, RejectsRawControlCharactersInStrings) {
  EXPECT_TRUE(
      JsonChecker(R"({"a": ["b\n\u0001", 1.5, true, null]})").Valid());
  EXPECT_FALSE(JsonChecker("{\"a\": \"b\nc\"}").Valid());
  EXPECT_FALSE(JsonChecker("{\"a\": \"b\x01\"}").Valid());
  EXPECT_FALSE(JsonChecker(R"({"a": "b\q"})").Valid());
}

// A traced match puts the request's path into span attributes, so the
// span JSON must stay valid whatever bytes the path holds.
TEST(JsonRenderTest, SpanAttributeWithControlCharactersRendersValidJson) {
  TraceContext trace;
  {
    ScopedSpan span(&trace, "match");
    span.SetAttr("uri", "/a\"b\n\x01");
  }
  const std::string json = trace.RenderJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find(R"(/a\"b\n\u0001)"), std::string::npos) << json;
}

TEST(JsonRenderTest, SlowLogEntryWithControlCharactersRendersValidJson) {
  SlowQueryLog log(2);
  SlowQueryEntry entry;
  entry.sql = "SELECT '\n\x01'";
  entry.params = "[\"\n\x01\"]";
  entry.plan = "Scan\n\x01";
  log.Add(std::move(entry));
  const std::string json = log.RenderJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find(R"(SELECT '\n\u0001')"), std::string::npos) << json;
}

// -- histogram buckets -------------------------------------------------------

TEST(HistogramBucketsTest, BoundariesArePowersOfTwo) {
  EXPECT_EQ(HistogramBucketUpperBound(0), 1u);
  EXPECT_EQ(HistogramBucketUpperBound(1), 2u);
  EXPECT_EQ(HistogramBucketUpperBound(2), 4u);
  EXPECT_EQ(HistogramBucketUpperBound(10), 1024u);
}

TEST(HistogramBucketsTest, IndexMatchesBoundaryDefinition) {
  // Bucket 0 covers [0, 1]; bucket i covers (2^(i-1), 2^i].
  EXPECT_EQ(HistogramBucketIndex(0), 0u);
  EXPECT_EQ(HistogramBucketIndex(1), 0u);
  EXPECT_EQ(HistogramBucketIndex(2), 1u);
  EXPECT_EQ(HistogramBucketIndex(3), 2u);
  EXPECT_EQ(HistogramBucketIndex(4), 2u);
  EXPECT_EQ(HistogramBucketIndex(5), 3u);
  EXPECT_EQ(HistogramBucketIndex(1024), 10u);
  EXPECT_EQ(HistogramBucketIndex(1025), 11u);
}

TEST(HistogramBucketsTest, EveryValueLandsInItsOwnBucketRange) {
  for (uint64_t v : {0ull, 1ull, 2ull, 7ull, 100ull, 4096ull, 999999ull}) {
    size_t i = HistogramBucketIndex(v);
    EXPECT_LE(v, HistogramBucketUpperBound(i)) << v;
    if (i > 0) {
      EXPECT_GT(v, HistogramBucketUpperBound(i - 1)) << v;
    }
  }
}

TEST(HistogramBucketsTest, HugeValuesClampToLastBucket) {
  EXPECT_EQ(HistogramBucketIndex(~0ull), kHistogramBuckets - 1);
}

// -- percentile math ---------------------------------------------------------

TEST(HistogramPercentileTest, EmptyIsZero) {
  HistogramSnapshot snap;
  EXPECT_EQ(snap.Percentile(50.0), 0.0);
  EXPECT_EQ(snap.Average(), 0.0);
}

TEST(HistogramPercentileTest, SingleBucketReturnsItsBoundary) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(5);  // bucket (4,8] -> boundary 8
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_EQ(snap.sum, 500u);
  EXPECT_EQ(snap.Percentile(50.0), 8.0);
  EXPECT_EQ(snap.Percentile(99.0), 8.0);
}

TEST(HistogramPercentileTest, SplitDistribution) {
  Histogram h;
  for (int i = 0; i < 50; ++i) h.Record(1);    // bucket [0,1]
  for (int i = 0; i < 50; ++i) h.Record(100);  // bucket (64,128]
  HistogramSnapshot snap = h.Snapshot();
  // Nearest-rank: p50 -> rank 50 (still in the first bucket), p90/p99 in
  // the second.
  EXPECT_EQ(snap.Percentile(50.0), 1.0);
  EXPECT_EQ(snap.Percentile(90.0), 128.0);
  EXPECT_EQ(snap.Percentile(99.0), 128.0);
}

// -- registry and rendering --------------------------------------------------

TEST(MetricsRegistryTest, InstrumentsAreStableAndNamed) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("requests_total");
  c->Increment();
  c->Increment(4);
  EXPECT_EQ(registry.GetCounter("requests_total"), c);  // same instrument
  registry.GetGauge("queue_depth")->Set(7);
  registry.GetHistogram("latency_us")->Record(3);

  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("requests_total"), 5u);
  EXPECT_EQ(snap.gauges.at("queue_depth"), 7);
  EXPECT_EQ(snap.histograms.at("latency_us").count, 1u);
}

TEST(MetricsRegistryTest, RenderTextIsPrometheusShaped) {
  MetricsRegistry registry;
  registry.GetCounter("hits_total")->Increment(3);
  registry.GetHistogram("latency_us")->Record(5);
  std::string text = registry.RenderText();
  EXPECT_NE(text.find("# TYPE hits_total counter"), std::string::npos)
      << text;
  EXPECT_NE(text.find("hits_total 3"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE latency_us histogram"), std::string::npos)
      << text;
  EXPECT_NE(text.find("latency_us_bucket{le=\"8\"} 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("latency_us_bucket{le=\"+Inf\"} 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("latency_us_sum 5"), std::string::npos) << text;
  EXPECT_NE(text.find("latency_us_count 1"), std::string::npos) << text;
  EXPECT_NE(text.find("latency_us{quantile=\"0.50\"} 8.0"),
            std::string::npos)
      << text;
}

TEST(MetricsRegistryTest, RenderJsonCarriesTheSameNumbers) {
  MetricsRegistry registry;
  registry.GetCounter("hits_total")->Increment(3);
  registry.GetGauge("depth")->Set(-2);
  registry.GetHistogram("latency_us")->Record(5);
  std::string json = registry.RenderJson();
  EXPECT_NE(json.find("\"hits_total\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"depth\": -2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p50\": 8.0"), std::string::npos) << json;
}

TEST(MetricsRegistryTest, CollectorValuesAppearBesidePushedInstruments) {
  MetricsRegistry registry;
  registry.GetCounter("pushed_total")->Increment(2);
  registry.GetGauge("pushed_depth")->Set(4);
  int calls = 0;
  uint64_t source = 40;
  registry.AddCollector([&](MetricsSnapshot* snapshot) {
    ++calls;
    snapshot->counters["pulled_total"] = source;
    snapshot->gauges["pulled_depth"] = -3;
  });

  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(snap.counters.at("pushed_total"), 2u);
  EXPECT_EQ(snap.counters.at("pulled_total"), 40u);
  EXPECT_EQ(snap.gauges.at("pushed_depth"), 4);
  EXPECT_EQ(snap.gauges.at("pulled_depth"), -3);

  // The collector reads its source afresh on every render, once each.
  source = 41;
  const std::string text = registry.RenderText();
  EXPECT_EQ(calls, 2);
  EXPECT_NE(text.find("# TYPE pulled_total counter\npulled_total 41\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE pulled_depth gauge\npulled_depth -3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("pushed_total 2"), std::string::npos) << text;

  source = 42;
  const std::string json = registry.RenderJson();
  EXPECT_EQ(calls, 3);
  EXPECT_NE(json.find("\"pulled_total\": 42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pulled_depth\": -3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pushed_total\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pushed_depth\": 4"), std::string::npos) << json;
}

TEST(MetricsRegistryTest, ConcurrentRecordingLosesNothing) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("ops_total");
  Histogram* h = registry.GetHistogram("latency_us");
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        c->Increment();
        h->Record(static_cast<uint64_t>(i % 7));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c->value(), uint64_t{kThreads} * kOpsPerThread);
  HistogramSnapshot snap = h->Snapshot();
  EXPECT_EQ(snap.count, uint64_t{kThreads} * kOpsPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
}

// -- exposition edge cases ---------------------------------------------------

TEST(SanitizeMetricNameTest, PassesThroughValidNames) {
  EXPECT_EQ(SanitizeMetricName("p3p_matches_total"), "p3p_matches_total");
  EXPECT_EQ(SanitizeMetricName("ns:subsystem_metric"),
            "ns:subsystem_metric");
}

TEST(SanitizeMetricNameTest, ReplacesInvalidCharacters) {
  EXPECT_EQ(SanitizeMetricName("latency.us"), "latency_us");
  EXPECT_EQ(SanitizeMetricName("a-b c/d"), "a_b_c_d");
  EXPECT_EQ(SanitizeMetricName("héllo"), "h__llo");  // multi-byte UTF-8
}

TEST(SanitizeMetricNameTest, LeadingDigitGetsPrefixed) {
  EXPECT_EQ(SanitizeMetricName("2xx_total"), "_2xx_total");
  EXPECT_EQ(SanitizeMetricName(""), "_");
}

TEST(SanitizeMetricNameTest, RegistryAppliesSanitizationOnLookup) {
  // "latency.us" and "latency_us" are the same instrument after
  // sanitization — a scrape must never see an invalid name.
  MetricsRegistry registry;
  Counter* dotted = registry.GetCounter("latency.us_total");
  EXPECT_EQ(registry.GetCounter("latency_us_total"), dotted);
  dotted->Increment();
  EXPECT_NE(registry.RenderText().find("latency_us_total 1"),
            std::string::npos);
}

TEST(MetricsRegistryTest, EmptyHistogramStillRendersBucketsAndSum) {
  MetricsRegistry registry;
  registry.GetHistogram("idle_us");
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("idle_us_bucket{le=\"+Inf\"} 0"), std::string::npos)
      << text;
  EXPECT_NE(text.find("idle_us_sum 0"), std::string::npos) << text;
  EXPECT_NE(text.find("idle_us_count 0"), std::string::npos) << text;
}

TEST(MetricsRegistryTest, HistogramBucketCountsAreCumulative) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("latency_us");
  h->Record(1);    // bucket le="1"
  h->Record(5);    // bucket le="8"
  h->Record(5);
  const std::string text = registry.RenderText();
  // Prometheus buckets are cumulative: le="8" includes the le="1" sample.
  EXPECT_NE(text.find("latency_us_bucket{le=\"1\"} 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("latency_us_bucket{le=\"8\"} 3"), std::string::npos)
      << text;
  EXPECT_NE(text.find("latency_us_bucket{le=\"+Inf\"} 3"), std::string::npos)
      << text;
  EXPECT_NE(text.find("latency_us_sum 11"), std::string::npos) << text;
  EXPECT_NE(text.find("latency_us_count 3"), std::string::npos) << text;
}

TEST(MetricsRegistryTest, InfoRendersOnceWithEscapedLabels) {
  MetricsRegistry registry;
  registry.SetInfo("p3p_build_info", {{"git_sha", "abc123"},
                                      {"note", "a\"quote\" and \\slash\\"}});
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("# TYPE p3p_build_info gauge"), std::string::npos)
      << text;
  EXPECT_NE(
      text.find("p3p_build_info{git_sha=\"abc123\",note=\"a\\\"quote\\\" "
                "and \\\\slash\\\\\"} 1"),
      std::string::npos)
      << text;
  // Re-setting replaces, not duplicates.
  registry.SetInfo("p3p_build_info", {{"git_sha", "def456"}});
  const std::string again = registry.RenderText();
  EXPECT_EQ(again.find("abc123"), std::string::npos) << again;
  EXPECT_NE(again.find("def456"), std::string::npos) << again;
  // Snapshot carries the labels too.
  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.infos.count("p3p_build_info"), 1u);
  EXPECT_EQ(snap.infos.at("p3p_build_info")[0].second, "def456");
}

TEST(MetricsRegistryTest, NoInfosMeansNoInfoLines) {
  MetricsRegistry registry;
  registry.GetCounter("hits_total")->Increment();
  EXPECT_EQ(registry.RenderText().find("_info"), std::string::npos);
  EXPECT_EQ(registry.RenderJson().find("\"infos\""), std::string::npos);
}

TEST(MetricsRegistryTest, SnapshotIsConsistentUnderConcurrentChurn) {
  // Writers hammer counters/histograms/infos while readers snapshot and
  // render; run under TSan in CI. Invariant checked on every snapshot: the
  // histogram's bucket total equals its count (both captured together).
  MetricsRegistry registry;
  Counter* ops = registry.GetCounter("ops_total");
  Histogram* lat = registry.GetHistogram("lat_us");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        ops->Increment();
        lat->Record(i++ % 100);
        if (i % 64 == 0) {
          registry.SetInfo("p3p_build_info",
                           {{"git_sha", t % 2 == 0 ? "aaa" : "bbb"}});
        }
      }
    });
  }
  for (int r = 0; r < 50; ++r) {
    // Under churn the relaxed counters drift between individual loads, so
    // no numeric invariant holds mid-flight; the point of this loop is
    // that snapshotting and rendering race the writers (TSan verifies no
    // data race) and never crash or produce empty output.
    MetricsSnapshot snap = registry.Snapshot();
    EXPECT_EQ(snap.histograms.count("lat_us"), 1u);
    EXPECT_FALSE(registry.RenderText().empty());
    EXPECT_FALSE(registry.RenderJson().empty());
  }
  stop.store(true);
  for (auto& w : writers) w.join();

  // Quiesced: totals must agree exactly.
  MetricsSnapshot snap = registry.Snapshot();
  const HistogramSnapshot& h = snap.histograms.at("lat_us");
  uint64_t bucket_total = 0;
  for (uint64_t b : h.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, h.count);
  EXPECT_EQ(snap.counters.at("ops_total"), h.count);
}

// -- trace spans -------------------------------------------------------------

TEST(TraceTest, SpansNestAndCarryData) {
  TraceContext trace;
  {
    ScopedSpan outer(&trace, "match");
    outer.SetAttr("engine", "sql");
    {
      ScopedSpan inner(&trace, "rule-query");
      inner.AddCount("rows", 2);
      inner.AddCount("rows", 3);  // accumulates into one counter
    }
    ScopedSpan sibling(&trace, "ref-lookup");
  }
  const TraceSpan* root = trace.root();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->name, "match");
  ASSERT_EQ(root->children.size(), 2u);
  EXPECT_EQ(root->children[0]->name, "rule-query");
  EXPECT_EQ(root->children[0]->CounterValue("rows"), 5u);
  EXPECT_EQ(root->children[1]->name, "ref-lookup");
  EXPECT_GE(root->elapsed_us, root->children[0]->elapsed_us);

  EXPECT_EQ(trace.FindSpan("ref-lookup"), root->children[1].get());
  EXPECT_EQ(trace.FindSpan("absent"), nullptr);
  EXPECT_EQ(root->FindChild("rule-query"), root->children[0].get());
}

TEST(TraceTest, NullContextIsANoOp) {
  ScopedSpan span(nullptr, "anything");
  EXPECT_FALSE(span.active());
  span.SetAttr("k", "v");   // must not crash
  span.AddCount("n", 1);
  span.End();
}

TEST(TraceTest, ContextIsReusableAcrossRequests) {
  TraceContext trace;
  { ScopedSpan first(&trace, "first"); }
  ASSERT_NE(trace.root(), nullptr);
  EXPECT_EQ(trace.root()->name, "first");
  { ScopedSpan second(&trace, "second"); }
  EXPECT_EQ(trace.root()->name, "second");  // replaced, not nested
  EXPECT_TRUE(trace.root()->children.empty());
}

TEST(TraceTest, RenderTextIndentsChildren) {
  TraceContext trace;
  {
    ScopedSpan outer(&trace, "match");
    outer.SetAttr("engine", "sql");
    ScopedSpan inner(&trace, "ref-lookup");
    inner.AddCount("rows", 1);
  }
  std::string text = trace.RenderText();
  EXPECT_NE(text.find("match "), std::string::npos) << text;
  EXPECT_NE(text.find("{engine=sql}"), std::string::npos) << text;
  EXPECT_NE(text.find("\n  ref-lookup "), std::string::npos) << text;
  EXPECT_NE(text.find("[rows=1]"), std::string::npos) << text;

  std::string json = trace.RenderJson();
  EXPECT_NE(json.find("\"name\": \"match\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\": \"ref-lookup\""), std::string::npos)
      << json;
}

}  // namespace
}  // namespace p3pdb::obs
