// Unit tests for the observability substrate (src/obs) and the JSON
// writer it renders through: escaping, registry enrollment and the
// nested-name walk, latency histograms, and the span tracer's ring
// buffer + Chrome trace-event export.
#include <gtest/gtest.h>
#include <malloc.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/json_writer.h"
#include "util/time.h"

namespace aorta {
namespace {

using obs::LatencyHistogram;
using obs::MetricsRegistry;
using obs::Span;
using obs::SpanCat;
using obs::Tracer;
using util::Duration;
using util::JsonWriter;
using util::TimePoint;

// ------------------------------------------------------------ JsonWriter

TEST(JsonWriterTest, EscapesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(JsonWriter::escape("plain"), "plain");
  EXPECT_EQ(JsonWriter::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonWriter::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonWriter::escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(JsonWriter::escape("\r\b\f"), "\\r\\b\\f");
  EXPECT_EQ(JsonWriter::escape(std::string("nul\x01") + "x"), "nul\\u0001x");
}

TEST(JsonWriterTest, CompactObjectAndArray) {
  JsonWriter w(0);
  w.begin_object();
  w.kv("name", "aorta");
  w.kv("n", std::uint64_t{42});
  w.kv("ok", true);
  w.key("xs").begin_array();
  w.value(1).value(2).value(3);
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(), "{\"name\":\"aorta\",\"n\":42,\"ok\":true,\"xs\":[1,2,3]}");
}

TEST(JsonWriterTest, IndentedNestedObjects) {
  JsonWriter w(2);
  w.begin_object();
  w.key("outer").begin_object();
  w.kv("inner", 1);
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.str(), "{\n  \"outer\": {\n    \"inner\": 1\n  }\n}");
}

TEST(JsonWriterTest, DoublePrecisionAndNonFinite) {
  JsonWriter w(0);
  w.begin_object();
  w.kv("p50", 117.6329, 3);
  w.kv("half", 0.5);
  w.kv("nan", std::nan(""), 3);
  w.end_object();
  EXPECT_EQ(w.str(), "{\"p50\":117.633,\"half\":0.500,\"nan\":null}");
}

TEST(JsonWriterTest, StringValuesAreEscaped) {
  JsonWriter w(0);
  w.begin_object();
  w.kv("sql", "SELECT \"x\"\nFROM t");
  w.end_object();
  EXPECT_EQ(w.str(), "{\"sql\":\"SELECT \\\"x\\\"\\nFROM t\"}");
}

// ------------------------------------------------------- LatencyHistogram

TEST(LatencyHistogramTest, SummaryMatchesExactSamples) {
  LatencyHistogram h(0.0, 100.0, 10);
  for (double v : {5.0, 15.0, 15.0, 95.0, 250.0}) h.add(v);
  EXPECT_EQ(h.summary().count(), 5u);
  EXPECT_DOUBLE_EQ(h.summary().max(), 250.0);
  // 250 is out of range: it lands in overflow, not a bucket.
  EXPECT_EQ(h.buckets().overflow(), 1u);
  EXPECT_EQ(h.buckets().bucket(1), 2u);  // [10, 20): both 15s
}

TEST(LatencyHistogramTest, WriteJsonHistoricShape) {
  LatencyHistogram h;
  h.add(100.0);
  JsonWriter w(0);
  h.write_json(w, /*include_buckets=*/false);
  EXPECT_EQ(w.str(), "{\"count\":1,\"p50\":100.000,\"p99\":100.000,\"max\":100.000}");
}

// -------------------------------------------------------- MetricsRegistry

TEST(MetricsRegistryTest, CountersGaugesAndPointReads) {
  MetricsRegistry reg;
  std::uint64_t hits = 0;
  int depth = 3;
  reg.enroll_counter("cache.hits", &hits);
  reg.enroll_gauge("queue.depth", [&] { return std::int64_t{depth}; });
  reg.enroll_gauge_bool("health.enabled", [] { return true; });

  hits = 7;
  EXPECT_EQ(reg.counter_value("cache.hits"), 7u);
  EXPECT_EQ(reg.gauge_value("queue.depth"), 3);
  EXPECT_EQ(reg.counter_value("no.such"), 0u);
  EXPECT_TRUE(reg.contains("health.enabled"));
  EXPECT_EQ(reg.size(), 3u);
}

TEST(MetricsRegistryTest, DottedNamesNestIntoSortedObjects) {
  MetricsRegistry reg;
  std::uint64_t b = 2, a = 1, deep = 9;
  reg.enroll_counter("z.b", &b);
  reg.enroll_counter("z.a", &a);
  reg.enroll_counter("a.x.deep", &deep);
  EXPECT_EQ(reg.snapshot_json(),
            "{\n"
            "  \"a\": {\n"
            "    \"x\": {\n"
            "      \"deep\": 9\n"
            "    }\n"
            "  },\n"
            "  \"z\": {\n"
            "    \"a\": 1,\n"
            "    \"b\": 2\n"
            "  }\n"
            "}");
}

TEST(MetricsRegistryTest, UnenrollPrefixRemovesSection) {
  MetricsRegistry reg;
  std::uint64_t x = 1;
  reg.enroll_counter("tenants.alice.submitted", &x);
  reg.enroll_counter("tenants.bob.submitted", &x);
  reg.enroll_counter("network.sent", &x);
  reg.unenroll_prefix("tenants.");
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_TRUE(reg.contains("network.sent"));
}

TEST(MetricsRegistryTest, SanitizeComponentKeepsDotsOutOfPaths) {
  EXPECT_EQ(MetricsRegistry::sanitize_component("sensor"), "sensor");
  EXPECT_EQ(MetricsRegistry::sanitize_component("192.168.0.90"), "192_168_0_90");
}

TEST(MetricsRegistryTest, ScopedViewPrefixesAndUnenrollsAsAUnit) {
  MetricsRegistry reg;
  std::uint64_t rows0 = 5, rows1 = 9, other = 1;
  reg.enroll_counter("network.sent", &other);

  // The same view schema enrolled twice under indexed namespaces — the
  // shard worker pattern ("shard.<i>.*") — without name collisions.
  MetricsRegistry::Scoped s0 = reg.scoped("shard.0.");
  MetricsRegistry::Scoped s1 = reg.scoped("shard.1.");
  s0.enroll_counter("rows", &rows0);
  s1.enroll_counter("rows", &rows1);
  s0.enroll_gauge("depth", [] { return std::int64_t{3}; });
  EXPECT_EQ(reg.counter_value("shard.0.rows"), 5u);
  EXPECT_EQ(reg.counter_value("shard.1.rows"), 9u);
  EXPECT_EQ(reg.gauge_value("shard.0.depth"), 3);

  // Withdrawing one scope leaves the sibling and everything else intact.
  s0.unenroll_all();
  EXPECT_FALSE(reg.contains("shard.0.rows"));
  EXPECT_FALSE(reg.contains("shard.0.depth"));
  EXPECT_TRUE(reg.contains("shard.1.rows"));
  EXPECT_TRUE(reg.contains("network.sent"));

  // A default-constructed scope is a null-safe no-op enrollment path.
  MetricsRegistry::Scoped dead;
  EXPECT_FALSE(dead.live());
  dead.enroll_counter("rows", &rows0);
  dead.unenroll_all();
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricsRegistryTest, HistogramRendersInline) {
  MetricsRegistry reg;
  LatencyHistogram h;
  h.add(100.0);
  reg.enroll_histogram("svc.latency_ms", &h);
  EXPECT_NE(reg.snapshot_json().find("\"count\": 1"), std::string::npos);
  EXPECT_NE(reg.snapshot_json(true).find("\"buckets\""), std::string::npos);
}

// ----------------------------------------------------------------- Tracer

TimePoint at_us(std::int64_t us) { return TimePoint::from_micros(us); }

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer t(8);
  t.record(SpanCat::kSweep, "sweep", at_us(0), at_us(10));
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.recorded(), 0u);
}

// Bytes malloc has handed out and not had back (arena and mmapped blocks).
std::int64_t heap_in_use() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<std::int64_t>(info.uordblks + info.hblkhd);
}

TEST(TracerTest, DisabledTracerHoldsNoRingUntilItRecords) {
  // A default-capacity ring is 2^16 spans, several MB; a tracer that is
  // off never records, so it holds none of it.
  const std::int64_t before = heap_in_use();
  Tracer t;
  t.record(SpanCat::kSweep, "sweep", at_us(0), at_us(10));
  EXPECT_LT(heap_in_use() - before, 4096);
  EXPECT_EQ(t.capacity(), Tracer::kDefaultCapacity);
  EXPECT_EQ(t.size(), 0u);

  // Enabled later, it records as usual.
  t.set_enabled(true);
  for (int i = 0; i < 3; ++i) {
    t.instant(SpanCat::kEval, "e" + std::to_string(i), at_us(i));
  }
  EXPECT_EQ(t.capacity(), Tracer::kDefaultCapacity);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.recorded(), 3u);
  EXPECT_EQ(t.dropped(), 0u);
  std::vector<Span> spans = t.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans.front().name, "e0");
  EXPECT_EQ(spans.back().name, "e2");
}

TEST(TracerTest, RingWrapsKeepingNewestOldestFirst) {
  Tracer t(4);
  t.set_enabled(true);
  for (int i = 0; i < 6; ++i) {
    t.record(SpanCat::kRpc, "rpc" + std::to_string(i), at_us(i * 10),
             at_us(i * 10 + 5));
  }
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.recorded(), 6u);
  EXPECT_EQ(t.dropped(), 2u);
  std::vector<Span> spans = t.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans.front().name, "rpc2");
  EXPECT_EQ(spans.back().name, "rpc5");
  t.clear();
  EXPECT_EQ(t.size(), 0u);
}

TEST(TracerTest, ChromeJsonHasMetadataAndCompleteEvents) {
  Tracer t(8);
  t.set_enabled(true);
  t.record(SpanCat::kSweep, "sweep:sensor", at_us(1000), at_us(3500),
           "2 device(s)");
  t.instant(SpanCat::kEval, "eval:watch", at_us(3500));
  std::string json = t.chrome_json();
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Thread metadata names the per-category tracks.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"sweep\""), std::string::npos);
  // The complete event carries virtual-clock ts/dur in microseconds.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2500"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"eval:watch\""), std::string::npos);
}

TEST(TracerTest, SpanCatNamesCoverTaxonomy) {
  EXPECT_EQ(obs::span_cat_name(SpanCat::kParse), "parse");
  EXPECT_EQ(obs::span_cat_name(SpanCat::kRegister), "register");
  EXPECT_EQ(obs::span_cat_name(SpanCat::kSweep), "sweep");
  EXPECT_EQ(obs::span_cat_name(SpanCat::kRpc), "rpc");
  EXPECT_EQ(obs::span_cat_name(SpanCat::kEval), "eval");
  EXPECT_EQ(obs::span_cat_name(SpanCat::kAction), "action");
  EXPECT_EQ(obs::span_cat_name(SpanCat::kDelivery), "delivery");
  EXPECT_EQ(obs::span_cat_name(SpanCat::kEpoch), "epoch");
  EXPECT_EQ(obs::span_cat_name(SpanCat::kHealth), "health");
}

}  // namespace
}  // namespace aorta
