// Tests for the sharded czar/worker query plane (src/shard): the fragment
// wire format (spec fields, exact rows and row-group codecs, FNV-1a
// partition), the deterministic merger, the czar's planning limits,
// end-to-end SELECT partial merging and continuous-row delivery across
// shards (one results message per worker flush), worker failure/recovery
// supervision, and the QueryService num_shards routing.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/aorta.h"
#include "server/service.h"
#include "server/session.h"
#include "net/rpc.h"
#include "shard/czar.h"
#include "shard/fragment.h"
#include "shard/merger.h"
#include "shard/plane.h"
#include "query/parser.h"
#include "util/rng.h"

namespace aorta {
namespace {

using server::Delivery;
using server::QueryService;
using server::ServiceConfig;
using server::SessionId;
using shard::FragmentSpec;
using shard::Merger;
using shard::Plane;
using util::Duration;
using util::TimePoint;

// ------------------------------------------------------ fragment codec

TEST(FragmentTest, Fnv1aMatchesReferenceVectors) {
  // Published FNV-1a 64-bit test vectors; the partition function must be
  // stable across toolchains (committed baselines depend on it).
  EXPECT_EQ(shard::fnv1a64(""), 14695981039346656037ULL);
  EXPECT_EQ(shard::fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(shard::fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(FragmentTest, ShardOfIsStableAndInRange) {
  for (int n : {1, 2, 4, 8}) {
    for (int i = 0; i < 32; ++i) {
      std::string id = "m" + std::to_string(i);
      int s = shard::shard_of(id, n);
      EXPECT_GE(s, 0);
      EXPECT_LT(s, n);
      EXPECT_EQ(s, shard::shard_of(id, n));  // pure function of the id
    }
  }
}

TEST(FragmentTest, SpecFieldsRoundTrip) {
  FragmentSpec spec;
  spec.name = "s1/push";
  spec.sql = "SELECT s.temp FROM sensor s WHERE s.temp > 30";
  spec.once = true;
  spec.gen = 7;
  spec.id = 42;

  net::Message msg;
  shard::fragment_to_fields(spec, &msg);
  FragmentSpec back = shard::fragment_from_fields(msg);
  EXPECT_EQ(back.name, spec.name);
  EXPECT_EQ(back.sql, spec.sql);
  EXPECT_EQ(back.once, spec.once);
  EXPECT_EQ(back.gen, spec.gen);
  EXPECT_EQ(back.id, spec.id);
}

TEST(FragmentTest, RowsCodecRoundTripsEveryValueType) {
  std::vector<query::TimestampedRow> rows;
  query::TimestampedRow r1;
  r1.at = TimePoint() + Duration::millis(1234);
  r1.row = {{"flag", device::Value{true}},
            {"count", device::Value{std::int64_t{-42}}},
            {"temp", device::Value{0.1}},  // not exactly representable: the
                                           // raw-bits round-trip must hold
            {"name", device::Value{std::string("a:b,c 7:d")}},
            {"none", device::Value{}}};
  rows.push_back(r1);
  query::TimestampedRow r2;
  r2.at = TimePoint() + Duration::seconds(9.0);
  r2.degraded = true;
  r2.row = {{"loc", device::Value{device::Location{1.5, -2.25, 0.125}}},
            {"empty", device::Value{std::string("")}},
            {"tiny", device::Value{-1.0e-9}}};
  rows.push_back(r2);

  std::string payload = shard::encode_rows(rows);
  std::vector<query::TimestampedRow> back;
  ASSERT_TRUE(shard::decode_rows(payload, &back));
  ASSERT_EQ(back.size(), 2u);

  EXPECT_EQ(back[0].at, r1.at);
  EXPECT_FALSE(back[0].degraded);
  ASSERT_EQ(back[0].row.size(), 5u);
  EXPECT_EQ(back[0].row[0].first, "flag");
  EXPECT_EQ(std::get<bool>(back[0].row[0].second), true);
  EXPECT_EQ(std::get<std::int64_t>(back[0].row[1].second), -42);
  EXPECT_EQ(std::get<double>(back[0].row[2].second), 0.1);  // exact
  EXPECT_EQ(std::get<std::string>(back[0].row[3].second), "a:b,c 7:d");
  EXPECT_TRUE(
      std::holds_alternative<std::monostate>(back[0].row[4].second));

  EXPECT_EQ(back[1].at, r2.at);
  EXPECT_TRUE(back[1].degraded);
  auto loc = std::get<device::Location>(back[1].row[0].second);
  EXPECT_EQ(loc.x, 1.5);
  EXPECT_EQ(loc.y, -2.25);
  EXPECT_EQ(loc.z, 0.125);
  EXPECT_EQ(std::get<std::string>(back[1].row[1].second), "");
  EXPECT_EQ(std::get<double>(back[1].row[2].second), -1.0e-9);

  // Deterministic: re-encoding the decoded rows is byte-identical.
  EXPECT_EQ(shard::encode_rows(back), payload);
}

TEST(FragmentTest, RowsCodecRejectsMalformedPayloads) {
  std::vector<query::TimestampedRow> out;
  EXPECT_FALSE(shard::decode_rows("garbage", &out));
  EXPECT_FALSE(shard::decode_rows("", &out));

  query::TimestampedRow r;
  r.at = TimePoint() + Duration::seconds(1.0);
  r.row = {{"temp", device::Value{25.0}}};
  std::string good = shard::encode_rows({r});
  EXPECT_TRUE(shard::decode_rows(good, &out));
  EXPECT_FALSE(
      shard::decode_rows(good.substr(0, good.size() - 2), &out));  // truncated
  EXPECT_FALSE(shard::decode_rows(good + "x", &out));  // trailing bytes

  // Counts the remaining bytes cannot hold are rejected before anything is
  // reserved: a row takes at least 3 bytes, a labelled field at least 2.
  const std::string huge = "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01";  // 2^63
  EXPECT_FALSE(shard::decode_rows(huge, &out));
  EXPECT_FALSE(shard::decode_rows(std::string("\x02\x00\x00\x00", 4), &out));
  EXPECT_FALSE(shard::decode_rows(
      std::string("\x01\x00\x00", 3) + huge + std::string("\x00\x00", 2),
      &out));
  // Varints are minimal and fit 64 bits.
  EXPECT_FALSE(shard::decode_rows(std::string("\x81\x00", 2), &out));
  EXPECT_FALSE(shard::decode_rows(std::string(10, '\xff') + "\x01", &out));
  // Unknown value tags and degraded bytes other than 0/1.
  EXPECT_FALSE(shard::decode_rows(std::string("\x01\x00\x00\x01\x00\x07", 6),
                                  &out));
  EXPECT_FALSE(shard::decode_rows(std::string("\x01\x00\x02\x00", 4), &out));
  EXPECT_TRUE(shard::decode_rows(std::string("\x01\x00\x00\x00", 4), &out));
  EXPECT_EQ(out.size(), 1u);

  shard::Flush flush;
  EXPECT_FALSE(shard::decode_flush("garbage", &flush));
  EXPECT_FALSE(shard::decode_flush(huge, &flush));
  EXPECT_FALSE(shard::decode_flush(
      std::string("\x01\x07", 2) + huge, &flush));  // label count
  EXPECT_FALSE(shard::decode_flush(
      std::string("\x01\x07\x00", 3) + huge, &flush));  // row count
  EXPECT_FALSE(shard::decode_flush(std::string("\x00", 1) + huge, &flush));
  const std::string wire =
      shard::encode_flush({{{7, {"temp"}, 1}}, {r}, {{"q", r.at, "ok"}}});
  EXPECT_TRUE(shard::decode_flush(wire, &flush));
  EXPECT_FALSE(shard::decode_flush(wire.substr(0, wire.size() - 1), &flush));
  EXPECT_FALSE(shard::decode_flush(wire + '\0', &flush));
}

TEST(FragmentTest, RowGroupsRoundTripInOrder) {
  // One flush: groups keep their order (first appearance at the worker),
  // labels travel only where set, rows carry values only, and outcomes
  // follow in production order.
  query::TimestampedRow a;
  a.at = TimePoint() + Duration::millis(2000);
  a.row = {{"s.id", device::Value{std::string("m1")}}};
  query::TimestampedRow b = a;
  b.degraded = true;
  b.row = {{"temp", device::Value{0.1}}, {"n", device::Value{}}};
  shard::Flush flush;
  flush.groups = {{9, {"temp", "n"}, 2}, {3, {}, 1}, {5, {}, 0}};
  flush.rows = {b, b, a};
  flush.outcomes = {{"t/zeta", a.at, "usable"}, {"t/alpha", b.at, "failed"}};

  const std::string payload = shard::encode_flush(flush);
  shard::Flush back;
  ASSERT_TRUE(shard::decode_flush(payload, &back));
  ASSERT_EQ(back.groups.size(), 3u);
  EXPECT_EQ(back.groups[0].id, 9u);
  EXPECT_EQ(back.groups[0].labels, (std::vector<std::string>{"temp", "n"}));
  EXPECT_EQ(back.groups[1].id, 3u);
  EXPECT_TRUE(back.groups[1].labels.empty());
  EXPECT_EQ(back.groups[2].id, 5u);
  EXPECT_EQ(back.groups[0].rows, 2u);
  EXPECT_EQ(back.groups[1].rows, 1u);
  EXPECT_EQ(back.groups[2].rows, 0u);
  ASSERT_EQ(back.rows.size(), 3u);
  EXPECT_EQ(std::get<std::string>(back.rows[2].row[0].second), "m1");
  const query::TimestampedRow& got = back.rows[1];
  EXPECT_EQ(got.at, b.at);
  EXPECT_TRUE(got.degraded);
  ASSERT_EQ(got.row.size(), 2u);
  EXPECT_EQ(got.row[0].first, "");  // the czar stamps the labels
  EXPECT_EQ(std::get<double>(got.row[0].second), 0.1);
  EXPECT_TRUE(std::holds_alternative<std::monostate>(got.row[1].second));
  ASSERT_EQ(back.outcomes.size(), 2u);
  EXPECT_EQ(back.outcomes[0].query, "t/zeta");
  EXPECT_EQ(back.outcomes[1].query, "t/alpha");
  EXPECT_EQ(back.outcomes[1].detail, "failed");
  EXPECT_EQ(back.outcomes[1].at, b.at);
  EXPECT_EQ(shard::encode_flush(back), payload);
}

// ---- decoder robustness under mutation ---------------------------------

// Rows holding every Value kind, the edge values included. The NaN carries
// a payload: the codec ships doubles as raw bits.
std::vector<query::TimestampedRow> edge_rows() {
  const double nan = std::bit_cast<double>(0x7ff80000deadbeefULL);
  query::TimestampedRow a;
  a.at = TimePoint() + Duration::micros(1234567);
  a.row = {{"s.id", device::Value{std::string("m1")}},
           {"none", device::Value{}},
           {"lo", device::Value{std::numeric_limits<std::int64_t>::min()}},
           {"hi", device::Value{std::numeric_limits<std::int64_t>::max()}},
           {"t", device::Value{true}},
           {"f", device::Value{false}}};
  query::TimestampedRow b;
  b.at = TimePoint() + Duration::seconds(3.0);
  b.degraded = true;
  b.row = {{"pz", device::Value{0.0}},
           {"nz", device::Value{-0.0}},
           {"pinf", device::Value{std::numeric_limits<double>::infinity()}},
           {"ninf", device::Value{-std::numeric_limits<double>::infinity()}},
           {"nan", device::Value{nan}}};
  query::TimestampedRow c;
  c.at = TimePoint() + Duration::micros(-5);
  c.row = {{"", device::Value{std::string()}},
           {"kb", device::Value{std::string(1024, 'k')}},
           {"loc", device::Value{device::Location{1.5, -2.25, nan}}}};
  return {a, b, c};
}

std::string varint_bytes(std::uint64_t v) {
  std::string out;
  while (v >= 0x80) {
    out += static_cast<char>(v | 0x80);
    v >>= 7;
  }
  out += static_cast<char>(v);
  return out;
}

// One to three stacked mutations: truncation, bit flips, byte insert or
// delete, or a count/length field inflated up to 2^63.
std::string mutate(std::string m, util::Rng& rng) {
  const int n = static_cast<int>(rng.uniform_int(1, 3));
  for (int k = 0; k < n && !m.empty(); ++k) {
    const std::size_t at = rng.index(m.size());
    switch (rng.uniform_int(0, 4)) {
      case 0:
        m.resize(at);
        break;
      case 1:
        m[at] = static_cast<char>(m[at] ^ (1 << rng.uniform_int(0, 7)));
        break;
      case 2:
        m.insert(at, 1, static_cast<char>(rng.uniform_int(0, 255)));
        break;
      case 3:
        m.erase(at, 1);
        break;
      default: {
        const int bits = static_cast<int>(rng.uniform_int(7, 63));
        const std::uint64_t big = bits == 63
                                      ? std::uint64_t{1} << 63
                                      : (std::uint64_t{1} << bits) +
                                            static_cast<std::uint64_t>(
                                                rng.uniform_int(0, 255));
        m.replace(at, 1, varint_bytes(big));
        break;
      }
    }
  }
  return m;
}

TEST(FragmentTest, DecodersSurviveMutatedPayloads) {
  const std::vector<query::TimestampedRow> rows = edge_rows();
  const std::string rows_wire = shard::encode_rows(rows);
  shard::Flush flush;
  flush.groups = {{7, {"s.id", "none", "lo", "hi", "t", "f"}, 1},
                  {8, {}, 2},
                  {9, {"x"}, 0}};
  flush.rows = rows;
  flush.outcomes = {{"s1/q", rows[0].at, "usable"}, {"", rows[2].at, ""}};
  const std::string flush_wire = shard::encode_flush(flush);

  // The unmutated payloads round-trip bit-exactly, NaN payloads included.
  std::vector<query::TimestampedRow> back;
  ASSERT_TRUE(shard::decode_rows(rows_wire, &back));
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(std::get<double>(back[1].row[4].second)),
            0x7ff80000deadbeefULL);
  EXPECT_TRUE(std::signbit(std::get<double>(back[1].row[1].second)));
  EXPECT_EQ(std::get<std::string>(back[2].row[1].second).size(), 1024u);
  EXPECT_EQ(back[2].at, rows[2].at);
  shard::Flush flush_back;
  ASSERT_TRUE(shard::decode_flush(flush_wire, &flush_back));
  EXPECT_EQ(shard::encode_flush(flush_back), flush_wire);

  util::Rng rng(0x5eed);
  std::size_t decoded = 0;
  constexpr int kMutants = 60000;  // per payload kind
  for (int i = 0; i < kMutants; ++i) {
    const std::string m = mutate(rows_wire, rng);
    std::vector<query::TimestampedRow> out;
    const bool ok = shard::decode_rows(m, &out);
    // Nothing is reserved beyond what the input could fill.
    ASSERT_LE(out.capacity(), m.size());
    for (const auto& r : out) ASSERT_LE(r.row.capacity(), m.size());
    if (!ok) continue;
    ++decoded;
    const std::string again = shard::encode_rows(out);
    EXPECT_EQ(again, m);  // canonical: decoding is the encoder's inverse
    std::vector<query::TimestampedRow> twice;
    ASSERT_TRUE(shard::decode_rows(again, &twice));
    ASSERT_EQ(shard::encode_rows(twice), again);
  }
  for (int i = 0; i < kMutants; ++i) {
    const std::string m = mutate(flush_wire, rng);
    shard::Flush out;
    const bool ok = shard::decode_flush(m, &out);
    ASSERT_LE(out.groups.capacity(), m.size());
    ASSERT_LE(out.rows.capacity(), m.size());
    ASSERT_LE(out.outcomes.capacity(), m.size());
    for (const auto& r : out.rows) ASSERT_LE(r.row.capacity(), m.size());
    for (const auto& g : out.groups) ASSERT_LE(g.labels.capacity(), m.size());
    if (!ok) continue;
    ++decoded;
    const std::string again = shard::encode_flush(out);
    EXPECT_EQ(again, m);
    shard::Flush twice;
    ASSERT_TRUE(shard::decode_flush(again, &twice));
    ASSERT_EQ(shard::encode_flush(twice), again);
  }
  // Some mutants (a flipped value bit, say) are still valid encodings.
  EXPECT_GT(decoded, 0u);
}

TEST(FragmentTest, AggregateClassification) {
  // The czar's merge plan and the worker's avg rewrite classify select
  // items with the engine's one aggregate recogniser.
  auto stmt = query::parse(
      "SELECT count(*), sum(s.temp), min(s.temp), max(s.temp), s.temp, "
      "AVG(s.temp), distance(s.loc, s.loc) FROM sensor s");
  ASSERT_TRUE(stmt.is_ok());
  const auto& items = stmt.value().select.select_list;
  ASSERT_EQ(items.size(), 7u);
  EXPECT_EQ(query::agg_op(*items[0]), query::AggOp::kCount);
  EXPECT_EQ(query::agg_op(*items[1]), query::AggOp::kSum);
  EXPECT_EQ(query::agg_op(*items[2]), query::AggOp::kMin);
  EXPECT_EQ(query::agg_op(*items[3]), query::AggOp::kMax);
  EXPECT_EQ(query::agg_op(*items[4]), std::nullopt);
  EXPECT_EQ(query::agg_op(*items[5]), query::AggOp::kAvg);  // any case
  EXPECT_EQ(query::agg_op(*items[6]), std::nullopt);  // scalar function
}

// -------------------------------------------------------------- merger

// A released row tagged with enough provenance to assert the merge order.
struct Released {
  std::string query;
  TimePoint at;
  std::int64_t tag = 0;
};

struct ReleasedId {
  std::uint64_t id = 0;
  TimePoint at;
  std::int64_t tag = 0;
};

query::TimestampedRow tagged_row(double at_s, std::int64_t tag) {
  query::TimestampedRow r;
  r.at = TimePoint() + Duration::seconds(at_s);
  r.row = {{"tag", device::Value{tag}}};
  return r;
}

TEST(MergerTest, ReleasesInTimestampShardArrivalOrder) {
  std::vector<ReleasedId> out;
  Merger m(2, [&](std::uint64_t id, query::TimestampedRow& row) {
    out.push_back({id, row.at, std::get<std::int64_t>(row.row[0].second)});
  });

  // Arrival order deliberately scrambled across shards and timestamps.
  m.add(1, 1, tagged_row(2.0, 3));
  m.add(0, 1, tagged_row(1.0, 1));
  m.add(0, 1, tagged_row(2.0, 2));
  m.add(1, 1, tagged_row(2.0, 4));  // same (at, shard): arrival breaks tie
  EXPECT_EQ(m.buffered(), 4u);
  EXPECT_TRUE(out.empty());  // both watermarks still at 0

  m.watermark(0, TimePoint() + Duration::seconds(5.0));
  EXPECT_TRUE(out.empty());  // frontier = min over shards, shard 1 still 0
  m.watermark(1, TimePoint() + Duration::seconds(5.0));
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].tag, 1);  // (1.0, shard 0)
  EXPECT_EQ(out[1].tag, 2);  // (2.0, shard 0)
  EXPECT_EQ(out[2].tag, 3);  // (2.0, shard 1, arrival 0)
  EXPECT_EQ(out[3].tag, 4);  // (2.0, shard 1, arrival 1)

  // The frontier bound is strict: a row stamped exactly at the watermark
  // stays buffered (the worker may still emit more rows at that instant).
  m.add(0, 1, tagged_row(5.0, 5));
  m.watermark(1, TimePoint() + Duration::seconds(6.0));
  EXPECT_EQ(m.buffered(), 1u);
  m.watermark(0, TimePoint() + Duration::seconds(5.5));
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[4].tag, 5);
}

TEST(MergerTest, DownShardStopsGatingTheFrontier) {
  std::vector<ReleasedId> out;
  Merger m(2, [&](std::uint64_t id, query::TimestampedRow& row) {
    out.push_back({id, row.at, std::get<std::int64_t>(row.row[0].second)});
  });
  m.add(0, 1, tagged_row(1.0, 1));
  m.watermark(0, TimePoint() + Duration::seconds(10.0));
  EXPECT_TRUE(out.empty());  // shard 1 never heartbeated

  m.set_live(1, false);  // a dead worker must not stall the survivors
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].tag, 1);
  EXPECT_EQ(m.stats().rows_in, 1u);
  EXPECT_EQ(m.stats().rows_out, 1u);

  // Back up: its (stale) watermark gates the frontier again.
  m.set_live(1, true);
  m.add(0, 1, tagged_row(2.0, 2));
  EXPECT_EQ(out.size(), 1u);
  m.watermark(1, TimePoint() + Duration::seconds(10.0));
  EXPECT_EQ(out.size(), 2u);
}

TEST(MergerTest, ForgetQueryDropsBufferedRows) {
  std::vector<ReleasedId> out;
  Merger m(1, [&](std::uint64_t id, query::TimestampedRow& row) {
    out.push_back({id, row.at, std::get<std::int64_t>(row.row[0].second)});
  });
  constexpr std::uint64_t kDead = 4, kLive = 5;
  m.add(0, kDead, tagged_row(1.0, 1));
  m.add(0, kLive, tagged_row(1.0, 2));
  m.add(0, kDead, tagged_row(2.0, 3));
  m.forget_query(kDead);
  EXPECT_EQ(m.buffered(), 1u);
  m.watermark(0, TimePoint() + Duration::seconds(5.0));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, kLive);
  // Forgotten rows are accepted but never released.
  EXPECT_EQ(m.stats().rows_in, 3u);
  EXPECT_EQ(m.stats().rows_out, 1u);
  EXPECT_EQ(m.buffered(), 0u);
}

TEST(MergerTest, ForgetQueryMidReleaseDropsTheRestOfThePass) {
  // The emitter drops a fragment on its first row: the fragment's later
  // rows, in this pass and after it, are neither emitted nor counted out.
  std::vector<ReleasedId> out;
  constexpr std::uint64_t kDead = 4, kLive = 5;
  Merger m(1, [&](std::uint64_t id, query::TimestampedRow& row) {
    out.push_back({id, row.at, std::get<std::int64_t>(row.row[0].second)});
    if (id == kDead) m.forget_query(kDead);
  });
  m.add(0, kDead, tagged_row(1.0, 1));
  m.add(0, kLive, tagged_row(1.0, 2));
  m.add(0, kDead, tagged_row(1.0, 3));
  m.add(0, kLive, tagged_row(2.0, 4));
  m.add(0, kDead, tagged_row(2.0, 5));
  m.watermark(0, TimePoint() + Duration::seconds(5.0));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].tag, 1);
  EXPECT_EQ(out[1].tag, 2);
  EXPECT_EQ(out[2].tag, 4);
  EXPECT_EQ(m.stats().rows_in, 5u);
  EXPECT_EQ(m.stats().rows_out, 3u);
  EXPECT_EQ(m.stats().release_passes, 1u);
  EXPECT_EQ(m.buffered(), 0u);
}

TEST(MergerTest, ThreeShardsWithInterleavedInstantsMergeByTimeThenShard) {
  std::vector<ReleasedId> out;
  Merger m(3, [&](std::uint64_t id, query::TimestampedRow& row) {
    out.push_back({id, row.at, std::get<std::int64_t>(row.row[0].second)});
  });
  // Each shard's rows arrive in time order, with the flushes of different
  // shards interleaved; the tag is the row's expected release position.
  m.add(2, 7, tagged_row(1.0, 3));
  m.add(0, 5, tagged_row(1.0, 0));
  m.add(1, 6, tagged_row(1.0, 2));
  m.add(2, 7, tagged_row(2.0, 5));
  m.add(0, 5, tagged_row(1.0, 1));
  m.add(1, 6, tagged_row(2.0, 4));
  m.add(2, 7, tagged_row(2.0, 6));
  m.add(0, 5, tagged_row(3.0, 7));
  m.add(2, 7, tagged_row(3.0, 8));
  m.add(1, 6, tagged_row(4.0, 10));
  m.add(2, 7, tagged_row(3.0, 9));
  EXPECT_EQ(m.buffered(), 11u);

  // The frontier passes instant 1.0 only, then everything.
  for (int shard = 0; shard < 3; ++shard) {
    m.watermark(shard, TimePoint() + Duration::seconds(2.0));
  }
  ASSERT_EQ(out.size(), 4u);
  for (int shard = 0; shard < 3; ++shard) {
    m.watermark(shard, TimePoint() + Duration::seconds(9.0));
  }
  ASSERT_EQ(out.size(), 11u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].tag, static_cast<std::int64_t>(i)) << i;
  }
  EXPECT_EQ(m.buffered(), 0u);
  EXPECT_EQ(m.stats().rows_in, 11u);
  EXPECT_EQ(m.stats().rows_out, 11u);
  EXPECT_EQ(m.stats().release_passes, 2u);
}

TEST(MergerTest, RowOlderThanItsShardsTailIsMergedInOrder) {
  std::vector<ReleasedId> out;
  Merger m(2, [&](std::uint64_t id, query::TimestampedRow& row) {
    out.push_back({id, row.at, std::get<std::int64_t>(row.row[0].second)});
  });
  m.add(0, 1, tagged_row(1.0, 10));
  m.add(0, 1, tagged_row(3.0, 40));
  m.add(1, 2, tagged_row(2.0, 30));
  // Older than shard 0's tail: it goes after shard 0's rows of its own
  // instant and before the later ones, as if it had arrived in order.
  m.add(0, 1, tagged_row(2.0, 20));
  m.add(0, 1, tagged_row(1.0, 11));
  for (int shard = 0; shard < 2; ++shard) {
    m.watermark(shard, TimePoint() + Duration::seconds(5.0));
  }
  std::vector<std::int64_t> tags;
  for (const ReleasedId& r : out) tags.push_back(r.tag);
  EXPECT_EQ(tags, (std::vector<std::int64_t>{10, 11, 20, 30, 40}));
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_LE(out[i - 1].at, out[i].at);
  }
}

// ------------------------------------------------- czar planning limits

TEST(CzarPlanningTest, RejectsJoinsAndForeignDdl) {
  core::Aorta sys(core::Config{});
  Plane plane(&sys, Plane::Options{.num_shards = 2});

  auto run = [&](const std::string& sql) {
    util::Result<core::ExecResult> out = util::internal_error("not called");
    plane.exec_async(sql, {}, [&](util::Result<core::ExecResult> r) {
      out = std::move(r);
    });
    sys.run_for(Duration::seconds(1.0));
    return out;
  };

  auto join = run("SELECT s.temp FROM sensor s, camera c");
  ASSERT_FALSE(join.is_ok());
  EXPECT_NE(join.status().message().find("joins"), std::string::npos);

  // Continuous avg() is shardable now too: each worker ships (sum, count)
  // window partials and the czar finalizes per window instant behind the
  // merge frontier (DESIGN.md §15).
  auto aq_avg = run("CREATE AQ a AS SELECT avg(s.temp) FROM sensor s");
  EXPECT_TRUE(aq_avg.is_ok()) << aq_avg.status().to_string();

  auto show = run("SHOW DEVICES");
  ASSERT_FALSE(show.is_ok());
  EXPECT_NE(show.status().message().find("sharded plane"), std::string::npos);

  auto aq_join = run(
      "CREATE AQ j AS SELECT s.temp FROM sensor s, camera c");
  ASSERT_FALSE(aq_join.is_ok());
}

std::vector<int> targets_of(const std::string& where, int num_shards = 4) {
  auto parsed = query::parse("SELECT s.temp FROM sensor s" +
                             (where.empty() ? "" : " WHERE " + where));
  EXPECT_TRUE(parsed.is_ok()) << where;
  if (!parsed.is_ok()) return {};
  return shard::target_shards(parsed.value().select, num_shards);
}

TEST(CzarPlanningTest, TargetSetsFollowIdPredicates) {
  const std::vector<int> all = {0, 1, 2, 3};
  // Two device ids owned by different shards of four.
  std::string a = "m0";
  std::string b;
  for (int i = 1; b.empty(); ++i) {
    const std::string id = "m" + std::to_string(i);
    if (shard::shard_of(id, 4) != shard::shard_of(a, 4)) b = id;
  }
  const int owner_a = shard::shard_of(a, 4);
  const int owner_b = shard::shard_of(b, 4);
  const std::vector<int> both = {std::min(owner_a, owner_b),
                                 std::max(owner_a, owner_b)};

  EXPECT_EQ(targets_of(""), all);
  EXPECT_EQ(targets_of("s.temp > 3"), all);
  // `alias.id = 'lit'` in either order, or unqualified, targets the owner.
  EXPECT_EQ(targets_of("s.id = '" + a + "'"), std::vector<int>{owner_a});
  EXPECT_EQ(targets_of("'" + a + "' = s.id"), std::vector<int>{owner_a});
  EXPECT_EQ(targets_of("id = '" + a + "'"), std::vector<int>{owner_a});
  // A conjunction intersects, a disjunction unions.
  EXPECT_EQ(targets_of("s.temp > 3 AND s.id = '" + a + "'"),
            std::vector<int>{owner_a});
  EXPECT_EQ(targets_of("s.id = '" + b + "' OR s.id = '" + a + "'"), both);
  EXPECT_EQ(targets_of("(s.id = '" + a + "' AND s.temp > 3) OR s.id = '" +
                       b + "'"),
            both);
  EXPECT_EQ(targets_of("s.temp > 1 AND (s.id = '" + a + "' OR s.id = '" + b +
                       "') AND s.id = '" + b + "'"),
            std::vector<int>{owner_b});
  // Anything else fans out: a disjunct that pins nothing, a negation, an
  // inequality, a number, another alias, another column, and a
  // contradiction (an empty intersection).
  EXPECT_EQ(targets_of("s.id = '" + a + "' OR s.temp > 3"), all);
  EXPECT_EQ(targets_of("NOT (s.id = '" + a + "')"), all);
  EXPECT_EQ(targets_of("s.id > '" + a + "'"), all);
  EXPECT_EQ(targets_of("s.id = 7"), all);
  EXPECT_EQ(targets_of("t.id = '" + a + "'"), all);
  EXPECT_EQ(targets_of("s.loc = '" + a + "'"), all);
  EXPECT_EQ(targets_of("s.id = '" + a + "' AND s.id = '" + b + "'"), all);
  EXPECT_EQ(targets_of("s.id = '" + a + "'", 1), std::vector<int>{0});
  // Joins are never pruned (the czar rejects them anyway).
  auto join = query::parse(
      "SELECT s.id FROM sensor s, camera c WHERE s.id = '" + a + "'");
  ASSERT_TRUE(join.is_ok());
  EXPECT_EQ(shard::target_shards(join.value().select, 4), all);
}

// ----------------------------------------------- end-to-end shard plane

// A deterministic 2-shard world: six motes with distinct constant temps,
// zero glitch probability and lossless links so every epoch's scan
// succeeds. Returns the plane; asserts the hash partition actually uses
// both shards (FNV-1a is fixed, so this can never start flaking).
struct PlaneWorld {
  explicit PlaneWorld(int num_shards, core::Config config = core::Config{})
      : sys(config) {
    Plane::Options po;
    po.num_shards = num_shards;
    plane = std::make_unique<Plane>(&sys, po);
    for (int i = 0; i < 6; ++i) {
      std::string id = "m" + std::to_string(i);
      ASSERT_OK(plane->add_mote(id, {double(i), 0, 1}));
      plane->mote(id)->reliability().glitch_prob = 0.0;
      (void)plane->mote(id)->set_signal(
          "temp", devices::constant_signal(10.0 + i));
      // AQ predicates are edge-triggered: a device fires when its predicate
      // *becomes* true. The 2s-period spike alternates the accel predicate
      // true/false at successive 1s epoch samples, so every mote re-fires
      // every other epoch (a constant signal would fire exactly once).
      (void)plane->mote(id)->set_signal(
          "accel_x", devices::periodic_spike_signal(
                         0.0, 900.0, Duration::seconds(2.0),
                         Duration::seconds(0.5), Duration::zero()));
      (void)sys.network().set_link(id, shard::backplane_link());
    }
  }
  static void ASSERT_OK(const util::Status& s) { ASSERT_TRUE(s.is_ok()) << s.message(); }

  core::Aorta sys;
  std::unique_ptr<Plane> plane;
};

TEST(ShardPlaneTest, DevicePartitionCoversBothShards) {
  PlaneWorld w(2);
  bool shard_used[2] = {false, false};
  for (int i = 0; i < 6; ++i) {
    shard_used[w.plane->shard_of_device("m" + std::to_string(i))] = true;
  }
  EXPECT_TRUE(shard_used[0]);
  EXPECT_TRUE(shard_used[1]);
  // The owning worker's registry holds the device; the other does not.
  int owner = w.plane->shard_of_device("m0");
  EXPECT_NE(w.plane->worker(owner).engine().mote("m0"), nullptr);
  EXPECT_EQ(w.plane->worker(1 - owner).engine().mote("m0"), nullptr);
}

TEST(ShardPlaneTest, SelectConcatenatesPartialsFromAllShards) {
  PlaneWorld w(2);
  util::Result<core::ExecResult> out = util::internal_error("not called");
  w.plane->exec_async("SELECT s.temp FROM sensor s", {},
                      [&](util::Result<core::ExecResult> r) {
                        out = std::move(r);
                      });
  w.sys.run_for(Duration::seconds(3.0));
  ASSERT_TRUE(out.is_ok()) << out.status().message();
  ASSERT_EQ(out.value().rows.size(), 6u);
  // Every mote's temp appears exactly once across the merged partials.
  std::multiset<double> temps;
  for (const query::Row& row : out.value().rows) {
    double v = 0;
    ASSERT_TRUE(device::value_as_double(row[0].second, &v));
    temps.insert(v);
  }
  EXPECT_EQ(temps, (std::multiset<double>{10, 11, 12, 13, 14, 15}));
  EXPECT_EQ(w.plane->czar().stats().selects, 1u);
  EXPECT_EQ(w.plane->worker(0).stats().selects_served, 1u);
  EXPECT_EQ(w.plane->worker(1).stats().selects_served, 1u);
}

TEST(ShardPlaneTest, SelectMergesPartialAggregates) {
  PlaneWorld w(2);
  util::Result<core::ExecResult> out = util::internal_error("not called");
  w.plane->exec_async(
      "SELECT count(*), min(s.temp), max(s.temp) FROM sensor s", {},
      [&](util::Result<core::ExecResult> r) { out = std::move(r); });
  w.sys.run_for(Duration::seconds(3.0));
  ASSERT_TRUE(out.is_ok()) << out.status().message();
  ASSERT_EQ(out.value().rows.size(), 1u);
  const query::Row& row = out.value().rows[0];
  ASSERT_EQ(row.size(), 3u);
  double count = 0, lo = 0, hi = 0;
  ASSERT_TRUE(device::value_as_double(row[0].second, &count));
  ASSERT_TRUE(device::value_as_double(row[1].second, &lo));
  ASSERT_TRUE(device::value_as_double(row[2].second, &hi));
  EXPECT_EQ(count, 6);  // summed across per-shard partial counts
  EXPECT_EQ(lo, 10.0);  // extrema across per-shard extrema
  EXPECT_EQ(hi, 15.0);
}

// avg() is not directly mergeable from per-shard partials; the worker
// rewrites it into (sum, count) columns and the czar finalizes the ratio
// at the merge barrier. The merged value must equal the unsharded one and
// the finalized row must carry the original avg() label, not the rewrite.
TEST(ShardPlaneTest, SelectMergesAvgAcrossShards) {
  auto run_avg = [](int num_shards, const std::string& sql) {
    PlaneWorld w(num_shards);
    util::Result<core::ExecResult> out = util::internal_error("not called");
    w.plane->exec_async(sql, {}, [&](util::Result<core::ExecResult> r) {
      out = std::move(r);
    });
    w.sys.run_for(Duration::seconds(3.0));
    return out;
  };

  const std::string sql =
      "SELECT avg(s.temp), count(*), sum(s.temp) FROM sensor s";
  auto sharded = run_avg(2, sql);
  ASSERT_TRUE(sharded.is_ok()) << sharded.status().message();
  ASSERT_EQ(sharded.value().rows.size(), 1u);
  const query::Row& row = sharded.value().rows[0];
  ASSERT_EQ(row.size(), 3u);  // the appended count partial is trimmed
  EXPECT_EQ(row[0].first, "avg(s.temp)");
  double avg = 0, count = 0, sum = 0;
  ASSERT_TRUE(device::value_as_double(row[0].second, &avg));
  ASSERT_TRUE(device::value_as_double(row[1].second, &count));
  ASSERT_TRUE(device::value_as_double(row[2].second, &sum));
  EXPECT_DOUBLE_EQ(avg, 12.5);  // mean of 10..15
  EXPECT_EQ(count, 6);
  EXPECT_DOUBLE_EQ(sum, 75.0);

  // One shard and two shards agree exactly.
  auto single = run_avg(1, sql);
  ASSERT_TRUE(single.is_ok()) << single.status().message();
  double single_avg = 0;
  ASSERT_TRUE(
      device::value_as_double(single.value().rows[0][0].second, &single_avg));
  EXPECT_DOUBLE_EQ(single_avg, avg);
}

TEST(ShardPlaneTest, SelectAvgWithEmptyShardAndEmptyWorld) {
  auto run_avg = [](int num_shards, const std::string& sql) {
    PlaneWorld w(num_shards);
    util::Result<core::ExecResult> out = util::internal_error("not called");
    w.plane->exec_async(sql, {}, [&](util::Result<core::ExecResult> r) {
      out = std::move(r);
    });
    w.sys.run_for(Duration::seconds(3.0));
    return out;
  };

  // Only m5 (temp 15) passes the predicate, so one shard contributes a
  // zero-count partial; it must not drag the merged average down.
  auto one_mote = run_avg(2, "SELECT avg(s.temp) FROM sensor s "
                             "WHERE s.temp > 14");
  ASSERT_TRUE(one_mote.is_ok()) << one_mote.status().message();
  double avg = 0;
  ASSERT_TRUE(
      device::value_as_double(one_mote.value().rows[0][0].second, &avg));
  EXPECT_DOUBLE_EQ(avg, 15.0);

  // No rows anywhere: total count is zero, the average is null.
  auto empty = run_avg(2, "SELECT avg(s.temp) FROM sensor s "
                          "WHERE s.temp > 100");
  ASSERT_TRUE(empty.is_ok()) << empty.status().message();
  ASSERT_EQ(empty.value().rows.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<std::monostate>(
      empty.value().rows[0][0].second));
}

// ----------------------------------------------------------- plan reuse

// One statement through the plane, run until it has long completed.
util::Result<core::ExecResult> run_statement(PlaneWorld& w,
                                             const std::string& sql) {
  util::Result<core::ExecResult> out = util::internal_error("not called");
  w.plane->exec_async(sql, {}, [&](util::Result<core::ExecResult> r) {
    out = std::move(r);
  });
  w.sys.run_for(Duration::seconds(3.0));
  return out;
}

std::uint64_t programs_compiled(PlaneWorld& w, int shard) {
  return w.plane->worker(shard)
      .engine()
      .executor()
      .eval_stats()
      .programs_compiled;
}

// A one-shot SELECT over static attributes only (no radio): distinct
// texts for distinct k, every one answered by all six motes.
std::string static_select(std::size_t k) {
  return "SELECT s.id FROM sensor s WHERE s.hops < " + std::to_string(k + 2);
}

TEST(ShardPlanReuseTest, RepeatedSelectCompilesOncePerWorker) {
  PlaneWorld w(2);
  const std::string sql =
      "SELECT s.id, s.temp FROM sensor s WHERE s.temp > 11";
  auto first = run_statement(w, sql);
  ASSERT_TRUE(first.is_ok()) << first.status().message();
  ASSERT_EQ(first.value().rows.size(), 4u);
  const std::uint64_t compiled[2] = {programs_compiled(w, 0),
                                     programs_compiled(w, 1)};
  for (int k = 0; k < 4; ++k) {
    auto again = run_statement(w, sql);
    ASSERT_TRUE(again.is_ok()) << again.status().message();
    EXPECT_EQ(again.value().rows, first.value().rows);
  }
  for (int i = 0; i < 2; ++i) {
    const shard::WorkerStats& stats = w.plane->worker(i).stats();
    EXPECT_GT(compiled[i], 0u) << i;
    EXPECT_EQ(programs_compiled(w, i), compiled[i]) << i;
    EXPECT_EQ(stats.selects_served, 5u) << i;
    EXPECT_EQ(stats.plans_reused, 4u) << i;
    EXPECT_EQ(stats.plans_evicted, 0u) << i;
    EXPECT_EQ(w.sys.metrics().counter_value("shard." + std::to_string(i) +
                                            ".plans.reused"),
              4u);
  }
}

TEST(ShardPlanReuseTest, RepeatedAvgReusesItsPartialsPlan) {
  // Workers plan avg() as (sum, count) partials; the kept plan is that
  // rewrite, and the czar still finalizes the one-shard answer.
  const std::string sql = "SELECT avg(s.temp) FROM sensor s";
  PlaneWorld oracle(1);
  auto expected = run_statement(oracle, sql);
  ASSERT_TRUE(expected.is_ok()) << expected.status().message();
  ASSERT_EQ(expected.value().rows.size(), 1u);
  EXPECT_EQ(expected.value().rows[0][0].first, "avg(s.temp)");

  PlaneWorld w(2);
  auto first = run_statement(w, sql);
  ASSERT_TRUE(first.is_ok()) << first.status().message();
  const std::uint64_t compiled[2] = {programs_compiled(w, 0),
                                     programs_compiled(w, 1)};
  auto second = run_statement(w, sql);
  ASSERT_TRUE(second.is_ok()) << second.status().message();
  EXPECT_EQ(first.value().rows, expected.value().rows);
  EXPECT_EQ(second.value().rows, expected.value().rows);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(programs_compiled(w, i), compiled[i]) << i;
    EXPECT_EQ(w.plane->worker(i).stats().plans_reused, 1u) << i;
  }
}

TEST(ShardPlanReuseTest, FailedPlansAreNotKeptAndRegistrationsDropPlans) {
  PlaneWorld w(2);
  const std::string sql =
      "SELECT twice(s.temp) FROM sensor s WHERE s.temp > 13";
  auto unknown = run_statement(w, sql);
  ASSERT_FALSE(unknown.is_ok());
  EXPECT_NE(unknown.status().message().find("unknown function: twice"),
            std::string::npos)
      << unknown.status().message();
  // Nothing was kept: the same text fails the same way again.
  auto again = run_statement(w, sql);
  ASSERT_FALSE(again.is_ok());
  EXPECT_EQ(again.status().to_string(), unknown.status().to_string());

  auto add_function = [&w](const std::string& name, double factor) {
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(w.plane->worker(i)
                      .engine()
                      .catalog()
                      .functions()
                      .add(name,
                           [factor](const std::vector<device::Value>& args)
                               -> util::Result<device::Value> {
                             double v = 0;
                             if (args.size() != 1 ||
                                 !device::value_as_double(args[0], &v)) {
                               return device::Value{};
                             }
                             return device::Value{factor * v};
                           })
                      .is_ok());
    }
  };
  add_function("twice", 2.0);
  auto registered = run_statement(w, sql);
  ASSERT_TRUE(registered.is_ok()) << registered.status().message();
  std::multiset<double> doubled;
  for (const query::Row& row : registered.value().rows) {
    double v = 0;
    ASSERT_TRUE(device::value_as_double(row[0].second, &v));
    doubled.insert(v);
  }
  EXPECT_EQ(doubled, (std::multiset<double>{28.0, 30.0}));

  // The plan is kept now. Any later registration drops it: the text
  // compiles again, with the same answer.
  const std::uint64_t compiled = programs_compiled(w, 0);
  auto reused = run_statement(w, sql);
  ASSERT_TRUE(reused.is_ok()) << reused.status().message();
  EXPECT_EQ(programs_compiled(w, 0), compiled);
  EXPECT_EQ(w.plane->worker(0).stats().plans_reused, 1u);
  add_function("thrice", 3.0);
  auto recompiled = run_statement(w, sql);
  ASSERT_TRUE(recompiled.is_ok()) << recompiled.status().message();
  EXPECT_EQ(recompiled.value().rows, registered.value().rows);
  EXPECT_GT(programs_compiled(w, 0), compiled);
  EXPECT_EQ(w.plane->worker(0).stats().plans_reused, 1u);
  EXPECT_EQ(w.plane->worker(0).stats().plans_evicted, 0u);
}

TEST(ShardPlanReuseTest, TextsBeyondTheBoundEvictTheOldestPlans) {
  PlaneWorld w(2);
  constexpr std::size_t kExtra = 3;
  const std::size_t texts = shard::Worker::kPlanLimit + kExtra;
  std::vector<util::Result<core::ExecResult>> outs(
      texts, util::internal_error("not called"));
  for (std::size_t k = 0; k < texts; ++k) {
    w.plane->exec_async(static_select(k), {},
                        [&outs, k](util::Result<core::ExecResult> r) {
                          outs[k] = std::move(r);
                        });
  }
  w.sys.run_for(Duration::seconds(3.0));
  for (std::size_t k = 0; k < texts; ++k) {
    ASSERT_TRUE(outs[k].is_ok()) << k << ": " << outs[k].status().message();
    EXPECT_EQ(outs[k].value().rows.size(), 6u) << k;
  }
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(w.plane->worker(i).stats().plans_evicted, kExtra) << i;
    EXPECT_EQ(w.plane->worker(i).stats().plans_reused, 0u) << i;
  }
  // The oldest text's plan is gone: it compiles again and still answers.
  const std::uint64_t compiled = programs_compiled(w, 0);
  auto evicted = run_statement(w, static_select(0));
  ASSERT_TRUE(evicted.is_ok()) << evicted.status().message();
  EXPECT_EQ(evicted.value().rows, outs[0].value().rows);
  EXPECT_GT(programs_compiled(w, 0), compiled);
  EXPECT_EQ(w.plane->worker(0).stats().plans_reused, 0u);
  // The newest text's plan was kept.
  auto kept = run_statement(w, static_select(texts - 1));
  ASSERT_TRUE(kept.is_ok()) << kept.status().message();
  EXPECT_EQ(kept.value().rows, outs[texts - 1].value().rows);
  EXPECT_EQ(w.plane->worker(0).stats().plans_reused, 1u);
}

TEST(ShardPlanReuseTest, AnEvictedPlanServesTheSelectStillAcquiringOnIt) {
  PlaneWorld w(2);
  // A sensory SELECT waits on a radio sweep on each worker...
  util::Result<core::ExecResult> sensory = util::internal_error("not called");
  std::uint64_t evicted_when_answered[2] = {0, 0};
  w.plane->exec_async(
      "SELECT s.id, s.temp FROM sensor s", {},
      [&](util::Result<core::ExecResult> r) {
        sensory = std::move(r);
        for (int i = 0; i < 2; ++i) {
          evicted_when_answered[i] = w.plane->worker(i).stats().plans_evicted;
        }
      });
  // ...while kPlanLimit other texts arrive behind it and push its plan,
  // the oldest, out of every worker's map.
  std::size_t answered = 0;
  for (std::size_t k = 0; k < shard::Worker::kPlanLimit; ++k) {
    w.plane->exec_async(static_select(k), {},
                        [&answered](util::Result<core::ExecResult> r) {
                          if (r.is_ok()) ++answered;
                        });
  }
  w.sys.run_for(Duration::seconds(3.0));
  EXPECT_EQ(answered, shard::Worker::kPlanLimit);
  ASSERT_TRUE(sensory.is_ok()) << sensory.status().message();
  std::multiset<double> temps;
  for (const query::Row& row : sensory.value().rows) {
    double v = 0;
    ASSERT_TRUE(device::value_as_double(row[1].second, &v));
    temps.insert(v);
  }
  EXPECT_EQ(temps, (std::multiset<double>{10, 11, 12, 13, 14, 15}));
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(evicted_when_answered[i], 1u) << i;
    EXPECT_EQ(w.plane->worker(i).stats().plans_evicted, 1u) << i;
  }
}

TEST(ShardPlaneTest, ContinuousRowsMergeInNondecreasingTimestampOrder) {
  PlaneWorld w(2);
  std::vector<Released> rows;
  core::ExecOptions opts;
  opts.owner = "tester";
  opts.on_row = [&](const std::string& q, const query::TimestampedRow& r) {
    rows.push_back({q, r.at, 0});
  };
  util::Result<core::ExecResult> out = util::internal_error("not called");
  w.plane->exec_async(
      "CREATE AQ push AS SELECT s.temp FROM sensor s WHERE s.accel_x > 100",
      opts, [&](util::Result<core::ExecResult> r) { out = std::move(r); });
  w.sys.run_for(Duration::seconds(7.0));
  ASSERT_TRUE(out.is_ok()) << out.status().message();
  EXPECT_EQ(w.plane->worker(0).fragment_count(), 1u);
  EXPECT_EQ(w.plane->worker(1).fragment_count(), 1u);

  // All six motes see spike edges at t=2, 4, 6; at least the first two
  // rounds (12 rows) have drained past the merge frontier by now.
  ASSERT_GE(rows.size(), 12u);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i].at, rows[i - 1].at);  // merge order is by timestamp
    EXPECT_EQ(rows[i].query, "push");
  }
  const shard::CzarStats& cs = w.plane->czar().stats();
  EXPECT_GE(cs.rows_received, rows.size());
  EXPECT_GE(cs.heartbeats_received, 4u);
  EXPECT_EQ(cs.workers_marked_down, 0u);

  // DROP fans out to the workers and stops the stream.
  util::Result<core::ExecResult> dropped = util::internal_error("not called");
  w.plane->exec_async("DROP AQ push", {}, [&](util::Result<core::ExecResult> r) {
    dropped = std::move(r);
  });
  w.sys.run_for(Duration::seconds(1.0));
  ASSERT_TRUE(dropped.is_ok());
  std::size_t seen = rows.size();
  w.sys.run_for(Duration::seconds(3.0));
  EXPECT_EQ(rows.size(), seen);
  EXPECT_EQ(w.plane->worker(0).fragment_count(), 0u);
  EXPECT_EQ(w.plane->worker(1).fragment_count(), 0u);
}

TEST(ShardPlaneTest, PartitionedWorkerIsMarkedDownAndRecoveredOnHeal) {
  PlaneWorld w(2);
  std::vector<Released> rows;
  core::ExecOptions opts;
  opts.owner = "tester";
  opts.on_row = [&](const std::string& q, const query::TimestampedRow& r) {
    rows.push_back({q, r.at, 0});
  };
  util::Result<core::ExecResult> out = util::internal_error("not called");
  w.plane->exec_async(
      "CREATE AQ push AS SELECT s.temp FROM sensor s WHERE s.accel_x > 100",
      opts, [&](util::Result<core::ExecResult> r) { out = std::move(r); });
  w.sys.run_for(Duration::seconds(3.0));
  ASSERT_TRUE(out.is_ok()) << out.status().message();
  ASSERT_TRUE(w.plane->czar().worker_live(0));
  ASSERT_TRUE(w.plane->czar().worker_live(1));

  // Kill worker 0's network: its heartbeats stop; after kMissThreshold
  // silent intervals the czar marks the shard down, and the dead shard's
  // watermark stops gating the merge frontier.
  w.sys.network().partition("shard-0");
  w.sys.run_for(Duration::seconds(6.0));
  EXPECT_FALSE(w.plane->czar().worker_live(0));
  EXPECT_TRUE(w.plane->czar().worker_live(1));
  EXPECT_GE(w.plane->czar().stats().workers_marked_down, 1u);
  std::size_t during_partition = rows.size();
  w.sys.run_for(Duration::seconds(3.0));
  EXPECT_GT(rows.size(), during_partition)
      << "surviving shard's rows must keep draining";

  // Heal: the first message back triggers the generation-bump recovery
  // handshake and the czar re-registers the AQ on the worker.
  w.sys.network().heal("shard-0");
  w.sys.run_for(Duration::seconds(4.0));
  EXPECT_TRUE(w.plane->czar().worker_live(0));
  EXPECT_GE(w.plane->czar().stats().reregistrations, 1u);
  EXPECT_EQ(w.plane->worker(0).fragment_count(), 1u);
  // The worker re-registered under the new generation at least once more
  // than the initial fan-out.
  EXPECT_GE(w.plane->worker(0).stats().fragments_registered, 2u);

  // Rows from shard 0's motes flow again: total rate recovers.
  std::size_t after_heal = rows.size();
  w.sys.run_for(Duration::seconds(3.0));
  EXPECT_GT(rows.size(), after_heal);
}

// Shard pruning: a point statement costs one fragment RPC on a 4-shard
// plane, and only the owning worker ever sees it.
TEST(ShardPlaneTest, PointStatementsGoOnlyToTheOwningShard) {
  PlaneWorld w(4);
  const int owner = w.plane->shard_of_device("m2");
  const shard::CzarStats& cs = w.plane->czar().stats();
  const net::ReliableCallStats& rs = w.plane->czar().reliable_stats();
  auto exec = [&w](const std::string& sql, core::ExecOptions opts = {}) {
    util::Result<core::ExecResult> out = util::internal_error("not called");
    w.plane->exec_async(sql, std::move(opts),
                        [&out](util::Result<core::ExecResult> r) {
                          out = std::move(r);
                        });
    w.sys.run_for(Duration::seconds(2.0));
    EXPECT_TRUE(out.is_ok()) << sql << ": " << out.status().message();
    return out;
  };
  auto registered = [&w]() {
    std::vector<std::uint64_t> n;
    for (int i = 0; i < 4; ++i) {
      n.push_back(w.plane->worker(i).stats().fragments_registered);
    }
    return n;
  };

  std::size_t rows = 0;
  core::ExecOptions opts;
  opts.on_row = [&rows](const std::string&, const query::TimestampedRow& r) {
    EXPECT_EQ(std::get<std::string>(r.row[0].second), "m2");
    ++rows;
  };
  std::uint64_t calls = rs.calls;
  (void)exec(
      "CREATE AQ p AS SELECT s.id, s.temp FROM sensor s WHERE s.id = 'm2'",
      std::move(opts));
  EXPECT_EQ(rs.calls - calls, 1u);
  EXPECT_EQ(cs.fragments_pruned, 3u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(w.plane->worker(i).fragment_count(), i == owner ? 1u : 0u);
  }
  w.sys.run_for(Duration::seconds(3.0));
  EXPECT_GT(rows, 0u);

  calls = rs.calls;
  (void)exec("DROP AQ p");
  EXPECT_EQ(rs.calls - calls, 1u);
  EXPECT_EQ(cs.fragments_pruned, 6u);
  EXPECT_EQ(w.plane->worker(owner).fragment_count(), 0u);
  EXPECT_EQ(w.plane->worker(owner).stats().fragments_dropped, 1u);

  // A point registration that fails on its owner unwinds there alone:
  // one register and one drop.
  calls = rs.calls;
  util::Result<core::ExecResult> bad = util::internal_error("not called");
  w.plane->exec_async(
      "CREATE AQ bad AS SELECT x.temp FROM nosuch x WHERE x.id = 'm2'", {},
      [&bad](util::Result<core::ExecResult> r) { bad = std::move(r); });
  w.sys.run_for(Duration::seconds(2.0));
  EXPECT_FALSE(bad.is_ok());
  EXPECT_EQ(cs.fragment_errors, 1u);
  EXPECT_EQ(rs.calls - calls, 2u);
  EXPECT_EQ(cs.fragments_pruned, 12u);

  // A statement that pins no device still goes to every shard.
  calls = rs.calls;
  std::vector<std::uint64_t> expected = registered();
  for (std::uint64_t& n : expected) ++n;
  (void)exec("CREATE AQ q AS SELECT s.temp FROM sensor s WHERE s.temp > 0");
  EXPECT_EQ(rs.calls - calls, 4u);
  EXPECT_EQ(cs.fragments_pruned, 12u);
  EXPECT_EQ(registered(), expected);

  // A point SELECT runs on the owner alone and reports 1 of 1 shards; a
  // two-id SELECT reports its two owners.
  calls = rs.calls;
  auto point = exec("SELECT s.id, s.temp FROM sensor s WHERE s.id = 'm2'");
  EXPECT_EQ(rs.calls - calls, 1u);
  ASSERT_TRUE(point.is_ok());
  EXPECT_EQ(point.value().shards_answered, 1);
  EXPECT_EQ(point.value().shards_total, 1);
  ASSERT_EQ(point.value().rows.size(), 1u);
  EXPECT_EQ(std::get<double>(point.value().rows[0][1].second), 12.0);
  std::string other;
  for (int i = 0; other.empty(); ++i) {
    const std::string id = "m" + std::to_string(i);
    if (w.plane->shard_of_device(id) != owner) other = id;
  }
  auto pair = exec(
      "SELECT count(*) FROM sensor s WHERE s.id = 'm2' OR s.id = '" + other +
      "'");
  ASSERT_TRUE(pair.is_ok());
  EXPECT_EQ(pair.value().shards_answered, 2);
  EXPECT_EQ(pair.value().shards_total, 2);
  EXPECT_EQ(std::get<std::int64_t>(pair.value().rows[0][0].second), 2);
  EXPECT_EQ(cs.fragments_pruned, 12u + 3u + 2u);
  EXPECT_EQ(w.sys.metrics().counter_value("shard.czar.fragments_pruned"),
            cs.fragments_pruned);
}

// Kill and heal the shard that owns a point AQ's device: recovery
// re-registers there only the AQs that target it, and their rows resume.
TEST(ShardPlaneTest, HealedShardReregistersOnlyTheAqsThatTargetIt) {
  PlaneWorld w(2);
  const int owner = w.plane->shard_of_device("m0");
  std::string other;
  for (int i = 1; other.empty(); ++i) {
    const std::string id = "m" + std::to_string(i);
    if (w.plane->shard_of_device(id) != owner) other = id;
  }
  std::map<std::string, std::vector<TimePoint>> rows;
  auto create = [&](const std::string& name, const std::string& where) {
    core::ExecOptions opts;
    opts.on_row = [&rows](const std::string& q,
                          const query::TimestampedRow& r) {
      rows[q].push_back(r.at);
    };
    w.plane->exec_async(
        "CREATE AQ " + name + " AS SELECT s.id, s.temp FROM sensor s WHERE " +
            where,
        std::move(opts), [](util::Result<core::ExecResult> r) {
          ASSERT_TRUE(r.is_ok()) << r.status().message();
        });
  };
  create("mine", "s.id = 'm0'");
  create("theirs", "s.id = '" + other + "'");
  create("wide", "s.hops > 0");
  w.sys.run_for(Duration::seconds(3.0));
  shard::Worker& worker = w.plane->worker(owner);
  EXPECT_EQ(worker.fragment_count(), 2u);
  EXPECT_EQ(w.plane->worker(1 - owner).fragment_count(), 2u);
  const std::uint64_t registered = worker.stats().fragments_registered;
  const std::uint64_t pruned = w.plane->czar().stats().fragments_pruned;

  const std::string node = shard::worker_node(owner);
  w.sys.network().partition(node);
  w.sys.run_for(Duration::seconds(6.0));
  ASSERT_FALSE(w.plane->czar().worker_live(owner));
  w.sys.network().heal(node);
  w.sys.run_for(Duration::seconds(2.0));
  ASSERT_TRUE(w.plane->czar().worker_live(owner));
  EXPECT_EQ(w.plane->czar().stats().reregistrations, 1u);
  // "mine" and "wide" came back; "theirs" was never sent here.
  EXPECT_EQ(worker.stats().fragments_registered - registered, 2u);
  EXPECT_EQ(worker.fragment_count(), 2u);
  EXPECT_EQ(w.plane->czar().stats().fragments_pruned - pruned, 1u);

  const TimePoint healed = w.sys.loop().now();
  w.sys.run_for(Duration::seconds(3.0));
  for (const char* q : {"mine", "theirs", "wide"}) {
    ASSERT_FALSE(rows[q].empty()) << q;
    EXPECT_GT(rows[q].back(), healed) << q;
  }
}

// Identical edge-triggered AQs co0..co<n-1>: every one fires on every
// mote at the same instants. Released rows are counted per query.
void register_cofiring(PlaneWorld& w, int n,
                       std::map<std::string, std::uint64_t>* rows) {
  for (int k = 0; k < n; ++k) {
    core::ExecOptions opts;
    opts.on_row = [rows](const std::string& q, const query::TimestampedRow&) {
      ++(*rows)[q];
    };
    w.plane->exec_async(
        "CREATE AQ co" + std::to_string(k) +
            " AS SELECT s.id FROM sensor s WHERE s.accel_x > 100",
        std::move(opts), [](util::Result<core::ExecResult> r) {
          ASSERT_TRUE(r.is_ok()) << r.status().message();
        });
  }
}

// Steps the plane in 100 µs slices until some worker has sent its first
// results message.
void run_to_first_flush(PlaneWorld& w) {
  auto sent = [&w]() {
    return w.plane->worker(0).stats().results_msgs +
           w.plane->worker(1).stats().results_msgs;
  };
  for (int i = 0; i < 100000 && sent() == 0; ++i) {
    w.sys.run_for(Duration::micros(100));
  }
  ASSERT_GT(sent(), 0u);
}

TEST(ShardPlaneTest, CoFiringAqsShareOneResultsMessagePerFlush) {
  // More co-firing AQs than a worker's replay buffer holds (4096): one
  // message per query per flush would overflow it on this loss-free link.
  constexpr int kAqs = 4200;
  PlaneWorld one(2);
  std::map<std::string, std::uint64_t> one_rows;
  register_cofiring(one, 1, &one_rows);
  run_to_first_flush(one);
  one.sys.run_for(Duration::seconds(10.0));

  PlaneWorld many(2);
  std::map<std::string, std::uint64_t> rows;
  register_cofiring(many, kAqs, &rows);
  run_to_first_flush(many);
  // The first flush is on the wire: drop one AQ at the czar before the
  // message carrying its rows (and everyone else's) arrives.
  const shard::CzarStats& cs = many.plane->czar().stats();
  ASSERT_EQ(cs.rows_received, 0u) << "the first flush must be in flight";
  const std::uint64_t in_flight = many.plane->worker(0).stats().rows_sent +
                                  many.plane->worker(1).stats().rows_sent;
  ASSERT_GT(in_flight, 0u);
  ASSERT_EQ(in_flight % kAqs, 0u) << "every AQ fires on the same motes";
  ASSERT_TRUE(many.plane->czar().drop_aq("co0").is_ok());
  many.sys.run_for(Duration::seconds(10.0));

  // One message per flush, whatever the AQ count.
  for (int i = 0; i < 2; ++i) {
    const shard::WorkerStats& ws = many.plane->worker(i).stats();
    EXPECT_GT(ws.results_msgs, 0u) << "shard " << i;
    EXPECT_EQ(ws.results_msgs, one.plane->worker(i).stats().results_msgs)
        << "shard " << i;
    EXPECT_EQ(ws.replay_overflow, 0u) << "shard " << i;
  }
  EXPECT_LE(many.sys.metrics().gauge_value("net.reliable.replay_hwm"), 16);
  EXPECT_EQ(cs.nacks_sent, 0u);
  EXPECT_EQ(cs.workers_marked_down, 0u);

  // Only the dropped AQ's group of the in-flight message went stale; the
  // other groups of that message were delivered, so every surviving AQ got
  // exactly the rows the lone AQ got.
  EXPECT_EQ(cs.stale_query_rows, in_flight / kAqs);
  EXPECT_EQ(rows.count("co0"), 0u);
  ASSERT_EQ(one_rows.size(), 1u);
  ASSERT_GT(one_rows["co0"], 0u);
  EXPECT_EQ(rows.size(), static_cast<std::size_t>(kAqs - 1));
  for (const auto& [query, n] : rows) {
    EXPECT_EQ(n, one_rows["co0"]) << query;
  }
}

TEST(ShardPlaneTest, DroppedRegistrationsRowsNeverReachItsSuccessor) {
  // DROP and CREATE of the same name at one instant, while a flush of the
  // old registration's rows is on the wire (and the other shard's may still
  // be pending on its worker). The czar attributes rows by fragment id, so
  // the old rows count as stale and the successor sees only its own.
  PlaneWorld w(2);
  std::size_t old_rows = 0;
  core::ExecOptions first;
  first.on_row = [&old_rows](const std::string&, const query::TimestampedRow&) {
    ++old_rows;
  };
  w.plane->exec_async(
      "CREATE AQ q AS SELECT s.id FROM sensor s WHERE s.accel_x > 100",
      std::move(first), [](util::Result<core::ExecResult> r) {
        ASSERT_TRUE(r.is_ok()) << r.status().message();
      });
  run_to_first_flush(w);
  // Still on the wire a moment later, so the old rows predate the
  // successor's registration.
  w.sys.run_for(Duration::micros(100));
  const shard::CzarStats& cs = w.plane->czar().stats();
  ASSERT_EQ(cs.rows_received, 0u) << "the first flush must be in flight";
  const std::uint64_t in_flight = w.plane->worker(0).stats().rows_sent +
                                  w.plane->worker(1).stats().rows_sent;
  ASSERT_GT(in_flight, 0u);

  const TimePoint registered = w.sys.loop().now();
  std::vector<TimePoint> successor_rows;
  w.plane->exec_async("DROP AQ q", {}, [](util::Result<core::ExecResult> r) {
    ASSERT_TRUE(r.is_ok()) << r.status().message();
  });
  core::ExecOptions second;
  second.on_row = [&successor_rows](const std::string& q,
                                    const query::TimestampedRow& r) {
    EXPECT_EQ(q, "q");
    successor_rows.push_back(r.at);
  };
  w.plane->exec_async(
      "CREATE AQ q AS SELECT s.id FROM sensor s WHERE s.accel_x > 100",
      std::move(second), [](util::Result<core::ExecResult> r) {
        ASSERT_TRUE(r.is_ok()) << r.status().message();
      });
  w.sys.run_for(Duration::seconds(7.5));  // ends between flushes

  EXPECT_EQ(old_rows, 0u);
  ASSERT_FALSE(successor_rows.empty());
  for (const TimePoint& at : successor_rows) EXPECT_GE(at, registered);
  EXPECT_GE(cs.stale_query_rows, in_flight);
  EXPECT_EQ(cs.rejected_groups, 0u);
  EXPECT_EQ(cs.rows_received + cs.stale_query_rows,
            w.plane->worker(0).stats().rows_sent +
                w.plane->worker(1).stats().rows_sent);
}

// Eight co-firing AQs on a clean 2-shard plane; with `drops`, q0's row hook
// drops q1, q3, q5 and q7 on its first row, while the merger is still
// releasing the frontier advance that carries their rows of that instant.
// Returns every hook call and drop, in order.
std::vector<std::string> run_czar_hook_drops(bool drops) {
  std::vector<std::string> log;
  PlaneWorld w(2);
  for (int k = 0; k < 8; ++k) {
    core::ExecOptions opts;
    opts.on_row = [&w, &log, drops, k, fired = false](
                      const std::string& q,
                      const query::TimestampedRow& r) mutable {
      std::string entry = q + "@" + std::to_string(r.at.to_micros());
      for (const auto& [column, value] : r.row) {
        entry += "|" + column + "=" + device::value_to_string(value);
      }
      log.push_back(entry);
      if (k != 0 || !drops || fired) return;
      fired = true;
      for (const char* victim : {"q1", "q3", "q5", "q7"}) {
        log.push_back(std::string("DROP ") + victim);
        EXPECT_TRUE(w.plane->czar().drop_aq(victim).is_ok()) << victim;
      }
    };
    w.plane->exec_async(
        "CREATE AQ q" + std::to_string(k) +
            " AS SELECT s.id, s.accel_x FROM sensor s WHERE s.accel_x > 100",
        std::move(opts), [](util::Result<core::ExecResult> r) {
          ASSERT_TRUE(r.is_ok()) << r.status().message();
        });
  }
  w.sys.run_for(Duration::seconds(8.0));
  return log;
}

// The log entries of `query` ("DROP" markers included), in order.
std::vector<std::string> entries_of(const std::vector<std::string>& log,
                                    const std::string& query) {
  std::vector<std::string> out;
  for (const std::string& entry : log) {
    if (entry.rfind(query + "@", 0) == 0 || entry == "DROP " + query) {
      out.push_back(entry);
    }
  }
  return out;
}

TEST(ShardPlaneTest, CzarRowHookMayDropAqsMidRelease) {
  const std::vector<std::string> dropped = run_czar_hook_drops(true);
  const std::vector<std::string> control = run_czar_hook_drops(false);

  // Rows of a dropped AQ stop at the drop, and the drop cut its stream
  // short: the merger held rows of it when the hook ran.
  for (const char* victim : {"q1", "q3", "q5", "q7"}) {
    std::vector<std::string> got = entries_of(dropped, victim);
    ASSERT_FALSE(got.empty()) << victim;
    EXPECT_EQ(got.back(), std::string("DROP ") + victim);
    EXPECT_LT(got.size() - 1, entries_of(control, victim).size()) << victim;
  }
  // Survivors get exactly the rows of the run without drops.
  for (const char* survivor : {"q0", "q2", "q4", "q6"}) {
    std::vector<std::string> rows = entries_of(control, survivor);
    EXPECT_GT(rows.size(), 6u) << survivor;
    EXPECT_EQ(entries_of(dropped, survivor), rows) << survivor;
  }
}

// A bare endpoint standing in for worker 0: it acks every fragment RPC so
// the czar registers AQs, and the test writes the result stream itself.
class ScriptedWorker : public net::Endpoint {
 public:
  explicit ScriptedWorker(net::Network* network) : network_(network) {}

  void on_message(const net::Message& msg) override {
    if (msg.is_request) network_->send(net::make_reply(msg, shard::kFragmentAck));
  }

  // The next sequenced message of shard 0's generation-0 stream.
  net::Message next(const char* kind) {
    net::Message msg;
    msg.src = shard::worker_node(0);
    msg.dst = shard::kCzarNode;
    msg.kind = kind;
    msg.set_int("shard", 0);
    msg.set_int("gen", 0);
    msg.set_int("seq", static_cast<std::int64_t>(seq_++));
    return msg;
  }
  net::Message flush(const shard::Flush& f) {
    net::Message msg = next(shard::kFragmentResults);
    msg.fields["flush"] = shard::encode_flush(f);
    return msg;
  }

 private:
  net::Network* network_;
  std::uint64_t seq_ = 0;
};

query::TimestampedRow value_row(double at_s, std::vector<device::Value> values) {
  query::TimestampedRow r;
  r.at = TimePoint() + Duration::seconds(at_s);
  for (auto& v : values) r.row.emplace_back("", std::move(v));
  return r;
}

TEST(CzarStreamTest, IdOnlyGroupsNeedTheShardsAnnouncement) {
  core::Aorta sys(core::Config{});
  ScriptedWorker worker(&sys.network());
  ASSERT_TRUE(sys.network()
                  .attach(shard::worker_node(0), &worker,
                          shard::backplane_link())
                  .is_ok());
  shard::Czar czar(&sys, shard::Czar::Options{.num_shards = 1});
  std::vector<query::TimestampedRow> delivered;
  core::ExecOptions opts;
  opts.on_row = [&delivered](const std::string&, query::TimestampedRow r) {
    delivered.push_back(std::move(r));
  };
  bool ok = false;
  czar.exec_async("CREATE AQ q AS SELECT s.temp FROM sensor s",
                  std::move(opts),
                  [&ok](util::Result<core::ExecResult> r) { ok = r.is_ok(); });
  sys.run_for(Duration::millis(10));
  ASSERT_TRUE(ok);
  const std::uint64_t id = 1;  // the czar's first fragment id
  const shard::CzarStats& cs = czar.stats();

  // Id-only before the announcement: counted and rejected.
  czar.on_message(worker.flush({{{id, {}, 1}}, {value_row(0.1, {1.0})}, {}}));
  EXPECT_EQ(cs.rejected_groups, 1u);
  EXPECT_EQ(cs.rows_received, 0u);
  // The announcement, then id-only groups that fit it.
  czar.on_message(
      worker.flush({{{id, {"s.temp"}, 1}}, {value_row(0.2, {2.0})}, {}}));
  czar.on_message(worker.flush({{{id, {}, 1}}, {value_row(0.3, {3.0})}, {}}));
  EXPECT_EQ(cs.rows_received, 2u);
  // A row that does not fit the labels, and an unknown fragment id.
  czar.on_message(
      worker.flush({{{id, {}, 1}}, {value_row(0.4, {4.0, 5.0})}, {}}));
  czar.on_message(worker.flush({{{99, {"x"}, 1}}, {value_row(0.5, {6.0})}, {}}));
  EXPECT_EQ(cs.rejected_groups, 2u);
  EXPECT_EQ(cs.stale_query_rows, 1u);
  EXPECT_EQ(cs.rows_received, 2u);

  net::Message hb = worker.next(shard::kShardHeartbeat);
  hb.set_int("watermark_us", 1000000);
  czar.on_message(hb);
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0].row[0].first, "s.temp");  // stamped by the czar
  EXPECT_EQ(std::get<double>(delivered[0].row[0].second), 2.0);
  EXPECT_EQ(delivered[1].row[0].first, "s.temp");
  EXPECT_EQ(std::get<double>(delivered[1].row[0].second), 3.0);
  ASSERT_TRUE(sys.network().detach(shard::worker_node(0)).is_ok());
}

// ------------------------------------------- service-layer num_shards

TEST(ShardServiceTest, SessionsRouteThroughTheCzar) {
  core::Aorta sys(core::Config{});
  ServiceConfig cfg;
  cfg.num_shards = 2;
  QueryService service(&sys, cfg);
  ASSERT_NE(service.plane(), nullptr);
  for (int i = 0; i < 4; ++i) {
    std::string id = "m" + std::to_string(i);
    ASSERT_TRUE(service.plane()->add_mote(id, {double(i), 0, 1}).is_ok());
    service.plane()->mote(id)->reliability().glitch_prob = 0.0;
    (void)service.plane()->mote(id)->set_signal(
        "temp", devices::constant_signal(20.0 + i));
    (void)sys.network().set_link(id, shard::backplane_link());
  }

  SessionId id = service.connect("acme");
  ASSERT_TRUE(service.submit(id, "SELECT s.temp FROM sensor s").is_ok());
  ASSERT_TRUE(service
                  .submit(id, "CREATE AQ watch AS SELECT s.temp FROM sensor s "
                              "WHERE s.temp > 0")
                  .is_ok());
  sys.run_for(Duration::seconds(6.0));

  std::vector<Delivery> mail = service.session(id)->drain();
  bool saw_select = false, saw_row = false;
  for (const Delivery& d : mail) {
    if (d.kind == Delivery::Kind::kResult && !d.rows.empty()) {
      saw_select = true;
      EXPECT_EQ(d.rows.size(), 4u);
    }
    if (d.kind == Delivery::Kind::kRow) {
      saw_row = true;
      EXPECT_EQ(d.query, "s1/watch");  // session namespace prefix preserved
    }
    EXPECT_NE(d.kind, Delivery::Kind::kError) << d.message;
  }
  EXPECT_TRUE(saw_select);
  EXPECT_TRUE(saw_row);
  EXPECT_EQ(service.plane()->czar().stats().selects, 1u);

  // Disconnect tears the session's fragments down on every worker.
  ASSERT_TRUE(service.disconnect(id).is_ok());
  sys.run_for(Duration::seconds(1.0));
  EXPECT_EQ(service.plane()->worker(0).fragment_count(), 0u);
  EXPECT_EQ(service.plane()->worker(1).fragment_count(), 0u);

  // The sharded sections show up in the deterministic metrics walk.
  std::string json = service.stats_json();
  for (const char* key : {"\"shard\"", "\"czar\"", "\"merge\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(ShardServiceTest, SyntaxErrorsAreRefusedAtSubmit) {
  // Sharded and unsharded alike: submit parses the statement, refuses it
  // with the parser's error, and nothing reaches admission or an engine.
  for (int num_shards : {0, 2}) {
    core::Aorta sys(core::Config{});
    ServiceConfig cfg;
    cfg.num_shards = num_shards;
    QueryService service(&sys, cfg);
    SessionId id = service.connect("acme");
    const std::string bad = "SELEC s.temp FROM sensor s";
    auto refused = service.submit(id, bad);
    ASSERT_FALSE(refused.is_ok()) << num_shards;
    EXPECT_EQ(refused.status().to_string(),
              query::parse(bad).status().to_string());
    EXPECT_EQ(service.admission().stats().submitted, 0u);
    EXPECT_EQ(service.tenant_stats().at("acme").errors, 1u);
    EXPECT_EQ(service.session(id)->stats().errors, 1u);
    sys.run_for(Duration::seconds(1.0));
    EXPECT_TRUE(service.session(id)->drain().empty());
    if (num_shards > 0) {
      EXPECT_EQ(service.plane()->czar().stats().selects, 0u);
    }
  }
}

TEST(ShardServiceTest, SingleShardAblationServesTheSameInterface) {
  core::Aorta sys(core::Config{});
  ServiceConfig cfg;
  cfg.num_shards = 1;  // all devices on shard 0: the ablation baseline
  QueryService service(&sys, cfg);
  ASSERT_TRUE(service.plane()->add_mote("m1", {0, 0, 1}).is_ok());
  service.plane()->mote("m1")->reliability().glitch_prob = 0.0;
  (void)service.plane()->mote("m1")->set_signal(
      "temp", devices::constant_signal(25.0));
  (void)sys.network().set_link("m1", shard::backplane_link());

  SessionId id = service.connect("acme");
  ASSERT_TRUE(service.submit(id, "SELECT s.temp FROM sensor s").is_ok());
  sys.run_for(Duration::seconds(3.0));
  std::vector<Delivery> mail = service.session(id)->drain();
  bool saw_select = false;
  for (const Delivery& d : mail) {
    if (d.kind == Delivery::Kind::kResult) {
      saw_select = true;
      ASSERT_EQ(d.rows.size(), 1u);
      double v = 0;
      ASSERT_TRUE(device::value_as_double(d.rows[0][0].second, &v));
      EXPECT_EQ(v, 25.0);
    }
  }
  EXPECT_TRUE(saw_select);
}

// A sharded service may be torn down while its host keeps running. Nothing
// of the plane may outlive it: no worker tracer in the host's export list,
// no event of a destroyed slice on its loop, and no czar RPC timeout on
// the control loop (each of these was a heap-use-after-free under ASan).
TEST(ShardPlaneTest, ServiceDestroyedMidRunLeavesNothingBehind) {
  core::Config config;
  config.tracing = true;
  core::Aorta sys(config);
  ServiceConfig cfg;
  cfg.num_shards = 2;
  auto service = std::make_unique<QueryService>(&sys, cfg);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(service->plane()
                    ->add_mote("m" + std::to_string(i), {double(i), 0, 1})
                    .is_ok());
  }
  SessionId id = service->connect("acme");
  ASSERT_TRUE(service->submit(id, "CREATE AQ hot AS SELECT s.temp FROM "
                                  "sensor s WHERE s.temp > 0")
                  .is_ok());
  ASSERT_TRUE(service->submit(id, "CREATE AQ all AS SELECT s.id, s.light "
                                  "FROM sensor s")
                  .is_ok());
  sys.run_for(Duration::seconds(3.3));
  ASSERT_TRUE(service->submit(id, "SELECT s.temp FROM sensor s").is_ok());
  sys.run_for(Duration::seconds(0.15));
  // The SELECT's fragment calls are still in flight at teardown.
  EXPECT_GT(sys.metrics().gauge_value("shard.czar.peers.0.in_flight") +
                sys.metrics().gauge_value("shard.czar.peers.1.in_flight"),
            0);
  EXPECT_EQ(sys.tracers().size(), 3u);

  service.reset();
  for (int loop = 1; loop < sys.runtime().size(); ++loop) {
    EXPECT_EQ(sys.runtime().loop(loop)->pending(), 0u) << loop;
  }
  sys.run_for(Duration::seconds(5.0));
  EXPECT_EQ(sys.tracers().size(), 1u);
  const std::string json = sys.trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

}  // namespace
}  // namespace aorta
