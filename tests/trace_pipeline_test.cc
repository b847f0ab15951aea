// End-to-end span tracing over a full pipeline run:
//
//   * a 32-AQ workload exports a Chrome trace whose per-stage spans cover
//     >= 95% of every epoch's processing window (the acceptance bar for
//     the span taxonomy being complete: no untraced stage gaps);
//   * the exported file is valid Chrome trace-event JSON (CI re-validates
//     the artifact with tools/validate_trace.py);
//   * a disabled tracer adds zero allocations on the sweep path — the
//     instrumentation sites cost one branch, nothing else;
//   * a delivered row costs a bounded number of allocations from fire to
//     mailbox through a 2-shard plane (the schema-once row path), and so
//     does a delivered continuous aggregate row;
//   * so does a one-shot SELECT, from submit to its result in the mailbox;
//   * a registered AQ holds a bounded number of live heap bytes across the
//     czar, the workers and the service (a fragment keeps only what
//     evaluation reads);
//   * a compiled program of fanout's shapes holds one heap block;
//   * a hook-less AQ's results ring keeps its newest 256 rows.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/aorta.h"
#include "obs/trace.h"
#include "query/eval_program.h"
#include "query/parser.h"
#include "server/service.h"
#include "shard/fragment.h"
#include "shard/plane.h"
#include "util/time.h"

// ---- counting allocator -----------------------------------------------------
// Replacing global operator new in this TU counts every allocation in the
// test binary, and the blocks and bytes that are live (malloc_usable_size,
// so allocator rounding counts too); the tests diff the counters around
// the work they measure.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::int64_t> g_live_blocks{0};
std::atomic<std::int64_t> g_live_bytes{0};

void* counted_malloc(std::size_t size) noexcept {
  ++g_allocations;
  void* p = std::malloc(size ? size : 1);
  if (p != nullptr) {
    ++g_live_blocks;
    g_live_bytes += static_cast<std::int64_t>(malloc_usable_size(p));
  }
  return p;
}

void counted_free(void* p) noexcept {
  if (p != nullptr) {
    --g_live_blocks;
    g_live_bytes -= static_cast<std::int64_t>(malloc_usable_size(p));
  }
  std::free(p);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}

// The nothrow forms too (std::stable_sort's temporary buffer uses them):
// every allocation must come from, and return to, the same malloc.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace aorta {
namespace {

using obs::Span;
using obs::SpanCat;
using util::Duration;
using util::TimePoint;

std::unique_ptr<core::Aorta> make_system(bool tracing, int aqs) {
  core::Config cfg;
  cfg.seed = 1234;
  cfg.tracing = tracing;
  auto sys = std::make_unique<core::Aorta>(cfg);
  (void)sys->add_mote("m1", {1, 1, 1});
  (void)sys->add_mote("m2", {2, 2, 1});
  (void)sys->add_mote("m3", {3, 1, 2});
  (void)sys->add_mote("m4", {4, 2, 2});
  for (int i = 0; i < aqs; ++i) {
    auto r = sys->exec("CREATE AQ q" + std::to_string(i) +
                       " AS SELECT s.id, s.accel_x FROM sensor s "
                       "WHERE s.accel_x > " +
                       std::to_string(100 + i));
    EXPECT_TRUE(r.is_ok()) << r.status().message();
  }
  return sys;
}

// Union length of [lo, hi) intervals clipped to [w_lo, w_hi).
std::int64_t covered_micros(std::vector<std::pair<std::int64_t, std::int64_t>>
                                iv,
                            std::int64_t w_lo, std::int64_t w_hi) {
  std::sort(iv.begin(), iv.end());
  std::int64_t covered = 0, cursor = w_lo;
  for (const auto& [lo, hi] : iv) {
    std::int64_t a = std::max(lo, cursor), b = std::min(hi, w_hi);
    if (b > a) {
      covered += b - a;
      cursor = b;
    }
  }
  return covered;
}

TEST(TracePipelineTest, ThirtyTwoAqRunExportsSpansCoveringEpochWindows) {
  auto sys = make_system(/*tracing=*/true, /*aqs=*/32);
  sys->run_for(Duration::seconds(10));

  const std::vector<Span> spans = sys->tracer().snapshot();
  ASSERT_FALSE(spans.empty());

  // Every taxonomy stage that a plain sensor workload exercises shows up.
  bool saw[obs::kSpanCatCount] = {false};
  for (const Span& s : spans) saw[static_cast<int>(s.cat)] = true;
  EXPECT_TRUE(saw[static_cast<int>(SpanCat::kParse)]);
  EXPECT_TRUE(saw[static_cast<int>(SpanCat::kRegister)]);
  EXPECT_TRUE(saw[static_cast<int>(SpanCat::kSweep)]);
  EXPECT_TRUE(saw[static_cast<int>(SpanCat::kRpc)]);
  EXPECT_TRUE(saw[static_cast<int>(SpanCat::kEval)]);
  EXPECT_TRUE(saw[static_cast<int>(SpanCat::kEpoch)]);

  // Per-stage spans must cover >= 95% of each epoch's processing window
  // (tick start -> last flush). Zero-length epochs (nothing to do) carry
  // no window to cover.
  std::int64_t total_window = 0, total_covered = 0;
  std::size_t windows = 0;
  for (const Span& e : spans) {
    if (e.cat != SpanCat::kEpoch || e.dur.to_micros() <= 0) continue;
    const std::int64_t lo = e.start.to_micros();
    const std::int64_t hi = lo + e.dur.to_micros();
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (const Span& s : spans) {
      if (s.cat == SpanCat::kEpoch || s.dur.to_micros() <= 0) continue;
      iv.emplace_back(s.start.to_micros(), s.start.to_micros() + s.dur.to_micros());
    }
    total_window += hi - lo;
    total_covered += covered_micros(std::move(iv), lo, hi);
    ++windows;
  }
  ASSERT_GT(windows, 0u);
  EXPECT_GE(static_cast<double>(total_covered),
            0.95 * static_cast<double>(total_window))
      << "per-stage spans cover " << total_covered << "/" << total_window
      << " virtual micros across " << windows << " epoch windows";

  // Export the artifact CI validates with tools/validate_trace.py.
  const std::string path = "obs_trace_32aq.json";
  ASSERT_TRUE(sys->tracer().export_file(path).is_ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) content.append(buf, n);
  std::fclose(f);
  EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(content.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(content.find("\"ph\":\"X\""), std::string::npos);
}

TEST(TracePipelineTest, DisabledTracerAddsZeroAllocationsOnSweepPath) {
  // Two identical systems and workloads; the only difference is whether
  // the (disabled) tracer is attached to the sweep path's components.
  // Disabled instrumentation must allocate nothing, so the counts match.
  auto attached = make_system(/*tracing=*/false, /*aqs=*/4);
  auto detached = make_system(/*tracing=*/false, /*aqs=*/4);
  detached->scan_broker().set_tracer(nullptr);
  detached->executor().set_tracer(nullptr);
  detached->comm().engine().rpc().set_tracer(nullptr);

  // Warm both systems past one epoch so lazily-built state exists.
  attached->run_for(Duration::seconds(2));
  detached->run_for(Duration::seconds(2));

  const std::uint64_t before_attached = g_allocations.load();
  attached->run_for(Duration::seconds(5));
  const std::uint64_t attached_allocs = g_allocations.load() - before_attached;

  const std::uint64_t before_detached = g_allocations.load();
  detached->run_for(Duration::seconds(5));
  const std::uint64_t detached_allocs = g_allocations.load() - before_detached;

  EXPECT_EQ(attached_allocs, detached_allocs);
}

TEST(TracePipelineTest, ShardedRowPathStaysWithinAllocationBudget) {
  // Steady state of a small 2-shard plane: 64 level-triggered AQs over 8
  // motes, so 512 rows per epoch go worker -> backplane -> czar merge ->
  // session mailbox. Every allocation of the process counts (sweeps,
  // RPCs, heartbeats too), divided by the rows that reached a mailbox.
  // The text-codec, name-keyed path made 11.4 per row here, and the
  // schema-once row path 4.1 (4.03 once SELECT plans were reused). With
  // a fired row leaving the executor as values that the worker encodes
  // straight into its flush, no row is built on the worker: 2.98.
  core::Config cfg;
  cfg.seed = 7;
  core::Aorta sys(cfg);
  server::ServiceConfig sc;
  sc.num_shards = 2;
  sc.mailbox_capacity = 1 << 16;
  server::QueryService service(&sys, sc);
  for (int i = 0; i < 8; ++i) {
    const std::string id = "m" + std::to_string(i);
    ASSERT_TRUE(service.plane()->add_mote(id, {double(i), 0, 1}).is_ok());
    service.plane()->mote(id)->reliability().glitch_prob = 0.0;
    (void)sys.network().set_link(id, shard::backplane_link());
  }
  std::vector<server::SessionId> sessions;
  for (int s = 0; s < 4; ++s) {
    sessions.push_back(service.connect("t" + std::to_string(s)));
    for (int k = 0; k < 16; ++k) {
      ASSERT_TRUE(service
                      .submit(sessions.back(),
                              "CREATE AQ q" + std::to_string(k) +
                                  " AS SELECT s.id, s.temp FROM sensor s "
                                  "WHERE s.hops = 1")
                      .is_ok());
    }
  }
  auto rows = [&]() {
    std::uint64_t n = 0;
    for (server::SessionId id : sessions) n += service.session(id)->stats().rows;
    return n;
  };
  sys.run_for(Duration::seconds(3));
  for (server::SessionId id : sessions) (void)service.session(id)->drain();

  const std::uint64_t rows_before = rows();
  const std::uint64_t allocs_before = g_allocations.load();
  sys.run_for(Duration::seconds(10));
  const std::uint64_t allocs = g_allocations.load() - allocs_before;
  const std::uint64_t delivered = rows() - rows_before;

  ASSERT_GE(delivered, 4000u);
  const double per_row =
      static_cast<double>(allocs) / static_cast<double>(delivered);
  EXPECT_LE(per_row, 3.3) << allocs << " allocations for " << delivered
                          << " delivered rows";
}

TEST(TracePipelineTest, ContinuousAggregateRowsStayWithinAllocationBudget) {
  // Steady state of co-hashed windowed aggregates on a 2-shard plane: 64
  // AQs of one shape over 8 motes at three hop depths share one cache
  // entry per worker. Every second each worker closes a pane and emits a
  // partial row per AQ and hop group it holds, and the czar folds the two
  // shards' partials into one row per AQ, group and window for the
  // session mailbox. Every allocation of the process counts, divided by
  // the aggregate rows that reached a mailbox. Building a labelled row
  // per partial, growing it item by item, made 12.63 per row here;
  // staging each pane's partials as flat values that the worker encodes
  // straight into its flush makes 6.41.
  core::Config cfg;
  cfg.seed = 7;
  core::Aorta sys(cfg);
  server::ServiceConfig sc;
  sc.num_shards = 2;
  sc.mailbox_capacity = 1 << 16;
  server::QueryService service(&sys, sc);
  for (int i = 0; i < 8; ++i) {
    const std::string id = "m" + std::to_string(i);
    ASSERT_TRUE(
        service.plane()->add_mote(id, {double(i), 0, 1}, 1 + i % 3).is_ok());
    service.plane()->mote(id)->reliability().glitch_prob = 0.0;
    (void)sys.network().set_link(id, shard::backplane_link());
  }
  std::vector<server::SessionId> sessions;
  for (int s = 0; s < 4; ++s) {
    sessions.push_back(service.connect("t" + std::to_string(s)));
    for (int k = 0; k < 16; ++k) {
      ASSERT_TRUE(service
                      .submit(sessions.back(),
                              "CREATE AQ a" + std::to_string(k) +
                                  " AS SELECT s.hops, avg(s.temp), "
                                  "max(s.temp) FROM sensor s GROUP BY "
                                  "s.hops WINDOW 2s EVERY 1s")
                      .is_ok());
    }
  }
  auto rows = [&]() {
    std::uint64_t n = 0;
    for (server::SessionId id : sessions) n += service.session(id)->stats().rows;
    return n;
  };
  sys.run_for(Duration::seconds(4));
  for (server::SessionId id : sessions) (void)service.session(id)->drain();

  const std::uint64_t rows_before = rows();
  const std::uint64_t allocs_before = g_allocations.load();
  sys.run_for(Duration::seconds(10));
  const std::uint64_t allocs = g_allocations.load() - allocs_before;
  const std::uint64_t delivered = rows() - rows_before;

  ASSERT_GE(delivered, 1500u);
  const double per_row =
      static_cast<double>(allocs) / static_cast<double>(delivered);
  EXPECT_LE(per_row, 7.0) << allocs << " allocations for " << delivered
                          << " delivered aggregate rows";
}

TEST(TracePipelineTest, OneShotSelectStaysWithinAllocationBudget) {
  // One-shot SELECTs over static attributes through a 2-shard plane of 32
  // motes: each is admitted, planned by the czar, run as one fragment per
  // shard (a broker acquisition over the shard's motes that needs no
  // radio) and merged into the session's mailbox. Every allocation of the
  // process counts (heartbeats and service ticks too), divided by the
  // SELECTs completed. Name-keyed broker batches with a projected copy of
  // every tuple made 527 per SELECT here; slot masks, the per-type device
  // table and the lone-waiter hand-over made 429; compiling against the
  // catalog's shared table schemas, not a copy per statement, made 409;
  // parsing each statement once, at submit, and letting each worker
  // reuse its plan of the repeated text made 292; shipping the rows on
  // the worker's flush stream, not on the fragment RPC's reply, made 258;
  // resetting a broker tuple block per acquisition and writing the rows'
  // values straight into the flush, with no Tuple or Row per device or
  // row, makes 162.
  core::Config cfg;
  cfg.seed = 7;
  core::Aorta sys(cfg);
  server::ServiceConfig sc;
  sc.num_shards = 2;
  sc.mailbox_capacity = 1 << 16;
  server::QueryService service(&sys, sc);
  for (int i = 0; i < 32; ++i) {
    const std::string id = "m" + std::to_string(i);
    ASSERT_TRUE(service.plane()->add_mote(id, {double(i), 0, 1}).is_ok());
  }
  const server::SessionId session = service.connect("t");
  auto completed = [&]() { return service.session(session)->stats().completed; };
  auto burst = [&]() {
    for (int k = 0; k < 20; ++k) {
      ASSERT_TRUE(service
                      .submit(session,
                              "SELECT s.id, s.loc FROM sensor s "
                              "WHERE s.hops = 1")
                      .is_ok());
    }
    sys.run_for(Duration::seconds(1));
  };
  burst();
  (void)service.session(session)->drain();

  const std::uint64_t done_before = completed();
  const std::uint64_t allocs_before = g_allocations.load();
  for (int round = 0; round < 20; ++round) burst();
  const std::uint64_t allocs = g_allocations.load() - allocs_before;
  const std::uint64_t selects = completed() - done_before;

  ASSERT_EQ(selects, 400u);
  for (const server::Delivery& d : service.session(session)->drain()) {
    ASSERT_EQ(d.kind, server::Delivery::Kind::kResult) << d.message;
    ASSERT_EQ(d.rows.size(), 32u);
  }
  const double per_select =
      static_cast<double>(allocs) / static_cast<double>(selects);
  EXPECT_LE(per_select, 175.0) << allocs << " allocations for " << selects
                             << " SELECTs";
}

// Standing AQ number `j` of the pipeline benchmark's fanout mix, over
// motes m0..m31: out of every 50, 18 level-triggered points, 6 temp
// half-lines, 10 light intervals, 8 edge-triggered spikes per hop depth, 7
// windowed aggregates (its ten shapes in turn) and 1 action AQ.
std::string fanout_body(int j) {
  static const char* const kAggShapes[] = {
      "SELECT avg(s.temp) FROM sensor s GROUP BY s.hops WINDOW 4s EVERY 2s",
      "SELECT max(s.accel_x) FROM sensor s GROUP BY s.hops WINDOW 6s EVERY 2s",
      "SELECT count(s.temp) FROM sensor s WHERE s.temp > 21 WINDOW 4s",
      "SELECT min(s.light), max(s.light) FROM sensor s WINDOW 10s EVERY 5s",
      "SELECT sum(s.light) FROM sensor s WINDOW 5s",
      "SELECT avg(s.temp) FROM sensor s WINDOW 4s EVERY 2s",
      "SELECT count(*), max(s.light) FROM sensor s GROUP BY s.hops "
      "WINDOW 10s",
      "SELECT min(s.temp), max(s.temp) FROM sensor s GROUP BY s.hops "
      "WINDOW 8s",
      "SELECT avg(s.light), count(*) FROM sensor s WINDOW 2s",
      "SELECT sum(s.temp), count(*) FROM sensor s GROUP BY s.hops "
      "WINDOW 6s EVERY 3s",
  };
  const int slot = j % 50;
  const std::string mote = "'m" + std::to_string(j * 7 % 32) + "'";
  if (slot < 18) {
    return "SELECT s.id, s.temp FROM sensor s WHERE s.id = " + mote;
  }
  if (slot < 24) {
    return "SELECT s.id, s.temp FROM sensor s WHERE s.temp > " +
           std::to_string(21 + j % 4);
  }
  if (slot < 34) {
    const int lo = 110 + j % 350;
    return "SELECT s.id, s.light FROM sensor s WHERE s.light > " +
           std::to_string(lo) + " AND s.light < " + std::to_string(lo + 20);
  }
  if (slot < 42) {
    return "SELECT s.id, s.accel_x FROM sensor s WHERE s.accel_x > 500 "
           "AND s.hops = " +
           std::to_string(1 + j % 3);
  }
  if (slot < 49) return kAggShapes[(j / 50 + slot) % 10];
  return "SELECT beep(s.id) FROM sensor s WHERE s.accel_x > 500 AND s.id = " +
         mote;
}

TEST(TracePipelineTest, RegisteredAqsStayWithinMemoryBudget) {
  // 2,000 standing AQs of fanout's shapes from 20 sessions on a 2-shard
  // plane of 32 motes: the live heap bytes they add, per AQ, from just
  // before registration to once every registration has settled (czar and
  // service bookkeeping, worker fragments, delivery groups, index entries
  // and aggregate-cache subscribers together, plus the rows in flight at
  // that instant). Fragments that kept their expression trees, pushdown
  // sets, statement text, an own copy of the sensor schema and an empty
  // results deque held 10.7 KB per AQ here; keeping only what evaluation
  // reads made 5.2 KB, and a compact plan instead of a whole compiled
  // query (one heap block per program, event programs an exact index
  // constraint covers dropped) makes 3.1 KB.
  core::Config cfg;
  cfg.seed = 3;
  core::Aorta sys(cfg);
  server::ServiceConfig sc;
  sc.num_shards = 2;
  sc.mailbox_capacity = 1 << 16;
  sc.max_dispatch_per_tick = 2048;
  sc.admission.queue_capacity = 1 << 16;
  sc.admission.max_aqs_per_tenant = 1 << 20;
  server::QueryService service(&sys, sc);
  for (int i = 0; i < 32; ++i) {
    const std::string id = "m" + std::to_string(i);
    ASSERT_TRUE(service.plane()
                    ->add_mote(id, {double(i % 8), double(i / 8), 1},
                               1 + i % 3)
                    .is_ok());
  }
  std::vector<server::SessionId> sessions;
  for (int s = 0; s < 20; ++s) {
    sessions.push_back(service.connect("t" + std::to_string(s % 5)));
  }
  sys.run_for(Duration::seconds(2));
  for (server::SessionId id : sessions) (void)service.session(id)->drain();

  constexpr int kAqs = 2000;
  const std::int64_t live_before = g_live_bytes.load();
  for (int j = 0; j < kAqs; ++j) {
    const server::SessionId id = sessions[static_cast<std::size_t>(j % 20)];
    ASSERT_TRUE(service
                    .submit(id, "CREATE AQ q" + std::to_string(j / 20) +
                                    " AS " + fanout_body(j))
                    .is_ok());
  }
  sys.run_for(Duration::seconds(2));
  std::uint64_t created = 0;
  for (server::SessionId id : sessions) {
    for (const server::Delivery& d : service.session(id)->drain()) {
      ASSERT_NE(d.kind, server::Delivery::Kind::kError) << d.message;
      if (d.kind == server::Delivery::Kind::kResult) ++created;
    }
  }
  ASSERT_EQ(created, static_cast<std::uint64_t>(kAqs));
  const double per_aq =
      static_cast<double>(g_live_bytes.load() - live_before) / kAqs;
  EXPECT_LE(per_aq, 3600.0) << "live bytes per registered AQ";
}

TEST(TracePipelineTest, CompiledProgramsHoldOneHeapBlockEach) {
  // fanout's event predicates, projections and aggregate arguments, each
  // compiled alone as compile() lowers them: a program keeps its
  // instructions, constants, functions and names in one block, and so
  // does each copy (the aggregate cache copies programs). Five vectors
  // per program took four blocks for a fused compare.
  const comm::Schema schema("sensor",
                            {{"id", device::AttrType::kString, false},
                             {"hops", device::AttrType::kInt, false},
                             {"temp", device::AttrType::kDouble, true},
                             {"light", device::AttrType::kDouble, true},
                             {"accel_x", device::AttrType::kDouble, true}});
  const std::vector<std::string> aliases = {"s"};
  const std::map<std::string, const comm::Schema*> schemas = {
      {"s", &schema}};
  const query::FunctionRegistry functions;
  comm::Tuple tuple(&schema, "m7");
  tuple.set_by_name("id", device::Value{std::string("m7")});
  tuple.set_by_name("hops", device::Value{std::int64_t{2}});
  tuple.set_by_name("temp", device::Value{23.5});
  tuple.set_by_name("light", device::Value{120.0});
  tuple.set_by_name("accel_x", device::Value{640.0});
  query::BindingFrame frame;
  frame.size = 1;
  frame.set(0, &tuple);

  struct Shape {
    const char* text;
    const char* value;  // value_to_string of the result over `tuple`
  };
  for (const Shape& shape : {
           Shape{"s.id = 'm7'", "TRUE"},
           Shape{"s.temp > 23.45", "TRUE"},
           Shape{"s.light > 110", "TRUE"},
           Shape{"s.light < 131", "TRUE"},
           Shape{"s.accel_x > 500", "TRUE"},
           Shape{"s.hops = 3", "FALSE"},
           Shape{"s.id", "'m7'"},
           Shape{"s.temp", "23.5"},
           Shape{"s.light", "120"},
           Shape{"s.accel_x", "640"},
       }) {
    auto expr = query::parse_expression(shape.text);
    ASSERT_TRUE(expr.is_ok()) << shape.text;
    std::vector<query::EvalProgram> programs;
    programs.reserve(2);
    const std::int64_t before = g_live_blocks.load();
    {
      auto compiled = query::EvalProgram::compile(*expr.value(), aliases,
                                                  schemas, functions);
      ASSERT_TRUE(compiled.is_ok()) << shape.text;
      programs.push_back(std::move(compiled).value());
    }
    EXPECT_LE(g_live_blocks.load() - before, 1) << shape.text;
    programs.push_back(programs.front());
    EXPECT_LE(g_live_blocks.load() - before, 2) << shape.text;
    for (const query::EvalProgram& program : programs) {
      auto v = program.run(frame);
      ASSERT_TRUE(v.is_ok()) << shape.text;
      EXPECT_EQ(device::value_to_string(v.value()), shape.value)
          << shape.text;
    }
  }
}

TEST(TracePipelineTest, HooklessResultsRingKeepsTheNewest256Rows) {
  // A level-triggered AQ over one lossless mote fires every epoch: 300
  // rows in 300 s, of which the ring keeps the last 256, oldest first.
  auto sys = make_system(/*tracing=*/false, /*aqs=*/0);
  sys->mote("m1")->reliability().glitch_prob = 0.0;
  ASSERT_TRUE(sys->network().set_link("m1", shard::backplane_link()).is_ok());
  ASSERT_TRUE(sys->exec("CREATE AQ ring AS SELECT s.id FROM sensor s "
                        "WHERE s.id = 'm1'")
                  .is_ok());
  ASSERT_TRUE(sys->exec("CREATE AQ idle AS SELECT s.id FROM sensor s "
                        "WHERE s.id = 'nobody'")
                  .is_ok());
  sys->run_for(Duration::seconds(300));
  const std::vector<query::TimestampedRow> rows =
      sys->executor().recent_results("ring");
  ASSERT_EQ(rows.size(), 256u);
  EXPECT_EQ(sys->query_stats("ring")->events, 300u);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i - 1].at, rows[i].at);
  }
  EXPECT_GT(rows.front().at, TimePoint() + Duration::seconds(300 - 256));
  EXPECT_GT(rows.back().at, TimePoint() + Duration::seconds(299));
  EXPECT_TRUE(sys->executor().recent_results("idle").empty());
}

}  // namespace
}  // namespace aorta

