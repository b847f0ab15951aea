// Per-query span tracing stamped with virtual-clock times.
//
// The paper's evaluation (PAPER.md §4, Fig. 5) decomposes end-to-end query
// latency into device access / network / query processing stages. The
// Tracer records those stages as *spans* — (category, name, start, end,
// detail) — over the simulation clock, so a single run yields the same
// per-stage breakdown the paper measures, for every query, without
// bench-specific plumbing.
//
// Span taxonomy (one category per pipeline stage, DESIGN.md §10):
//
//   parse     SQL text -> AST                   (server / executor entry)
//   register  AQ registration + scan subscribe  (executor)
//   sweep     one ScanBroker batch: issue ->    (comm)
//             barrier for a device type
//   rpc       a single device RPC in flight     (net)
//   eval      predicate evaluation over a batch (query, per AQ)
//   action    action-operator flush             (query)
//   delivery  tuple hand-off to the tenant      (server)
//   epoch     one executor tick: sweep + flush  (query, brackets the rest)
//   health    quarantine / recovery transitions (core)
//   fragment  czar fragment dispatch / worker    (shard)
//             registration of a query fragment
//   merge     czar merge of per-shard result    (shard)
//             streams up to a watermark frontier
//
// Spans land in a fixed-capacity ring buffer (bounded memory; oldest spans
// are overwritten) that grows with the spans recorded, so a tracer that
// never records (tracing off) holds no ring at all. They export as Chrome
// trace-event JSON ("X" complete
// events, ts/dur in virtual microseconds, one tid per category) which
// loads directly in Perfetto / chrome://tracing.
//
// Cost when off: instrumentation sites use AORTA_TRACE_SPAN, which guards
// on the enabled flag *before* evaluating its name/detail arguments — a
// disabled tracer costs one predictable branch and zero allocations.
// Compiling with -DAORTA_DISABLE_TRACING removes even the branch.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/json_writer.h"
#include "util/status.h"
#include "util/time.h"

namespace aorta::obs {

enum class SpanCat : std::uint8_t {
  kParse = 0,
  kRegister,
  kSweep,
  kRpc,
  kEval,
  kAction,
  kDelivery,
  kEpoch,
  kHealth,
  kFragment,
  kMerge,
};
inline constexpr int kSpanCatCount = 11;

std::string_view span_cat_name(SpanCat cat);

struct Span {
  util::TimePoint start;
  util::Duration dur;
  SpanCat cat = SpanCat::kParse;
  std::string name;
  std::string detail;  // query id / device / reason; empty = none
};

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  explicit Tracer(std::size_t capacity = kDefaultCapacity);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  // Record a completed span [start, end]. No-op when disabled.
  void record(SpanCat cat, std::string name, util::TimePoint start,
              util::TimePoint end, std::string detail = {});
  // Zero-duration marker (rendered as a 0-dur complete event).
  void instant(SpanCat cat, std::string name, util::TimePoint at,
               std::string detail = {});

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;               // spans currently retained
  std::uint64_t recorded() const { return recorded_; }  // lifetime total
  std::uint64_t dropped() const;          // overwritten by ring wrap

  // Retained spans, oldest first.
  std::vector<Span> snapshot() const;
  void clear();

  // Chrome trace-event JSON: {"displayTimeUnit":"ms","traceEvents":[...]}.
  // Categories become named threads (metadata "M" events) so Perfetto
  // shows one track per pipeline stage.
  void write_chrome_json(util::JsonWriter& w) const;
  std::string chrome_json() const;
  util::Status export_file(const std::string& path) const;

 private:
  std::size_t capacity_;
  std::vector<Span> ring_;      // grows to capacity_, then wraps
  std::size_t next_ = 0;        // ring write cursor
  std::uint64_t recorded_ = 0;  // lifetime spans recorded
  bool enabled_ = false;
};

// Merged export over several tracers (one per runtime loop under the
// parallel runtime). Spans are interleaved in (start time, tracer index,
// per-tracer order) order — a pure function of virtual time and the fixed
// tracer list, so the merged document is byte-identical across thread
// counts for same-seed runs. Null tracers in the list are skipped.
void write_merged_chrome_json(util::JsonWriter& w,
                              const std::vector<const Tracer*>& tracers);
std::string merged_chrome_json(const std::vector<const Tracer*>& tracers);
util::Status export_merged_file(const std::string& path,
                                const std::vector<const Tracer*>& tracers);

}  // namespace aorta::obs

// Instrumentation macros. `tracer` is an `obs::Tracer*` (may be null).
// AORTA_TRACE_SPAN's name/detail arguments are only evaluated when the
// tracer is live — string formatting at call sites is free when tracing
// is off. AORTA_DISABLE_TRACING compiles the sites away entirely.
#if defined(AORTA_DISABLE_TRACING)
#define AORTA_TRACE_ENABLED(tracer) false
#define AORTA_TRACE_SPAN(tracer, cat, name, start, end, detail) \
  do {                                                          \
  } while (false)
#define AORTA_TRACE_INSTANT(tracer, cat, name, at, detail) \
  do {                                                     \
  } while (false)
#else
#define AORTA_TRACE_ENABLED(tracer) ((tracer) != nullptr && (tracer)->enabled())
#define AORTA_TRACE_SPAN(tracer, cat, name, start, end, detail)   \
  do {                                                            \
    if (AORTA_TRACE_ENABLED(tracer)) {                            \
      (tracer)->record((cat), (name), (start), (end), (detail));  \
    }                                                             \
  } while (false)
#define AORTA_TRACE_INSTANT(tracer, cat, name, at, detail)  \
  do {                                                      \
    if (AORTA_TRACE_ENABLED(tracer)) {                      \
      (tracer)->instant((cat), (name), (at), (detail));     \
    }                                                       \
  } while (false)
#endif
