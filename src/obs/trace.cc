#include "obs/trace.h"

#include <algorithm>
#include <array>
#include <fstream>

namespace aorta::obs {

std::string_view span_cat_name(SpanCat cat) {
  static constexpr std::array<std::string_view, kSpanCatCount> kNames = {
      "parse",  "register", "sweep", "rpc",    "eval",    "action",
      "delivery", "epoch",  "health", "fragment", "merge",
  };
  auto idx = static_cast<std::size_t>(cat);
  return idx < kNames.size() ? kNames[idx] : "unknown";
}

Tracer::Tracer(std::size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1) {}

void Tracer::record(SpanCat cat, std::string name, util::TimePoint start,
                    util::TimePoint end, std::string detail) {
  if (!enabled_) return;
  if (ring_.size() < capacity_) ring_.emplace_back();
  Span& slot = ring_[next_];
  slot.start = start;
  slot.dur = end - start;
  slot.cat = cat;
  slot.name = std::move(name);
  slot.detail = std::move(detail);
  next_ = (next_ + 1) % capacity_;
  ++recorded_;
}

void Tracer::instant(SpanCat cat, std::string name, util::TimePoint at,
                     std::string detail) {
  record(cat, std::move(name), at, at, std::move(detail));
}

std::size_t Tracer::size() const { return ring_.size(); }

std::uint64_t Tracer::dropped() const {
  return recorded_ > capacity_ ? recorded_ - capacity_ : 0;
}

std::vector<Span> Tracer::snapshot() const {
  std::vector<Span> out;
  std::size_t n = size();
  out.reserve(n);
  // Oldest retained span sits at the write cursor once the ring has wrapped.
  std::size_t start = recorded_ > capacity_ ? next_ : 0;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(ring_[(start + i) % n]);
  }
  return out;
}

void Tracer::clear() {
  next_ = 0;
  recorded_ = 0;
  std::vector<Span>().swap(ring_);
}

namespace {

// Shared renderer for single-tracer and merged exports.
void write_spans_chrome_json(util::JsonWriter& w,
                             const std::vector<Span>& spans) {
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();
  // Metadata: name the process and one thread per category so Perfetto
  // renders a labelled track per pipeline stage.
  w.begin_object();
  w.kv("name", "process_name");
  w.kv("ph", "M");
  w.kv("pid", 1);
  w.kv("tid", 0);
  w.key("args").begin_object().kv("name", "aorta").end_object();
  w.end_object();
  std::array<bool, kSpanCatCount> present{};
  for (const Span& s : spans) {
    auto idx = static_cast<std::size_t>(s.cat);
    if (idx < present.size()) present[idx] = true;
  }
  for (int c = 0; c < kSpanCatCount; ++c) {
    if (!present[static_cast<std::size_t>(c)]) continue;
    w.begin_object();
    w.kv("name", "thread_name");
    w.kv("ph", "M");
    w.kv("pid", 1);
    w.kv("tid", c + 1);
    w.key("args")
        .begin_object()
        .kv("name", span_cat_name(static_cast<SpanCat>(c)))
        .end_object();
    w.end_object();
  }
  // Sort indices give thread_sort_index = tid implicitly via tid order.
  for (const Span& s : spans) {
    w.begin_object();
    w.kv("name", s.name);
    w.kv("cat", span_cat_name(s.cat));
    w.kv("ph", "X");
    w.kv("ts", s.start.to_micros());
    w.kv("dur", s.dur.to_micros());
    w.kv("pid", 1);
    w.kv("tid", static_cast<int>(s.cat) + 1);
    if (!s.detail.empty()) {
      w.key("args").begin_object().kv("detail", s.detail).end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

void Tracer::write_chrome_json(util::JsonWriter& w) const {
  write_spans_chrome_json(w, snapshot());
}

std::string Tracer::chrome_json() const {
  util::JsonWriter w(0);  // compact: trace files get large
  write_chrome_json(w);
  return w.take();
}

util::Status Tracer::export_file(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return util::internal_error("cannot open trace file: " + path);
  }
  out << chrome_json() << '\n';
  if (!out) {
    return util::internal_error("failed writing trace file: " + path);
  }
  return util::Status::ok();
}

void write_merged_chrome_json(util::JsonWriter& w,
                              const std::vector<const Tracer*>& tracers) {
  // Tag each span with (tracer index, per-tracer position) so the merge
  // order is fully determined by virtual time and the tracer list — never
  // by wall-clock interleaving of the loops that recorded them.
  struct Tagged {
    Span span;
    std::size_t tracer;
    std::size_t pos;
  };
  std::vector<Tagged> tagged;
  for (std::size_t t = 0; t < tracers.size(); ++t) {
    if (tracers[t] == nullptr) continue;
    auto spans = tracers[t]->snapshot();
    tagged.reserve(tagged.size() + spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
      tagged.push_back(Tagged{std::move(spans[i]), t, i});
    }
  }
  std::sort(tagged.begin(), tagged.end(),
            [](const Tagged& a, const Tagged& b) {
              if (a.span.start != b.span.start) {
                return a.span.start < b.span.start;
              }
              if (a.tracer != b.tracer) return a.tracer < b.tracer;
              return a.pos < b.pos;
            });
  std::vector<Span> merged;
  merged.reserve(tagged.size());
  for (Tagged& t : tagged) merged.push_back(std::move(t.span));
  write_spans_chrome_json(w, merged);
}

std::string merged_chrome_json(const std::vector<const Tracer*>& tracers) {
  util::JsonWriter w(0);
  write_merged_chrome_json(w, tracers);
  return w.take();
}

util::Status export_merged_file(const std::string& path,
                                const std::vector<const Tracer*>& tracers) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return util::internal_error("cannot open trace file: " + path);
  }
  out << merged_chrome_json(tracers) << '\n';
  if (!out) {
    return util::internal_error("failed writing trace file: " + path);
  }
  return util::Status::ok();
}

}  // namespace aorta::obs
