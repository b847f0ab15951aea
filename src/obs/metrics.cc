#include "obs/metrics.h"

#include <vector>

namespace aorta::obs {

namespace {

// Split a dotted metric name into components.
std::vector<std::string_view> split_name(std::string_view name) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  while (start <= name.size()) {
    std::size_t dot = name.find('.', start);
    if (dot == std::string_view::npos) {
      parts.push_back(name.substr(start));
      break;
    }
    parts.push_back(name.substr(start, dot - start));
    start = dot + 1;
  }
  return parts;
}

}  // namespace

void LatencyHistogram::write_json(aorta::util::JsonWriter& w,
                                  bool include_buckets) const {
  w.begin_object();
  w.kv("count", static_cast<std::uint64_t>(summary_.count()));
  w.kv("p50", summary_.empty() ? 0.0 : summary_.percentile(50));
  w.kv("p99", summary_.empty() ? 0.0 : summary_.percentile(99));
  w.kv("max", summary_.empty() ? 0.0 : summary_.max());
  if (include_buckets) {
    w.key("buckets").begin_array();
    for (std::size_t i = 0; i < hist_.bucket_count(); ++i) {
      w.value(static_cast<std::uint64_t>(hist_.bucket(i)));
    }
    w.end_array();
    w.kv("bucket_lo", hist_.bucket_count() > 0 ? hist_.bucket_lo(0) : 0.0);
    w.kv("bucket_hi",
         hist_.bucket_count() > 0 ? hist_.bucket_lo(hist_.bucket_count() - 1) +
                                        (hist_.bucket_lo(1) - hist_.bucket_lo(0))
                                  : 0.0);
    w.kv("underflow", static_cast<std::uint64_t>(hist_.underflow()));
    w.kv("overflow", static_cast<std::uint64_t>(hist_.overflow()));
  }
  w.end_object();
}

void MetricsRegistry::enroll_counter(std::string name,
                                     const std::uint64_t* counter) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_[std::move(name)] = Entry{counter, false};
}

void MetricsRegistry::enroll_gauge(std::string name, GaugeFn fn) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_[std::move(name)] = Entry{std::move(fn), false};
}

void MetricsRegistry::enroll_gauge_bool(std::string name, BoolGaugeFn fn) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_[std::move(name)] = Entry{std::move(fn), false};
}

void MetricsRegistry::enroll_histogram(std::string name,
                                       const LatencyHistogram* hist) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_[std::move(name)] = Entry{hist, false};
}

void MetricsRegistry::mark_volatile(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(name);
  if (it != metrics_.end()) it->second.volatile_metric = true;
}

void MetricsRegistry::unenroll(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.erase(name);
}

void MetricsRegistry::unenroll_prefix(std::string_view prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.lower_bound(std::string(prefix));
  while (it != metrics_.end() &&
         std::string_view(it->first).substr(0, prefix.size()) == prefix) {
    it = metrics_.erase(it);
  }
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) return 0;
  if (const auto* c = std::get_if<const std::uint64_t*>(&it->second.metric)) {
    return **c;
  }
  return 0;
}

std::int64_t MetricsRegistry::gauge_value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) return 0;
  if (const auto* g = std::get_if<GaugeFn>(&it->second.metric)) return (*g)();
  if (const auto* b = std::get_if<BoolGaugeFn>(&it->second.metric)) {
    return (*b)() ? 1 : 0;
  }
  return 0;
}

void MetricsRegistry::write_json(aorta::util::JsonWriter& w,
                                 bool include_buckets,
                                 bool include_volatile) const {
  std::lock_guard<std::mutex> lock(mu_);
  w.begin_object();
  // `open` is the stack of object components currently open; dotted names
  // arrive in sorted order, so shared prefixes nest naturally.
  std::vector<std::string> open;
  for (const auto& [name, entry] : metrics_) {
    if (entry.volatile_metric && !include_volatile) continue;
    auto parts = split_name(name);
    // All but the last component are nesting levels; the last is the key.
    std::size_t dirs = parts.size() - 1;
    std::size_t common = 0;
    while (common < open.size() && common < dirs &&
           open[common] == parts[common]) {
      ++common;
    }
    while (open.size() > common) {
      w.end_object();
      open.pop_back();
    }
    while (open.size() < dirs) {
      w.key(parts[open.size()]).begin_object();
      open.emplace_back(parts[open.size()]);
    }
    w.key(parts.back());
    std::visit(
        [&](const auto& m) {
          using T = std::decay_t<decltype(m)>;
          if constexpr (std::is_same_v<T, const std::uint64_t*>) {
            w.value(*m);
          } else if constexpr (std::is_same_v<T, GaugeFn>) {
            w.value(static_cast<std::int64_t>(m()));
          } else if constexpr (std::is_same_v<T, BoolGaugeFn>) {
            w.value(m());
          } else {
            m->write_json(w, include_buckets);
          }
        },
        entry.metric);
  }
  while (!open.empty()) {
    w.end_object();
    open.pop_back();
  }
  w.end_object();
}

std::string MetricsRegistry::snapshot_json(bool include_buckets,
                                           bool include_volatile) const {
  aorta::util::JsonWriter w(2);
  write_json(w, include_buckets, include_volatile);
  return w.take();
}

std::string MetricsRegistry::sanitize_component(std::string_view raw) {
  std::string out(raw);
  for (char& c : out) {
    if (c == '.') c = '_';
  }
  return out;
}

}  // namespace aorta::obs
