#include "shard/fragment.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

namespace aorta::shard {

using device::Location;
using device::Value;

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

net::LinkModel backplane_link() {
  net::LinkModel link;
  link.latency_mean_s = 0.0002;
  link.latency_jitter_s = 0.0;
  link.loss_prob = 0.0;
  link.bandwidth_bytes_per_s = 1e9;
  return link;
}

void fragment_to_fields(const FragmentSpec& spec, net::Message* msg) {
  msg->set("name", spec.name);
  msg->set("sql", spec.sql);
  msg->set_int("once", spec.once ? 1 : 0);
  msg->set_int("gen", static_cast<std::int64_t>(spec.gen));
}

FragmentSpec fragment_from_fields(const net::Message& msg) {
  FragmentSpec spec;
  spec.name = msg.field("name");
  spec.sql = msg.field("sql");
  spec.once = msg.field_int("once") != 0;
  spec.gen = static_cast<std::uint64_t>(msg.field_int("gen"));
  return spec;
}

// ---- rows codec ----------------------------------------------------------

namespace {

// Smallest encodings, which bound the counts a payload can claim: a row is
// at least three 1-byte tokens ("1:0"), a field an empty name token ("0:")
// plus a 1-byte value token, a group an empty name token plus a row count.
constexpr std::size_t kMinRowBytes = 9;
constexpr std::size_t kMinFieldBytes = 5;
constexpr std::size_t kMinGroupBytes = 5;

// Every token is "<len>:<bytes>": self-delimiting regardless of content.
void put_token(std::string& out, std::string_view data) {
  out += std::to_string(data.size());
  out += ':';
  out += data;
}

// 1-19 decimal digits (so the value cannot overflow), nothing else.
bool parse_count(std::string_view digits, std::size_t* out) {
  if (digits.empty() || digits.size() > 19) return false;
  std::size_t n = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    n = n * 10 + static_cast<std::size_t>(c - '0');
  }
  *out = n;
  return true;
}

bool take_token(std::string_view& in, std::string& out) {
  std::size_t colon = in.find(':');
  std::size_t len = 0;
  if (colon == std::string_view::npos ||
      !parse_count(in.substr(0, colon), &len)) {
    return false;
  }
  in.remove_prefix(colon + 1);
  if (in.size() < len) return false;
  out.assign(in.substr(0, len));
  in.remove_prefix(len);
  return true;
}

// A count token, rejected when the rest of the payload cannot hold that
// many items of at least `min_item_bytes` each.
bool take_count(std::string_view& in, std::size_t min_item_bytes,
                std::size_t* n) {
  std::string token;
  return take_token(in, token) && parse_count(token, n) &&
         *n <= in.size() / min_item_bytes;
}

// Exact value rendering: one type character + payload. Doubles use %.17g
// so every IEEE double round-trips bit-exactly.
std::string encode_value(const Value& v) {
  if (std::holds_alternative<std::monostate>(v)) return "n";
  if (const bool* b = std::get_if<bool>(&v)) return *b ? "b1" : "b0";
  if (const std::int64_t* i = std::get_if<std::int64_t>(&v)) {
    return "i" + std::to_string(*i);
  }
  if (const double* d = std::get_if<double>(&v)) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "d%.17g", *d);
    return buf;
  }
  if (const std::string* s = std::get_if<std::string>(&v)) return "s" + *s;
  const Location& loc = std::get<Location>(v);
  char buf[128];
  std::snprintf(buf, sizeof(buf), "l%.17g,%.17g,%.17g", loc.x, loc.y, loc.z);
  return buf;
}

bool decode_value(const std::string& token, Value* out) {
  if (token.empty()) return false;
  std::string payload = token.substr(1);
  switch (token[0]) {
    case 'n':
      *out = std::monostate{};
      return true;
    case 'b':
      *out = payload == "1";
      return true;
    case 'i': {
      char* end = nullptr;
      std::int64_t i = std::strtoll(payload.c_str(), &end, 10);
      if (end == nullptr || *end != '\0') return false;
      *out = i;
      return true;
    }
    case 'd': {
      char* end = nullptr;
      double d = std::strtod(payload.c_str(), &end);
      if (end == nullptr || *end != '\0') return false;
      *out = d;
      return true;
    }
    case 's':
      *out = std::move(payload);
      return true;
    case 'l': {
      Location loc;
      char rest = '\0';
      if (std::sscanf(payload.c_str(), "%lf,%lf,%lf%c", &loc.x, &loc.y,
                      &loc.z, &rest) != 3) {
        return false;
      }
      *out = loc;
      return true;
    }
    default:
      return false;
  }
}

void put_rows(std::string& out,
              const std::vector<query::TimestampedRow>& rows) {
  put_token(out, std::to_string(rows.size()));
  for (const query::TimestampedRow& r : rows) {
    put_token(out, std::to_string(r.at.to_micros()));
    put_token(out, r.degraded ? "1" : "0");
    put_token(out, std::to_string(r.row.size()));
    for (const auto& [name, value] : r.row) {
      put_token(out, name);
      put_token(out, encode_value(value));
    }
  }
}

bool take_rows(std::string_view& in, std::vector<query::TimestampedRow>* out) {
  std::size_t n_rows = 0;
  if (!take_count(in, kMinRowBytes, &n_rows)) return false;
  out->clear();
  out->reserve(n_rows);
  std::string token;
  for (std::size_t i = 0; i < n_rows; ++i) {
    query::TimestampedRow row;
    if (!take_token(in, token)) return false;
    row.at = aorta::util::TimePoint::from_micros(
        std::strtoll(token.c_str(), nullptr, 10));
    if (!take_token(in, token)) return false;
    row.degraded = token == "1";
    std::size_t n_fields = 0;
    if (!take_count(in, kMinFieldBytes, &n_fields)) return false;
    for (std::size_t f = 0; f < n_fields; ++f) {
      std::string name;
      if (!take_token(in, name)) return false;
      if (!take_token(in, token)) return false;
      Value value;
      if (!decode_value(token, &value)) return false;
      row.row.emplace_back(std::move(name), std::move(value));
    }
    out->push_back(std::move(row));
  }
  return true;
}

}  // namespace

std::string encode_rows(const std::vector<query::TimestampedRow>& rows) {
  std::string out;
  put_rows(out, rows);
  return out;
}

bool decode_rows(const std::string& payload,
                 std::vector<query::TimestampedRow>* out) {
  std::string_view in = payload;
  return take_rows(in, out) && in.empty();
}

std::string encode_row_groups(const std::vector<RowGroup>& groups) {
  std::string out;
  put_token(out, std::to_string(groups.size()));
  for (const RowGroup& g : groups) {
    put_token(out, g.query);
    put_rows(out, g.rows);
  }
  return out;
}

bool decode_row_groups(const std::string& payload,
                       std::vector<RowGroup>* out) {
  std::string_view in = payload;
  std::size_t n_groups = 0;
  if (!take_count(in, kMinGroupBytes, &n_groups)) return false;
  out->clear();
  out->reserve(n_groups);
  for (std::size_t i = 0; i < n_groups; ++i) {
    RowGroup& g = out->emplace_back();
    if (!take_token(in, g.query) || !take_rows(in, &g.rows)) return false;
  }
  return in.empty();
}

}  // namespace aorta::shard
