#include "shard/fragment.h"

#include <algorithm>
#include <bit>
#include <optional>

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

namespace {

// The shards a predicate can hold on (bit i: shard i); nullopt when it
// pins no device, i.e. every shard.
std::optional<std::vector<bool>> pinned_shards(const query::Expr& e,
                                               const std::string& alias,
                                               int num_shards) {
  using query::BinaryOp;
  using query::Expr;
  if (e.kind != Expr::Kind::kBinary) return std::nullopt;
  if (e.op == BinaryOp::kAnd || e.op == BinaryOp::kOr) {
    auto lhs = pinned_shards(*e.lhs, alias, num_shards);
    auto rhs = pinned_shards(*e.rhs, alias, num_shards);
    const bool conj = e.op == BinaryOp::kAnd;
    if (!lhs || !rhs) return conj ? (lhs ? lhs : rhs) : std::nullopt;
    for (std::size_t i = 0; i < lhs->size(); ++i) {
      (*lhs)[i] = conj ? (*lhs)[i] && (*rhs)[i] : (*lhs)[i] || (*rhs)[i];
    }
    return lhs;
  }
  if (e.op != BinaryOp::kEq) return std::nullopt;
  const Expr* column = e.lhs.get();
  const Expr* literal = e.rhs.get();
  if (column->kind == Expr::Kind::kLiteral) std::swap(column, literal);
  // Strings compare byte for byte and never coerce to numbers
  // (query::compare_values), so only the named device can match.
  const std::string* id = literal->kind == Expr::Kind::kLiteral
                              ? std::get_if<std::string>(&literal->literal)
                              : nullptr;
  if (id == nullptr || column->kind != Expr::Kind::kColumnRef ||
      column->column != "id" ||
      (!column->qualifier.empty() && column->qualifier != alias)) {
    return std::nullopt;
  }
  std::vector<bool> owner(static_cast<std::size_t>(num_shards), false);
  owner[static_cast<std::size_t>(shard_of(*id, num_shards))] = true;
  return owner;
}

}  // namespace

std::vector<int> target_shards(const query::SelectStmt& stmt,
                               int num_shards) {
  std::optional<std::vector<bool>> pinned;
  if (stmt.from.size() == 1 && stmt.where != nullptr) {
    pinned = pinned_shards(*stmt.where, stmt.from[0].alias, num_shards);
  }
  std::vector<int> targets;
  for (int i = 0; i < num_shards; ++i) {
    if (!pinned || (*pinned)[static_cast<std::size_t>(i)]) {
      targets.push_back(i);
    }
  }
  if (targets.empty()) {
    for (int i = 0; i < num_shards; ++i) targets.push_back(i);
  }
  return targets;
}

std::vector<const query::Expr*> hidden_group_columns(
    const query::SelectStmt& stmt) {
  std::vector<const query::Expr*> hidden;
  for (const auto& g : stmt.group_by) {
    const bool listed = std::any_of(
        stmt.select_list.begin(), stmt.select_list.end(),
        [&g](const query::ExprPtr& item) {
          return item->kind == query::Expr::Kind::kColumnRef &&
                 item->column == g->column;
        });
    if (!listed) hidden.push_back(g.get());
  }
  return hidden;
}

void fragment_to_fields(const FragmentSpec& spec, net::Message* msg) {
  msg->set("name", spec.name);
  msg->set("sql", spec.sql);
  msg->set_int("once", spec.once ? 1 : 0);
  msg->set_int("gen", static_cast<std::int64_t>(spec.gen));
  msg->set_int("id", static_cast<std::int64_t>(spec.id));
}

FragmentSpec fragment_from_fields(const net::Message& msg) {
  FragmentSpec spec;
  spec.name = msg.field("name");
  spec.sql = msg.field("sql");
  spec.once = msg.field_int("once") != 0;
  spec.gen = static_cast<std::uint64_t>(msg.field_int("gen"));
  spec.id = static_cast<std::uint64_t>(msg.field_int("id"));
  return spec;
}

// ---- rows codec ----------------------------------------------------------

namespace {

// Value tags.
enum Tag : std::uint8_t {
  kNull = 0,
  kFalse = 1,
  kTrue = 2,
  kInt = 3,
  kDouble = 4,
  kString = 5,
  kLocation = 6,
};

// Smallest encodings, which bound the counts a payload can claim: a value
// is at least its tag, a labelled field an empty label plus a tag, a row
// its timestamp, degraded byte and field count, a group its id, label
// count and row count, an outcome two empty strings and a timestamp.
constexpr std::size_t kMinValueBytes = 1;
constexpr std::size_t kMinLabelBytes = 1;
constexpr std::size_t kMinFieldBytes = 2;
constexpr std::size_t kMinRowBytes = 3;
constexpr std::size_t kMinGroupBytes = 3;
constexpr std::size_t kMinOutcomeBytes = 3;

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t u) {
  return static_cast<std::int64_t>(u >> 1) ^
         -static_cast<std::int64_t>(u & 1);
}

void put_varint(std::string& out, std::uint64_t v) {
  char buf[10];
  std::size_t n = 0;
  while (v >= 0x80) {
    buf[n++] = static_cast<char>(v | 0x80);
    v >>= 7;
  }
  buf[n++] = static_cast<char>(v);
  out.append(buf, n);
}

void put_f64(std::string& out, double d) {
  const auto bits = std::bit_cast<std::uint64_t>(d);
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(bits >> (8 * i));
  out.append(buf, 8);
}

void put_string(std::string& out, std::string_view s) {
  put_varint(out, s.size());
  out.append(s);
}

void put_value(std::string& out, const Value& v) {
  switch (v.index()) {
    case 0:
      out += static_cast<char>(kNull);
      return;
    case 1:
      out += static_cast<char>(std::get<bool>(v) ? kTrue : kFalse);
      return;
    case 2:
      out += static_cast<char>(kInt);
      put_varint(out, zigzag(std::get<std::int64_t>(v)));
      return;
    case 3:
      out += static_cast<char>(kDouble);
      put_f64(out, std::get<double>(v));
      return;
    case 4:
      out += static_cast<char>(kString);
      put_string(out, std::get<std::string>(v));
      return;
    default: {
      const Location& loc = std::get<Location>(v);
      out += static_cast<char>(kLocation);
      put_f64(out, loc.x);
      put_f64(out, loc.y);
      put_f64(out, loc.z);
      return;
    }
  }
}

// The header every row shares: timestamp and degraded marker.
void put_row_header(std::string& out, const query::TimestampedRow& r) {
  put_varint(out, zigzag(r.at.to_micros()));
  out += static_cast<char>(r.degraded ? 1 : 0);
}

// Bounded, canonical reads over one payload. Every read fails rather
// than run past the end; varints must be minimal, so a payload that
// decodes re-encodes to the same bytes.
class Reader {
 public:
  explicit Reader(std::string_view in) : in_(in) {}

  bool done() const { return in_.empty(); }

  bool byte(std::uint8_t* out) {
    if (in_.empty()) return false;
    *out = static_cast<std::uint8_t>(in_.front());
    in_.remove_prefix(1);
    return true;
  }

  bool varint(std::uint64_t* out) {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      std::uint8_t b = 0;
      if (!byte(&b)) return false;
      if (shift == 63 && b > 1) return false;       // overflows 64 bits
      if (shift > 0 && b == 0) return false;        // not minimal
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) {
        *out = v;
        return true;
      }
    }
    return false;
  }

  // A count of items of at least `min_item_bytes` each: rejected when the
  // rest of the payload cannot hold that many.
  bool count(std::size_t min_item_bytes, std::size_t* n) {
    std::uint64_t v = 0;
    if (!varint(&v) || v > in_.size() / min_item_bytes) return false;
    *n = static_cast<std::size_t>(v);
    return true;
  }

  bool f64(double* out) {
    if (in_.size() < 8) return false;
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(in_[i]))
              << (8 * i);
    }
    in_.remove_prefix(8);
    *out = std::bit_cast<double>(bits);
    return true;
  }

  bool string(std::string* out) {
    std::size_t n = 0;
    if (!count(1, &n)) return false;
    out->assign(in_.substr(0, n));
    in_.remove_prefix(n);
    return true;
  }

  bool value(Value* out) {
    std::uint8_t tag = 0;
    if (!byte(&tag)) return false;
    switch (tag) {
      case kNull:
        *out = std::monostate{};
        return true;
      case kFalse:
      case kTrue:
        *out = tag == kTrue;
        return true;
      case kInt: {
        std::uint64_t u = 0;
        if (!varint(&u)) return false;
        *out = unzigzag(u);
        return true;
      }
      case kDouble: {
        double d = 0.0;
        if (!f64(&d)) return false;
        *out = d;
        return true;
      }
      case kString:
        return string(&out->emplace<std::string>());
      case kLocation: {
        Location loc;
        if (!f64(&loc.x) || !f64(&loc.y) || !f64(&loc.z)) return false;
        *out = loc;
        return true;
      }
      default:
        return false;
    }
  }

  bool row_header(query::TimestampedRow* r) {
    std::uint64_t at = 0;
    std::uint8_t degraded = 0;
    if (!varint(&at) || !byte(&degraded) || degraded > 1) return false;
    r->at = aorta::util::TimePoint::from_micros(unzigzag(at));
    r->degraded = degraded == 1;
    return true;
  }

 private:
  std::string_view in_;
};

// Fields of one row: labelled (encode_rows) or values only (a flush).
bool take_fields(Reader& in, bool labelled, query::Row* row) {
  std::size_t n = 0;
  if (!in.count(labelled ? kMinFieldBytes : kMinValueBytes, &n)) return false;
  row->resize(n);
  for (auto& [label, value] : *row) {
    if (labelled && !in.string(&label)) return false;
    if (!in.value(&value)) return false;
  }
  return true;
}

// A row count, then that many rows appended to `out`.
bool take_rows(Reader& in, bool labelled,
               std::vector<query::TimestampedRow>* out, std::size_t* n) {
  if (!in.count(kMinRowBytes, n)) return false;
  const std::size_t first = out->size();
  out->resize(first + *n);
  for (auto r = out->begin() + static_cast<std::ptrdiff_t>(first);
       r != out->end(); ++r) {
    if (!in.row_header(&*r) || !take_fields(in, labelled, &r->row)) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string encode_rows(const std::vector<query::TimestampedRow>& rows) {
  std::string out;
  out.reserve(8 + rows.size() * 32);
  put_varint(out, rows.size());
  for (const query::TimestampedRow& r : rows) {
    put_row_header(out, r);
    put_varint(out, r.row.size());
    for (const auto& [label, value] : r.row) {
      put_string(out, label);
      put_value(out, value);
    }
  }
  return out;
}

bool decode_rows(const std::string& payload,
                 std::vector<query::TimestampedRow>* out) {
  Reader in(payload);
  std::size_t n = 0;
  out->clear();
  return take_rows(in, /*labelled=*/true, out, &n) && in.done();
}

std::string encode_flush(const Flush& flush) {
  std::string out;
  out.reserve(16 + flush.groups.size() * 8 + flush.rows.size() * 24);
  put_varint(out, flush.groups.size());
  auto row = flush.rows.begin();
  for (const RowGroup& g : flush.groups) {
    const std::size_t n = std::min<std::size_t>(
        g.rows, static_cast<std::size_t>(flush.rows.end() - row));
    put_varint(out, g.id);
    put_varint(out, g.labels.size());
    for (const std::string& label : g.labels) put_string(out, label);
    put_varint(out, n);
    for (auto end = row + static_cast<std::ptrdiff_t>(n); row != end; ++row) {
      put_row_header(out, *row);
      put_varint(out, row->row.size());
      for (const auto& field : row->row) put_value(out, field.second);
    }
  }
  put_varint(out, flush.outcomes.size());
  for (const OutcomeRecord& o : flush.outcomes) {
    put_string(out, o.query);
    put_varint(out, zigzag(o.at.to_micros()));
    put_string(out, o.detail);
  }
  return out;
}

bool decode_flush(std::string_view payload, Flush* out) {
  Reader in(payload);
  std::size_t n = 0;
  if (!in.count(kMinGroupBytes, &n)) return false;
  out->groups.clear();
  out->groups.resize(n);
  out->rows.clear();
  for (RowGroup& g : out->groups) {
    std::size_t labels = 0;
    if (!in.varint(&g.id) || !in.count(kMinLabelBytes, &labels)) return false;
    g.labels.resize(labels);
    for (std::string& label : g.labels) {
      if (!in.string(&label)) return false;
    }
    if (!take_rows(in, /*labelled=*/false, &out->rows, &g.rows)) return false;
  }
  if (!in.count(kMinOutcomeBytes, &n)) return false;
  out->outcomes.clear();
  out->outcomes.resize(n);
  for (OutcomeRecord& o : out->outcomes) {
    std::uint64_t at = 0;
    if (!in.string(&o.query) || !in.varint(&at) || !in.string(&o.detail)) {
      return false;
    }
    o.at = aorta::util::TimePoint::from_micros(unzigzag(at));
  }
  return in.done();
}

}  // namespace aorta::shard
