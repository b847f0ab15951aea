#include "comm/tuple.h"

#include "util/strings.h"

namespace aorta::comm {

Schema::Schema(std::string table_name, std::vector<Field> fields)
    : table_name_(std::move(table_name)), fields_(std::move(fields)) {
  index_.reserve(fields_.size());
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    // First declaration wins on duplicate names, matching the old linear
    // scan's behaviour.
    index_.emplace(fields_[i].name, i);
  }
}

Schema Schema::from_catalog(const device::DeviceCatalog& catalog) {
  std::vector<Field> fields;
  fields.reserve(catalog.attrs().size());
  for (const auto& a : catalog.attrs()) {
    fields.push_back(Field{a.name, a.type, a.sensory});
  }
  return Schema(catalog.type_id(), std::move(fields));
}

std::optional<std::size_t> Schema::index_of(std::string_view name) const {
  auto it = index_.find(name);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

const Field* Schema::field(std::string_view name) const {
  auto i = index_of(name);
  return i.has_value() ? &fields_[*i] : nullptr;
}

Tuple::Tuple(const Schema* schema, device::DeviceId source)
    : schema_(schema), source_(std::move(source)),
      values_(schema == nullptr ? 0 : schema->size()) {}

void Tuple::reset(const Schema* schema, const device::DeviceId& source) {
  schema_ = schema;
  source_ = source;
  values_.assign(schema == nullptr ? 0 : schema->size(), device::Value{});
  degraded_ = false;
}

const device::Value& Tuple::null_sentinel() {
  static const device::Value kSentinel{};
  return kSentinel;
}

const device::Value& Tuple::get(std::string_view name) const {
  if (schema_ == nullptr) return null_sentinel();
  auto i = schema_->index_of(name);
  return i.has_value() ? values_[*i] : null_sentinel();
}

void Tuple::set_by_name(std::string_view name, device::Value v) {
  if (schema_ == nullptr) return;
  auto i = schema_->index_of(name);
  if (i.has_value()) values_[*i] = std::move(v);
}

std::string Tuple::to_string() const {
  if (schema_ == nullptr) return "{}";
  std::string out = "{";
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out += ", ";
    out += schema_->fields()[i].name + "=" + device::value_to_string(values_[i]);
  }
  out += "}";
  return out;
}

}  // namespace aorta::comm
