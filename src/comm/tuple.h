// Schemas and tuples for virtual device tables.
//
// Section 3.2: "The communication layer abstracts each type of devices
// into a virtual relational table ... Each tuple of a virtual device table
// (e.g., the sensor table) is from a specific device of the corresponding
// type; it is generated on-the-fly when requested by the query engine."
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "device/profile.h"
#include "device/types.h"

namespace aorta::comm {

struct Field {
  std::string name;
  device::AttrType type = device::AttrType::kDouble;
  bool sensory = true;
};

class Schema {
 public:
  Schema() = default;
  Schema(std::string table_name, std::vector<Field> fields);

  // Build the schema of a device type's virtual table from its catalog.
  static Schema from_catalog(const device::DeviceCatalog& catalog);

  const std::string& table_name() const { return table_name_; }
  const std::vector<Field>& fields() const { return fields_; }
  std::size_t size() const { return fields_.size(); }

  // Index of a field by name, or nullopt. O(1): served from a name->slot
  // hash index built once at construction.
  std::optional<std::size_t> index_of(std::string_view name) const;
  const Field* field(std::string_view name) const;

 private:
  // Transparent hashing so index_of(string_view) probes without
  // materializing a temporary std::string per lookup.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::string table_name_;
  std::vector<Field> fields_;
  std::unordered_map<std::string, std::size_t, NameHash, std::equal_to<>>
      index_;
};

// A row of a virtual device table. Values align with the schema's fields;
// attributes that were not acquired (projection pushdown, or acquisition
// failure on a lossy link) are NULL (monostate).
class Tuple {
 public:
  Tuple() = default;
  Tuple(const Schema* schema, device::DeviceId source);

  // Make this tuple a fresh one of `schema` from `source`, every value
  // NULL and not degraded, reusing its storage: the broker resets the
  // tuples of a finished batch for the next instead of building new ones.
  void reset(const Schema* schema, const device::DeviceId& source);

  const Schema* schema() const { return schema_; }
  const device::DeviceId& source_device() const { return source_; }

  const device::Value& at(std::size_t i) const { return values_[i]; }
  void set(std::size_t i, const device::Value& v) { values_[i] = v; }
  void set(std::size_t i, device::Value&& v) { values_[i] = std::move(v); }

  // Value by field name. Unknown names (and schema-less tuples) return
  // null_sentinel() — a distinct, immutable NULL whose address never
  // matches a stored value, so callers can tell "no such column" apart
  // from a column whose acquired value is NULL:
  //   &t.get("nope") == &Tuple::null_sentinel()   // missing column
  // The sentinel is never written through, so concurrent readers on
  // different threads cannot observe each other through it.
  const device::Value& get(std::string_view name) const;
  void set_by_name(std::string_view name, device::Value v);

  // The shared immutable NULL returned by get() for unknown names.
  static const device::Value& null_sentinel();

  // Degradation marker: true when the tuple's sensory values were served
  // from the broker's last-known-good cache because the source device is
  // quarantined (not a fresh acquisition). The marker flows with the row
  // through the executor into server deliveries.
  bool degraded() const { return degraded_; }
  void set_degraded(bool degraded) { degraded_ = degraded; }

  std::string to_string() const;

 private:
  const Schema* schema_ = nullptr;
  device::DeviceId source_;
  std::vector<device::Value> values_;
  bool degraded_ = false;
};

}  // namespace aorta::comm
