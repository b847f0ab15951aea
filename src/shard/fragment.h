// Query fragments: the wire format of the sharded czar/worker plane.
//
// The czar compiles each AQ / one-shot SELECT into N fragments sharing one
// plan template (the SQL text plus epoch cadence) and per-shard parameter
// tuples: the shard's device-id slice (a residue class in FNV-1a hash
// space — the same partition function Plane uses to place devices), the
// syntactically-derived needed-attribute set, and a registration
// generation. Fragments travel as net::Message RPCs between the czar node
// and the worker engines:
//
//   fragment_register  czar -> worker   register an AQ fragment, or (with
//                                       once=1) run a one-shot SELECT whose
//                                       rows ride the RPC reply
//   fragment_drop      czar -> worker   drop an AQ fragment
//   fragment_results   worker -> czar   one-way burst of continuous rows
//                                       (or an action outcome), sequenced
//   shard_heartbeat    worker -> czar   liveness + result-stream watermark
//   shard_ack          czar -> worker   one-way cumulative ack: the czar
//                                       has consumed every seq < `cum`
//   shard_nack         czar -> worker   one-way retransmit request for the
//                                       seq gap [`from`, `to`)
//
// Every worker->czar message carries (gen, seq): seq is a per-worker
// counter over ALL its fragment traffic, reset when the czar re-registers
// the shard under a new generation. The czar consumes each shard's stream
// strictly in seq order, which is what makes the heartbeat watermark an
// exact promise: every row with at < watermark precedes the heartbeat in
// seq order (rows are flushed by a zero-delay event at production time, so
// only rows stamped exactly at the heartbeat instant can trail it).
//
// Reliable backplane (DESIGN.md §14). Every czar -> worker request also
// carries an idempotency key (`idem_gen`, `idem_seq`): the shard's
// registration generation plus a czar-global dispatch counter. Workers
// keep a bounded dedup window keyed by that pair — which survives
// generation bumps, since the gen is part of the key — and replay the
// cached reply for duplicates, so a retried or chaos-duplicated
// fragment_register never double-registers. Workers retain every
// sequenced message in a bounded replay buffer until a shard_ack covers
// it; a shard_nack retransmits the stored messages verbatim (same gen,
// same seq), and the czar drops any seq it has already consumed or
// buffered — together: exactly-once, in-order consumption over a lossy,
// duplicating, reordering backplane. A register carrying a generation
// older than the worker's current one is answered with fragment_stale
// and otherwise ignored.
//
// Rows are encoded with length-prefixed tokens and %.17g doubles — NOT
// device::value_to_string, whose %.6g rendering is lossy; byte-identical
// same-seed runs need exact round-trips.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "net/message.h"
#include "query/ast.h"
#include "query/executor.h"

namespace aorta::shard {

// Message kinds of the fragment protocol.
inline constexpr const char* kFragmentRegister = "fragment_register";
inline constexpr const char* kFragmentDrop = "fragment_drop";
inline constexpr const char* kFragmentResults = "fragment_results";
inline constexpr const char* kShardHeartbeat = "shard_heartbeat";
inline constexpr const char* kShardAck = "shard_ack";
inline constexpr const char* kShardNack = "shard_nack";
// Reply kinds.
inline constexpr const char* kFragmentAck = "fragment_ack";
inline constexpr const char* kFragmentError = "fragment_error";
inline constexpr const char* kFragmentSelectResult = "fragment_select_result";
inline constexpr const char* kFragmentStale = "fragment_stale";

// Czar -> worker idempotency-key field names (see file comment).
inline constexpr const char* kIdemGenField = "idem_gen";
inline constexpr const char* kIdemSeqField = "idem_seq";

// FNV-1a 64-bit: the deterministic device partition function. std::hash is
// implementation-defined; the partition must be stable across toolchains
// so committed baselines stay comparable.
std::uint64_t fnv1a64(std::string_view s);

// Shard owning a device id under an N-way partition.
inline int shard_of(std::string_view device_id, int num_shards) {
  return static_cast<int>(fnv1a64(device_id) %
                          static_cast<std::uint64_t>(num_shards));
}

// One fragment: the shared plan template plus this shard's parameters.
struct FragmentSpec {
  std::string name;        // prefixed AQ name ("" for one-shot SELECTs)
  std::string sql;         // plan template: the statement text
  double epoch_s = 0.0;    // epoch cadence (0 = engine default)
  bool once = false;       // one-shot SELECT: rows ride the RPC reply
  int shard = 0;           // this fragment's shard index
  int num_shards = 1;
  std::uint64_t gen = 0;   // registration generation (see file comment)
  std::string needed_attrs;  // czar's syntactic attr set, comma-joined
  std::string device_slice;  // e.g. "fnv1a(id) mod 4 == 2" (informational)
};

// Field-level encode/decode (message kind is set by the caller).
void fragment_to_fields(const FragmentSpec& spec, net::Message* msg);
FragmentSpec fragment_from_fields(const net::Message& msg);

// ---- rows codec ----------------------------------------------------------

// Exact, deterministic encoding of a burst of timestamped rows. Returns
// the payload string; decode returns false on any malformed token.
std::string encode_rows(const std::vector<query::TimestampedRow>& rows);
bool decode_rows(const std::string& payload,
                 std::vector<query::TimestampedRow>* out);

// ---- czar-side plan analysis --------------------------------------------

// Column names referenced anywhere in the statement (select list + WHERE),
// qualifier stripped: the fragment's needed-attribute set. The worker
// recomputes the authoritative set when it compiles the fragment; this one
// parameterizes the wire format and the broker's projection pushdown
// audit. (Aggregate select items are classified by query::agg_op; the
// czar's merge plan and the worker's avg rewrite both use it.)
std::set<std::string> needed_attributes(const query::SelectStmt& stmt);

}  // namespace aorta::shard
