// Query fragments: the wire format of the sharded czar/worker plane.
//
// The czar turns each AQ / one-shot SELECT into one fragment per shard: the
// statement text (each worker re-parses it; the epoch cadence is part of
// the text), the AQ name, the once flag and the shard's registration
// generation. The worker needs nothing else: its device slice is its own
// registry (the Plane placed each device with shard_of). Fragments travel
// as net::Message RPCs between the czar node and the worker engines:
//
//   fragment_register  czar -> worker   register an AQ fragment, or (with
//                                       once=1) run a one-shot SELECT whose
//                                       rows ride the RPC reply
//   fragment_drop      czar -> worker   drop an AQ fragment
//   fragment_results   worker -> czar   one-way, sequenced: every
//                                       continuous row of one flush, or one
//                                       action outcome
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
// Reliable backplane (DESIGN.md §14). Every czar -> worker request carries
// the shard's registration generation `gen` and a czar-global dispatch
// counter `idem_seq`; the pair is the request's idempotency key. Workers
// keep a bounded dedup window keyed by that pair — which survives
// generation bumps, since the gen is part of the key — and replay the
// cached reply for duplicates, so a retried or chaos-duplicated
// fragment_register never double-registers. Workers retain every
// sequenced message in a bounded replay buffer until a shard_ack covers
// it; a shard_nack retransmits the stored messages verbatim (same gen,
// same seq), and the czar drops any seq it has already consumed or
// buffered — together: exactly-once, in-order consumption over a lossy,
// duplicating, reordering backplane, as long as a gap is repaired before
// its message is evicted. A register or drop carrying a generation older
// than the worker's current one is answered with fragment_stale and
// otherwise ignored.
//
// There is one protocol. The ablation (Config::reliable_backplane = false)
// only sets two of its values: one attempt per fragment RPC and zero
// replay retention, so acks, NACKs and request dedup still run but a gap
// can never be repaired.
//
// A worker flushes every row its fragments produced at one instant as ONE
// fragment_results message, not one per query: thousands of standing AQs
// fire at the same instant, and per-query messages would each pay for a
// field map, a replay-buffer copy and a cross-loop post, and would
// overflow the replay buffer between two acks. Inside the message the
// rows are grouped by query name, groups in the order their first row was
// produced; the czar adds them to the Merger in that order, which is the
// per-shard arrival order of the merge key. The czar resolves each
// group's AQ once; a dropped AQ's group is counted as stale and the other
// groups of the message still deliver.
//
// Rows are encoded with length-prefixed tokens and %.17g doubles — NOT
// device::value_to_string, whose %.6g rendering is lossy; byte-identical
// same-seed runs need exact round-trips. Decoding is bounded by the
// payload: a count larger than the remaining bytes can hold is malformed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/message.h"
#include "net/network.h"
#include "query/executor.h"
#include "util/time.h"

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

// Czar -> worker idempotency-key field: the dispatch counter paired with
// the request's `gen` (see file comment).
inline constexpr const char* kIdemSeqField = "idem_seq";

// Backplane node ids: the czar, and worker <i>.
inline constexpr const char* kCzarNode = "czar";
inline net::NodeId worker_node(int shard) {
  return "shard-" + std::to_string(shard);
}

// Workers heartbeat at this cadence; the czar marks a shard down after
// kMissThreshold intervals of silence.
inline constexpr aorta::util::Duration kHeartbeatInterval =
    aorta::util::Duration::seconds(1.0);
inline constexpr int kMissThreshold = 3;
// Minimum spacing between NACKs for the same seq gap (the first
// out-of-order arrival NACKs immediately; repeats are rate-limited), and
// the interval at which a gap that stays open is NACKed again.
inline constexpr aorta::util::Duration kNackInterval =
    aorta::util::Duration::millis(100);
// net::ReliableCall attempts per fragment RPC; the ablation makes it 1.
inline constexpr int kDispatchAttempts = 4;

// The czar<->worker link: LAN-class latency, no jitter, no loss.
net::LinkModel backplane_link();

// FNV-1a 64-bit: the deterministic device partition function. std::hash is
// implementation-defined; the partition must be stable across toolchains
// so committed baselines stay comparable.
std::uint64_t fnv1a64(std::string_view s);

// Shard owning a device id under an N-way partition.
inline int shard_of(std::string_view device_id, int num_shards) {
  return static_cast<int>(fnv1a64(device_id) %
                          static_cast<std::uint64_t>(num_shards));
}

// One fragment, as the worker reads it.
struct FragmentSpec {
  std::string name;        // prefixed AQ name ("" for one-shot SELECTs)
  std::string sql;         // the statement text
  bool once = false;       // one-shot SELECT: rows ride the RPC reply
  std::uint64_t gen = 0;   // registration generation (see file comment)
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

// One query's rows inside a flush's fragment_results message.
struct RowGroup {
  std::string query;
  std::vector<query::TimestampedRow> rows;
};

// A whole flush: each group is the query name followed by its rows in the
// encode_rows format, groups in the given order.
std::string encode_row_groups(const std::vector<RowGroup>& groups);
bool decode_row_groups(const std::string& payload,
                       std::vector<RowGroup>* out);

}  // namespace aorta::shard
