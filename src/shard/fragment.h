// Query fragments: the wire format of the sharded czar/worker plane.
//
// The czar turns each AQ / one-shot SELECT into one fragment per shard of
// its target set (target_shards below): the statement text (each worker
// re-parses it; the epoch cadence is part of the text), the AQ name, the
// once flag, the shard's registration generation and, for a continuous
// AQ, a czar-assigned fragment id. The
// worker needs nothing else: its device slice is its own registry (the
// Plane placed each device with shard_of). Fragments travel as
// net::Message RPCs between the czar node and the worker engines:
//
//   fragment_register  czar -> worker   register an AQ fragment, or (with
//                                       once=1) run a one-shot SELECT whose
//                                       rows ride the RPC reply
//   fragment_drop      czar -> worker   drop an AQ fragment (name + id)
//   fragment_results   worker -> czar   one-way, sequenced: every
//                                       continuous row and action outcome
//                                       of one flush
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
// Flushes. A worker ships everything its fragments produced at one
// instant as ONE fragment_results message: thousands of standing AQs fire
// at the same instant, and per-query messages would each pay for a field
// map, a replay-buffer copy and a cross-loop post. The message holds the
// rows grouped by fragment id, groups in the order their first row was
// produced (the czar adds them to the Merger in that order, which is the
// per-shard arrival order of the merge key), then the instant's action
// outcomes in production order. The worker writes each row's bytes as the
// row fires (FlushBuilder), from the values the executor hands its row
// hook, so no row object stands between evaluation and the wire; the
// czar decodes the message into a Flush.
//
// Fragment ids and schema-once rows. A group names its fragment by the
// czar-assigned id, never by the query name, so rows of a dropped
// registration can never reach a same-named successor: the czar counts
// an unknown id's rows as stale. Row labels are fixed per fragment (the
// compiled select list), so they cross the backplane once per (shard,
// generation): in the fragment's first group on the stream. The czar
// consumes the stream in seq order, so it sees that announcement before
// any id-only group, stores the labels with the AQ and stamps them back
// onto every later row. An id-only group for an id the shard never
// announced is counted and rejected.
//
// The row codec is binary: one tag byte per value, raw little-endian
// 8-byte doubles (bit-exact, NaN payloads included; byte-identical
// same-seed runs need exact round-trips), LEB128 varints for counts,
// lengths, ids and zigzag-coded integers and timestamps. Decoding is
// bounded by the payload — every count or length larger than the
// remaining bytes can hold is malformed, so nothing is reserved beyond
// what the input could fill — and canonical: a payload that decodes
// re-encodes to the same bytes.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
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

// The target set of a single-table statement: the shards it can produce
// rows on, ascending. A top-level conjunct `alias.id = 'lit'` (either
// side order, `id` also unqualified) can hold only on the device the
// literal names, so it targets shard_of(lit); OR unions its sides'
// shards, AND intersects them, and any other predicate targets every
// shard. An empty intersection (a contradiction) also targets every
// shard, so the result is never empty.
std::vector<int> target_shards(const query::SelectStmt& stmt, int num_shards);

// The GROUP BY columns an aggregate select list leaves out, clause order.
// The czar folds continuous window partials per group key, and builds the
// key from the shipped columns, so a worker ships each of these as a
// hidden trailing column (worker.cc's partials rewrite) that the czar's
// merge plan keys on and then drops.
std::vector<const query::Expr*> hidden_group_columns(
    const query::SelectStmt& stmt);

// One fragment, as the worker reads it.
struct FragmentSpec {
  std::string name;        // prefixed AQ name ("" for one-shot SELECTs)
  std::string sql;         // the statement text
  bool once = false;       // one-shot SELECT: rows ride the RPC reply
  std::uint64_t gen = 0;   // registration generation (see file comment)
  std::uint64_t id = 0;    // czar-assigned fragment id of a continuous AQ
};

// Field-level encode/decode (message kind is set by the caller).
void fragment_to_fields(const FragmentSpec& spec, net::Message* msg);
FragmentSpec fragment_from_fields(const net::Message& msg);

// ---- rows codec ----------------------------------------------------------

// A burst of timestamped rows with their labels (a one-shot SELECT's
// partial rows). decode returns false on any malformed input.
std::string encode_rows(const std::vector<query::TimestampedRow>& rows);
bool decode_rows(const std::string& payload,
                 std::vector<query::TimestampedRow>* out);

// One fragment's rows inside a flush. `labels` is set only in the
// fragment's first group on a (shard, generation) stream.
struct RowGroup {
  std::uint64_t id = 0;
  std::vector<std::string> labels;
  std::size_t rows = 0;  // the group's share of Flush::rows
};

// One action outcome, relayed to the czar's outcome sink by query name.
struct OutcomeRecord {
  std::string query;
  aorta::util::TimePoint at;
  std::string detail;
};

// A decoded flush, as the czar reads it: the row groups; every group's
// rows, in group order, in one flat vector (values only: decoding leaves
// the labels empty for the czar to stamp); then the outcomes in
// production order.
struct Flush {
  std::vector<RowGroup> groups;
  std::vector<query::TimestampedRow> rows;
  std::vector<OutcomeRecord> outcomes;
};

bool decode_flush(std::string_view payload, Flush* out);

// Builds a flush payload as its rows fire: each row's wire bytes are
// written once, into one buffer, and finish() lays the groups out in the
// order they were opened, each group's rows in the order they were added.
// A group's rows may interleave with other groups' rows. What finish()
// returns, decode_flush reads back as those groups, rows and outcomes.
class FlushBuilder {
 public:
  // Opens a group for fragment `id` and returns its index for add_row.
  // `labels` is non-empty only in the fragment's first group on a (shard,
  // generation) stream; it is encoded now, so it need not outlive the call.
  std::size_t add_group(std::uint64_t id,
                        std::span<const std::string> labels);
  void add_row(std::size_t group, aorta::util::TimePoint at, bool degraded,
               std::span<const device::Value> values);
  void add_outcome(std::string_view query, aorta::util::TimePoint at,
                   std::string_view detail);

  bool empty() const { return groups_.empty() && outcome_count_ == 0; }
  std::size_t rows() const { return rows_; }

  // The payload. Leaves the builder empty, its buffers released.
  std::string finish();

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};
  // A span of body_ bytes, linked to the next span of the same group.
  struct Run {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t next = kNone;
  };
  // A group's first run starts with its id and labels, which end at
  // head_end; its rows follow, in that run and then in the linked ones.
  struct Group {
    std::size_t head_end = 0;
    std::size_t rows = 0;
    std::size_t first_run = 0;
    std::size_t last_run = 0;
  };

  std::string body_;      // group heads and rows, as they were added
  std::string outcomes_;  // encoded outcomes, in the order added
  std::size_t outcome_count_ = 0;
  std::size_t rows_ = 0;
  std::vector<Group> groups_;
  std::vector<Run> runs_;
};

}  // namespace aorta::shard
