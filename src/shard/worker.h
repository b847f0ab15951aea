// Worker: one shard's complete query engine behind the czar.
//
// A worker is an engine slice plus the fragment protocol. The slice
// (core::Engine, the same class the host Aorta builds its own engine
// with) runs on the worker's own runtime loop and network segment, with
// its comm endpoint "shard-<i>" on the backplane, over the
// hash-partitioned subset of devices the Plane routed to it. Around it
// the worker keeps only the protocol state: the idempotency window, the
// replay buffer, result flushes and heartbeats. It speaks the fragment
// protocol (shard/fragment.h) with the czar:
//
//   * fragment_register (once=0): compile + register the AQ fragment on
//     the local executor; its rows and action outcomes are buffered and
//     shipped to the czar as sequenced fragment_results flushes (a
//     zero-delay event coalesces everything produced at one instant into
//     one message, rows grouped by fragment id).
//   * fragment_register (once=1): run the one-shot SELECT locally and ride
//     the partial rows back on the RPC reply. The worker keeps the plan of
//     each once text it compiled (kPlanLimit texts, oldest evicted first,
//     all dropped when the catalog or the device types change), so a
//     repeated SELECT skips parse, rewrite and compile.
//   * fragment_drop: drop the fragment, if it is still the registration
//     the drop names (a delayed drop never hits a same-named successor).
//   * shard_heartbeat every kHeartbeatInterval: liveness + watermark (the
//     merge frontier's input).
//
// A register carrying a new generation resets the worker's seq counter and
// re-registers over any existing fragment of the same name — the czar's
// recovery path after this worker was partitioned away and healed. A
// register or drop carrying an *older* generation (a delayed retry or
// chaos duplicate from before a bump) is answered fragment_stale and
// otherwise ignored.
//
// Reliable backplane (DESIGN.md §14): requests are deduplicated by their
// (gen, idem_seq) key through a bounded window that caches the reply —
// duplicates get the cached reply verbatim, or queue as waiters while the
// first copy is still executing (one-shot SELECTs reply asynchronously).
// Sequenced result messages are retained in a bounded replay buffer until
// a shard_ack covers them; a shard_nack retransmits the stored range
// byte-for-byte. Config::reliable_backplane = false retains nothing.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/aorta.h"
#include "shard/fragment.h"

namespace aorta::shard {

struct WorkerStats {
  std::uint64_t fragments_registered = 0;
  std::uint64_t fragments_dropped = 0;
  std::uint64_t selects_served = 0;
  std::uint64_t rows_sent = 0;
  std::uint64_t results_msgs = 0;
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t bad_requests = 0;  // malformed / unparsable fragments
  // Once-fragment plans (Worker::kPlanLimit): fragments whose text had a
  // kept plan, and plans dropped for the bound.
  std::uint64_t plans_reused = 0;
  std::uint64_t plans_evicted = 0;
  // Reliable backplane (DESIGN.md §14).
  std::uint64_t dup_requests = 0;       // idempotency-window hits
  std::uint64_t stale_gen_requests = 0; // requests from a superseded gen
  std::uint64_t acks_received = 0;
  std::uint64_t nacks_received = 0;
  std::uint64_t replay_sent = 0;        // messages retransmitted on NACK
  std::uint64_t replay_overflow = 0;    // unacked messages evicted (bound)
  std::uint64_t replay_hwm = 0;         // replay-buffer high-water mark
};

class Worker {
 public:
  struct Options {
    int index = 0;  // shard index; node id is worker_node(index)
  };

  // Once-fragment texts whose compiled plans are kept (FIFO-evicted when
  // exceeded, like the reliability state below).
  static constexpr std::size_t kPlanLimit = 256;

  // Builds the worker's slice (loop, segment, tracer and engine knobs come
  // from the host; metrics under "shard.<index>.") and starts heartbeats.
  Worker(core::Aorta* host, Options options);
  ~Worker();

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  int index() const { return options_.index; }
  const net::NodeId& node_id() const { return node_id_; }
  // The worker's engine slice: world building, registry, loop, segment.
  core::Engine& engine() { return engine_; }
  const WorkerStats& stats() const { return stats_; }
  std::size_t fragment_count() const { return fragments_.size(); }
  // Unacked sequenced messages currently retained for retransmission.
  std::size_t replay_depth() const { return replay_.size(); }

 private:
  // Bounds for the reliability state (both FIFO-evicted when exceeded).
  static constexpr std::size_t kIdemWindow = 256;
  static constexpr std::size_t kReplayLimit = 4096;

  // A registered AQ fragment. Its row hook holds a pointer to it (map
  // nodes are stable; the hook dies with the executor AQ, before the
  // fragment is erased).
  struct Fragment {
    std::uint64_t id = 0;
    // Labels already on this generation's stream (see shard/fragment.h).
    bool announced = false;
    // Its group in pending_ while flushes_ still equals group_flush.
    std::size_t group = 0;
    std::uint64_t group_flush = ~std::uint64_t{0};
  };

  // One idempotency-window entry: the cached reply once ready, else the
  // request_ids of duplicates waiting for the first copy to finish.
  struct IdemEntry {
    bool ready = false;
    net::Message reply;
    std::vector<std::uint64_t> waiters;
  };
  using IdemKey = std::pair<std::uint64_t, std::uint64_t>;

  void on_push(const net::Message& msg);
  // Idempotent dispatch: false means the request was a duplicate and has
  // been fully handled (cached reply sent, or queued as a waiter).
  bool begin_idem(const net::Message& msg);
  // All request replies funnel through here so the idempotency window can
  // cache them and answer any queued waiters.
  void send_reply(const net::Message& request, net::Message reply);
  void handle_ack(const net::Message& msg);
  void handle_nack(const net::Message& msg);
  // Adopt a new czar generation: fresh slate — every fragment is dropped
  // (the czar re-registers the ones that should survive) and the outbound
  // seq counter restarts at 0.
  void adopt_gen(std::uint64_t gen);
  // A request from a superseded generation: refuse it with fragment_stale.
  void reply_stale(const net::Message& request);
  void handle_register(const net::Message& msg);
  void handle_drop(const net::Message& msg);
  void trace_register(const FragmentSpec& spec);
  // The plan of a once fragment's text: the kept one, or parsed, rewritten
  // and compiled now and kept if it compiled. Null once an error reply
  // has been sent.
  std::shared_ptr<const query::CompiledQuery> once_plan(
      const net::Message& msg, const FragmentSpec& spec);
  void run_once_select(const net::Message& msg, const FragmentSpec& spec);
  void reply_error(const net::Message& request, const std::string& message);

  // Writes a fired row into the pending flush, opening the fragment's
  // group on its first row of the flush (with the labels, if this
  // generation's stream has not had them yet).
  void on_aq_row(Fragment& fragment, const query::RowView& row);
  void on_outcome(const std::string& query, aorta::util::TimePoint at,
                  const std::string& detail);
  // Arrange for flush() to run at the current instant, once.
  void schedule_flush();
  void flush();
  void send_heartbeat();
  // Stamp (shard, gen, seq) onto an outbound one-way message and send it.
  void send_sequenced(net::Message msg);

  Options options_;
  net::NodeId node_id_;
  core::Engine engine_;

  std::map<std::string, Fragment> fragments_;  // by AQ name
  std::uint64_t gen_ = 0;            // adopted czar generation
  std::uint64_t seq_ = 0;            // next outbound sequence number
  std::size_t replay_limit_ = 0;     // kReplayLimit, or 0 (the ablation)
  // Request dedup window. Keys embed the czar generation, so the window
  // deliberately survives adopt_gen: a pre-bump duplicate arriving after
  // the bump still hits its cached reply instead of re-executing.
  std::map<IdemKey, IdemEntry> idem_;
  std::deque<IdemKey> idem_fifo_;
  // Sequenced messages awaiting a cumulative ack, keyed by seq; cleared on
  // adopt_gen (a new generation restarts the stream from seq 0).
  std::map<std::uint64_t, net::Message> replay_;
  // Once-fragment plans by SQL text, the texts in insertion order, and
  // the catalog and device-type versions they were compiled against.
  std::unordered_map<std::string, std::shared_ptr<const query::CompiledQuery>>
      plans_;
  std::deque<std::string> plan_fifo_;
  std::uint64_t plans_version_ = 0;
  // Rows and outcomes awaiting the flush event, already encoded: groups in
  // first-appearance order, each group's rows and the outcomes in
  // production order.
  FlushBuilder pending_;
  std::uint64_t flushes_ = 0;  // flush events run (Fragment::group_flush)
  bool flush_scheduled_ = false;
  WorkerStats stats_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace aorta::shard
