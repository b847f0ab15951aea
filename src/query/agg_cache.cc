#include "query/agg_cache.h"

#include <algorithm>
#include <cmath>

#include "query/executor.h"
#include "util/strings.h"

namespace aorta::query {

using aorta::util::Status;
using device::Value;

namespace {

// The canonical binding alias every normalized expression is rewritten
// to: "avg(s.temp)" and "avg(x.temp)" must hash identically.
constexpr const char* kAlias = "e";

// Clone `expr` with every column qualifier rewritten to the canonical
// alias (single-table queries: any qualifier names the event table).
ExprPtr normalize(const Expr& expr) {
  ExprPtr out = expr.clone();
  std::function<void(Expr&)> walk = [&](Expr& e) {
    if (e.kind == Expr::Kind::kColumnRef) e.qualifier = kAlias;
    for (auto& arg : e.args) walk(*arg);
    if (e.lhs != nullptr) walk(*e.lhs);
    if (e.rhs != nullptr) walk(*e.rhs);
  };
  walk(*out);
  return out;
}

}  // namespace

AggregateCache::AggregateCache(comm::ScanBroker* broker,
                               aorta::util::EventLoop* loop, Options options)
    : broker_(broker), loop_(loop), options_(options) {}

AggregateCache::~AggregateCache() {
  for (auto& [id, entry] : entries_) broker_->unsubscribe(entry->subscription);
}

Status AggregateCache::build_spec(const CompiledQuery& compiled,
                                  double sample_period_s, Spec* spec) const {
  if (compiled.tables.size() != 1) {
    return aorta::util::invalid_argument_error(
        "continuous aggregates support a single table");
  }
  if (!compiled.actions.empty()) {
    return aorta::util::invalid_argument_error(
        "continuous aggregates cannot embed actions");
  }
  const comm::Schema& schema = *compiled.schemas.at(compiled.event_alias);

  // GROUP BY: plain event-table columns only.
  for (const auto& g : compiled.group_by) {
    if (g->kind != Expr::Kind::kColumnRef || g->column == "*") {
      return aorta::util::invalid_argument_error(
          "GROUP BY supports plain columns, got: " + g->to_string());
    }
    if (schema.field(g->column) == nullptr) {
      return aorta::util::not_found_error("unknown GROUP BY column: " +
                                          g->to_string());
    }
    spec->group_cols.push_back(g->column);
  }

  // Window shape in samples (one sample = one AQ epoch batch). Absent
  // clauses default to a per-epoch window: every sample is its own pane
  // and its own window, which is what plain continuous avg() means.
  auto to_samples = [&](double seconds, const char* what,
                        std::uint64_t* out) -> Status {
    if (seconds <= 0.0) {
      *out = 1;
      return Status::ok();
    }
    double ratio = seconds / sample_period_s;
    std::uint64_t samples =
        static_cast<std::uint64_t>(std::llround(ratio));
    if (samples == 0 || std::abs(ratio - static_cast<double>(samples)) > 1e-9) {
      return aorta::util::invalid_argument_error(
          std::string(what) + " must be a positive multiple of the AQ epoch (" +
          aorta::util::str_format("%g", sample_period_s) + "s)");
    }
    *out = samples;
    return Status::ok();
  };
  if (Status s = to_samples(compiled.every_s, "EVERY", &spec->slide);
      !s.is_ok()) {
    return s;
  }
  if (Status s = to_samples(compiled.window_s, "WINDOW", &spec->window);
      !s.is_ok()) {
    return s;
  }
  if (spec->window % spec->slide != 0) {
    return aorta::util::invalid_argument_error(
        "WINDOW must be a multiple of EVERY");
  }

  // Select list: aggregate calls + group-key columns, nothing else, in
  // output-column order (compile() records each aggregate's position).
  std::size_t next_agg = 0;
  std::size_t next_proj = 0;
  for (std::size_t pos = 0; pos < compiled.labels.size(); ++pos) {
    if (next_agg < compiled.aggregates.size() &&
        compiled.aggregates[next_agg].position == pos) {
      const CompiledAggregate& agg = compiled.aggregates[next_agg++];
      std::string key =
          agg.arg == nullptr ? "*" : normalize(*agg.arg)->to_string();
      std::size_t idx = 0;
      for (; idx < spec->arg_keys.size(); ++idx) {
        if (spec->arg_keys[idx] == key) break;
      }
      if (idx == spec->arg_keys.size()) {
        spec->arg_keys.push_back(std::move(key));
        spec->arg_sources.push_back(&agg);
      }
      spec->items.push_back(
          SubItem{.index = idx, .op = agg.op, .label = agg.label});
      continue;
    }
    const Expr& proj = *compiled.projections[next_proj++];
    if (proj.kind == Expr::Kind::kColumnRef) {
      auto it = std::find(spec->group_cols.begin(), spec->group_cols.end(),
                          proj.column);
      if (it != spec->group_cols.end()) {
        spec->items.push_back(SubItem{
            .is_group = true,
            .index = static_cast<std::size_t>(it - spec->group_cols.begin()),
            .label = compiled.labels[pos]});
        continue;
      }
    }
    return aorta::util::invalid_argument_error(
        "projection must be an aggregate or a GROUP BY column: " +
        proj.to_string());
  }

  // Normalized predicate texts, sorted (conjunct order must not change
  // the hash).
  for (const auto& p : compiled.event_predicates) {
    spec->pred_keys.push_back(normalize(*p)->to_string());
  }
  std::sort(spec->pred_keys.begin(), spec->pred_keys.end());

  auto na = compiled.needed_attrs.find(compiled.event_alias);
  if (na != compiled.needed_attrs.end()) spec->needed = na->second;
  return Status::ok();
}

Status AggregateCache::attach(const std::string& name,
                              std::uint64_t generation,
                              const CompiledQuery& compiled,
                              std::uint64_t epoch_ticks,
                              double sample_period_s, EmitFn emit) {
  Spec spec;
  if (Status s = build_spec(compiled, sample_period_s, &spec);
      !s.is_ok()) {
    return s;
  }

  // The canonical query hash: everything that determines the entry's
  // evaluation — event type, sample cadence and phase, window shape,
  // normalized predicates and aggregate arguments — but NOT the GROUP BY
  // columns (distinct groupings share an entry) and NOT the aggregate ops
  // (every op folds from the same pane partials). The phase mirrors the
  // subscription a private registration would have created, so sharing
  // never shifts emission ticks.
  const device::DeviceTypeId type = compiled.event_type();
  const std::uint64_t phase = broker_->tick_count() % epoch_ticks;
  std::string key = type;
  key += '\x1f';
  key += std::to_string(epoch_ticks) + "|" + std::to_string(phase) + "|" +
         std::to_string(spec.window) + "|" + std::to_string(spec.slide) + "|";
  for (const auto& p : spec.pred_keys) key += p + "&";
  key += "|";
  {
    std::vector<std::string> sorted_args = spec.arg_keys;
    std::sort(sorted_args.begin(), sorted_args.end());
    for (const auto& a : sorted_args) key += a + ",";
  }
  if (!options_.shared) {
    // Ablation: a per-AQ key runs the same machinery without sharing.
    key += "|gen" + std::to_string(generation);
  }

  // Find a compatible entry: same hash AND the grouping's columns are a
  // subset of the attributes the entry's subscription acquires (the
  // subsumption rule — an entry cannot group by what it never reads).
  Entry* entry = nullptr;
  bool fresh = false;
  for (std::uint64_t id : by_hash_[key]) {
    Entry* candidate = entries_.at(id).get();
    bool ok = true;
    for (const auto& col : spec.group_cols) {
      if (candidate->needed.count(col) == 0) {
        ok = false;
        break;
      }
    }
    if (ok) {
      entry = candidate;
      break;
    }
  }
  if (entry == nullptr) {
    fresh = true;
    auto owned = std::make_unique<Entry>();
    owned->id = next_entry_id_++;
    owned->hash_key = key;
    owned->type = type;
    owned->period = epoch_ticks;
    owned->phase = phase;
    owned->window = spec.window;
    owned->slide = spec.slide;
    owned->window_panes = spec.window / spec.slide;
    owned->needed = spec.needed;
    // Single-table plans: every program reads frame slot 0.
    owned->preds = compiled.event_programs;
    for (std::size_t i = 0; i < spec.arg_keys.size(); ++i) {
      const CompiledAggregate& src = *spec.arg_sources[i];
      owned->args.push_back(
          ArgCol{spec.arg_keys[i], src.arg == nullptr, src.program});
    }
    std::uint64_t id = owned->id;
    owned->subscription = broker_->subscribe(
        type, std::set<std::string>(spec.needed), epoch_ticks,
        [this, id](const std::vector<comm::Tuple>& tuples,
                   std::uint64_t issue_tick) {
          on_batch(id, tuples, issue_tick);
        });
    entry = owned.get();
    entries_.emplace(id, std::move(owned));
    by_hash_[key].push_back(id);
    ++stats_.misses;
  }

  // Find or create the grouping for this column list.
  Grouping* grouping = nullptr;
  for (auto& g : entry->groupings) {
    if (g->cols == spec.group_cols) {
      grouping = g.get();
      break;
    }
  }
  if (grouping == nullptr) {
    auto owned = std::make_unique<Grouping>();
    owned->cols = spec.group_cols;
    if (owned->cols.empty()) {
      // Ungrouped aggregates always have their one implicit group, so an
      // empty window still emits (count = 0, sum/avg/min/max = NULL).
      GroupState& g = owned->groups[""];
      g.args.resize(entry->args.size());
    }
    grouping = owned.get();
    entry->groupings.push_back(std::move(owned));
    if (!fresh) ++stats_.subsumptions;
  } else if (!fresh) {
    ++stats_.hits;
  }
  ++grouping->subscribers;

  // Warm-up: the first pane made only of samples this subscriber will
  // observe. Windows containing earlier panes are suppressed for it, so a
  // mid-stream join sees exactly what its private entry would have.
  const std::uint64_t tick = broker_->tick_count();
  const std::uint64_t first_sample =
      (tick - entry->phase) / entry->period + 1;
  auto sub = std::make_unique<Subscriber>();
  sub->name = name;
  sub->generation = generation;
  sub->min_pane = (first_sample + entry->slide - 1) / entry->slide;
  sub->items = std::move(spec.items);
  sub->emit = std::move(emit);
  sub->entry = entry;
  sub->grouping = grouping;
  entry->subs.push_back(generation);
  std::sort(entry->subs.begin(), entry->subs.end());
  subs_by_gen_.emplace(generation, std::move(sub));
  return Status::ok();
}

void AggregateCache::detach(std::uint64_t generation) {
  auto it = subs_by_gen_.find(generation);
  if (it == subs_by_gen_.end()) return;
  Subscriber& sub = *it->second;
  Entry* entry = sub.entry;
  entry->subs.erase(
      std::remove(entry->subs.begin(), entry->subs.end(), generation),
      entry->subs.end());
  if (--sub.grouping->subscribers == 0) {
    auto git = std::find_if(
        entry->groupings.begin(), entry->groupings.end(),
        [&](const std::unique_ptr<Grouping>& g) {
          return g.get() == sub.grouping;
        });
    if (git != entry->groupings.end()) entry->groupings.erase(git);
  }
  subs_by_gen_.erase(it);
  if (entry->subs.empty()) {
    broker_->unsubscribe(entry->subscription);
    auto& ids = by_hash_[entry->hash_key];
    ids.erase(std::remove(ids.begin(), ids.end(), entry->id), ids.end());
    if (ids.empty()) by_hash_.erase(entry->hash_key);
    entries_.erase(entry->id);
  }
}

void AggregateCache::on_batch(std::uint64_t entry_id,
                              const std::vector<comm::Tuple>& tuples,
                              std::uint64_t issue_tick) {
  auto eit = entries_.find(entry_id);
  if (eit == entries_.end()) return;  // dropped with a batch in flight
  Entry& entry = *eit->second;
  const std::uint64_t sample = (issue_tick - entry.phase) / entry.period;

  stats_.tuples_evaluated += tuples.size();
  BindingFrame frame;
  frame.size = 1;
  std::vector<Value> values(entry.args.size());
  for (const comm::Tuple& tuple : tuples) {
    frame.set(0, &tuple);
    bool pass = true;
    for (const EvalProgram& pred : entry.preds) {
      if (!pred.run_predicate(frame)) {
        pass = false;
        break;
      }
    }
    if (!pass) continue;

    // Evaluate every aggregate argument once; the value then folds into
    // each grouping's matching group.
    for (std::size_t a = 0; a < entry.args.size(); ++a) {
      values[a] = Value{};
      if (entry.args[a].star) continue;
      auto v = entry.args[a].program.run(frame);
      if (v.is_ok()) values[a] = std::move(v).value();
    }

    for (auto& grouping : entry.groupings) {
      std::string group_key;
      for (const auto& col : grouping->cols) {
        append_group_key(tuple.get(col), &group_key);
      }
      auto [git, inserted] = grouping->groups.try_emplace(group_key);
      GroupState& group = git->second;
      if (inserted) {
        group.args.resize(entry.args.size());
        for (const auto& col : grouping->cols) {
          group.values.push_back(tuple.get(col));
        }
      }
      for (std::size_t a = 0; a < entry.args.size(); ++a) {
        Pane& cur = group.args[a].cur;
        cur.degraded |= tuple.degraded();
        if (entry.args[a].star) {
          ++cur.fold.count;
        } else {
          cur.fold.add(values[a]);
        }
      }
    }
  }

  // Pane close: the batch that completes a pane triggers bookkeeping and
  // window emission at this same virtual instant — i.e. the epoch barrier
  // of the closing sample's tick.
  if ((sample + 1) % entry.slide != 0) return;
  const std::uint64_t pane = sample / entry.slide;
  std::vector<std::pair<std::uint64_t, TimestampedRow>> out;
  close_pane(entry, pane, &out);
  // Deliveries run after all state mutation: an on_row hook may drop or
  // register AQs, so each staged row re-resolves its subscriber by
  // generation first.
  for (auto& [generation, row] : out) {
    auto sit = subs_by_gen_.find(generation);
    if (sit == subs_by_gen_.end()) continue;
    Subscriber& sub = *sit->second;
    ++stats_.emissions;
    sub.emit(sub.name, std::move(row));
  }
}

void AggregateCache::close_pane(
    Entry& entry, std::uint64_t pane,
    std::vector<std::pair<std::uint64_t, TimestampedRow>>* out) {
  ++stats_.panes_closed;
  const std::uint64_t low_pane =
      pane + 1 >= entry.window_panes ? pane + 1 - entry.window_panes : 0;

  for (auto& grouping : entry.groupings) {
    std::vector<std::string> dead;
    for (auto& [key, group] : grouping->groups) {
      bool live = false;
      for (ArgWindow& w : group.args) {
        // Close the open pane (only when it saw data), then expire
        // everything older than the window that ends at `pane`.
        const AggFold& f = w.cur.fold;
        if (f.count > 0 || w.cur.degraded) {
          if (f.n > 0) {
            while (!w.mins.empty() && w.mins.back().second >= f.min) {
              w.mins.pop_back();
            }
            w.mins.emplace_back(pane, f.min);
            while (!w.maxs.empty() && w.maxs.back().second <= f.max) {
              w.maxs.pop_back();
            }
            w.maxs.emplace_back(pane, f.max);
          }
          w.panes.emplace_back(pane, w.cur);
          w.cur = Pane{};
        }
        while (!w.panes.empty() && w.panes.front().first < low_pane) {
          w.panes.pop_front();
        }
        while (!w.mins.empty() && w.mins.front().first < low_pane) {
          w.mins.pop_front();
        }
        while (!w.maxs.empty() && w.maxs.front().first < low_pane) {
          w.maxs.pop_front();
        }
        if (!w.panes.empty()) live = true;
      }
      if (!live && !grouping->cols.empty()) dead.push_back(key);
    }
    // Groups with no data anywhere in the window vanish (and emit
    // nothing) — the churn guarantee's "no debris".
    for (const auto& key : dead) grouping->groups.erase(key);
  }

  // Emission: per subscriber in registration (generation) order, per
  // group in encoded-key order — a deterministic schedule shared by the
  // cache-on and cache-off modes.
  const aorta::util::TimePoint now = loop_->now();
  for (std::uint64_t generation : entry.subs) {
    auto sit = subs_by_gen_.find(generation);
    if (sit == subs_by_gen_.end()) continue;
    Subscriber* sub = sit->second.get();
    if (pane + 1 < sub->min_pane + entry.window_panes) continue;  // warm-up
    for (const auto& [key, group] : sub->grouping->groups) {
      Row row;
      bool degraded = false;
      for (const SubItem& item : sub->items) {
        row.emplace_back(item.label, finalize(group, item, &degraded));
      }
      out->emplace_back(generation,
                        TimestampedRow{now, std::move(row), degraded});
    }
  }
}

Value AggregateCache::finalize(const GroupState& group, const SubItem& item,
                               bool* degraded) const {
  if (item.is_group) return group.values[item.index];
  const ArgWindow& w = group.args[item.index];
  AggFold window;
  for (const auto& [pane, p] : w.panes) {
    window.count += p.fold.count;
    window.n += p.fold.n;
    window.sum += p.fold.sum;
    *degraded |= p.degraded;
  }
  if (!w.mins.empty()) window.min = w.mins.front().second;
  if (!w.maxs.empty()) window.max = w.maxs.front().second;
  return window.finalize(item.op);
}

}  // namespace aorta::query
