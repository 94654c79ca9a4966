#include "sim/sharded_circuit.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <thread>
#include <utility>

#include "obs/trace_recorder.hpp"
#include "sim/sim_session.hpp"
#include "util/error.hpp"

namespace charlie::sim {

ShardedCircuit::ShardedCircuit(std::vector<Shard> shards,
                               std::vector<BoundaryEdge> edges,
                               std::size_t n_inputs,
                               util::NameIndex net_ids,
                               std::vector<NetHome> home)
    : shards_(std::move(shards)),
      edges_(std::move(edges)),
      n_inputs_(n_inputs),
      net_ids_(std::move(net_ids)),
      home_(std::move(home)) {
  CHARLIE_ASSERT_MSG(!shards_.empty(), "sharded circuit: no shards");
  CHARLIE_ASSERT(home_.size() == net_ids_.size() && n_inputs_ <= home_.size());
  out_edges_.resize(shards_.size());
  in_edges_.resize(shards_.size());
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    const BoundaryEdge& e = edges_[i];
    // The shard graph must be acyclic; contiguous topo-order partitions
    // guarantee the stronger from < to.
    CHARLIE_ASSERT(e.from_shard < e.to_shard && e.to_shard < shards_.size());
    const Circuit& consumer = *shards_[e.to_shard].circuit;
    CHARLIE_ASSERT(e.to_input < consumer.n_inputs());
    CHARLIE_ASSERT_MSG(
        shards_[e.to_shard].input_binding[e.to_input] == -1,
        "sharded circuit: boundary edge targets a global-input binding");
    out_edges_[e.from_shard].push_back(i);
    in_edges_[e.to_shard].push_back(i);
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = shards_[s];
    CHARLIE_ASSERT(shard.circuit != nullptr);
    CHARLIE_ASSERT(shard.input_binding.size() == shard.circuit->n_inputs());
  }
}

std::size_t ShardedCircuit::n_gates() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) n += shard.circuit->n_gates();
  return n;
}

double ShardedCircuit::Result::load_imbalance() const {
  if (shard_window_events.empty()) return 0.0;
  long total = 0;
  long busiest = 0;
  for (const auto& windows : shard_window_events) {
    long shard_total = 0;
    for (const long n : windows) shard_total += n;
    total += shard_total;
    busiest = std::max(busiest, shard_total);
  }
  if (total == 0) return 0.0;
  const double mean = static_cast<double>(total) /
                      static_cast<double>(shard_window_events.size());
  return static_cast<double>(busiest) / mean;
}

const waveform::DigitalTrace& ShardedCircuit::Result::trace(
    const std::string& net) const {
  CHARLIE_ASSERT(owner != nullptr);
  const int found = owner->net_ids_.find(net);
  if (found < 0) throw ConfigError("sharded circuit: unknown net " + net);
  const auto id = static_cast<std::size_t>(found);
  if (id < owner->n_inputs_) return input_traces[id];
  const NetHome& home = owner->home_[id];
  return shard_results[home.shard].trace(home.net);
}

namespace {

// One cross-shard transition in flight between a producer's window and the
// matching consumer window.
struct BoundaryEvent {
  double t = 0.0;
  bool value = false;
};

// A boundary transition gathered for injection: `rank` is its edge's
// position in the consumer's in-edge list.
struct IncomingEvent {
  double t = 0.0;
  std::uint32_t rank = 0;
  bool value = false;
  std::size_t to_input = 0;
};

}  // namespace

ShardedCircuit::Result ShardedCircuit::simulate(
    const std::vector<waveform::DigitalTrace>& stimuli, double t_begin,
    double t_end, const ShardedSimConfig& config) {
  CHARLIE_ASSERT(t_end > t_begin);
  CHARLIE_ASSERT_MSG(stimuli.size() == n_inputs_,
                     "sharded circuit: one stimulus per primary input");
  const std::size_t n_shards = shards_.size();

  // --- window schedule -----------------------------------------------------
  // W windows of quantum q; the last window's end is exactly t_end, and every
  // earlier boundary is strictly below it, so each advance() horizon strictly
  // increases and the union of windows is exactly (t_begin, t_end].
  const double span = t_end - t_begin;
  double quantum = config.window;
  if (!(quantum > 0.0)) quantum = span / (8.0 * static_cast<double>(n_shards));
  std::size_t n_windows =
      static_cast<std::size_t>(std::ceil(span / quantum));
  n_windows = std::max<std::size_t>(n_windows, 1);
  auto window_end = [&](std::size_t w) {
    return w + 1 == n_windows ? t_end
                              : t_begin + static_cast<double>(w + 1) * quantum;
  };

  std::size_t n_threads = config.n_threads;
  if (n_threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    n_threads = std::min<std::size_t>(n_shards, hw > 0 ? hw : 1);
  }
  if (pool_ == nullptr || pool_->n_threads() != n_threads) {
    pool_ = std::make_unique<util::ThreadPool>(n_threads);
  }

  // --- sessions, in shard (topo) order -------------------------------------
  // A downstream shard's boundary inputs settle at the value its producer
  // settled to, so sessions are constructed in ascending shard order and
  // boundary stimuli start as constant traces at the producer's t_begin
  // value; their transitions arrive later through inject().
  std::vector<std::unique_ptr<SimSession>> sessions(n_shards);
  // Shard tasks poll only the wall clock and the cancellation token; the
  // event ceiling is enforced below, on the coordinating thread at step
  // granularity, so a budget trip is deterministic for a fixed config.
  RunBudget task_budget = config.budget;
  task_budget.max_events = 0;
  {
    std::vector<waveform::DigitalTrace> shard_stimuli;
    for (std::size_t s = 0; s < n_shards; ++s) {
      const Shard& shard = shards_[s];
      shard_stimuli.clear();
      shard_stimuli.reserve(shard.circuit->n_inputs());
      for (const int binding : shard.input_binding) {
        shard_stimuli.push_back(
            binding >= 0 ? stimuli[static_cast<std::size_t>(binding)]
                         : waveform::DigitalTrace());
      }
      for (const std::size_t edge_index : in_edges_[s]) {
        const BoundaryEdge& e = edges_[edge_index];
        shard_stimuli[e.to_input] = waveform::DigitalTrace(
            sessions[e.from_shard]->value(e.from_net), {});
      }
      sessions[s] = std::make_unique<SimSession>(*shard.circuit, shard_stimuli,
                                                 t_begin, task_budget);
    }
  }

  // --- exchange buckets ----------------------------------------------------
  // buckets[edge][w] holds the producer's window-w boundary transitions. The
  // producer fills it at wavefront step from_shard + w; the consumer drains
  // it at step to_shard + w (strictly later), so no bucket is ever touched
  // by two tasks of the same step and no locking is needed.
  std::vector<std::vector<std::vector<BoundaryEvent>>> buckets(edges_.size());
  for (auto& per_window : buckets) per_window.resize(n_windows);
  std::vector<std::size_t> export_cursor(edges_.size(), 0);
  // One injection buffer per shard, reused by each of its window tasks.
  std::vector<std::vector<IncomingEvent>> incoming_by_shard(n_shards);

  // Per-(shard, window) event counts, written by the owning task (distinct
  // slot per task, so no synchronization beyond the pool's step barrier).
  // Recorded unconditionally: a subtraction per window task is free next to
  // the window's event processing, and it is the data load_imbalance() and
  // the shard.* metrics summarize.
  std::vector<std::vector<long>> shard_window_events(
      n_shards, std::vector<long>(n_windows, 0));

  // --- conservative wavefront ----------------------------------------------
  // Task (shard k, window w) runs at step k + w; all tasks of one step are
  // mutually independent (distinct sessions, disjoint buckets), so each step
  // is one parallel_for. Grain 1: shard/window tasks are coarse already.
  RunStatus status = RunStatus::kOk;
  std::string error;
  RunGuard guard(config.budget);
  for (std::size_t step = 0; step + 1 < n_shards + n_windows; ++step) {
    const std::size_t k_lo = step >= n_windows ? step - n_windows + 1 : 0;
    const std::size_t k_hi = std::min(n_shards - 1, step);
    try {
      pool_->parallel_for(
          k_hi - k_lo + 1, 1, [&](std::size_t /*worker*/, std::size_t task) {
            const std::size_t k = k_lo + task;
            const std::size_t w = step - k;
            SimSession& session = *sessions[k];
            obs::ScopedSpan obs_span("shard.task", "shard",
                                     static_cast<long long>(k), "window",
                                     static_cast<long long>(w));
            const long events_before =
                session.n_stimulus_events() + session.n_gate_events();
            try {
              // Inject this window's boundary transitions, globally
              // time-sorted; the in-edge order breaks (measure-zero)
              // exact-time ties deterministically. One edge's times
              // strictly increase, so (t, rank) is unique and the unstable
              // sort gives the stable order.
              std::vector<IncomingEvent>& incoming = incoming_by_shard[k];
              incoming.clear();
              for (std::size_t r = 0; r < in_edges_[k].size(); ++r) {
                const std::size_t edge_index = in_edges_[k][r];
                const std::size_t to_input = edges_[edge_index].to_input;
                for (const BoundaryEvent& ev : buckets[edge_index][w]) {
                  incoming.push_back({ev.t, static_cast<std::uint32_t>(r),
                                      ev.value, to_input});
                }
              }
              std::sort(incoming.begin(), incoming.end(),
                        [](const IncomingEvent& a, const IncomingEvent& b) {
                          return a.t < b.t || (a.t == b.t && a.rank < b.rank);
                        });
              for (const IncomingEvent& ev : incoming) {
                session.inject(ev.to_input, ev.t, ev.value);
              }
              session.advance(window_end(w));
              shard_window_events[k][w] = session.n_stimulus_events() +
                                          session.n_gate_events() -
                                          events_before;
              // Export this window's production on every out-edge: all
              // not-yet-exported transitions up to the new horizon.
              for (const std::size_t edge_index : out_edges_[k]) {
                const BoundaryEdge& e = edges_[edge_index];
                const waveform::DigitalTrace& produced =
                    session.trace(e.from_net);
                std::size_t& cursor = export_cursor[edge_index];
                auto& bucket = buckets[edge_index][w];
                while (cursor < produced.n_transitions() &&
                       produced.transitions()[cursor] <= session.t_horizon()) {
                  bucket.push_back({produced.transitions()[cursor],
                                    produced.is_rising(cursor)});
                  ++cursor;
                }
              }
            } catch (const std::exception& e) {
              // Stamp the failing shard's own result, then let the pool
              // carry the exception to the coordinating thread (remaining
              // tasks of this step still complete; the pool stays usable).
              session.mark_failed(e.what());
              throw;
            }
          });
    } catch (const std::exception& e) {
      status = RunStatus::kFailed;
      error = e.what();
      break;
    }
    // In-task deadline/cancellation trips are sticky in the session; stop
    // scheduling further steps once any shard has terminated.
    for (std::size_t s = 0; s < n_shards && status == RunStatus::kOk; ++s) {
      if (sessions[s]->status() != RunStatus::kOk) {
        status = sessions[s]->status();
      }
    }
    // Deterministic event-budget check at step granularity: the summed
    // event count after a completed step does not depend on thread count.
    if (status == RunStatus::kOk && config.budget.enabled()) {
      long n_processed = 0;
      for (const auto& session : sessions) {
        n_processed +=
            session->n_stimulus_events() + session->n_gate_events();
      }
      status = guard.check(n_processed);
    }
    if (status != RunStatus::kOk) break;
  }

  // --- assembly ------------------------------------------------------------
  Result result;
  result.owner = this;
  result.n_windows = n_windows;
  result.shard_window_events = std::move(shard_window_events);
  result.shard_results.reserve(n_shards);
  long n_gate_events = 0;
  for (std::size_t s = 0; s < n_shards; ++s) {
    n_gate_events += sessions[s]->n_gate_events();
    result.shard_results.push_back(sessions[s]->take_result());
  }

  // Observability aggregate, filled in fixed shard/window/edge order on the
  // coordinating thread (deterministic for any thread count).
  result.metrics.add("shard.count", static_cast<long long>(n_shards));
  result.metrics.add("shard.windows", static_cast<long long>(n_windows));
  for (std::size_t s = 0; s < n_shards; ++s) {
    long shard_total = 0;
    for (std::size_t w = 0; w < n_windows; ++w) {
      const long n = result.shard_window_events[s][w];
      shard_total += n;
      result.metrics.observe("shard.window_events", static_cast<double>(n));
    }
    result.metrics.observe("shard.events", static_cast<double>(shard_total));
    result.metrics.observe(
        "sim.max_heap_depth",
        static_cast<double>(result.shard_results[s].max_heap_depth));
  }
  long long boundary_transitions = 0;
  for (std::size_t e = 0; e < buckets.size(); ++e) {
    for (std::size_t w = 0; w < n_windows; ++w) {
      result.metrics.observe("shard.boundary_bucket",
                             static_cast<double>(buckets[e][w].size()));
      boundary_transitions += static_cast<long long>(buckets[e][w].size());
    }
  }
  result.metrics.add("shard.boundary_transitions", boundary_transitions);
  // The monolithic engine's event count is its processed stimulus events
  // plus gate firings. Shard-local stimulus counts double-count boundary
  // injections and multi-shard fanout of primary inputs, so the stimulus
  // share is recomputed from the global traces instead.
  long n_stimulus_events = 0;
  result.input_traces.reserve(n_inputs_);
  for (const waveform::DigitalTrace& stimulus : stimuli) {
    waveform::DigitalTrace windowed(stimulus.value_at(t_begin), {});
    for (std::size_t i = 0; i < stimulus.n_transitions(); ++i) {
      const double t = stimulus.transitions()[i];
      if (t > t_begin && t <= t_end) windowed.append_transition(t);
    }
    n_stimulus_events += static_cast<long>(windowed.n_transitions());
    result.input_traces.push_back(std::move(windowed));
  }
  result.n_events = n_stimulus_events + n_gate_events;
  result.status = status;
  // Overall horizon actually covered: the lowest point any shard fully
  // reached (a terminated run's traces are only trustworthy below it).
  double t_reached = t_end;
  for (const Circuit::SimResult& shard_result : result.shard_results) {
    t_reached = std::min(t_reached, shard_result.diagnostics.t_horizon);
  }
  result.diagnostics =
      guard.finish(status, result.n_events,
                   status == RunStatus::kOk ? t_end : t_reached);
  result.diagnostics.error = error;
  return result;
}

}  // namespace charlie::sim
