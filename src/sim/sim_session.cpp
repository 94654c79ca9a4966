#include "sim/sim_session.hpp"

#include <algorithm>
#include <limits>

#include "obs/trace_recorder.hpp"
#include "util/error.hpp"

namespace charlie::sim {

namespace {

bool time_then_input(const StimulusEvent& x, const StimulusEvent& y) {
  return x.t < y.t || (x.t == y.t && x.input < y.input);
}

}  // namespace

void merge_stimuli(const std::vector<waveform::DigitalTrace>& stimuli,
                   std::vector<StimulusEvent>& stream,
                   std::vector<std::uint32_t>& buckets) {
  std::size_t n = 0;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (const auto& trace : stimuli) {
    if (trace.empty()) continue;
    n += trace.n_transitions();
    lo = std::min(lo, trace.transitions().front());
    hi = std::max(hi, trace.transitions().back());
  }
  CHARLIE_ASSERT(stimuli.size() <= UINT32_MAX && n < UINT32_MAX);
  stream.resize(n);
  if (n == 0) return;

  // n equal-width buckets over [lo, hi]. The map is monotone in t (IEEE
  // subtraction and multiplication by a non-negative constant round
  // monotonically), so bucket order is time order; a zero or subnormal
  // span puts every event in one bucket.
  const double last = static_cast<double>(n - 1);
  const double scale = hi > lo ? static_cast<double>(n) / (hi - lo) : 0.0;
  const auto bucket_of = [&](double t) {
    const double x = (t - lo) * scale;
    return static_cast<std::size_t>(
        static_cast<std::int64_t>(x < last ? x : last));
  };
  // Counting sort: after the prefix sum buckets[b] is bucket b's first
  // slot; the input-major scatter leaves each bucket in (input, k) order
  // and buckets[b] at the bucket's end.
  buckets.assign(n + 1, 0);
  for (const auto& trace : stimuli) {
    for (const double t : trace.transitions()) ++buckets[bucket_of(t) + 1];
  }
  for (std::size_t b = 0; b < n; ++b) buckets[b + 1] += buckets[b];
  for (std::size_t i = 0; i < stimuli.size(); ++i) {
    bool value = stimuli[i].initial_value();
    for (const double t : stimuli[i].transitions()) {
      value = !value;
      stream[buckets[bucket_of(t)]++] = {t, static_cast<std::uint32_t>(i),
                                         value};
    }
  }
  // Events sharing a bucket, usually none or a few: (time, input) is
  // unique because one input's times strictly increase, so the unstable
  // in-place sort gives the stable order.
  std::size_t begin = 0;
  for (std::size_t b = 0; b < n; ++b) {
    const std::size_t end = buckets[b];
    if (end - begin > 1) {
      std::sort(stream.begin() + static_cast<std::ptrdiff_t>(begin),
                stream.begin() + static_cast<std::ptrdiff_t>(end),
                time_then_input);
    }
    begin = end;
  }
}

SimSession::SimSession(Circuit& circuit,
                       const std::vector<waveform::DigitalTrace>& stimuli,
                       double t_begin)
    : SimSession(circuit, stimuli, t_begin, RunBudget{}) {}

SimSession::SimSession(Circuit& circuit,
                       const std::vector<waveform::DigitalTrace>& stimuli,
                       double t_begin, const RunBudget& budget)
    : circuit_(&circuit), t_begin_(t_begin), horizon_(t_begin),
      guard_(budget), guard_active_(budget.enabled()),
      t_processed_(t_begin) {
  initialize(stimuli);
}

SimSession::SimSession(Circuit& circuit, RunArena&& arena, double t_begin,
                       const RunBudget& budget)
    : circuit_(&circuit), t_begin_(t_begin), horizon_(t_begin),
      guard_(budget), guard_active_(budget.enabled()),
      t_processed_(t_begin), arena_(std::move(arena)) {
  initialize(arena_.stimuli);
}

void SimSession::mark_failed(const std::string& what) {
  if (status_ != RunStatus::kOk) return;  // first terminal status wins
  status_ = RunStatus::kFailed;
  error_ = what;
}

void SimSession::initialize(
    const std::vector<waveform::DigitalTrace>& stimuli) {
  CHARLIE_ASSERT_MSG(stimuli.size() == circuit_->primary_inputs_.size(),
                     "circuit: one stimulus trace per primary input");
  Circuit& c = *circuit_;
  const std::size_t n_nets = c.n_nets();
  c.compile_fanout();

  // --- steady-state initialization (topological settle) -------------------
  // Window convention (see circuit.hpp): value_at(t_begin) already includes
  // a transition at exactly t_begin; only strictly later transitions become
  // events.
  std::vector<std::uint8_t>& net_value = arena_.net_value;
  net_value.assign(n_nets, 0);
  for (std::size_t i = 0; i < stimuli.size(); ++i) {
    net_value[static_cast<std::size_t>(c.primary_inputs_[i])] =
        stimuli[i].value_at(t_begin_) ? 1 : 0;
  }
  // Gates were appended after their input nets exist, so a forward sweep
  // settles an acyclic circuit (two passes as a fixpoint safety net).
  for (int pass = 0; pass < 2; ++pass) {
    for (auto& gate : c.gates_) {
      const std::span<const Circuit::NetId> inputs = c.fanin(gate);
      for (std::size_t p = 0; p < inputs.size(); ++p) {
        gate.in_values[p] =
            net_value[static_cast<std::size_t>(inputs[p])] != 0;
      }
      gate.zero_time_value = eval_gate(gate.kind, gate.in_values[0],
                                       gate.in_values[1], gate.in_values[2]);
      net_value[static_cast<std::size_t>(gate.output)] =
          gate.zero_time_value ? 1 : 0;
    }
  }
  for (auto& gate : c.gates_) {
    if (gate.sis) {
      gate.sis->initialize(t_begin_, gate.zero_time_value);
    } else {
      arena_.mis_values.assign(gate.in_values.begin(),
                               gate.in_values.begin() + gate.arity);
      gate.mis->initialize(t_begin_, arena_.mis_values);
    }
  }

  // --- stimulus stream -----------------------------------------------------
  // All primary-input events are known up front: one time-ordered stream
  // walked by an index beats pushing them through the gate heap. Equal-time
  // order is input-declaration order, and a stimulus always precedes gate
  // firings at the same instant. The stream's head up to t_begin is already
  // part of the settled state; transitions beyond the final horizon simply
  // never get processed.
  merge_stimuli(stimuli, arena_.stream, arena_.buckets);
  stim_index_ = static_cast<std::size_t>(
      std::partition_point(arena_.stream.begin(), arena_.stream.end(),
                           [&](const StimulusEvent& ev) {
                             return ev.t <= t_begin_;
                           }) -
      arena_.stream.begin());
  arena_.injected.clear();

  // --- result traces --------------------------------------------------------
  // Existing traces are reset in place, keeping their capacity; extra
  // traces from a larger previous circuit are dropped. Fresh traces grow on
  // demand: nets toggle far fewer times than the stimuli on average, and an
  // up-front reservation per net would make every reserved page resident.
  Circuit::SimResult& result = arena_.result;
  result.n_events = 0;
  if (result.traces.size() > n_nets) result.traces.resize(n_nets);
  for (std::size_t i = 0; i < result.traces.size(); ++i) {
    result.traces[i].reset(net_value[i] != 0);
  }
  result.traces.reserve(n_nets);
  for (std::size_t i = result.traces.size(); i < n_nets; ++i) {
    result.traces.emplace_back(net_value[i] != 0, std::vector<double>{});
  }

  arena_.heap.reset(c.gates_.size());
  seq_ = 0;
  arena_.deferred.clear();
  arena_.rearm.clear();
  arena_.is_deferred.assign(c.gates_.size(), 0);
}

void SimSession::reschedule(std::size_t gate_index) {
  Circuit::Gate& gate = circuit_->gates_[gate_index];
  const auto pending = gate.sis ? gate.sis->pending() : gate.mis->pending();
  if (pending.has_value() && pending->t <= horizon_) {
    arena_.heap.schedule(gate_index, pending->t, seq_++, pending->value);
    return;
  }
  arena_.heap.cancel(gate_index);
  // A pending event beyond the horizon must be re-armed when the horizon
  // moves; remember the gate (once -- insertion order preserves the
  // original schedule order across windows).
  if (pending.has_value() && arena_.is_deferred[gate_index] == 0) {
    arena_.is_deferred[gate_index] = 1;
    arena_.deferred.push_back(gate_index);
  }
}

void SimSession::propagate_net_change(Circuit::NetId net, double t,
                                      bool value) {
  Circuit& c = *circuit_;
  const auto net_index = static_cast<std::size_t>(net);
  if ((arena_.net_value[net_index] != 0) == value) return;  // defensive
  arena_.net_value[net_index] = value ? 1 : 0;
  arena_.result.traces[net_index].append_transition(t);
  for (const auto [gate_index, port] : c.fanout(net_index)) {
    Circuit::Gate& gate = c.gates_[gate_index];
    gate.in_values[port] = value;
    if (gate.sis) {
      const bool nv = eval_gate(gate.kind, gate.in_values[0],
                                gate.in_values[1], gate.in_values[2]);
      if (nv != gate.zero_time_value) {
        gate.zero_time_value = nv;
        gate.sis->on_input(t, nv);
      }
    } else {
      gate.mis->on_input(t, static_cast<int>(port), value);
    }
    reschedule(gate_index);
  }
}

void SimSession::inject(std::size_t input_index, double t, bool input_value) {
  CHARLIE_ASSERT(input_index < circuit_->primary_inputs_.size());
  CHARLIE_ASSERT_MSG(t > horizon_,
                     "sim session: injected event at or before the horizon");
  arena_.injected.push_back(
      {t, static_cast<std::uint32_t>(input_index), input_value});
}

void SimSession::advance(double t_horizon) {
  // A terminated session stays terminated: callers driving windowed
  // schedules (sharded wavefront) may keep issuing advances, which must
  // not resurrect a tripped or failed run.
  if (status_ != RunStatus::kOk) return;
  CHARLIE_ASSERT(t_horizon >= horizon_);
  horizon_ = t_horizon;

  // One span per advance slice; the event count is filled in at the end so
  // windowed schedules (sharded wavefront) show per-window event volume.
  const long events_before = n_stimulus_events_ + n_gate_events_;
  obs::ScopedSpan obs_span("sim.advance", "events", 0);

  std::vector<StimulusEvent>& stream = arena_.stream;
  // Merge injected boundary transitions into the unprocessed stimulus tail.
  // Both ranges are time-sorted; inplace_merge is stable, so pre-known
  // stimuli precede injected events at equal times.
  if (!arena_.injected.empty()) {
    std::vector<StimulusEvent>& injected = arena_.injected;
    const auto by_time = [](const StimulusEvent& x, const StimulusEvent& y) {
      return x.t < y.t;
    };
    std::stable_sort(injected.begin(), injected.end(), by_time);
    const std::size_t mid = stream.size();
    stream.insert(stream.end(), injected.begin(), injected.end());
    std::inplace_merge(
        stream.begin() + static_cast<std::ptrdiff_t>(stim_index_),
        stream.begin() + static_cast<std::ptrdiff_t>(mid), stream.end(),
        by_time);
    injected.clear();
  }

  // Re-arm gates whose pending events were beyond the previous horizon.
  // reschedule() may defer them again (still beyond this horizon); swap
  // first so the re-appends land in the emptied list.
  if (!arena_.deferred.empty()) {
    arena_.rearm.swap(arena_.deferred);
    for (const std::size_t gate_index : arena_.rearm) {
      arena_.is_deferred[gate_index] = 0;
    }
    for (const std::size_t gate_index : arena_.rearm) {
      reschedule(gate_index);
    }
    arena_.rearm.clear();
  }

  // --- event loop ----------------------------------------------------------
  // Every heap entry satisfies t <= horizon_ by construction (reschedule
  // filters), so only the stimulus stream needs the horizon check.
  EventHeap& heap = arena_.heap;
  while ((stim_index_ < stream.size() &&
          stream[stim_index_].t <= horizon_) ||
         !heap.empty()) {
    // Budget poll before taking the next event: a trip leaves exactly
    // n_events processed and the remaining events pending, so the partial
    // traces are a deterministic prefix of the full run.
    if (guard_active_) {
      const RunStatus st = guard_.check(n_stimulus_events_ + n_gate_events_);
      if (st != RunStatus::kOk) {
        status_ = st;
        obs_span.set_value0(n_stimulus_events_ + n_gate_events_ -
                            events_before);
        return;
      }
    }
    const bool take_stimulus =
        stim_index_ < stream.size() && stream[stim_index_].t <= horizon_ &&
        (heap.empty() || stream[stim_index_].t <= heap.top().t);
    if (take_stimulus) {
      const StimulusEvent ev = stream[stim_index_++];
      ++n_stimulus_events_;
      t_processed_ = ev.t;
      propagate_net_change(circuit_->primary_inputs_[ev.input], ev.t,
                           ev.value);
      if (static_cast<long>(heap.size()) > max_heap_depth_) {
        max_heap_depth_ = static_cast<long>(heap.size());
      }
      continue;
    }
    const std::size_t gate_index = heap.top_slot();
    const EventHeap::Entry fired = heap.top();
    heap.pop();
    ++n_gate_events_;
    t_processed_ = fired.t;
    Circuit::Gate& gate = circuit_->gates_[gate_index];
    const PendingEvent event{fired.t, fired.value};
    if (gate.sis) {
      gate.sis->on_fire(event);
    } else {
      gate.mis->on_fire(event);
    }
    reschedule(gate_index);
    propagate_net_change(gate.output, fired.t, fired.value);
    // Heap occupancy peaks right after an event's reschedules, before the
    // next pop -- one compare per event keeps the counter always-on cheap.
    if (static_cast<long>(heap.size()) > max_heap_depth_) {
      max_heap_depth_ = static_cast<long>(heap.size());
    }
  }
  obs_span.set_value0(n_stimulus_events_ + n_gate_events_ - events_before);
}

namespace {

void stamp(Circuit::SimResult& result, const RunGuard& guard,
           RunStatus status, long n_events, double t_reached,
           const std::string& error) {
  result.n_events = n_events;
  result.status = status;
  result.diagnostics = guard.finish(status, n_events, t_reached);
  result.diagnostics.error = error;
}

}  // namespace

const Circuit::SimResult& SimSession::result() {
  Circuit::SimResult& result = arena_.result;
  stamp(result, guard_, status_, n_stimulus_events_ + n_gate_events_,
        status_ == RunStatus::kOk ? horizon_ : t_processed_, error_);
  result.max_heap_depth = max_heap_depth_;
  return result;
}

Circuit::SimResult SimSession::take_result() {
  result();
  return std::move(arena_.result);
}

RunArena SimSession::take_arena() {
  result();
  return std::move(arena_);
}

}  // namespace charlie::sim
