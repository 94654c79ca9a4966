// Resumable event-driven simulation session over a Circuit.
//
// SimSession is the engine behind Circuit::simulate, exposed separately so
// simulated time can be advanced in windows: the sharded circuit runner
// (sim/sharded_circuit.hpp) advances each shard one conservative window
// quantum at a time, injecting the boundary transitions produced by
// upstream shards between advances. A session borrows the circuit's
// channel state, so at most one session may be active per Circuit at a
// time.
//
// Window convention (same as Circuit::simulate): construction settles the
// circuit at t_begin from stimuli[i].value_at(t_begin); each advance(t)
// call then processes every event in (previous horizon, t]. Events whose
// (channel-delayed) time lands beyond the current horizon stay pending
// inside their channel and fire in a later window -- the deferred-gate
// bookkeeping re-arms them, preserving the original schedule order for
// equal-time events. A single advance(t_end) therefore reproduces
// Circuit::simulate bit-for-bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/circuit.hpp"
#include "sim/event_heap.hpp"
#include "waveform/digital_trace.hpp"

namespace charlie::sim {

/// One primary-input transition of a merged stimulus stream.
struct StimulusEvent {
  double t = 0.0;
  std::uint32_t input = 0;  // declared primary-input index
  bool value = false;       // input level after the transition
};

/// Merge per-input traces into one stream ordered by (time, input index):
/// exactly the order a std::stable_sort by time of the input-major
/// concatenation gives, since one input's times strictly increase. A
/// counting sort into n time buckets (`buckets` is its reused scratch)
/// leaves only the few events that share a bucket to sort, so spread-out
/// stimuli merge in O(n).
void merge_stimuli(const std::vector<waveform::DigitalTrace>& stimuli,
                   std::vector<StimulusEvent>& stream,
                   std::vector<std::uint32_t>& buckets);

/// All storage of one simulation run, owned by a worker and reused across
/// runs: after the first run of a given shape, a run allocates nothing.
/// A session takes the arena over for its lifetime and hands it back.
struct RunArena {
  /// One trace per primary input (declaration order); the caller fills it.
  std::vector<waveform::DigitalTrace> stimuli;
  /// The session's merged stimulus stream (merge_stimuli order), including
  /// transitions at or before t_begin, which settle the circuit instead of
  /// becoming events, and any inject()ed transitions.
  std::vector<StimulusEvent> stream;
  Circuit::SimResult result;
  // Session scratch; contents carry no meaning between runs.
  std::vector<std::uint8_t> net_value;  // byte per net, no vector<bool>
                                        // bit gymnastics on the hot path
  std::vector<bool> mis_values;         // GateChannel::initialize argument
  std::vector<std::uint32_t> buckets;   // merge_stimuli counting sort
  std::vector<StimulusEvent> injected;  // pending inject()s
  EventHeap heap;
  // Gates whose channel holds a pending event beyond the current horizon;
  // re-armed (in insertion order, preserving schedule order) on the next
  // advance. `rearm` is the list being re-armed while `deferred` refills.
  std::vector<std::size_t> deferred;
  std::vector<std::size_t> rearm;
  std::vector<std::uint8_t> is_deferred;
};

class SimSession {
 public:
  /// Settle `circuit` at t_begin and queue the stimulus transitions. Traces
  /// with no transitions are valid stimuli (e.g. shard boundary inputs that
  /// receive their transitions later through inject()).
  SimSession(Circuit& circuit,
             const std::vector<waveform::DigitalTrace>& stimuli,
             double t_begin);

  /// Budgeted variant: advance() polls `budget` and terminates the session
  /// early with the corresponding RunStatus instead of running to the
  /// horizon. After a trip the session is finished: further advance()
  /// calls are no-ops and the result carries the partial traces.
  SimSession(Circuit& circuit,
             const std::vector<waveform::DigitalTrace>& stimuli,
             double t_begin, const RunBudget& budget);

  /// Run-arena variant: the stimuli are arena.stimuli, and every buffer the
  /// session needs -- result traces, stimulus stream, net values, event
  /// heap, deferred lists -- is the arena's, reused in place.
  /// take_arena() hands it all back.
  SimSession(Circuit& circuit, RunArena&& arena, double t_begin,
             const RunBudget& budget);

  SimSession(const SimSession&) = delete;
  SimSession& operator=(const SimSession&) = delete;

  /// Current horizon: all events with t <= t_horizon() are processed.
  double t_horizon() const { return horizon_; }

  /// Current value of a net (settled value right after construction).
  bool value(Circuit::NetId net) const {
    return arena_.net_value[static_cast<std::size_t>(net)] != 0;
  }

  /// Queue an externally produced transition on the `input_index`-th
  /// declared primary input (shard boundary exchange). Must satisfy
  /// t > t_horizon(); takes effect on the next advance().
  void inject(std::size_t input_index, double t, bool input_value);

  /// Process every event with t <= t_horizon (stimuli, injected boundary
  /// transitions, and gate firings). Horizons must not decrease.
  void advance(double t_horizon);

  long n_stimulus_events() const { return n_stimulus_events_; }
  long n_gate_events() const { return n_gate_events_; }

  /// Peak event-heap occupancy so far (see Circuit::SimResult).
  long max_heap_depth() const { return max_heap_depth_; }

  /// kOk while the session may still advance; any other value is sticky.
  RunStatus status() const { return status_; }

  /// Record a failure captured outside the event loop (the budgeted
  /// Circuit::simulate catches and forwards exception text). Sticky like a
  /// budget trip; only the first terminal status wins.
  void mark_failed(const std::string& what);

  /// Trace of `net` appended so far; unlike result() it stamps nothing.
  const waveform::DigitalTrace& trace(Circuit::NetId net) const {
    return arena_.result.trace(net);
  }

  /// Traces appended so far (up to the current horizon); n_events is the
  /// processed stimulus + gate event count.
  const Circuit::SimResult& result();

  /// Move the result out; the session must not be advanced afterwards.
  Circuit::SimResult take_result();

  /// Move the whole arena out (result stamped as by result()); the session
  /// must not be advanced afterwards.
  RunArena take_arena();

 private:
  void initialize(const std::vector<waveform::DigitalTrace>& stimuli);
  void reschedule(std::size_t gate_index);
  void propagate_net_change(Circuit::NetId net, double t, bool value);

  Circuit* circuit_;
  double t_begin_ = 0.0;
  double horizon_ = 0.0;
  RunGuard guard_;
  bool guard_active_ = false;     // false: the loop skips every poll
  RunStatus status_ = RunStatus::kOk;
  std::string error_;             // captured failure text (kFailed)
  double t_processed_ = 0.0;      // time of the last processed event
  RunArena arena_;
  std::size_t stim_index_ = 0;    // next unprocessed arena_.stream event
  long seq_ = 0;
  long n_stimulus_events_ = 0;
  long n_gate_events_ = 0;
  long max_heap_depth_ = 0;
};

}  // namespace charlie::sim
