// Channel interfaces for digital timing simulation.
//
// Following the Involution Delay Model (IDM) architecture, circuits are
// zero-time boolean gates connected through delay channels. A channel
// receives input transitions and produces delayed output transitions, with
// single-history cancellation semantics: a pending output event can be
// withdrawn by a later input transition (glitch annihilation).
//
// Contract: at any moment a channel has at most ONE pending future output
// event, exposed through pending(). The simulator delivers input
// transitions via on_input and, once simulated time passes the pending
// event, fires it via on_fire -- after which pending() may expose a
// follow-up event (channels whose internal waveform crosses the threshold
// more than once per mode need this).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace charlie::sim {

struct PendingEvent {
  double t = 0.0;
  bool value = false;
};

/// FIFO of decided output events, shared by the channels that queue them
/// (committed crossings, pure-delay transitions). A vector plus a head
/// index: unlike std::deque it allocates nothing while empty, and once
/// drained it reuses its buffer, so a netlist's worth of idle channels
/// holds no heap memory. The consumed prefix is dropped whenever it
/// outgrows the live tail, so a queue that never drains stays bounded.
class PendingFifo {
 public:
  bool empty() const { return head_ == events_.size(); }
  const PendingEvent& front() const { return events_[head_]; }

  void push_back(PendingEvent event) {
    if (head_ > 0 && 2 * head_ >= events_.size()) {
      events_.erase(events_.begin(),
                    events_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    events_.push_back(event);
  }

  void pop_front() {
    if (++head_ == events_.size()) clear();
  }

  void clear() {
    events_.clear();
    head_ = 0;
  }

 private:
  std::vector<PendingEvent> events_;
  std::size_t head_ = 0;
};

/// Single-input channel processing an alternating boolean signal.
class SisChannel {
 public:
  virtual ~SisChannel() = default;

  /// Reset to a steady state consistent with input `value` at time t0.
  virtual void initialize(double t0, bool value) = 0;

  /// Input changed to `value` at time `t`. May create, move, or cancel the
  /// pending event.
  virtual void on_input(double t, bool value) = 0;

  /// The pending event fired (simulated time reached it).
  virtual void on_fire(const PendingEvent& fired) = 0;

  /// The channel's next output event, if any.
  virtual std::optional<PendingEvent> pending() const = 0;

  /// Output value in the initialized steady state.
  virtual bool initial_output() const = 0;
};

/// Multi-input gate channel (e.g. the MIS-aware hybrid NOR channel).
class GateChannel {
 public:
  virtual ~GateChannel() = default;
  virtual int n_inputs() const = 0;

  /// Reset to a steady state for the given input values at t0.
  virtual void initialize(double t0, const std::vector<bool>& values) = 0;

  virtual void on_input(double t, int port, bool value) = 0;
  virtual void on_fire(const PendingEvent& fired) = 0;
  virtual std::optional<PendingEvent> pending() const = 0;
  virtual bool initial_output() const = 0;
};

}  // namespace charlie::sim
