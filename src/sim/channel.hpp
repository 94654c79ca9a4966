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

#include "util/error.hpp"

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

/// Output events of a channel that are threshold crossings of an analog
/// waveform (hybrid gate, RC wire, Exp, SumExp). Crossings before the
/// effective time of the latest input are decided and wait in the
/// committed FIFO; the live crossing of the current segment can still be
/// withdrawn. pending() exposes the committed front first.
class CrossingQueue {
 public:
  /// Nothing pending, output at `output` (a channel's initialize()).
  void reset(bool output) {
    committed_.clear();
    has_live_ = false;
    output_ = output;
  }

  /// Output level after the last fired event.
  bool output() const { return output_; }

  std::optional<PendingEvent> pending() const {
    if (!committed_.empty()) return committed_.front();
    if (has_live_) return live_;
    return std::nullopt;
  }

  void set_live(const std::optional<PendingEvent>& crossing) {
    has_live_ = crossing.has_value();
    if (has_live_) live_ = *crossing;
  }

  /// An input takes effect at `te`: a live crossing at or before te has
  /// physically happened and is committed, a later one is withdrawn.
  /// Returns the time of the committed crossing, if any.
  std::optional<double> commit_live(double te) {
    if (!has_live_) return std::nullopt;
    has_live_ = false;
    if (live_.t > te) return std::nullopt;
    committed_.push_back(live_);
    return live_.t;
  }

  /// Queue a further decided crossing behind the committed ones.
  void commit(const PendingEvent& crossing) { committed_.push_back(crossing); }

  /// The engine fired pending(). A desync between the engine's queue and
  /// the channel's would silently corrupt output traces, so `fired` must be
  /// exactly that event. Returns true when the live crossing fired: the
  /// caller then looks for the segment's next one.
  bool fire(const PendingEvent& fired) {
    output_ = fired.value;
    if (!committed_.empty()) {
      const PendingEvent& front = committed_.front();
      CHARLIE_ASSERT_MSG(front.t == fired.t && front.value == fired.value,
                         "crossing channel: fired event does not match the "
                         "committed front");
      committed_.pop_front();
      return false;
    }
    CHARLIE_ASSERT(has_live_);
    CHARLIE_ASSERT_MSG(live_.t == fired.t && live_.value == fired.value,
                       "crossing channel: fired event does not match the "
                       "live crossing");
    has_live_ = false;
    return true;
  }

 private:
  PendingFifo committed_;
  // A plain event plus an engaged flag instead of std::optional: the flag
  // and the output level then share one word, where the optional's own
  // flag would take a word of its own.
  PendingEvent live_;
  bool has_live_ = false;
  bool output_ = false;
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
