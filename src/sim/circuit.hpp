// Event-driven digital timing simulation of gate-level circuits.
//
// Architecture per the Involution Tool: zero-time boolean gates whose
// outputs drive delay channels. Any SisChannel can decorate any gate; NOR and
// NAND gates can alternatively carry a native multi-input MIS-aware channel
// (HybridGateChannel), which is the paper's extension.
//
// The circuit must be combinational (acyclic); stimuli are digital traces
// on the primary inputs.
//
// add_input/add_gate/add_mis_gate are the low-level construction API:
// callers wire channels by hand and must add gates after their input nets.
// Most circuits should instead come from a structural netlist through
// sim::CircuitBuilder + cell::CellLibrary (sim/circuit_builder.hpp), which
// validates the topology and instantiates characterized cells.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/channel.hpp"
#include "sim/run_guard.hpp"
#include "util/error.hpp"
#include "util/name_index.hpp"
#include "waveform/digital_trace.hpp"

namespace charlie::sim {

struct RunArena;  // sim/sim_session.hpp

enum class GateKind : std::uint8_t {
  kBuf,
  kInv,
  kAnd2,
  kOr2,
  kNand2,
  kNor2,
  kXor2,
  kNor3,
  kNand3,
};

/// Maximum gate arity the engine's fixed-size input arrays support.
inline constexpr std::size_t kMaxGateArity = 3;

/// Number of inputs of a gate kind.
inline constexpr std::size_t gate_arity(GateKind kind) {
  if (kind == GateKind::kBuf || kind == GateKind::kInv) return 1;
  if (kind == GateKind::kNor3 || kind == GateKind::kNand3) return 3;
  return 2;
}

/// Zero-time boolean function of a gate, fixed three-value form (`b`/`c`
/// are ignored for lower-arity kinds). This is the event-loop hot path: a
/// plain switch over the kind, no span/vector<bool> indirection.
inline bool eval_gate(GateKind kind, bool a, bool b, bool c = false) {
  switch (kind) {
    case GateKind::kBuf:
      return a;
    case GateKind::kInv:
      return !a;
    case GateKind::kAnd2:
      return a && b;
    case GateKind::kOr2:
      return a || b;
    case GateKind::kNand2:
      return !(a && b);
    case GateKind::kNor2:
      return !(a || b);
    case GateKind::kXor2:
      return a != b;
    case GateKind::kNor3:
      return !(a || b || c);
    case GateKind::kNand3:
      return !(a && b && c);
  }
  CHARLIE_ASSERT_MSG(false, "invalid gate kind");
  return false;
}

/// Zero-time boolean function of a gate (checked, span-based convenience).
bool eval_gate(GateKind kind, std::span<const bool> inputs);

class Circuit {
 public:
  using NetId = int;

  /// Declare a primary input net.
  NetId add_input(const std::string& name);

  /// Add a gate: zero-time boolean `kind` + SIS delay channel at the
  /// output. Returns the output net.
  NetId add_gate(GateKind kind, const std::string& output_name,
                 std::span<const NetId> inputs,
                 std::unique_ptr<SisChannel> channel);
  NetId add_gate(GateKind kind, const std::string& output_name,
                 std::initializer_list<NetId> inputs,
                 std::unique_ptr<SisChannel> channel) {
    return add_gate(kind, output_name,
                    std::span<const NetId>(inputs.begin(), inputs.size()),
                    std::move(channel));
  }

  /// Add a gate carrying a native multi-input channel (MIS-aware); the
  /// channel arity must match the gate kind (e.g. a 3-input
  /// HybridGateChannel on kNor3/kNand3).
  NetId add_mis_gate(GateKind kind, const std::string& output_name,
                     std::span<const NetId> inputs,
                     std::unique_ptr<GateChannel> channel);
  NetId add_mis_gate(GateKind kind, const std::string& output_name,
                     std::initializer_list<NetId> inputs,
                     std::unique_ptr<GateChannel> channel) {
    return add_mis_gate(kind, output_name,
                        std::span<const NetId>(inputs.begin(), inputs.size()),
                        std::move(channel));
  }

  /// Size the net and gate tables up front (a builder that knows the final
  /// counts avoids regrowing the name index and gate arrays while it
  /// appends).
  void reserve(std::size_t n_nets, std::size_t n_gates);

  NetId find_net(const std::string& name) const;
  const std::string& net_name(NetId id) const;
  std::size_t n_nets() const { return nets_.size(); }
  std::size_t n_gates() const { return gates_.size(); }
  std::size_t n_inputs() const { return primary_inputs_.size(); }

  struct SimResult {
    std::vector<waveform::DigitalTrace> traces;  // indexed by NetId
    long n_events = 0;
    /// Peak event-heap occupancy over the run: how many gate firings were
    /// simultaneously scheduled. A cheap always-on observability counter
    /// (obs::MetricsRegistry aggregates it across batch runs); lives here
    /// rather than in RunDiagnostics, whose layout is frozen.
    long max_heap_depth = 0;
    /// kOk unless the run was terminated early (budget, deadline,
    /// cancellation, captured failure). A non-kOk result's traces are a
    /// valid prefix of the full run up to diagnostics.t_horizon.
    RunStatus status = RunStatus::kOk;
    RunDiagnostics diagnostics;

    bool ok() const { return status == RunStatus::kOk; }
    const waveform::DigitalTrace& trace(NetId id) const;
  };

  /// Simulate with `stimuli[i]` driving the i-th declared input (order of
  /// add_input calls).
  ///
  /// Window convention: the simulated event window is (t_begin, t_end].
  /// The initial net values are the stimuli evaluated *at* t_begin
  /// (DigitalTrace transitions take effect at exactly their timestamp), so
  /// a stimulus transition at exactly t_begin is part of the steady-state
  /// initialization, not an event -- it appears in no trace and triggers no
  /// gate activity. Transitions after t_end are ignored; gate output events
  /// land in the result only if their (channel-delayed) time is <= t_end.
  SimResult simulate(const std::vector<waveform::DigitalTrace>& stimuli,
                     double t_begin, double t_end);

  /// Budgeted variant: the run is supervised by `budget` and NEVER throws
  /// through the engine -- a tripped budget/deadline/cancellation or a
  /// captured exception (ConvergenceError, AssertionError, injected fault)
  /// terminates the run with a structured partial result whose status and
  /// diagnostics say what happened. Event-count termination is
  /// deterministic: the run stops after exactly budget.max_events processed
  /// events, so the partial traces are bit-identical on every host.
  SimResult simulate(const std::vector<waveform::DigitalTrace>& stimuli,
                     double t_begin, double t_end, const RunBudget& budget);

  /// Budgeted run over a worker-owned RunArena (the batch runner keeps one
  /// per worker): the stimuli are arena.stimuli, the result lands in
  /// arena.result, and arena.stream holds the merged stimulus stream
  /// afterwards. Every buffer of the run is the arena's, so a repeated run
  /// of the same shape allocates nothing. Same no-throw contract as the
  /// budgeted simulate().
  void simulate_into(RunArena& arena, double t_begin, double t_end,
                     const RunBudget& budget);

  /// Number of declared primary inputs; input_net(i) is the NetId of the
  /// i-th declared input (stimulus order).
  NetId input_net(std::size_t i) const { return primary_inputs_[i]; }

  /// Visit every native multi-input (MIS) channel, in gate construction
  /// order. Process-variation binding walks these to retarget channels
  /// between runs; mutating a channel mid-simulation is undefined.
  template <typename Fn>
  void for_each_mis_channel(Fn&& fn) {
    for (auto& gate : gates_) {
      if (gate.is_mis) fn(*gate.mis);
    }
  }

  /// Visit every SIS delay channel, in gate construction order.
  template <typename Fn>
  void for_each_sis_channel(Fn&& fn) {
    for (auto& gate : gates_) {
      if (!gate.is_mis) fn(*gate.sis);
    }
  }

 private:
  friend class SimSession;
  // Compiled layout: the event loop's per-gate record is 24 bytes -- the
  // channel it drives, its output net, kind, arity, input levels and
  // zero-time value -- so a fan-out walk touches one dense array. What the
  // loop never reads sits in cold arrays by gate index: the offset of the
  // gate's input nets in fanin_ and the channel ownership.
  struct Gate {
    union {
      SisChannel* sis = nullptr;  // !is_mis
      GateChannel* mis;           // is_mis
    };
    NetId output = -1;
    GateKind kind = GateKind::kBuf;
    std::uint8_t arity = 0;
    bool is_mis = false;
    // Simulation state (fixed arity <= kMaxGateArity):
    std::array<bool, kMaxGateArity> in_values{};
    bool zero_time_value = false;  // boolean gate output (pre-channel)
  };
  static_assert(sizeof(Gate) <= 24, "the hot gate record must stay compact");
  // One fan-out edge: input `port` of gate `gate` reads the net.
  struct FanoutEdge {
    std::uint32_t gate = 0;
    std::uint32_t port = 0;
  };

  NetId new_net(const std::string& name);
  NetId append_gate(GateKind kind, const std::string& output_name,
                    std::span<const NetId> inputs, Gate gate);
  /// Build the fan-out CSR if the structure changed since the last build.
  /// Sessions call this at construction, so a gate added after a
  /// simulation is live in the next one.
  void compile_fanout();
  std::span<const NetId> fanin(std::size_t g) const {
    return {fanin_.data() + fanin_begin_[g], gates_[g].arity};
  }
  std::span<const FanoutEdge> fanout(std::size_t net) const {
    return {fanout_.data() + fanout_begin_[net],
            fanout_.data() + fanout_begin_[net + 1]};
  }

  util::NameIndex nets_;  // net name <-> NetId
  std::vector<NetId> primary_inputs_;
  std::vector<Gate> gates_;
  std::vector<NetId> fanin_;  // every gate's input nets, gate order
  std::vector<std::uint32_t> fanin_begin_;  // by gate: offset into fanin_
  // Channel ownership, in gate order per channel type (cold: the event
  // loop reaches channels through Gate's pointer).
  std::vector<std::unique_ptr<SisChannel>> sis_channels_;
  std::vector<std::unique_ptr<GateChannel>> mis_channels_;
  // Fan-out CSR: net n's readers are fanout_[fanout_begin_[n],
  // fanout_begin_[n + 1]), in gate order then port order -- the order the
  // gates were added in, which fixes reschedule order within an event.
  std::vector<std::uint32_t> fanout_begin_;
  std::vector<FanoutEdge> fanout_;
  bool fanout_stale_ = true;
};

}  // namespace charlie::sim
