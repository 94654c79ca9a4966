// One large circuit partitioned across workers.
//
// ShardedCircuit goes past the embarrassingly-parallel Monte-Carlo batch:
// it simulates a SINGLE netlist on several cores by partitioning the gates
// into K shards along the topological order (CircuitBuilder::build_sharded
// places the cuts where the fewest nets are live -- a balanced min-cut
// along the topo order), so every cross-shard net flows from a lower shard
// to a higher one and the shard graph is acyclic.
//
// Synchronization is conservative windowed execution on the engine's own
// (t_begin, t_end] window convention: simulated time is cut into window
// quanta, and shard k may advance through window w as soon as (a) it has
// finished window w-1 and (b) every shard feeding it has finished window w
// -- at which point all boundary transitions with t <= the window end are
// known and injected as stimuli. Steps of this wavefront run on the worker
// pool: within one step, the runnable (shard, window) pairs are mutually
// independent, so K shards and W windows expose min(K, W) - 1 steps of
// pipeline parallelism with no speculation and no rollback.
//
// Determinism: every (shard, window) task consumes exactly the boundary
// transitions the monolithic engine would have produced (exchange buckets
// are indexed by window and drained in a fixed edge order), and each
// shard's SimSession replays them with the engine's stimulus-before-gate
// ordering. The result is bit-identical to single-threaded
// Circuit::simulate for any shard count, thread count, and window size --
// regression-locked by tests/sim/test_sharded_circuit.cpp -- with one
// caveat shared by all conservative orderings: two *distinct* events on a
// dependency path whose timestamps collide to the exact same double could
// tie-break differently than the monolithic seq order. Crossing times come
// from continuous solves, so exact collisions do not occur in practice
// (docs/performance.md has the argument).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/circuit.hpp"
#include "util/name_index.hpp"
#include "util/thread_pool.hpp"
#include "waveform/digital_trace.hpp"

namespace charlie::sim {

struct ShardedSimConfig {
  /// Synchronization quantum [s]; 0 picks (t_end - t_begin) / (8 *
  /// n_shards). Smaller windows expose more pipeline overlap at more
  /// barrier cost; the result is bit-identical either way.
  double window = 0.0;
  /// Worker threads; 0 = min(n_shards, hardware concurrency).
  std::size_t n_threads = 0;
  /// Execution budget for the whole sharded run. The event ceiling is
  /// enforced on the coordinating thread at wavefront-step granularity
  /// (deterministic for a fixed shard/window config); deadlines and
  /// cancellation are additionally polled inside each shard task.
  RunBudget budget;
};

class ShardedCircuit {
 public:
  /// One shard as assembled by CircuitBuilder::build_sharded.
  struct Shard {
    std::unique_ptr<Circuit> circuit;
    /// For each of circuit's primary inputs: the global stimulus index it
    /// mirrors, or -1 for a boundary net fed by an upstream shard.
    std::vector<int> input_binding;
  };

  /// One cross-shard net: producer-local output net -> consumer-local
  /// primary input. A net consumed by several shards has one edge per
  /// consumer.
  struct BoundaryEdge {
    std::size_t from_shard = 0;
    Circuit::NetId from_net = -1;
    std::size_t to_shard = 0;
    std::size_t to_input = 0;  // consumer-local primary-input index
  };

  /// Where an element output lives: its producing shard and that shard's
  /// local NetId.
  struct NetHome {
    std::size_t shard = 0;
    Circuit::NetId net = -1;
  };

  /// Wires pre-built shards together. `net_ids` maps every net name to its
  /// global net id (sim::NetlistTopology numbering: the netlist's n_inputs
  /// primary inputs are ids 0..n_inputs-1 in stimulus order, element
  /// outputs follow); `home[id]` locates every non-input net.
  ShardedCircuit(std::vector<Shard> shards, std::vector<BoundaryEdge> edges,
                 std::size_t n_inputs,
                 util::NameIndex net_ids,
                 std::vector<NetHome> home);

  std::size_t n_shards() const { return shards_.size(); }
  std::size_t n_gates() const;
  std::size_t n_inputs() const { return n_inputs_; }
  std::size_t n_boundary_edges() const { return edges_.size(); }
  /// Shard s's circuit (its inputs are the shard's external nets).
  const Circuit& shard(std::size_t s) const { return *shards_[s].circuit; }

  /// Simulation result addressed by net name (shards renumber nets, so
  /// global ids would be meaningless). Traces of primary inputs are the
  /// windowed stimuli; every other net's trace comes from the shard that
  /// produced it. Keeps pointers into this ShardedCircuit -- the circuit
  /// must outlive the result.
  struct Result {
    long n_events = 0;       // matches Circuit::simulate's count
    std::size_t n_windows = 0;
    /// kOk unless the run terminated early: budget/deadline/cancellation
    /// trip, or a failure captured out of a shard task (the wavefront
    /// stops at the end of the step that tripped; traces are best-effort
    /// up to diagnostics.t_horizon, the lowest horizon any shard fully
    /// reached). The pool stays usable either way.
    RunStatus status = RunStatus::kOk;
    RunDiagnostics diagnostics;

    bool ok() const { return status == RunStatus::kOk; }
    const waveform::DigitalTrace& trace(const std::string& net) const;

    /// Events processed by each (shard, window) task: shard_window_events
    /// [shard][window]. Always recorded (a subtraction per task, no tracing
    /// required) -- this is the data that shows whether the topo-order
    /// partition actually balances and where the wavefront's long pole is.
    std::vector<std::vector<long>> shard_window_events;

    /// Load imbalance of the shard partition: the busiest shard's total
    /// event count over the per-shard mean (1.0 = perfectly balanced, K =
    /// one shard did everything). 0 when no events were processed.
    double load_imbalance() const;

    /// Observability aggregate for this run: shard.* counters and
    /// histograms (per-task window events, per-shard totals, exchange
    /// bucket occupancy), filled in deterministic shard/edge order.
    /// docs/observability.md lists the names.
    obs::MetricsRegistry metrics;

    // Storage (public for the assembler; address traces via trace()).
    std::vector<Circuit::SimResult> shard_results;   // by shard
    std::vector<waveform::DigitalTrace> input_traces;  // by global input
    const ShardedCircuit* owner = nullptr;
  };

  /// Simulate (t_begin, t_end] with `stimuli[i]` driving the i-th global
  /// primary input. Bit-identical to the equivalent monolithic
  /// Circuit::simulate for any config.
  Result simulate(const std::vector<waveform::DigitalTrace>& stimuli,
                  double t_begin, double t_end,
                  const ShardedSimConfig& config = {});

 private:
  std::vector<Shard> shards_;
  std::vector<BoundaryEdge> edges_;
  std::size_t n_inputs_ = 0;
  util::NameIndex net_ids_;     // net name <-> global net id
  std::vector<NetHome> home_;   // by global net id
  // Edge indices grouped by producer / consumer shard, in deterministic
  // construction order (consumer drain order must not depend on timing).
  std::vector<std::vector<std::size_t>> out_edges_;  // by from_shard
  std::vector<std::vector<std::size_t>> in_edges_;   // by to_shard
  std::unique_ptr<util::ThreadPool> pool_;  // lazily (re)built in simulate
};

}  // namespace charlie::sim
