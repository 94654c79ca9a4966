// ShardedCircuit regression lock: partitioning a real netlist across
// shards and simulating with the conservative windowed wavefront must be
// bit-identical to the monolithic single-threaded engine -- for every
// shard count, thread count, and window quantum. Runs on the repo's
// c432-class netlist (examples/netlists/c432.net, ~150 gates, all nine
// cells) so the lock covers SIS, hybrid MIS, and mixed fanout structure.
// A ~5k-element generated netlist pins the partition itself: per-shard
// gate and input counts, boundary edges, and the shard.* telemetry.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cell/cell_library.hpp"
#include "cell/netlist.hpp"
#include "cell/netlist_gen.hpp"
#include "sim/circuit_builder.hpp"
#include "sim/sharded_circuit.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"
#include "waveform/generator.hpp"

namespace charlie {
namespace {

const cell::NetlistDesc& c432() {
  static const cell::NetlistDesc desc = cell::read_netlist_file(
      CHARLIE_SOURCE_DIR "/examples/netlists/c432.net");
  return desc;
}

sim::CircuitBuilder builder() {
  static const auto library =
      std::make_shared<const cell::CellLibrary>(cell::CellLibrary::reference());
  return sim::CircuitBuilder(library);
}

std::vector<waveform::DigitalTrace> stimuli_for(
    std::size_t n_inputs, std::uint64_t seed,
    std::size_t n_transitions = 40) {
  waveform::TraceConfig config;
  config.mu = 150e-12;
  config.sigma = 60e-12;
  config.n_transitions = n_transitions;
  util::Rng rng(seed);
  return waveform::generate_traces(config, n_inputs, rng);
}

double t_end_for(const std::vector<waveform::DigitalTrace>& stimuli) {
  double t_last = 0.0;
  for (const auto& trace : stimuli) {
    if (!trace.empty()) t_last = std::max(t_last, trace.transitions().back());
  }
  return t_last + 2e-9;  // settle tail
}

// Every net the monolithic circuit knows, by name (inputs included).
std::vector<std::string> all_nets(const cell::NetlistDesc& desc) {
  std::vector<std::string> nets(desc.inputs.begin(), desc.inputs.end());
  for (const auto& inst : desc.instances) nets.push_back(inst.output);
  for (const auto& wire : desc.wires) nets.push_back(wire.output);
  return nets;
}

void expect_bit_identical(const sim::Circuit::SimResult& mono,
                          sim::Circuit& mono_circuit,
                          const sim::ShardedCircuit::Result& sharded,
                          const cell::NetlistDesc& desc,
                          const std::string& label) {
  EXPECT_EQ(mono.n_events, sharded.n_events) << label;
  for (const std::string& net : all_nets(desc)) {
    const auto& expected = mono.trace(mono_circuit.find_net(net));
    const auto& actual = sharded.trace(net);
    ASSERT_EQ(expected.initial_value(), actual.initial_value())
        << label << " net " << net;
    ASSERT_EQ(expected.transitions(), actual.transitions())
        << label << " net " << net;
  }
}

TEST(ShardedCircuit, PartitionCoversEveryGateAcyclically) {
  const auto b = builder();
  const auto mono = b.build(c432());
  for (const std::size_t n_shards : {1u, 2u, 4u, 7u}) {
    const auto sharded = b.build_sharded(c432(), n_shards);
    EXPECT_EQ(sharded->n_shards(), n_shards);
    EXPECT_EQ(sharded->n_gates(), mono->n_gates());
    EXPECT_EQ(sharded->n_inputs(), c432().inputs.size());
    if (n_shards > 1) {
      EXPECT_GT(sharded->n_boundary_edges(), 0u);
    }
  }
}

// A generated netlist with RC wires, ~5k elements: large enough that the
// min-cut search has real choices at every cut.
const cell::NetlistDesc& generated() {
  static const cell::NetlistDesc desc = [] {
    cell::NetlistGenConfig config;
    config.n_gates = 5000;
    config.n_inputs = 32;
    config.n_outputs = 16;
    config.wire_fraction = 0.05;
    config.seed = 5;
    return cell::generate_netlist(config);
  }();
  return desc;
}

// The shard.* lines of a metrics JSON export (one counter or histogram per
// line), reduced to a 64-bit FNV-1a digest.
std::uint64_t shard_metrics_digest(const std::string& json) {
  std::istringstream in(json);
  std::uint64_t h = 1469598103934665603ULL;
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"shard.") == std::string::npos) continue;
    for (const char c : line + "\n") {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
  }
  return h;
}

TEST(ShardedCircuit, PartitionIsPinned) {
  // Pinned values: the cut positions, each shard's external inputs, the
  // boundary edges and the per-run shard.* telemetry are part of the
  // builder's output and must not move when elaboration is reworked.
  struct Expected {
    std::size_t n_shards;
    std::vector<std::size_t> gates;
    std::vector<std::size_t> inputs;
    std::size_t boundary_edges;
    std::uint64_t shard_metrics;
  };
  const std::vector<Expected> pins = {
      {2, {2872, 2407}, {32, 746}, 746, 0x3461d771d3ef7d39ULL},
      {3, {1321, 2589, 1369}, {32, 703, 738}, 1440, 0xb1875407e5d7a8d9ULL},
      {4,
       {993, 1879, 1415, 992},
       {32, 673, 732, 698},
       2093,
       0xa04c38e687e0d750ULL},
  };
  const auto b = builder();
  const auto stimuli = stimuli_for(generated().inputs.size(), 11, 20);
  const double t_end = t_end_for(stimuli);
  for (const Expected& pin : pins) {
    const auto sharded = b.build_sharded(generated(), pin.n_shards);
    ASSERT_EQ(sharded->n_shards(), pin.n_shards);
    for (std::size_t s = 0; s < pin.n_shards; ++s) {
      EXPECT_EQ(sharded->shard(s).n_gates(), pin.gates[s])
          << "K=" << pin.n_shards << " shard " << s;
      EXPECT_EQ(sharded->shard(s).n_inputs(), pin.inputs[s])
          << "K=" << pin.n_shards << " shard " << s;
    }
    EXPECT_EQ(sharded->n_boundary_edges(), pin.boundary_edges)
        << "K=" << pin.n_shards;
    sim::ShardedSimConfig config;
    config.n_threads = 2;
    const auto result = sharded->simulate(stimuli, 0.0, t_end, config);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.n_events, 19536) << "K=" << pin.n_shards;
    EXPECT_EQ(shard_metrics_digest(result.metrics.to_json()),
              pin.shard_metrics)
        << "K=" << pin.n_shards;
  }
}

TEST(NetlistTopology, NetIdsAreInputsThenElementsWithResolvedFanin) {
  const cell::NetlistDesc& desc = generated();
  const sim::NetlistTopology topo = builder().analyze_topology(desc);
  const std::size_t n_inputs = desc.inputs.size();
  const std::size_t n_elems = desc.instances.size() + desc.wires.size();
  ASSERT_EQ(topo.n_inputs, n_inputs);
  ASSERT_EQ(topo.n_elements(), n_elems);
  ASSERT_EQ(topo.n_nets(), n_inputs + n_elems);
  ASSERT_EQ(topo.net_ids.size(), topo.n_nets());
  std::vector<std::string> names(topo.n_nets());
  for (std::size_t i = 0; i < n_inputs; ++i) {
    EXPECT_EQ(topo.net_ids.find(desc.inputs[i]), static_cast<int>(i));
    EXPECT_EQ(topo.driver(static_cast<int>(i)), -1);
    names[i] = desc.inputs[i];
  }
  for (std::size_t e = 0; e < n_elems; ++e) {
    const std::string& out = sim::NetlistTopology::output_of(desc, e);
    EXPECT_EQ(topo.net_ids.find(out), static_cast<int>(n_inputs + e));
    EXPECT_EQ(topo.output_net(e), static_cast<int>(n_inputs + e));
    EXPECT_EQ(topo.driver(topo.output_net(e)), static_cast<int>(e));
    names[n_inputs + e] = out;
  }
  // Fan-in resolves back to the desc's input names, pin by pin.
  for (std::size_t e = 0; e < n_elems; ++e) {
    std::vector<std::string> expected;
    if (sim::NetlistTopology::is_wire(desc, e)) {
      expected.push_back(sim::NetlistTopology::wire_of(desc, e).input);
    } else {
      expected = desc.instances[e].inputs;
    }
    std::vector<std::string> actual;
    for (const int net : topo.inputs_of(e)) {
      actual.push_back(names[static_cast<std::size_t>(net)]);
    }
    EXPECT_EQ(actual, expected) << "element " << e;
  }
  // The order is a topological order of the fan-in graph.
  std::vector<int> pos(n_elems, -1);
  for (std::size_t p = 0; p < topo.order.size(); ++p) {
    pos[static_cast<std::size_t>(topo.order[p])] = static_cast<int>(p);
  }
  for (std::size_t e = 0; e < n_elems; ++e) {
    ASSERT_GE(pos[e], 0);
    for (const int net : topo.inputs_of(e)) {
      const int d = topo.driver(net);
      if (d >= 0) {
        EXPECT_LT(pos[static_cast<std::size_t>(d)], pos[e]);
      }
    }
  }
}

TEST(ShardedCircuit, ShardCountIsClampedToElementCount) {
  const auto sharded = builder().build_sharded(c432(), 100000);
  EXPECT_LE(sharded->n_shards(),
            c432().instances.size() + c432().wires.size());
  EXPECT_GE(sharded->n_shards(), 2u);
}

TEST(ShardedCircuit, BitIdenticalToMonolithicAcrossShardAndThreadCounts) {
  const auto b = builder();
  const auto mono_circuit = b.build(c432());
  const auto stimuli = stimuli_for(mono_circuit->n_inputs(), 7);
  const double t_end = t_end_for(stimuli);
  const auto mono = mono_circuit->simulate(stimuli, 0.0, t_end);

  for (const std::size_t n_shards : {1u, 2u, 4u}) {
    auto sharded = b.build_sharded(c432(), n_shards);
    for (const std::size_t n_threads : {1u, 2u, 4u}) {
      sim::ShardedSimConfig config;
      config.n_threads = n_threads;
      const auto result = sharded->simulate(stimuli, 0.0, t_end, config);
      expect_bit_identical(mono, *mono_circuit, result, c432(),
                           "shards=" + std::to_string(n_shards) +
                               " threads=" + std::to_string(n_threads));
    }
  }
}

TEST(ShardedCircuit, BitIdenticalForAnyWindowQuantum) {
  const auto b = builder();
  const auto mono_circuit = b.build(c432());
  const auto stimuli = stimuli_for(mono_circuit->n_inputs(), 11);
  const double t_end = t_end_for(stimuli);
  const auto mono = mono_circuit->simulate(stimuli, 0.0, t_end);

  auto sharded = b.build_sharded(c432(), 4);
  // From one giant window (pure sequential shard sweep) down to quanta far
  // below the gate delays (every boundary event crosses windows).
  for (const double window : {t_end * 2.0, t_end / 3.0, 1e-10, 7e-12}) {
    sim::ShardedSimConfig config;
    config.window = window;
    config.n_threads = 2;
    const auto result = sharded->simulate(stimuli, 0.0, t_end, config);
    EXPECT_GE(result.n_windows, 1u);
    expect_bit_identical(mono, *mono_circuit, result, c432(),
                         "window=" + std::to_string(window));
  }
}

TEST(ShardedCircuit, RepeatedSimulationsOnOneInstanceAgree) {
  // The pool and shard circuits persist across simulate() calls; a second
  // call must not see stale channel or exchange state.
  const auto b = builder();
  auto sharded = b.build_sharded(c432(), 3);
  const auto stimuli = stimuli_for(sharded->n_inputs(), 21);
  const double t_end = t_end_for(stimuli);
  const auto first = sharded->simulate(stimuli, 0.0, t_end);
  const auto second = sharded->simulate(stimuli, 0.0, t_end);
  EXPECT_EQ(first.n_events, second.n_events);
  for (const std::string& net : all_nets(c432())) {
    EXPECT_EQ(first.trace(net).transitions(), second.trace(net).transitions())
        << net;
  }
}

TEST(ShardedCircuit, UnknownNetThrows) {
  const auto b = builder();
  auto sharded = b.build_sharded(c432(), 2);
  const auto stimuli = stimuli_for(sharded->n_inputs(), 3);
  const auto result = sharded->simulate(stimuli, 0.0, t_end_for(stimuli));
  EXPECT_THROW(result.trace("no_such_net"), ConfigError);
}

TEST(ShardedCircuit, UnbudgetedRunReportsOkDiagnostics) {
  const auto b = builder();
  auto sharded = b.build_sharded(c432(), 3);
  const auto stimuli = stimuli_for(sharded->n_inputs(), 13);
  const auto result = sharded->simulate(stimuli, 0.0, t_end_for(stimuli));
  EXPECT_EQ(result.status, sim::RunStatus::kOk);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.diagnostics.status, sim::RunStatus::kOk);
  EXPECT_EQ(result.diagnostics.n_events, result.n_events);
  EXPECT_TRUE(result.diagnostics.error.empty());
}

TEST(ShardedCircuit, EventBudgetTripIsThreadCountInvariant) {
  // The event ceiling is enforced on the coordinating thread at wavefront
  // step granularity, so the trip point (and the partial event count) is a
  // function of the shard/window schedule only, never of thread timing.
  const auto b = builder();
  const auto stimuli = stimuli_for(c432().inputs.size(), 7);
  const double t_end = t_end_for(stimuli);
  auto sharded = b.build_sharded(c432(), 4);
  const long full_events =
      sharded->simulate(stimuli, 0.0, t_end).n_events;
  ASSERT_GT(full_events, 100);

  sim::ShardedSimConfig config;
  config.budget.max_events = full_events / 2;
  long first_partial = -1;
  for (const std::size_t n_threads : {1u, 2u, 4u}) {
    config.n_threads = n_threads;
    const auto result = sharded->simulate(stimuli, 0.0, t_end, config);
    EXPECT_EQ(result.status, sim::RunStatus::kBudgetExhausted);
    EXPECT_FALSE(result.ok());
    EXPECT_GT(result.n_events, 0);
    EXPECT_LT(result.n_events, full_events);
    EXPECT_LT(result.diagnostics.t_horizon, t_end);
    if (first_partial < 0) {
      first_partial = result.n_events;
    } else {
      EXPECT_EQ(result.n_events, first_partial) << n_threads << " threads";
    }
  }
}

TEST(ShardedCircuit, PresetCancellationStopsTheWavefront) {
  std::atomic<bool> cancel{true};
  const auto b = builder();
  auto sharded = b.build_sharded(c432(), 3);
  const auto stimuli = stimuli_for(sharded->n_inputs(), 7);
  sim::ShardedSimConfig config;
  config.budget.cancel = &cancel;
  config.budget.check_interval = 1;
  const auto result =
      sharded->simulate(stimuli, 0.0, t_end_for(stimuli), config);
  EXPECT_EQ(result.status, sim::RunStatus::kCancelled);
  EXPECT_FALSE(result.ok());
}

TEST(ShardedCircuit, InjectedShardFaultYieldsStructuredFailure) {
  util::FaultInjector::Scope scope;
  util::FaultInjector::reset_local_hits();

  const auto b = builder();
  const auto mono_circuit = b.build(c432());
  const auto stimuli = stimuli_for(mono_circuit->n_inputs(), 7);
  const double t_end = t_end_for(stimuli);
  const auto mono = mono_circuit->simulate(stimuli, 0.0, t_end);

  auto sharded = b.build_sharded(c432(), 4);
  sim::ShardedSimConfig config;
  config.n_threads = 2;

  // Poison the first hybrid mode switch: the failing shard's session is
  // stamped, the exception reaches the coordinator through the pool, and
  // the whole run reports kFailed instead of throwing or hanging.
  util::FaultInjector::arm(
      "hybrid_channel.state", {util::FaultInjector::Action::kNanValue, 0, -1});
  const auto faulted = sharded->simulate(stimuli, 0.0, t_end, config);
  EXPECT_EQ(faulted.status, sim::RunStatus::kFailed);
  EXPECT_FALSE(faulted.ok());
  EXPECT_NE(faulted.diagnostics.error.find("non-finite"), std::string::npos)
      << faulted.diagnostics.error;
  EXPECT_LE(faulted.diagnostics.t_horizon, t_end);

  // The instance (pool, shard circuits) survives the failure: a disarmed
  // re-simulation is bit-identical to the monolithic engine.
  util::FaultInjector::disarm("hybrid_channel.state");
  const auto clean = sharded->simulate(stimuli, 0.0, t_end, config);
  EXPECT_EQ(clean.status, sim::RunStatus::kOk);
  expect_bit_identical(mono, *mono_circuit, clean, c432(),
                       "recovery after injected shard fault");
}

}  // namespace
}  // namespace charlie
