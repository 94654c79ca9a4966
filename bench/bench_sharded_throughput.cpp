// Single-large-circuit scaling: one >= 100k-gate synthetic netlist
// (cell::generate_netlist, mixed SIS / hybrid-MIS cells plus RC wires)
// partitioned across workers by CircuitBuilder::build_sharded and
// simulated with the conservative windowed wavefront. Complements
// bench_batch_throughput.cpp, which scales across *independent* runs: here
// every worker cooperates on the same simulation, exchanging boundary
// events, and the result is bit-identical to the monolithic engine.
//
// BM_MonolithicCircuitThroughput runs the same netlist through the
// single-threaded monolithic engine and reports ns/event. BM_BuildSharded
// times the elaboration that the throughput benchmarks keep out of their
// loops; BM_ParseNetlist times the front end before it, parsing the same
// netlist's text from memory.
//
// Multi-threaded timing: wall clock (UseRealTime) is the scaling headline,
// process CPU time (MeasureProcessCPUTime) exposes the parallel overhead.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>

#include "cell/cell_library.hpp"
#include "cell/netlist.hpp"
#include "cell/netlist_gen.hpp"
#include "sim/circuit_builder.hpp"
#include "sim/sharded_circuit.hpp"
#include "util/rng.hpp"
#include "waveform/generator.hpp"

namespace {

using namespace charlie;

constexpr std::size_t kGates = 100000;

const cell::NetlistDesc& big_netlist() {
  static const cell::NetlistDesc desc = [] {
    cell::NetlistGenConfig config;
    config.n_gates = kGates;
    config.n_inputs = 64;
    config.n_outputs = 32;
    config.wire_fraction = 0.02;
    config.seed = 7;
    return cell::generate_netlist(config);
  }();
  return desc;
}

const sim::CircuitBuilder& builder() {
  static const sim::CircuitBuilder b(std::make_shared<const cell::CellLibrary>(
      cell::CellLibrary::reference()));
  return b;
}

std::vector<waveform::DigitalTrace> stimuli() {
  waveform::TraceConfig config;
  config.mu = 150e-12;
  config.sigma = 60e-12;
  config.n_transitions = 60;
  util::Rng rng(7);
  return waveform::generate_traces(config, big_netlist().inputs.size(), rng);
}

double end_time(const std::vector<waveform::DigitalTrace>& traces) {
  double t_last = 0.0;
  for (const auto& trace : traces) {
    if (!trace.empty()) t_last = std::max(t_last, trace.transitions().back());
  }
  return t_last + 2e-9;
}

void BM_ShardedCircuitThroughput(benchmark::State& state) {
  const auto n_shards = static_cast<std::size_t>(state.range(0));
  const auto n_threads = static_cast<std::size_t>(state.range(1));
  // Partitioning and the worker pool live outside the timed loop, like
  // netlist parsing in a real front-end; the simulation is the workload.
  auto sharded = builder().build_sharded(big_netlist(), n_shards);
  const auto traces = stimuli();
  const double t_end = end_time(traces);
  sim::ShardedSimConfig config;
  config.n_threads = n_threads;

  long long events = 0;
  for (auto _ : state) {
    const auto result = sharded->simulate(traces, 0.0, t_end, config);
    events += result.n_events;
    benchmark::DoNotOptimize(result.n_events);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["gates"] =
      benchmark::Counter(static_cast<double>(sharded->n_gates()));
  state.counters["boundary_edges"] =
      benchmark::Counter(static_cast<double>(sharded->n_boundary_edges()));
}
BENCHMARK(BM_ShardedCircuitThroughput)
    ->ArgNames({"shards", "threads"})
    ->Args({1, 1})
    ->Args({2, 2})
    ->Args({4, 4})
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The same netlist and stimuli through the monolithic engine
// (CircuitBuilder::build + Circuit::simulate, one thread): the per-event
// cost of a 100k-gate circuit, to hold against a c432 event. Building is
// outside the timed loop.
void BM_MonolithicCircuitThroughput(benchmark::State& state) {
  const auto circuit = builder().build(big_netlist());
  const auto traces = stimuli();
  const double t_end = end_time(traces);

  long long events = 0;
  for (auto _ : state) {
    const auto result = circuit->simulate(traces, 0.0, t_end);
    events += result.n_events;
    benchmark::DoNotOptimize(result.n_events);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  // Inverted rate of events * 1e-9: nanoseconds of wall time per event.
  state.counters["ns/event"] = benchmark::Counter(
      static_cast<double>(events) * 1e-9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["gates"] =
      benchmark::Counter(static_cast<double>(circuit->n_gates()));
}
BENCHMARK(BM_MonolithicCircuitThroughput)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Elaboration of the same netlist into K = 4 shards: validation, topo
// sort, partitioning and per-shard emission, plus destroying the result
// (both are paid once per netlist flow). The parsed desc is built once
// outside the timed loop.
void BM_BuildSharded(benchmark::State& state) {
  const cell::NetlistDesc& desc = big_netlist();
  for (auto _ : state) {
    auto sharded = builder().build_sharded(desc, 4);
    benchmark::DoNotOptimize(sharded.get());
    sharded.reset();
  }
  state.counters["elements"] = benchmark::Counter(
      static_cast<double>(desc.instances.size() + desc.wires.size()));
}
BENCHMARK(BM_BuildSharded)->UseRealTime()->Unit(benchmark::kMillisecond);

// Parsing the same netlist (100k gates + 2k wires) from its text, already
// in memory: tokenizing, validation of the syntax, and the NetlistDesc
// strings, plus destroying the result.
void BM_ParseNetlist(benchmark::State& state) {
  const std::string text = cell::write_netlist(big_netlist());
  std::size_t elements = 0;
  for (auto _ : state) {
    const cell::NetlistDesc desc = cell::parse_netlist(text);
    elements = desc.instances.size() + desc.wires.size();
    benchmark::DoNotOptimize(elements);
  }
  state.counters["elements"] =
      benchmark::Counter(static_cast<double>(elements));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ParseNetlist)->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
