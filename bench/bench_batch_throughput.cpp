// Whole-circuit Monte-Carlo throughput: events/second through the indexed
// event heap, single-thread vs. worker-pool scaling, with shared
// GateModeTables across all gate instances, plus the per-run stimulus cost
// (the generator and its normal draws). Complements the per-event channel
// microbenches in bench_runtime_overhead.cpp.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/gate_mode_tables.hpp"
#include "sim/batch_runner.hpp"
#include "sim/hybrid_gate_channel.hpp"
#include "util/rng.hpp"
#include "waveform/generator.hpp"

namespace {

using namespace charlie;

// A reconvergent mesh of MIS-aware NOR stages: inputs a, b feed a chain of
// NOR pairs so every stage sees real multi-input switching activity.
sim::CircuitFactory mesh_factory(int n_stages) {
  const auto tables =
      core::GateModeTables::make(core::GateParams::nor2_reference());
  return [tables, n_stages] {
    auto circuit = std::make_unique<sim::Circuit>();
    auto a = circuit->add_input("a");
    auto b = circuit->add_input("b");
    sim::Circuit::NetId x = a;
    sim::Circuit::NetId y = b;
    for (int s = 0; s < n_stages; ++s) {
      const auto nx = circuit->add_mis_gate(
          sim::GateKind::kNor2, "x" + std::to_string(s), {x, y},
          std::make_unique<sim::HybridGateChannel>(tables));
      const auto ny = circuit->add_mis_gate(
          sim::GateKind::kNor2, "y" + std::to_string(s), {y, x},
          std::make_unique<sim::HybridGateChannel>(tables));
      x = nx;
      y = ny;
    }
    circuit->add_mis_gate(sim::GateKind::kNor2, "out", {x, y},
                          std::make_unique<sim::HybridGateChannel>(tables));
    return circuit;
  };
}

sim::BatchConfig batch_config(std::size_t n_runs, std::size_t n_threads) {
  sim::BatchConfig config;
  config.trace.mu = 150e-12;
  config.trace.sigma = 60e-12;
  config.trace.n_transitions = 200;
  config.n_runs = n_runs;
  config.base_seed = 7;
  config.n_threads = n_threads;
  return config;
}

// The runner (pool + per-worker circuit clones + trace arenas) is built
// once outside the timed loop: each iteration measures the steady-state
// batch, which is what scales with threads. Wall clock (UseRealTime) is
// the scaling headline; process CPU time exposes parallel overhead.
void BM_BatchThroughput(benchmark::State& state) {
  const auto n_threads = static_cast<std::size_t>(state.range(0));
  auto factory = mesh_factory(4);
  sim::BatchRunner runner(factory, {"out"}, batch_config(16, n_threads));
  long long events = 0;
  for (auto _ : state) {
    const auto result = runner.run();
    events += result.total_events;
    benchmark::DoNotOptimize(result.total_events);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Single simulate() call through the Circuit engine (heap + devirtualized
// eval), for tracking the engine overhead itself: circuit and stimuli are
// built once outside the timed loop, so no BatchRunner / ThreadPool /
// factory construction pollutes the counter.
void BM_CircuitMeshTrace(benchmark::State& state) {
  auto circuit = mesh_factory(4)();
  util::Rng rng(7);
  waveform::TraceConfig trace = batch_config(1, 1).trace;
  const auto stimuli =
      waveform::generate_traces(trace, circuit->n_inputs(), rng);
  double t_last = trace.t_start;
  for (const auto& t : stimuli) {
    if (!t.empty()) t_last = std::max(t_last, t.transitions().back());
  }
  const double t_end = t_last + 1e-9;
  long long events = 0;
  for (auto _ : state) {
    const auto result = circuit->simulate(stimuli, 0.0, t_end);
    events += result.n_events;
    benchmark::DoNotOptimize(result.n_events);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CircuitMeshTrace);

// The stimulus of one c432 Monte-Carlo run (perfbench `mc_c432`): 36
// inputs x 64 transitions, gaps from N(150 ps, 60 ps) truncated at 1 ps,
// refilled into reused traces the way a BatchRunner worker's arena is.
// Each iteration seeds a fresh generator, as every run does.
void BM_GenerateTraces(benchmark::State& state) {
  waveform::TraceConfig trace;
  trace.mu = 150e-12;
  trace.sigma = 60e-12;
  trace.n_transitions = 64;
  std::vector<waveform::DigitalTrace> stimuli;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    util::Rng rng(++seed);
    waveform::generate_traces_into(trace, 36, rng, stimuli);
    benchmark::DoNotOptimize(stimuli.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_GenerateTraces);

// One truncated-normal gap draw, the generator's inner step.
void BM_RngNormalAbove(benchmark::State& state) {
  util::Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.normal_above(150e-12, 60e-12, 1e-12));
  }
}
BENCHMARK(BM_RngNormalAbove);

}  // namespace

BENCHMARK_MAIN();
