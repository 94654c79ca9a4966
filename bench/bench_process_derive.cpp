// Process-sample retargeting cost: what one Monte-Carlo sample pays to move
// a cell's mode tables to a sampled process point, and the statistical
// batch throughput it buys.
//
// Three BM_ProcessSampleDerive flavors, same work per iteration (one
// process point, all 2^N modes of a 3-input cell):
//   * exact_fresh:   GateParams::derive_for + a freshly constructed
//                    GateModeTables (the naive per-sample path);
//   * exact_inplace: GateModeTables::rederive_at into preallocated storage
//                    (no allocation, still exact eigen-solves per mode);
//   * grid:          ModeTableGrid::interpolate_into (the BatchRunner path;
//                    corner derivations amortized at construction).
// The grid row is the one the statistical pipeline rides; the ledger tracks
// its headroom over exact derivation (>= 10x on the seed host).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>

#include "core/gate_mode_tables.hpp"
#include "core/gate_params.hpp"
#include "core/mode_table_grid.hpp"
#include "core/process_point.hpp"
#include "sim/batch_runner.hpp"
#include "sim/hybrid_gate_channel.hpp"
#include "sim/process_variation.hpp"

namespace {

using namespace charlie;

core::GateParams bench_params() { return core::GateParams::nor3_reference(); }

sim::ProcessVariation bench_variation() {
  sim::ProcessVariation v;
  v.vdd_sigma = 0.02;
  v.vth_sigma = 0.01;
  v.drive_sigma = 0.03;
  return v;
}

// One sampled point per iteration, cycled from a fixed set so the work
// matches the batch runner's per-run draw without timing the RNG.
struct SampledPoints {
  static constexpr std::size_t kCount = 64;
  core::ProcessPoint points[kCount];
  SampledPoints() {
    const sim::ProcessVariation v = bench_variation();
    for (std::uint64_t i = 0; i < kCount; ++i) points[i] = v.sample(7, i);
  }
};

void BM_ProcessSampleDerive_ExactFresh(benchmark::State& state) {
  const core::GateParams nominal = bench_params();
  const SampledPoints sampled;
  std::size_t i = 0;
  for (auto _ : state) {
    const core::GateModeTables tables(
        nominal.derive_for(sampled.points[i % SampledPoints::kCount]));
    benchmark::DoNotOptimize(tables.state_table(0).d);
    ++i;
  }
}
BENCHMARK(BM_ProcessSampleDerive_ExactFresh);

void BM_ProcessSampleDerive_ExactInPlace(benchmark::State& state) {
  const core::GateParams nominal = bench_params();
  core::GateModeTables tables(nominal);
  const SampledPoints sampled;
  std::size_t i = 0;
  for (auto _ : state) {
    tables.rederive_at(nominal, sampled.points[i % SampledPoints::kCount]);
    benchmark::DoNotOptimize(tables.state_table(0).d);
    ++i;
  }
}
BENCHMARK(BM_ProcessSampleDerive_ExactInPlace);

void BM_ProcessSampleDerive_Grid(benchmark::State& state) {
  const core::GateParams nominal = bench_params();
  const core::ModeTableGrid grid(nominal, bench_variation().grid_spec());
  core::GateModeTables tables(nominal);  // worker-local copy, reused
  const SampledPoints sampled;
  std::size_t i = 0;
  for (auto _ : state) {
    grid.interpolate_into(sampled.points[i % SampledPoints::kCount], tables);
    benchmark::DoNotOptimize(tables.state_table(0).d);
    ++i;
  }
}
BENCHMARK(BM_ProcessSampleDerive_Grid);

// Statistical batch throughput: the bench_batch_throughput mesh with
// process variation enabled -- every run rebinds all channels through the
// grid before simulating. Compare against BM_BatchThroughput at the same
// thread count for the variation overhead.
void BM_StatBatchThroughput(benchmark::State& state) {
  const auto n_threads = static_cast<std::size_t>(state.range(0));
  const auto tables = core::GateModeTables::make(bench_params());
  auto factory = [tables] {
    auto circuit = std::make_unique<sim::Circuit>();
    const auto a = circuit->add_input("a");
    const auto b = circuit->add_input("b");
    const auto c = circuit->add_input("c");
    sim::Circuit::NetId x = a, y = b, z = c;
    for (int s = 0; s < 3; ++s) {
      const auto tag = std::to_string(s);
      x = circuit->add_mis_gate(
          sim::GateKind::kNor3, "x" + tag, {x, y, z},
          std::make_unique<sim::HybridGateChannel>(tables));
      y = circuit->add_mis_gate(
          sim::GateKind::kNor3, "y" + tag, {y, z, x},
          std::make_unique<sim::HybridGateChannel>(tables));
      z = circuit->add_mis_gate(
          sim::GateKind::kNor3, "z" + tag, {z, x, y},
          std::make_unique<sim::HybridGateChannel>(tables));
    }
    circuit->add_mis_gate(sim::GateKind::kNor3, "out", {x, y, z},
                          std::make_unique<sim::HybridGateChannel>(tables));
    return circuit;
  };
  sim::BatchConfig config;
  config.trace.mu = 150e-12;
  config.trace.sigma = 60e-12;
  config.trace.n_transitions = 200;
  config.n_runs = 16;
  config.base_seed = 7;
  config.n_threads = n_threads;
  config.variation = bench_variation();
  sim::BatchRunner runner(factory, {"out"}, config);
  long long events = 0;
  for (auto _ : state) {
    const auto result = runner.run();
    events += result.total_events;
    benchmark::DoNotOptimize(result.stats.mean);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_StatBatchThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
