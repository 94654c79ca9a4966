// The statistical batch pipeline: ProcessVariation sampling (counter-based,
// order-independent), ProcessBinder channel retargeting, and BatchRunner's
// distribution queries (quantiles, yield, criticality) -- including the
// thread-count invariance and split-batch guarantees.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cell/cell_library.hpp"
#include "cell/netlist.hpp"
#include "core/gate_mode_tables.hpp"
#include "core/process_point.hpp"
#include "batch_result_equal.hpp"
#include "sim/batch_runner.hpp"
#include "sim/circuit_builder.hpp"
#include "sim/hybrid_gate_channel.hpp"
#include "sim/process_variation.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace charlie::sim {
namespace {

ProcessVariation small_variation() {
  ProcessVariation v;
  v.vdd_sigma = 0.02;
  v.vth_sigma = 0.01;
  v.drive_sigma = 0.03;
  return v;
}

TEST(ProcessVariation, SampleIsPureFunctionOfSeedAndIndex) {
  const ProcessVariation v = small_variation();
  // Draw indices forward and backward: identical points either way.
  std::vector<core::ProcessPoint> forward, backward;
  for (std::uint64_t i = 0; i < 16; ++i) forward.push_back(v.sample(7, i));
  for (std::uint64_t i = 16; i-- > 0;) backward.push_back(v.sample(7, i));
  for (std::uint64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(forward[i].fingerprint(), backward[15 - i].fingerprint());
  }
  // Different index or seed -> different point.
  EXPECT_NE(v.sample(7, 0).fingerprint(), v.sample(7, 1).fingerprint());
  EXPECT_NE(v.sample(7, 0).fingerprint(), v.sample(8, 0).fingerprint());
}

TEST(ProcessVariation, SamplesStayInsideTheGridSpan) {
  const ProcessVariation v = small_variation();
  const core::ModeTableGrid::Spec spec = v.grid_spec();
  for (std::uint64_t i = 0; i < 500; ++i) {
    const core::ProcessPoint p = v.sample(2022, i);
    EXPECT_GE(p.vdd_scale, spec.vdd_scale.lo);
    EXPECT_LE(p.vdd_scale, spec.vdd_scale.hi);
    EXPECT_GE(p.vth_shift, spec.vth_shift.lo);
    EXPECT_LE(p.vth_shift, spec.vth_shift.hi);
    EXPECT_GE(p.drive_scale, spec.drive_scale.lo);
    EXPECT_LE(p.drive_scale, spec.drive_scale.hi);
  }
}

TEST(ProcessVariation, InactiveAxesStayExactlyNominal) {
  ProcessVariation v;
  v.vdd_sigma = 0.02;  // only the supply varies
  for (std::uint64_t i = 0; i < 32; ++i) {
    const core::ProcessPoint p = v.sample(1, i);
    EXPECT_EQ(p.vth_shift, 0.0);
    EXPECT_EQ(p.drive_scale, 1.0);
  }
  // Activating another sigma must not change the vdd stream (each axis
  // always consumes the same draws).
  ProcessVariation v2 = v;
  v2.drive_sigma = 0.05;
  for (std::uint64_t i = 0; i < 32; ++i) {
    EXPECT_EQ(v2.sample(1, i).vdd_scale, v.sample(1, i).vdd_scale);
  }
}

TEST(ProcessVariation, ValidateRejectsBadKnobs) {
  ProcessVariation v = small_variation();
  v.vdd_sigma = -0.1;
  EXPECT_THROW(v.validate(), ConfigError);
  v = small_variation();
  v.grid_levels = 1;
  EXPECT_THROW(v.validate(), ConfigError);
  v = small_variation();
  v.drive_sigma = 0.4;  // 3.5 sigma crosses zero drive
  EXPECT_THROW(v.validate(), ConfigError);
  EXPECT_NO_THROW(small_variation().validate());
}

// A two-gate circuit sharing one NOR table plus one inertial inverter.
struct BoundCircuit {
  std::shared_ptr<const core::GateModeTables> tables;
  std::unique_ptr<Circuit> circuit;
  HybridGateChannel* nor_a = nullptr;
  HybridGateChannel* nor_b = nullptr;
  InertialChannel* inv = nullptr;
};

BoundCircuit bound_circuit() {
  BoundCircuit bc;
  bc.tables = core::GateModeTables::make(core::GateParams::nor2_reference());
  bc.circuit = std::make_unique<Circuit>();
  const auto a = bc.circuit->add_input("a");
  const auto b = bc.circuit->add_input("b");
  auto ch_a = std::make_unique<HybridGateChannel>(bc.tables);
  auto ch_b = std::make_unique<HybridGateChannel>(bc.tables);
  bc.nor_a = ch_a.get();
  bc.nor_b = ch_b.get();
  const auto m = bc.circuit->add_mis_gate(GateKind::kNor2, "m", {a, b},
                                          std::move(ch_a));
  const auto n = bc.circuit->add_mis_gate(GateKind::kNor2, "n", {m, b},
                                          std::move(ch_b));
  auto inv = std::make_unique<InertialChannel>(10e-12, 12e-12);
  bc.inv = inv.get();
  bc.circuit->add_gate(GateKind::kInv, "out", {n}, std::move(inv));
  return bc;
}

TEST(ProcessBinder, RebindsSharedTablesOnceAndRestoresNominalBitExactly) {
  BoundCircuit bc = bound_circuit();
  const ProcessVariation v = small_variation();
  ProcessBinder::GridMap grids;
  ProcessBinder::build_grids(*bc.circuit, v.grid_spec(), grids);
  EXPECT_EQ(grids.size(), 1u);  // one shared table -> one grid

  ProcessBinder binder(*bc.circuit, grids);
  EXPECT_EQ(binder.n_hybrid_channels(), 2u);
  EXPECT_EQ(binder.n_inertial_channels(), 1u);
  EXPECT_EQ(binder.vdd_nominal(), bc.tables->gate_params().vdd);

  core::ProcessPoint corner;
  corner.vdd_scale = 1.03;
  corner.vth_shift = -0.01;
  corner.drive_scale = 0.95;
  binder.bind(corner);
  // Both channels moved off the nominal table, onto one shared local copy.
  EXPECT_NE(bc.nor_a->gate_tables().get(), bc.tables.get());
  EXPECT_EQ(bc.nor_a->gate_tables().get(), bc.nor_b->gate_tables().get());
  EXPECT_EQ(bc.nor_a->gate_tables()->vth(),
            corner.vdd_scale * bc.tables->gate_params().vdd / 2.0);
  const double s = corner.resistance_scale(bc.tables->gate_params().vdd);
  EXPECT_DOUBLE_EQ(bc.inv->delay_up(), 10e-12 * s);
  EXPECT_DOUBLE_EQ(bc.inv->delay_down(), 12e-12 * s);

  // The nominal point restores the original shared tables and delays.
  binder.bind(core::ProcessPoint());
  EXPECT_EQ(bc.nor_a->gate_tables().get(), bc.tables.get());
  EXPECT_EQ(bc.nor_b->gate_tables().get(), bc.tables.get());
  EXPECT_EQ(bc.inv->delay_up(), 10e-12);
  EXPECT_EQ(bc.inv->delay_down(), 12e-12);
}

TEST(ProcessBinder, RequiresGridsForEveryHybridTable) {
  BoundCircuit bc = bound_circuit();
  const ProcessBinder::GridMap empty;
  EXPECT_THROW(ProcessBinder(*bc.circuit, empty), ConfigError);
}

BatchConfig stat_config() {
  BatchConfig config;
  config.trace.mu = 150e-12;
  config.trace.sigma = 60e-12;
  config.trace.n_transitions = 40;
  config.n_runs = 24;
  config.base_seed = 2022;
  config.histogram_bins = 16;
  config.variation = small_variation();
  return config;
}

CircuitFactory nor_chain_factory() {
  const auto tables =
      core::GateModeTables::make(core::GateParams::nor2_reference());
  return [tables] {
    auto circuit = std::make_unique<Circuit>();
    const auto a = circuit->add_input("a");
    const auto b = circuit->add_input("b");
    const auto m = circuit->add_mis_gate(
        GateKind::kNor2, "m", {a, b},
        std::make_unique<HybridGateChannel>(tables));
    circuit->add_mis_gate(GateKind::kNor2, "out", {m, b},
                          std::make_unique<HybridGateChannel>(tables));
    return circuit;
  };
}

TEST(BatchStats, VariationChangesTheAggregateAndNominalDoesNot) {
  BatchConfig with = stat_config();
  BatchConfig without = stat_config();
  without.variation = ProcessVariation{};  // disabled
  BatchRunner a(nor_chain_factory(), {"out"}, with);
  BatchRunner b(nor_chain_factory(), {"out"}, without);
  const auto va = a.run();
  const auto vb = b.run();
  ASSERT_TRUE(va.all_ok());
  ASSERT_TRUE(vb.all_ok());
  // Same stimuli, different process corners: the delay distribution moves.
  EXPECT_NE(va.nets.front().response_delay.sum(),
            vb.nets.front().response_delay.sum());
  // Nominal batches still produce the statistical queries.
  EXPECT_EQ(vb.stats.n_samples, vb.n_runs);
  EXPECT_GT(vb.stats.mean, 0.0);
}

TEST(BatchStats, QuantileYieldAndCriticalityAreInternallyConsistent) {
  BatchConfig config = stat_config();
  config.quantiles = {0.5, 0.95};
  BatchRunner runner(nor_chain_factory(),
                     std::vector<std::string>{"m", "out"}, config);
  const auto result = runner.run();
  ASSERT_TRUE(result.all_ok());
  const BatchStats& st = result.stats;
  ASSERT_EQ(st.n_samples, result.n_runs);

  // Quantiles are order statistics of the per-run critical delays.
  std::vector<double> sorted;
  for (const double d : result.critical_delays) {
    ASSERT_GE(d, 0.0);
    sorted.push_back(d);
  }
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(st.min, sorted.front());
  EXPECT_EQ(st.max, sorted.back());
  ASSERT_EQ(st.quantiles.size(), 2u);
  EXPECT_EQ(st.quantiles[0].first, 0.5);
  EXPECT_EQ(st.quantiles[0].second,
            sorted[(sorted.size() + 1) / 2 - 1]);  // nearest rank, n even
  EXPECT_LE(st.quantiles[0].second, st.quantiles[1].second);
  EXPECT_GE(st.mean, st.min);
  EXPECT_LE(st.mean, st.max);
  EXPECT_GT(st.stddev, 0.0);

  // Criticality counts partition the sampled runs across observed nets.
  ASSERT_EQ(st.criticality.size(), 2u);
  EXPECT_EQ(st.criticality[0] + st.criticality[1], st.n_samples);

  // Yield against a deadline at the maximum is 100%; just below the
  // minimum it is 0%.
  BatchConfig all = config;
  all.stat_deadline = st.max;
  BatchRunner all_runner(nor_chain_factory(),
                         std::vector<std::string>{"m", "out"}, all);
  const auto all_result = all_runner.run();
  EXPECT_EQ(all_result.stats.n_meeting_deadline, st.n_samples);
  EXPECT_EQ(all_result.stats.yield, 1.0);
  BatchConfig none = config;
  none.stat_deadline = st.min * 0.5;
  BatchRunner none_runner(nor_chain_factory(),
                          std::vector<std::string>{"m", "out"}, none);
  EXPECT_EQ(none_runner.run().stats.yield, 0.0);
}

TEST(BatchStats, SplitBatchViaFirstRunIndexMatchesTheFullBatch) {
  BatchConfig config = stat_config();
  config.n_runs = 12;
  BatchRunner full(nor_chain_factory(), {"out"}, config);
  const auto whole = full.run();

  std::vector<long> events;
  std::vector<double> delays;
  for (std::uint64_t half = 0; half < 2; ++half) {
    BatchConfig part = config;
    part.n_runs = 6;
    part.first_run_index = half * 6;
    BatchRunner runner(nor_chain_factory(), {"out"}, part);
    const auto result = runner.run();
    events.insert(events.end(), result.events_per_run.begin(),
                  result.events_per_run.end());
    delays.insert(delays.end(), result.critical_delays.begin(),
                  result.critical_delays.end());
  }
  // Per-run content is a pure function of the global run index: the split
  // halves reproduce the full batch exactly, run for run.
  EXPECT_EQ(events, whole.events_per_run);
  EXPECT_EQ(delays, whole.critical_delays);
}

TEST(BatchStats, FailedRunsAreExcludedFromTheStatistics) {
  BatchConfig config = stat_config();
  config.budget.max_events = 30;  // every run trips the budget
  BatchRunner runner(nor_chain_factory(), {"out"}, config);
  const auto result = runner.run();
  EXPECT_EQ(result.n_failed, result.n_runs);
  EXPECT_EQ(result.stats.n_samples, 0u);
  ASSERT_EQ(result.critical_delays.size(), result.n_runs);
  for (const double d : result.critical_delays) EXPECT_EQ(d, -1.0);
  // Empty-sample statistics stay well-defined.
  EXPECT_EQ(result.stats.mean, 0.0);
  ASSERT_EQ(result.stats.quantiles.size(), config.quantiles.size());
  for (const auto& [q, value] : result.stats.quantiles) {
    EXPECT_EQ(value, 0.0);
  }
}

TEST(BatchStats, C432VariationBatchIsBitIdenticalAcrossThreadCounts) {
  // The acceptance lock: a >= 200-sample variation batch over the repo's
  // c432-class netlist (hybrid MIS + SIS cells through CircuitBuilder)
  // produces bit-identical statistical aggregates at 1, 2, and 4 threads.
  const auto library = std::make_shared<const cell::CellLibrary>(
      cell::CellLibrary::reference());
  const auto desc = cell::read_netlist_file(
      CHARLIE_SOURCE_DIR "/examples/netlists/c432.net");
  const sim::CircuitBuilder builder(library);

  BatchConfig config = stat_config();
  config.n_runs = 200;
  config.trace.n_transitions = 12;
  config.stat_deadline = 1e-9;
  auto run_with = [&](std::size_t n_threads) {
    config.n_threads = n_threads;
    BatchRunner runner([&] { return builder.build(desc); }, desc.outputs,
                       config);
    return runner.run();
  };
  const auto one = run_with(1);
  EXPECT_GT(one.stats.n_samples, 0u);
  EXPECT_GT(one.stats.stddev, 0.0);  // variation really spreads the delays
  for (std::size_t n_threads : {2u, 4u}) {
    EXPECT_TRUE(testing::batch_results_equal(run_with(n_threads), one))
        << n_threads << " threads";
  }
}

TEST(BatchStats, WholeResultIsBitIdenticalWithTrippedAndFailedRuns) {
  util::FaultInjector::Scope scope;
  const auto library = std::make_shared<const cell::CellLibrary>(
      cell::CellLibrary::reference());
  const auto desc = cell::read_netlist_file(
      CHARLIE_SOURCE_DIR "/examples/netlists/c432.net");
  const sim::CircuitBuilder builder(library);

  BatchConfig config = stat_config();
  config.n_runs = 48;
  config.trace.n_transitions = 16;
  config.stat_deadline = 1e-9;
  config.capture_run = 5;
  auto run_with = [&](const BatchConfig& c, std::size_t n_threads) {
    BatchConfig threaded = c;
    threaded.n_threads = n_threads;
    BatchRunner runner([&] { return builder.build(desc); }, desc.outputs,
                       threaded);
    return runner.run();
  };

  // An event budget at the upper quartile of run lengths trips a quarter
  // of the runs.
  std::vector<long> events = run_with(config, 4).events_per_run;
  std::sort(events.begin(), events.end());
  config.budget.max_events = events[3 * events.size() / 4];
  // A crossing-solve fault at a hit count some of the other runs reach.
  auto count = [](const BatchResult& r, RunStatus status) {
    return std::count_if(
        r.diagnostics.begin(), r.diagnostics.end(),
        [&](const RunDiagnostics& d) { return d.status == status; });
  };
  bool mixed = false;
  std::string tried;
  for (long fire_after = 20; fire_after <= 400 && !mixed; fire_after += 20) {
    util::FaultInjector::arm(
        "crossing.solve",
        {util::FaultInjector::Action::kConvergenceError, fire_after, 1});
    const auto probe = run_with(config, 4);
    const auto n_ok = count(probe, RunStatus::kOk);
    const auto n_failed = count(probe, RunStatus::kFailed);
    const auto n_tripped = count(probe, RunStatus::kBudgetExhausted);
    mixed = n_ok > 0 && n_failed > 0 && n_tripped > 0;
    tried += " " + std::to_string(fire_after) + ":" + std::to_string(n_ok) +
             "/" + std::to_string(n_failed) + "/" + std::to_string(n_tripped);
  }
  ASSERT_TRUE(mixed) << "no fault threshold mixes ok, failed and tripped "
                        "runs (threshold:ok/failed/tripped):"
                     << tried;

  const auto one = run_with(config, 1);
  for (std::size_t n_threads : {2u, 4u}) {
    EXPECT_TRUE(testing::batch_results_equal(run_with(config, n_threads), one))
        << n_threads << " threads";
  }

  // Split via first_run_index: each half is thread-count invariant as a
  // whole, reproduces its slice of the full batch run for run, and the
  // halves' integer histogram counts add up to the full batch's.
  std::vector<std::uint64_t> bins(
      one.nets.front().pulse_width.bins().size(), 0);
  std::uint64_t response_count = 0;
  for (std::size_t half = 0; half < 2; ++half) {
    BatchConfig part = config;
    part.n_runs = config.n_runs / 2;
    part.first_run_index = half * part.n_runs;
    const auto a = run_with(part, 1);
    EXPECT_TRUE(testing::batch_results_equal(run_with(part, 4), a))
        << "half " << half;
    for (std::size_t r = 0; r < part.n_runs; ++r) {
      const std::size_t full = part.first_run_index + r;
      EXPECT_EQ(a.events_per_run[r], one.events_per_run[full]);
      EXPECT_EQ(a.critical_delays[r], one.critical_delays[full]);
      EXPECT_EQ(a.diagnostics[r].status, one.diagnostics[full].status);
      EXPECT_EQ(a.diagnostics[r].error, one.diagnostics[full].error);
    }
    for (std::size_t b = 0; b < bins.size(); ++b) {
      bins[b] += a.nets.front().pulse_width.bins()[b];
    }
    response_count += a.nets.front().response_delay.count();
  }
  EXPECT_EQ(bins, one.nets.front().pulse_width.bins());
  EXPECT_EQ(response_count, one.nets.front().response_delay.count());
}

}  // namespace
}  // namespace charlie::sim
