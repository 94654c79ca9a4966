#include "sim/run_guard.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>

#include "core/gate_mode_tables.hpp"
#include "sim/circuit.hpp"
#include "sim/hybrid_gate_channel.hpp"
#include "sim/pure_delay.hpp"
#include "sim/sim_session.hpp"
#include "util/fault_injection.hpp"

namespace charlie::sim {
namespace {

// Inverter chain: every stimulus edge ripples through `depth` gates, so a
// run's event count is an exact function of the stimulus.
std::unique_ptr<Circuit> chain_circuit(int depth) {
  auto c = std::make_unique<Circuit>();
  auto prev = c->add_input("in");
  for (int i = 0; i < depth; ++i) {
    prev = c->add_gate(GateKind::kInv, "n" + std::to_string(i), {prev},
                       std::make_unique<PureDelayChannel>(5e-12));
  }
  return c;
}

waveform::DigitalTrace edges(int n) {
  waveform::DigitalTrace stim(false, {});
  for (int i = 0; i < n; ++i) {
    stim.append_transition(1e-9 * static_cast<double>(i + 1));
  }
  return stim;
}

TEST(RunStatus, ToStringCoversEveryStatus) {
  EXPECT_STREQ(to_string(RunStatus::kOk), "ok");
  EXPECT_STREQ(to_string(RunStatus::kBudgetExhausted), "budget_exhausted");
  EXPECT_STREQ(to_string(RunStatus::kDeadlineExceeded), "deadline_exceeded");
  EXPECT_STREQ(to_string(RunStatus::kCancelled), "cancelled");
  EXPECT_STREQ(to_string(RunStatus::kFailed), "failed");
}

TEST(RunGuard, UnbudgetedRunReportsOk) {
  auto c = chain_circuit(4);
  const auto result = c->simulate({edges(8)}, 0.0, 1e-7);
  EXPECT_EQ(result.status, RunStatus::kOk);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.diagnostics.status, RunStatus::kOk);
  EXPECT_EQ(result.diagnostics.n_events, result.n_events);
  EXPECT_TRUE(result.diagnostics.error.empty());
  EXPECT_FALSE(result.diagnostics.summary().empty());
}

TEST(RunGuard, DisabledBudgetIsBitIdenticalToPlainSimulate) {
  auto c1 = chain_circuit(6);
  auto c2 = chain_circuit(6);
  const auto plain = c1->simulate({edges(10)}, 0.0, 1e-7);
  const auto budgeted = c2->simulate({edges(10)}, 0.0, 1e-7, RunBudget{});
  ASSERT_EQ(budgeted.status, RunStatus::kOk);
  ASSERT_EQ(plain.n_events, budgeted.n_events);
  ASSERT_EQ(plain.traces.size(), budgeted.traces.size());
  for (std::size_t net = 0; net < plain.traces.size(); ++net) {
    const auto& a = plain.traces[net];
    const auto& b = budgeted.traces[net];
    ASSERT_EQ(a.n_transitions(), b.n_transitions());
    for (std::size_t k = 0; k < a.n_transitions(); ++k) {
      EXPECT_EQ(a.transitions()[k], b.transitions()[k]);
    }
  }
}

TEST(RunGuard, EventBudgetStopsAfterExactlyMaxEvents) {
  auto full_circuit = chain_circuit(6);
  const auto full = full_circuit->simulate({edges(10)}, 0.0, 1e-7);
  ASSERT_GT(full.n_events, 20);

  RunBudget budget;
  budget.max_events = 20;
  auto c = chain_circuit(6);
  const auto partial = c->simulate({edges(10)}, 0.0, 1e-7, budget);
  EXPECT_EQ(partial.status, RunStatus::kBudgetExhausted);
  EXPECT_FALSE(partial.ok());
  EXPECT_EQ(partial.n_events, 20);
  EXPECT_EQ(partial.diagnostics.n_events, 20);
  // The partial traces are a prefix of the full run: deterministic cut.
  long partial_transitions = 0;
  for (std::size_t net = 0; net < partial.traces.size(); ++net) {
    const auto& p = partial.traces[net];
    const auto& f = full.traces[net];
    ASSERT_LE(p.n_transitions(), f.n_transitions());
    partial_transitions += static_cast<long>(p.n_transitions());
    for (std::size_t k = 0; k < p.n_transitions(); ++k) {
      EXPECT_EQ(p.transitions()[k], f.transitions()[k]);
    }
  }
  EXPECT_GT(partial_transitions, 0);
  // The reached horizon is where processing stopped, not the requested end.
  EXPECT_LT(partial.diagnostics.t_horizon, 1e-7);
}

TEST(RunGuard, EventBudgetCutIsReproducible) {
  RunBudget budget;
  budget.max_events = 17;
  auto c1 = chain_circuit(5);
  auto c2 = chain_circuit(5);
  const auto a = c1->simulate({edges(10)}, 0.0, 1e-7, budget);
  const auto b = c2->simulate({edges(10)}, 0.0, 1e-7, budget);
  ASSERT_EQ(a.status, RunStatus::kBudgetExhausted);
  ASSERT_EQ(b.status, RunStatus::kBudgetExhausted);
  ASSERT_EQ(a.traces.size(), b.traces.size());
  for (std::size_t net = 0; net < a.traces.size(); ++net) {
    ASSERT_EQ(a.traces[net].n_transitions(), b.traces[net].n_transitions());
  }
}

TEST(RunGuard, DeadlineTripsOnLongRuns) {
  // A deadline far in the past (poll every event) trips on the first poll;
  // the run still returns a structured result instead of hanging.
  RunBudget budget;
  budget.max_wall_seconds = 1e-12;
  budget.check_interval = 1;
  auto c = chain_circuit(6);
  const auto result = c->simulate({edges(10)}, 0.0, 1e-7, budget);
  EXPECT_EQ(result.status, RunStatus::kDeadlineExceeded);
  EXPECT_LT(result.n_events, 70);
}

TEST(RunGuard, PresetCancellationStopsTheRun) {
  std::atomic<bool> cancel{true};
  RunBudget budget;
  budget.cancel = &cancel;
  budget.check_interval = 1;
  auto c = chain_circuit(6);
  const auto result = c->simulate({edges(10)}, 0.0, 1e-7, budget);
  EXPECT_EQ(result.status, RunStatus::kCancelled);
}

TEST(RunGuard, InjectedSolverFaultBecomesStructuredFailure) {
  util::FaultInjector::Scope scope;
  util::FaultInjector::reset_local_hits();
  util::FaultInjector::arm(
      "crossing.solve",
      {util::FaultInjector::Action::kConvergenceError, 0, -1});

  const auto tables =
      core::GateModeTables::make(core::GateParams::nor2_reference());
  Circuit c;
  const auto a = c.add_input("a");
  const auto b = c.add_input("b");
  c.add_mis_gate(GateKind::kNor2, "out", {a, b},
                 std::make_unique<HybridGateChannel>(tables));
  const waveform::DigitalTrace stim_a(false, {1e-9});
  const waveform::DigitalTrace stim_b(false, {});

  // Budgeted entry point: the injected ConvergenceError is captured, not
  // thrown through the engine.
  const auto result = c.simulate({stim_a, stim_b}, 0.0, 1e-8, RunBudget{});
  EXPECT_EQ(result.status, RunStatus::kFailed);
  EXPECT_NE(result.diagnostics.error.find("injected fault"),
            std::string::npos)
      << result.diagnostics.error;
  EXPECT_GT(util::FaultInjector::fires("crossing.solve"), 0);
}

TEST(RunGuard, ForcedNewtonFallbackIsCountedInDiagnostics) {
  util::FaultInjector::Scope scope;
  util::FaultInjector::reset_local_hits();
  util::FaultInjector::arm(
      "crossing.newton", {util::FaultInjector::Action::kForceBranch, 0, -1});

  const auto tables =
      core::GateModeTables::make(core::GateParams::nor2_reference());
  Circuit c;
  const auto a = c.add_input("a");
  const auto b = c.add_input("b");
  const auto out =
      c.add_mis_gate(GateKind::kNor2, "out", {a, b},
                     std::make_unique<HybridGateChannel>(tables));
  const waveform::DigitalTrace stim_a(false, {1e-9});
  const waveform::DigitalTrace stim_b(false, {});

  const auto result = c.simulate({stim_a, stim_b}, 0.0, 1e-8, RunBudget{});
  ASSERT_EQ(result.status, RunStatus::kOk);
  EXPECT_GT(result.trace(out).n_transitions(), 0u);
  // Every crossing solve went through the Brent fallback and the per-run
  // counter diff picked it up.
  EXPECT_GT(result.diagnostics.counters.newton_brent_fallbacks, 0L);
  EXPECT_TRUE(result.diagnostics.counters.any());
}

TEST(RunGuard, InjectedNanStateBecomesStructuredFailure) {
  util::FaultInjector::Scope scope;
  util::FaultInjector::reset_local_hits();
  util::FaultInjector::arm(
      "hybrid_channel.state", {util::FaultInjector::Action::kNanValue, 0, -1});

  const auto tables =
      core::GateModeTables::make(core::GateParams::nor2_reference());
  Circuit c;
  const auto a = c.add_input("a");
  const auto b = c.add_input("b");
  c.add_mis_gate(GateKind::kNor2, "out", {a, b},
                 std::make_unique<HybridGateChannel>(tables));
  const waveform::DigitalTrace stim_a(false, {1e-9});
  const waveform::DigitalTrace stim_b(false, {});

  const auto result = c.simulate({stim_a, stim_b}, 0.0, 1e-8, RunBudget{});
  EXPECT_EQ(result.status, RunStatus::kFailed);
  EXPECT_NE(result.diagnostics.error.find("non-finite"), std::string::npos)
      << result.diagnostics.error;
  EXPECT_GT(result.diagnostics.counters.nonfinite_guard_trips, 0L);
}

TEST(RunGuard, SessionStatusIsStickyAcrossAdvances) {
  RunBudget budget;
  budget.max_events = 5;
  auto c = chain_circuit(6);
  const std::vector<waveform::DigitalTrace> stimuli{edges(10)};
  SimSession session(*c, stimuli, 0.0, budget);
  session.advance(5e-9);
  EXPECT_EQ(session.status(), RunStatus::kBudgetExhausted);
  const long events_at_trip =
      session.n_stimulus_events() + session.n_gate_events();
  // Further windowed advances must not resurrect the run.
  session.advance(1e-7);
  EXPECT_EQ(session.status(), RunStatus::kBudgetExhausted);
  EXPECT_EQ(session.n_stimulus_events() + session.n_gate_events(),
            events_at_trip);
}

}  // namespace
}  // namespace charlie::sim
