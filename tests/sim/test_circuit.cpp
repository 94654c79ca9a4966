#include "sim/circuit.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/hybrid_gate_channel.hpp"
#include "sim/inertial.hpp"
#include "sim/pure_delay.hpp"
#include "sim/wire_channel.hpp"
#include "util/error.hpp"
#include "wire/wire_params.hpp"

namespace charlie::sim {
namespace {

TEST(GateEval, TruthTables) {
  const bool f = false;
  const bool t = true;
  {
    const bool in[] = {f};
    EXPECT_FALSE(eval_gate(GateKind::kBuf, in));
    EXPECT_TRUE(eval_gate(GateKind::kInv, in));
  }
  {
    const bool in[] = {t, f};
    EXPECT_FALSE(eval_gate(GateKind::kAnd2, in));
    EXPECT_TRUE(eval_gate(GateKind::kOr2, in));
    EXPECT_TRUE(eval_gate(GateKind::kNand2, in));
    EXPECT_FALSE(eval_gate(GateKind::kNor2, in));
    EXPECT_TRUE(eval_gate(GateKind::kXor2, in));
  }
  {
    const bool in[] = {f, f};
    EXPECT_TRUE(eval_gate(GateKind::kNor2, in));
    EXPECT_FALSE(eval_gate(GateKind::kXor2, in));
  }
}

TEST(Circuit, SingleInverter) {
  Circuit c;
  const auto in = c.add_input("in");
  const auto out = c.add_gate(GateKind::kInv, "out", {in},
                              std::make_unique<PureDelayChannel>(10e-12));
  const waveform::DigitalTrace stim(false, {1e-9, 2e-9});
  const auto result = c.simulate({stim}, 0.0, 3e-9);
  const auto& trace = result.trace(out);
  EXPECT_TRUE(trace.initial_value());
  ASSERT_EQ(trace.n_transitions(), 2u);
  EXPECT_NEAR(trace.transitions()[0], 1e-9 + 10e-12, 1e-15);
  EXPECT_FALSE(trace.is_rising(0));
}

TEST(Circuit, InverterChainAccumulatesDelay) {
  Circuit c;
  const auto in = c.add_input("in");
  auto prev = in;
  for (int i = 0; i < 4; ++i) {
    prev = c.add_gate(GateKind::kInv, "n" + std::to_string(i), {prev},
                      std::make_unique<PureDelayChannel>(5e-12));
  }
  const waveform::DigitalTrace stim(false, {1e-9});
  const auto result = c.simulate({stim}, 0.0, 2e-9);
  const auto& out = result.trace(prev);
  ASSERT_EQ(out.n_transitions(), 1u);
  EXPECT_NEAR(out.transitions()[0], 1e-9 + 4 * 5e-12, 1e-15);
  // Even number of inversions: same polarity as the input.
  EXPECT_TRUE(out.is_rising(0));
}

TEST(Circuit, SteadyStateSettlesThroughLogic) {
  // in=1 feeding INV -> 0 -> NOR(0, in2=0) -> 1 at t=0.
  Circuit c;
  const auto in1 = c.add_input("in1");
  const auto in2 = c.add_input("in2");
  const auto inv = c.add_gate(GateKind::kInv, "inv", {in1},
                              std::make_unique<PureDelayChannel>(5e-12));
  const auto nor =
      c.add_gate(GateKind::kNor2, "nor", {inv, in2},
                 std::make_unique<InertialChannel>(7e-12, 7e-12));
  const waveform::DigitalTrace s1(true, {});
  const waveform::DigitalTrace s2(false, {});
  const auto result = c.simulate({s1, s2}, 0.0, 1e-9);
  EXPECT_FALSE(result.trace(inv).initial_value());
  EXPECT_TRUE(result.trace(nor).initial_value());
  EXPECT_EQ(result.trace(nor).n_transitions(), 0u);
}

TEST(Circuit, ReconvergentFanoutGlitch) {
  // Classic glitch generator: in -> INV -> AND(in, inv(in)).
  // A rising input makes the AND see (1,1) briefly -- for the inverter
  // delay -- so a pure-delay AND emits a glitch; an inertial AND with a
  // larger delay does not.
  auto build = [](std::unique_ptr<SisChannel> and_channel) {
    auto c = std::make_unique<Circuit>();
    const auto in = c->add_input("in");
    const auto inv = c->add_gate(GateKind::kInv, "inv", {in},
                                 std::make_unique<PureDelayChannel>(20e-12));
    c->add_gate(GateKind::kAnd2, "out", {in, inv}, std::move(and_channel));
    return c;
  };
  const waveform::DigitalTrace stim(false, {1e-9});

  auto c_pure = build(std::make_unique<PureDelayChannel>(5e-12));
  const auto r_pure = c_pure->simulate({stim}, 0.0, 2e-9);
  EXPECT_EQ(r_pure.trace(c_pure->find_net("out")).n_transitions(), 2u);

  auto c_inertial = build(std::make_unique<InertialChannel>(30e-12, 30e-12));
  const auto r_inertial = c_inertial->simulate({stim}, 0.0, 2e-9);
  EXPECT_EQ(r_inertial.trace(c_inertial->find_net("out")).n_transitions(),
            0u);
}

TEST(Circuit, MisAwareNorInsideCircuit) {
  const auto params = core::GateParams::nor2_reference();
  Circuit c;
  const auto a = c.add_input("a");
  const auto b = c.add_input("b");
  const auto out =
      c.add_mis_gate(GateKind::kNor2, "out", {a, b},
                     std::make_unique<HybridGateChannel>(params));
  // Simultaneous rising inputs: Charlie speed-up vs. lone input.
  const waveform::DigitalTrace both(false, {1e-9});
  const auto r_both = c.simulate({both, both}, 0.0, 2e-9);
  const double t_both = r_both.trace(out).transitions().at(0);

  Circuit c2;
  const auto a2 = c2.add_input("a");
  const auto b2 = c2.add_input("b");
  const auto out2 =
      c2.add_mis_gate(GateKind::kNor2, "out", {a2, b2},
                      std::make_unique<HybridGateChannel>(params));
  const waveform::DigitalTrace lone(false, {1e-9});
  const waveform::DigitalTrace quiet(false, {});
  const auto r_lone = c2.simulate({lone, quiet}, 0.0, 2e-9);
  const double t_lone = r_lone.trace(out2).transitions().at(0);
  EXPECT_LT(t_both, t_lone - 5e-12);
}

TEST(Circuit, TwoStageNorChain) {
  // NOR(a,b) -> NOR(x, c): event propagation across MIS-aware stages.
  const auto params = core::GateParams::nor2_reference();
  Circuit c;
  const auto a = c.add_input("a");
  const auto b = c.add_input("b");
  const auto cc = c.add_input("c");
  const auto x =
      c.add_mis_gate(GateKind::kNor2, "x", {a, b},
                     std::make_unique<HybridGateChannel>(params));
  const auto y =
      c.add_mis_gate(GateKind::kNor2, "y", {x, cc},
                     std::make_unique<HybridGateChannel>(params));
  // a=b=0 initially -> x=1 -> y=0 (c=0). A rises: x falls, y rises.
  const waveform::DigitalTrace sa(false, {1e-9});
  const waveform::DigitalTrace quiet(false, {});
  const auto r = c.simulate({sa, quiet, quiet}, 0.0, 3e-9);
  ASSERT_EQ(r.trace(x).n_transitions(), 1u);
  ASSERT_EQ(r.trace(y).n_transitions(), 1u);
  EXPECT_FALSE(r.trace(x).is_rising(0));
  EXPECT_TRUE(r.trace(y).is_rising(0));
  EXPECT_GT(r.trace(y).transitions()[0], r.trace(x).transitions()[0]);
}

TEST(Circuit, WindowBoundarySemantics) {
  // The event window is (t_begin, t_end]: a stimulus transition at exactly
  // t_begin is folded into the steady-state initialization (value_at
  // includes it), not replayed as an event.
  Circuit c;
  const auto in = c.add_input("in");
  const auto out = c.add_gate(GateKind::kInv, "out", {in},
                              std::make_unique<PureDelayChannel>(10e-12));
  const waveform::DigitalTrace stim(false, {1e-9, 2e-9});
  const auto result = c.simulate({stim}, 1e-9, 3e-9);
  // The rising edge at exactly t_begin = 1 ns is initial state: input
  // starts high, inverter starts low, and no transition is recorded for it.
  EXPECT_TRUE(result.trace(in).initial_value());
  EXPECT_EQ(result.trace(in).n_transitions(), 1u);  // only the 2 ns edge
  EXPECT_FALSE(result.trace(out).initial_value());
  ASSERT_EQ(result.trace(out).n_transitions(), 1u);
  EXPECT_NEAR(result.trace(out).transitions()[0], 2e-9 + 10e-12, 1e-15);

  // A transition at exactly t_end is still an event; its delayed gate
  // response past t_end is dropped.
  Circuit c2;
  const auto in2 = c2.add_input("in");
  c2.add_gate(GateKind::kInv, "out", {in2},
              std::make_unique<PureDelayChannel>(10e-12));
  const auto r2 = c2.simulate({stim}, 0.0, 2e-9);
  EXPECT_EQ(r2.trace(in2).n_transitions(), 2u);
  EXPECT_EQ(r2.trace(c2.find_net("out")).n_transitions(), 1u);
}

TEST(Circuit, ValidationErrors) {
  Circuit c;
  const auto in = c.add_input("in");
  EXPECT_THROW(c.add_input("in"), ConfigError);  // duplicate name
  EXPECT_THROW(c.find_net("nope"), ConfigError);
  // Wrong stimulus count.
  c.add_gate(GateKind::kInv, "out", {in},
             std::make_unique<PureDelayChannel>(1e-12));
  EXPECT_THROW(c.simulate({}, 0.0, 1e-9), AssertionError);
}

void expect_same_trace(const waveform::DigitalTrace& got,
                       const waveform::DigitalTrace& want) {
  EXPECT_EQ(got.initial_value(), want.initial_value());
  ASSERT_EQ(got.n_transitions(), want.n_transitions());
  for (std::size_t k = 0; k < got.n_transitions(); ++k) {
    EXPECT_EQ(got.transitions()[k], want.transitions()[k]) << "edge " << k;
  }
}

TEST(CircuitStructure, GateReadingOneNetOnTwoPortsActsAsAnInverter) {
  // NAND2(y, a, a) puts two fan-out entries for one net->gate pair; the
  // first port update leaves NAND(1, 0) = 1, the second flips the gate.
  const waveform::DigitalTrace stim(false, {1e-9, 2e-9, 2.004e-9});
  for (const bool inertial : {false, true}) {
    auto channel = [&]() -> std::unique_ptr<SisChannel> {
      if (inertial) return std::make_unique<InertialChannel>(7e-12, 7e-12);
      return std::make_unique<PureDelayChannel>(10e-12);
    };
    Circuit nand;
    const auto a = nand.add_input("a");
    const auto y = nand.add_gate(GateKind::kNand2, "y", {a, a}, channel());
    Circuit inv;
    const auto ia = inv.add_input("a");
    const auto iy = inv.add_gate(GateKind::kInv, "y", {ia}, channel());
    const auto r_nand = nand.simulate({stim}, 0.0, 3e-9);
    const auto r_inv = inv.simulate({stim}, 0.0, 3e-9);
    expect_same_trace(r_nand.trace(y), r_inv.trace(iy));
    EXPECT_EQ(r_nand.n_events, r_inv.n_events);
  }
}

TEST(CircuitStructure, HybridNor3WithARepeatedInput) {
  // NOR3(x, a, b, a): one stimulus edge on `a` switches ports 0 and 2 at
  // the same instant, in port order -- exactly what a third net carrying a
  // copy of a's stimulus does. A NAND2(y, x, x) reads the result.
  const auto build = [](bool shared) {
    auto c = std::make_unique<Circuit>();
    const auto a = c->add_input("a");
    const auto b = c->add_input("b");
    const auto third = shared ? a : c->add_input("a_copy");
    const auto x = c->add_mis_gate(
        GateKind::kNor3, "x", {a, b, third},
        std::make_unique<HybridGateChannel>(
            core::GateParams::nor3_reference()));
    c->add_gate(GateKind::kNand2, "y", {x, x},
                std::make_unique<PureDelayChannel>(10e-12));
    return c;
  };
  const waveform::DigitalTrace sa(false, {1e-9, 1.6e-9, 3e-9, 3.01e-9});
  const waveform::DigitalTrace sb(false, {1.3e-9, 2.5e-9});
  auto shared = build(true);
  auto copied = build(false);
  const auto r = shared->simulate({sa, sb}, 0.0, 5e-9);
  const auto r_copy = copied->simulate({sa, sb, sa}, 0.0, 5e-9);

  // Recorded engine output: x falls once a rises, rises once b falls; the
  // 10 ps pulse on a at 3 ns is absorbed by the pure delay.
  const auto& x = r.trace(shared->find_net("x"));
  EXPECT_TRUE(x.initial_value());
  ASSERT_EQ(x.n_transitions(), 2u);
  EXPECT_NEAR(x.transitions()[0], 1.0280301351552569e-09, 1e-18);
  EXPECT_NEAR(x.transitions()[1], 2.5758164666980365e-09, 1e-18);
  const auto& y = r.trace(shared->find_net("y"));
  EXPECT_FALSE(y.initial_value());
  ASSERT_EQ(y.n_transitions(), 2u);
  EXPECT_EQ(y.transitions()[0], x.transitions()[0] + 10e-12);
  EXPECT_EQ(y.transitions()[1], x.transitions()[1] + 10e-12);
  EXPECT_EQ(r.n_events, 10);

  expect_same_trace(x, r_copy.trace(copied->find_net("x")));
  expect_same_trace(y, r_copy.trace(copied->find_net("y")));
}

TEST(CircuitStructure, GateAddedAfterASimulationIsLive) {
  Circuit c;
  const auto in = c.add_input("in");
  const auto inv = c.add_gate(GateKind::kInv, "inv", {in},
                              std::make_unique<PureDelayChannel>(10e-12));
  const waveform::DigitalTrace stim(false, {1e-9, 2e-9});
  const auto first = c.simulate({stim}, 0.0, 3e-9);

  // New readers of an existing internal net and of the primary input.
  const auto buf = c.add_gate(GateKind::kBuf, "buf", {inv},
                              std::make_unique<PureDelayChannel>(5e-12));
  const auto nor = c.add_gate(GateKind::kNor2, "nor", {in, buf},
                              std::make_unique<PureDelayChannel>(5e-12));
  const auto second = c.simulate({stim}, 0.0, 3e-9);
  expect_same_trace(second.trace(inv), first.trace(inv));
  const auto& b = second.trace(buf);
  EXPECT_TRUE(b.initial_value());
  ASSERT_EQ(b.n_transitions(), 2u);
  EXPECT_EQ(b.transitions()[0], first.trace(inv).transitions()[0] + 5e-12);
  EXPECT_EQ(b.transitions()[1], first.trace(inv).transitions()[1] + 5e-12);
  // NOR(in, buf) with buf a delayed !in: low, except for the hazard
  // between `in` falling at 2 ns and buf rising 15 ps later.
  const auto& n = second.trace(nor);
  EXPECT_FALSE(n.initial_value());
  ASSERT_EQ(n.n_transitions(), 2u);
  EXPECT_EQ(n.transitions()[0], 2e-9 + 5e-12);
  EXPECT_EQ(n.transitions()[1], b.transitions()[1] + 5e-12);
}

// Drive a channel through a fixed script, firing every due event before
// the next input and draining the queue at the end. Returns what fired.
template <typename Channel, typename Init, typename Input>
std::vector<PendingEvent> replay(Channel& ch, Init&& init, Input&& input,
                                 const std::vector<double>& times) {
  std::vector<PendingEvent> fired;
  init(ch);
  const auto fire_until = [&](double t_limit) {
    for (auto p = ch.pending(); p.has_value() && p->t < t_limit;
         p = ch.pending()) {
      ch.on_fire(*p);
      fired.push_back(*p);
    }
  };
  for (std::size_t k = 0; k < times.size(); ++k) {
    fire_until(times[k]);
    input(ch, k, times[k]);
  }
  fire_until(1.0);
  return fired;
}

void expect_same_events(const std::vector<PendingEvent>& got,
                        const std::vector<PendingEvent>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].t, want[k].t) << "event " << k;
    EXPECT_EQ(got[k].value, want[k].value) << "event " << k;
  }
}

TEST(CircuitStructure, HybridChannelReinitializedWithQueuedCrossings) {
  // A budget-tripped run leaves committed crossings queued in the channel;
  // the next run's initialize must drop them.
  const auto params = core::GateParams::nor2_reference();
  HybridGateChannel used(params);
  used.initialize(0.0, {false, false});
  used.on_input(1e-9, 0, true);
  const auto fall = used.pending();
  ASSERT_TRUE(fall.has_value());
  used.on_input(fall->t - 5e-12, 0, false);  // commits `fall`
  ASSERT_TRUE(used.pending().has_value());
  EXPECT_EQ(used.pending()->t, fall->t);

  const auto init = [](HybridGateChannel& ch) {
    ch.initialize(0.0, {false, false});
  };
  const auto input = [](HybridGateChannel& ch, std::size_t k, double t) {
    ch.on_input(t, static_cast<int>(k % 2), k % 4 < 2);
  };
  const std::vector<double> times = {1e-9, 1.005e-9, 2e-9, 2.01e-9};
  HybridGateChannel fresh(params);
  const auto want = replay(fresh, init, input, times);
  ASSERT_FALSE(want.empty());
  expect_same_events(replay(used, init, input, times), want);
}

TEST(CircuitStructure, WireChannelReinitializedWithQueuedCrossings) {
  const auto tables =
      wire::WireModeTables::make(wire::WireParams::reference());
  WireChannel used(tables);
  used.initialize(0.0, false);
  used.on_input(100e-12, true);
  const auto rising = used.pending();
  ASSERT_TRUE(rising.has_value());
  used.on_input(rising->t + 5e-12, false);  // commits `rising`
  ASSERT_TRUE(used.pending().has_value());
  EXPECT_EQ(used.pending()->t, rising->t);

  const auto init = [](WireChannel& ch) { ch.initialize(0.0, false); };
  const auto input = [](WireChannel& ch, std::size_t k, double t) {
    ch.on_input(t, k % 2 == 0);
  };
  const std::vector<double> times = {100e-12, 400e-12, 900e-12, 1.4e-9};
  WireChannel fresh(tables);
  const auto want = replay(fresh, init, input, times);
  ASSERT_FALSE(want.empty());
  expect_same_events(replay(used, init, input, times), want);
}

TEST(CircuitStructure, RunAfterABudgetTripMatchesAFreshCircuit) {
  // The engine-level form of the two tests above: trip a run early, then
  // rerun the same circuit to completion.
  const auto build = [] {
    auto c = std::make_unique<Circuit>();
    const auto a = c->add_input("a");
    const auto b = c->add_input("b");
    const auto x = c->add_mis_gate(
        GateKind::kNor2, "x", {a, b},
        std::make_unique<HybridGateChannel>(
            core::GateParams::nor2_reference()));
    c->add_gate(GateKind::kBuf, "w", {x},
                std::make_unique<WireChannel>(wire::WireParams::reference()));
    return c;
  };
  const waveform::DigitalTrace sa(false, {1e-9, 1.02e-9, 2e-9, 2.03e-9});
  const waveform::DigitalTrace sb(false, {1.01e-9, 3e-9});
  auto fresh = build();
  const auto want = fresh->simulate({sa, sb}, 0.0, 5e-9);
  auto tripped = build();
  RunBudget budget;
  budget.max_events = 3;
  const auto partial = tripped->simulate({sa, sb}, 0.0, 5e-9, budget);
  EXPECT_EQ(partial.status, RunStatus::kBudgetExhausted);
  const auto got = tripped->simulate({sa, sb}, 0.0, 5e-9);
  EXPECT_EQ(got.n_events, want.n_events);
  for (const char* net : {"a", "b", "x", "w"}) {
    SCOPED_TRACE(net);
    expect_same_trace(got.trace(tripped->find_net(net)),
                      want.trace(fresh->find_net(net)));
  }
}

}  // namespace
}  // namespace charlie::sim
