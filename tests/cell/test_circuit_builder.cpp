// sim::CircuitBuilder semantics: netlist validation (unknown cell, arity
// mismatch, duplicate/undriven nets, cycles), topological instantiation
// order, and the guarantee that hand-wiring NOR2 gates through
// Circuit::add_mis_gate + HybridGateChannel is bit-identical to the
// builder + CellLibrary path.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "cell/cell_library.hpp"
#include "cell/netlist.hpp"
#include "core/gate_params.hpp"
#include "sim/circuit.hpp"
#include "sim/circuit_builder.hpp"
#include "sim/hybrid_gate_channel.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "waveform/generator.hpp"

namespace charlie {
namespace {

sim::CircuitBuilder reference_builder() {
  return sim::CircuitBuilder(cell::CellLibrary::reference());
}

TEST(CircuitBuilder, BuildsAValidatedCircuit) {
  const auto circuit = reference_builder().build_text(
      "input(a, b, c)\n"
      "NOR2(x, a, b)\n"
      "NAND3(y, x, b, c)\n"
      "INV(z, y)\n");
  EXPECT_EQ(circuit->n_inputs(), 3u);
  EXPECT_EQ(circuit->n_gates(), 3u);
  EXPECT_EQ(circuit->n_nets(), 6u);
  EXPECT_NO_THROW(circuit->find_net("z"));
}

TEST(CircuitBuilder, InstancesMayAppearInAnyOrder) {
  // z depends on y which depends on x; the netlist lists them backwards.
  const auto circuit = reference_builder().build_text(
      "input(a, b)\n"
      "INV(z, y)\n"
      "NAND2(y, x, b)\n"
      "NOR2(x, a, b)\n");
  EXPECT_EQ(circuit->n_gates(), 3u);
  // The circuit simulates correctly despite the declaration order.
  const waveform::DigitalTrace step(false, {1e-9});
  const waveform::DigitalTrace quiet(false, {});
  const auto result = circuit->simulate({step, quiet}, 0.0, 3e-9);
  EXPECT_GE(result.n_events, 1);
}

// Validation runs once, ahead of every consumer: build(), build_sharded()
// and analyze_topology() must reject a bad netlist with the same message.
// Returns that message ("" and a test failure when nothing threw).
std::string rejection(const cell::NetlistDesc& desc) {
  const auto builder = reference_builder();
  const auto message_of = [&](const auto& attempt) -> std::string {
    try {
      attempt();
    } catch (const ConfigError& e) {
      return e.what();
    }
    ADD_FAILURE() << "expected ConfigError";
    return "";
  };
  const std::string built = message_of([&] { builder.build(desc); });
  EXPECT_EQ(message_of([&] { builder.build_sharded(desc, 2); }), built);
  EXPECT_EQ(message_of([&] { builder.analyze_topology(desc); }), built);
  return built;
}

std::string rejection(const std::string& netlist_text) {
  return rejection(cell::parse_netlist(netlist_text));
}

bool mentions(const std::string& message, const std::string& what) {
  return message.find(what) != std::string::npos;
}

TEST(CircuitBuilder, RejectsUnknownCell) {
  const std::string why = rejection("input(a)\nFROB(x, a)\n");
  EXPECT_TRUE(mentions(why, "unknown cell")) << why;
  EXPECT_TRUE(mentions(why, "line 2")) << why;
}

TEST(CircuitBuilder, RejectsArityMismatch) {
  const std::string why = rejection("input(a, b, c)\nNOR2(x, a, b, c)\n");
  EXPECT_TRUE(mentions(why, "takes 2 inputs, got 3")) << why;
  EXPECT_TRUE(
      mentions(rejection("input(a)\nNAND3(x, a)\n"), "takes 3 inputs, got 1"));
}

TEST(CircuitBuilder, RejectsDuplicateNets) {
  // Two gates driving the same net.
  EXPECT_TRUE(mentions(rejection("input(a, b)\nINV(x, a)\nINV(x, b)\n"),
                       "net \"x\" is defined twice"));
  // A gate driving a primary input.
  EXPECT_TRUE(mentions(rejection("input(a, b)\nINV(b, a)\n"),
                       "net \"b\" is defined twice"));
  // A wire driving a gate's output net.
  const std::string why = rejection(
      "input(a)\nINV(x, a)\nWIRE(x, a, r=1e3, c=1e-15)\n");
  EXPECT_TRUE(mentions(why, "WIRE(x, a)")) << why;
  EXPECT_TRUE(mentions(why, "net \"x\" is defined twice")) << why;
  // The same primary input twice (caught by the parser for single
  // declarations; the builder re-checks for hand-built descs).
  cell::NetlistDesc desc;
  desc.inputs = {"a", "a"};
  EXPECT_TRUE(mentions(rejection(desc), "primary input \"a\" declared twice"));
}

TEST(CircuitBuilder, RejectsUndrivenNets) {
  // A gate input.
  EXPECT_TRUE(mentions(rejection("input(a)\nNOR2(x, a, ghost)\n"),
                       "input net \"ghost\" is driven by no gate"));
  // A wire input.
  const std::string why =
      rejection("input(a)\nINV(x, a)\nWIRE(y, ghost, r=1e3, c=1e-15)\n");
  EXPECT_TRUE(mentions(why, "WIRE(y, ghost)")) << why;
  EXPECT_TRUE(mentions(why, "input net \"ghost\" is driven by no gate")) << why;
  // A declared primary output.
  EXPECT_TRUE(mentions(rejection("input(a)\nINV(x, a)\noutput(x, ghost)\n"),
                       "declared primary output \"ghost\" is driven by no "
                       "gate, wire, or primary input"));
}

TEST(CircuitBuilder, RejectsCombinationalCycles) {
  // x -> y -> x.
  EXPECT_TRUE(mentions(rejection("input(a)\n"
                                 "NOR2(x, a, y)\n"
                                 "NOR2(y, a, x)\n"),
                       "combinational cycle through net \"x\""));
  // Self-loop.
  EXPECT_TRUE(mentions(rejection("input(a)\nNAND2(x, a, x)\n"), "cycle"));
  // Through a wire.
  EXPECT_TRUE(mentions(
      rejection("input(a)\nNOR2(x, a, xw)\nWIRE(xw, x, r=1e3, c=1e-15)\n"),
      "combinational cycle through net \"x\""));
}

// --- deprecation hygiene: old API vs builder API bit-identity -------------

TEST(CircuitBuilder, LegacyAddNor2MisIsBitIdenticalToBuilderPath) {
  const auto params = core::GateParams::nor2_reference();

  // Low-level API: hand-wired NOR2 chain of HybridGateChannel instances.
  sim::Circuit old_circuit;
  {
    const auto a = old_circuit.add_input("a");
    const auto b = old_circuit.add_input("b");
    const auto x = old_circuit.add_mis_gate(
        sim::GateKind::kNor2, "x", {a, b},
        std::make_unique<sim::HybridGateChannel>(params));
    old_circuit.add_mis_gate(sim::GateKind::kNor2, "y", {x, b},
                             std::make_unique<sim::HybridGateChannel>(params));
  }

  // Builder API: the same topology from a netlist against the reference
  // library, whose NOR2 is GateParams::nor2_reference() ==
  // from_nor(paper_table1).
  const auto new_circuit = reference_builder().build_text(
      "input(a, b)\nNOR2(x, a, b)\nNOR2(y, x, b)\n");

  util::Rng rng(2024);
  waveform::TraceConfig config;
  config.mu = 140e-12;
  config.sigma = 70e-12;
  config.n_transitions = 200;
  const auto stimuli = waveform::generate_traces(config, 2, rng);
  const double t_end = 200 * 300e-12;

  const auto old_result = old_circuit.simulate(stimuli, 0.0, t_end);
  const auto new_result = new_circuit->simulate(stimuli, 0.0, t_end);

  ASSERT_EQ(old_result.n_events, new_result.n_events);
  for (const char* net : {"x", "y"}) {
    const auto& old_trace = old_result.trace(old_circuit.find_net(net));
    const auto& new_trace = new_result.trace(new_circuit->find_net(net));
    EXPECT_EQ(old_trace.initial_value(), new_trace.initial_value()) << net;
    // Bit-identical: the exact same crossing times, not just close ones.
    EXPECT_EQ(old_trace.transitions(), new_trace.transitions()) << net;
  }
}

}  // namespace
}  // namespace charlie
