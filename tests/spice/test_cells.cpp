#include "spice/cells.hpp"

#include <gtest/gtest.h>

#include "spice/characterize.hpp"
#include "util/error.hpp"
#include "waveform/digitize.hpp"

namespace charlie::spice {
namespace {

TEST(Cells, Nor2NodeNaming) {
  Netlist nl;
  const Technology tech = Technology::freepdk15_like();
  const auto nodes = build_nor2(nl, tech, "g1_");
  EXPECT_EQ(nl.node_name(nodes.a), "g1_a");
  EXPECT_EQ(nl.node_name(nodes.o), "g1_o");
  EXPECT_TRUE(nl.has_node("g1_n"));
  EXPECT_TRUE(nl.has_node("vdd"));
}

TEST(Cells, Nor2FunctionalSimulation) {
  // Drive all four input states in sequence and check the digitized output
  // follows NOR.
  const Technology tech = Technology::freepdk15_like();
  // a: 0 0 1 1, b: 0 1 0 1, each phase 500 ps.
  const waveform::DigitalTrace a(false, {1000e-12});
  const waveform::DigitalTrace b(false, {500e-12, 1000e-12, 1500e-12});
  const auto sim = run_nor2(tech, a, b, 2200e-12, TransientOptions{});
  const auto out = waveform::digitize(sim.vo, tech.vth());
  // Phases: (0,0)->1, (0,1)->0, (1,0)->0, (1,1)->0. Output: high then low
  // (with a possible glitch near 1000 ps where b falls as a rises).
  EXPECT_TRUE(out.initial_value());
  ASSERT_GE(out.n_transitions(), 1u);
  EXPECT_FALSE(out.is_rising(0));
  EXPECT_NEAR(out.transitions()[0], 500e-12, 60e-12);
  EXPECT_FALSE(out.final_value());
}

TEST(Cells, Nand2FunctionalSimulation) {
  const Technology tech = Technology::freepdk15_like();
  Netlist nl;
  const auto nand = build_nand2(nl, tech);
  nl.add_vsource(nand.vdd, kGround, tech.vdd);
  waveform::EdgeParams edges;
  edges.v_high = tech.vdd;
  edges.rise_time = tech.input_rise_time;
  // a rises at 300 ps while b is high: output must fall.
  const waveform::DigitalTrace a(false, {300e-12});
  const waveform::DigitalTrace b(true, {});
  nl.add_vsource_pwl(nand.a, kGround,
                     waveform::slew_limited_waveform(a, edges, 0.0, 1e-9));
  nl.add_vsource_pwl(nand.b, kGround,
                     waveform::slew_limited_waveform(b, edges, 0.0, 1e-9));
  TransientOptions opts;
  opts.t_end = 1e-9;
  const auto r = transient_analysis(nl, {"o"}, opts);
  const auto out = waveform::digitize(r.wave("o"), tech.vth());
  EXPECT_TRUE(out.initial_value());
  ASSERT_EQ(out.n_transitions(), 1u);
  EXPECT_GT(out.transitions()[0], 300e-12);
}

TEST(Cells, InverterLoadAffectsDelay) {
  Technology light = Technology::freepdk15_like();
  Technology heavy = light;
  heavy.c_output = 3.0 * light.c_output;
  auto delay_of = [](const Technology& tech) {
    Netlist nl;
    const auto inv = build_inverter(nl, tech);
    nl.add_vsource(inv.vdd, kGround, tech.vdd);
    waveform::EdgeParams edges;
    edges.v_high = tech.vdd;
    edges.rise_time = tech.input_rise_time;
    const waveform::DigitalTrace step_trace(false, {300e-12});
    nl.add_vsource_pwl(inv.in, kGround, waveform::slew_limited_waveform(
                                            step_trace, edges, 0.0, 1.5e-9));
    TransientOptions opts;
    opts.t_end = 1.5e-9;
    const auto r = transient_analysis(nl, {"out"}, opts);
    const auto out = waveform::digitize(r.wave("out"), tech.vth());
    return out.transitions().at(0) - 300e-12;
  };
  EXPECT_GT(delay_of(heavy), 1.8 * delay_of(light));
}

TEST(Cells, TechnologyValidation) {
  Technology t = Technology::freepdk15_like();
  EXPECT_NO_THROW(t.validate());
  t.c_output = 0.0;
  EXPECT_THROW(t.validate(), charlie::AssertionError);
  t = Technology::coupling_heavy();
  EXPECT_NO_THROW(t.validate());
  EXPECT_GT(t.c_gd, Technology::freepdk15_like().c_gd);
}

}  // namespace
}  // namespace charlie::spice
