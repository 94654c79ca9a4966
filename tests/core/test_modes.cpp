// The paper's four NOR2 modes (Section III B-E) as the n = 2 kNorLike
// instance of the N-input gate core: input A is bit 0 of the state, B bit 1.
#include "core/gate_modes.hpp"

#include <gtest/gtest.h>

#include "core/gate_mode_tables.hpp"
#include "util/error.hpp"

namespace charlie::core {
namespace {

constexpr GateState kS00 = 0b00;  // (A,B) = (0,0)
constexpr GateState kS10 = 0b01;  // (A,B) = (1,0)
constexpr GateState kS01 = 0b10;  // (A,B) = (0,1)
constexpr GateState kS11 = 0b11;  // (A,B) = (1,1)

ode::AffineOde2 nor2_ode(GateState s, const NorParams& p) {
  return gate_mode_ode(GateParams::from_nor(p), s);
}

ode::Vec2 nor2_steady_state(GateState s, const NorParams& p,
                            double vn_hold = 0.0) {
  return gate_mode_steady_state(GateParams::from_nor(p), s, vn_hold);
}

TEST(Modes, Names) {
  // Paper figure names (A,B): input A is printed first.
  EXPECT_EQ(gate_state_name(kS00, 2), "(0,0)");
  EXPECT_EQ(gate_state_name(kS11, 2), "(1,1)");
  EXPECT_EQ(gate_state_name(kS10, 2), "(1,0)");
  EXPECT_EQ(gate_state_name(kS01, 2), "(0,1)");
}

TEST(Modes, NorLogic) {
  constexpr auto kNor = GateTopology::kNorLike;
  EXPECT_TRUE(gate_mode_output(kNor, kS00, 2));
  EXPECT_FALSE(gate_mode_output(kNor, kS01, 2));
  EXPECT_FALSE(gate_mode_output(kNor, kS10, 2));
  EXPECT_FALSE(gate_mode_output(kNor, kS11, 2));
}

// The ODE right-hand sides transcribed from paper Section III B-E,
// evaluated symbolically against the gate_mode_ode matrices.
TEST(Modes, System11MatchesPaper) {
  const auto p = NorParams::paper_table1();
  const auto sys = nor2_ode(kS11, p);
  // CN dVN/dt = 0; CO dVO/dt = -VO (1/R3 + 1/R4).
  const ode::Vec2 d = sys.derivative({0.5, 0.6});
  EXPECT_DOUBLE_EQ(d.x, 0.0);
  EXPECT_NEAR(d.y, -0.6 * (1.0 / p.r3 + 1.0 / p.r4) / p.co, 1e-3);
  EXPECT_FALSE(sys.has_equilibrium());  // V_N frozen: singular matrix
}

TEST(Modes, System10MatchesPaper) {
  const auto p = NorParams::paper_table1();
  const auto sys = nor2_ode(kS10, p);
  const double vn = 0.7;
  const double vo = 0.3;
  const ode::Vec2 d = sys.derivative({vn, vo});
  EXPECT_NEAR(d.x, -(vn - vo) / (p.r2 * p.cn), 1.0);
  EXPECT_NEAR(d.y, (-vo / p.r3 + (vn - vo) / p.r2) / p.co, 1.0);
}

TEST(Modes, System01MatchesPaper) {
  const auto p = NorParams::paper_table1();
  const auto sys = nor2_ode(kS01, p);
  const double vn = 0.1;
  const double vo = 0.6;
  const ode::Vec2 d = sys.derivative({vn, vo});
  EXPECT_NEAR(d.x, (p.vdd - vn) / (p.r1 * p.cn), 1.0);
  EXPECT_NEAR(d.y, -vo / (p.r4 * p.co), 1.0);
}

TEST(Modes, System00MatchesPaper) {
  const auto p = NorParams::paper_table1();
  const auto sys = nor2_ode(kS00, p);
  const double vn = 0.2;
  const double vo = 0.1;
  const ode::Vec2 d = sys.derivative({vn, vo});
  EXPECT_NEAR(d.x, ((p.vdd - vn) / p.r1 - (vn - vo) / p.r2) / p.cn, 1.0);
  EXPECT_NEAR(d.y, (vn - vo) / (p.r2 * p.co), 1.0);
}

TEST(Modes, SteadyStates) {
  const auto p = NorParams::paper_table1();
  // (0,0): both nodes charge to VDD.
  const auto s00 = nor2_steady_state(kS00, p);
  EXPECT_DOUBLE_EQ(s00.x, p.vdd);
  EXPECT_DOUBLE_EQ(s00.y, p.vdd);
  // (0,1): N charged, O drained.
  const auto s01 = nor2_steady_state(kS01, p);
  EXPECT_DOUBLE_EQ(s01.x, p.vdd);
  EXPECT_DOUBLE_EQ(s01.y, 0.0);
  // (1,0): both drained.
  const auto s10 = nor2_steady_state(kS10, p);
  EXPECT_DOUBLE_EQ(s10.x, 0.0);
  EXPECT_DOUBLE_EQ(s10.y, 0.0);
  // (1,1): V_N frozen at the supplied history value.
  const auto s11 = nor2_steady_state(kS11, p, 0.77);
  EXPECT_DOUBLE_EQ(s11.x, 0.77);
  EXPECT_DOUBLE_EQ(s11.y, 0.0);
}

TEST(Modes, SteadyStatesAreEquilibria) {
  const auto p = NorParams::paper_table1();
  for (GateState s : {kS00, kS01, kS10}) {
    const auto sys = nor2_ode(s, p);
    const auto ss = nor2_steady_state(s, p);
    const ode::Vec2 d = sys.derivative(ss);
    EXPECT_NEAR(d.x, 0.0, 1e-3) << gate_state_name(s, 2);  // volts/second
    EXPECT_NEAR(d.y, 0.0, 1e-3) << gate_state_name(s, 2);
  }
}

TEST(Modes, InvalidParamsRejected) {
  // gate_mode_ode itself does not validate (hot path); the tables'
  // construction does.
  NorParams p = NorParams::paper_table1();
  p.r3 = -1.0;
  EXPECT_THROW(GateModeTables tables(GateParams::from_nor(p)), ConfigError);
  p = NorParams::paper_table1();
  p.co = 0.0;
  EXPECT_THROW(GateModeTables::make(GateParams::from_nor(p)), ConfigError);
  p = NorParams::paper_table1();
  p.delta_min = -1e-12;
  EXPECT_THROW(p.validate(), ConfigError);
}

TEST(NorParamsTest, Table1Values) {
  const auto p = NorParams::paper_table1();
  EXPECT_DOUBLE_EQ(p.r1, 37.088e3);
  EXPECT_DOUBLE_EQ(p.r2, 44.926e3);
  EXPECT_DOUBLE_EQ(p.r3, 45.150e3);
  EXPECT_DOUBLE_EQ(p.r4, 48.761e3);
  EXPECT_DOUBLE_EQ(p.cn, 59.486e-18);
  EXPECT_DOUBLE_EQ(p.co, 617.259e-18);
  EXPECT_DOUBLE_EQ(p.delta_min, 18e-12);
  EXPECT_DOUBLE_EQ(p.vth(), 0.4);
}

TEST(NorParamsTest, ToStringContainsValues) {
  const auto s = NorParams::paper_table1().to_string();
  EXPECT_NE(s.find("45.150 kOhm"), std::string::npos);
  EXPECT_NE(s.find("617.259 aF"), std::string::npos);
  EXPECT_NE(s.find("18.000 ps"), std::string::npos);
}

}  // namespace
}  // namespace charlie::core
