#include "util/units.hpp"

#include <gtest/gtest.h>

namespace charlie::units {
namespace {

TEST(Units, TimeConstantsAreConsistent) {
  EXPECT_DOUBLE_EQ(1000.0 * ps, 1.0 * ns);
  EXPECT_DOUBLE_EQ(1000.0 * fs, 1.0 * ps);
  EXPECT_DOUBLE_EQ(1e12 * ps, second);
}

TEST(Units, ElectricalConstantsAreConsistent) {
  EXPECT_DOUBLE_EQ(1000.0 * ohm, kilo_ohm);
  EXPECT_DOUBLE_EQ(1000.0 * aF, fF);
  EXPECT_DOUBLE_EQ(1e6 * uA, ampere);
}

TEST(FormatTime, PicksEngineeringScale) {
  EXPECT_EQ(format_time(28.43e-12, 2), "28.43 ps");
  EXPECT_EQ(format_time(1.5e-9), "1.500 ns");
  EXPECT_EQ(format_time(0.0), "0.000 s");
  EXPECT_EQ(format_time(-5e-12, 0), "-5 ps");
}

TEST(FormatTime, TinyNegativeValuePrintsWithoutASign) {
  // Below the smallest scale a tiny negative value used to print as
  // "-0.000 as" (sta_report slacks on a generated 100k-gate netlist).
  EXPECT_EQ(format_time(-1e-22), "0.000 as");
  EXPECT_EQ(format_time(-4e-19, 0), "0 as");
  EXPECT_EQ(format_voltage(-1e-19), "0.000 fV");
  // A value that survives rounding keeps its sign.
  EXPECT_EQ(format_time(-6e-22), "-0.001 as");
  EXPECT_EQ(format_time(-6e-19, 0), "-1 as");
}

TEST(FormatResistance, PicksEngineeringScale) {
  EXPECT_EQ(format_resistance(45.15e3), "45.150 kOhm");
  EXPECT_EQ(format_resistance(2.0), "2.000 Ohm");
  EXPECT_EQ(format_resistance(3.3e6, 1), "3.3 MOhm");
}

TEST(FormatCapacitance, PicksEngineeringScale) {
  EXPECT_EQ(format_capacitance(617.259e-18), "617.259 aF");
  EXPECT_EQ(format_capacitance(1.2e-15, 1), "1.2 fF");
}

TEST(FormatVoltage, PicksEngineeringScale) {
  EXPECT_EQ(format_voltage(0.8), "800.000 mV");
  EXPECT_EQ(format_voltage(1.2, 1), "1.2 V");
}

}  // namespace
}  // namespace charlie::units
