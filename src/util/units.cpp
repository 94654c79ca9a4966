#include "util/units.hpp"

#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace charlie::units {
namespace {

struct Scale {
  double factor;
  const char* suffix;
};

// "<value> <suffix>" at `precision` decimals. A value that rounds to zero
// prints without a sign: "0.000 as", never "-0.000 as".
std::string print_scaled(double value, int precision, const char* suffix) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f %s", precision, value, suffix);
  const char* digits = buf + 1;
  const bool all_zero = std::strspn(digits, "0.") == std::strcspn(digits, " ");
  return buf[0] == '-' && all_zero ? digits : buf;
}

std::string format_scaled(double value, int precision,
                          const std::array<Scale, 7>& scales,
                          const char* base_suffix) {
  const double mag = std::fabs(value);
  if (mag == 0.0) return print_scaled(0.0, precision, base_suffix);
  for (const auto& s : scales) {
    if (mag >= s.factor) {
      return print_scaled(value / s.factor, precision, s.suffix);
    }
  }
  const auto& last = scales.back();
  return print_scaled(value / last.factor, precision, last.suffix);
}

}  // namespace

std::string format_time(double seconds_value, int precision) {
  static constexpr std::array<Scale, 7> scales{{{1.0, "s"},
                                                {1e-3, "ms"},
                                                {1e-6, "us"},
                                                {1e-9, "ns"},
                                                {1e-12, "ps"},
                                                {1e-15, "fs"},
                                                {1e-18, "as"}}};
  return format_scaled(seconds_value, precision, scales, "s");
}

std::string format_resistance(double ohms_value, int precision) {
  static constexpr std::array<Scale, 7> scales{{{1e9, "GOhm"},
                                                {1e6, "MOhm"},
                                                {1e3, "kOhm"},
                                                {1.0, "Ohm"},
                                                {1e-3, "mOhm"},
                                                {1e-6, "uOhm"},
                                                {1e-9, "nOhm"}}};
  return format_scaled(ohms_value, precision, scales, "Ohm");
}

std::string format_capacitance(double farads_value, int precision) {
  static constexpr std::array<Scale, 7> scales{{{1.0, "F"},
                                                {1e-3, "mF"},
                                                {1e-6, "uF"},
                                                {1e-9, "nF"},
                                                {1e-12, "pF"},
                                                {1e-15, "fF"},
                                                {1e-18, "aF"}}};
  return format_scaled(farads_value, precision, scales, "F");
}

std::string format_voltage(double volts_value, int precision) {
  static constexpr std::array<Scale, 7> scales{{{1e3, "kV"},
                                                {1.0, "V"},
                                                {1e-3, "mV"},
                                                {1e-6, "uV"},
                                                {1e-9, "nV"},
                                                {1e-12, "pV"},
                                                {1e-15, "fV"}}};
  return format_scaled(volts_value, precision, scales, "V");
}

}  // namespace charlie::units
