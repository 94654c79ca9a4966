// VCD export/parse lock: write_vcd output must round-trip through
// parse_vcd with edges preserved to the timescale quantum, stay free of
// nondeterministic header fields, and reject structurally broken input.
#include "waveform/vcd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "support/vcd_parse.hpp"
#include "util/error.hpp"

namespace charlie::waveform {
namespace {

std::string dump(const std::vector<VcdDigitalSignal>& digital,
                 const std::vector<VcdAnalogSignal>& analog = {},
                 const VcdOptions& options = {}) {
  std::ostringstream os;
  write_vcd(os, digital, analog, options);
  return os.str();
}

TEST(Vcd, HeaderShape) {
  DigitalTrace a(false, {100e-12, 250e-12});
  DigitalTrace b(true, {180e-12});
  const std::string text = dump({{"net_a", &a}, {"net_b", &b}});
  EXPECT_NE(text.find("$timescale 1 fs $end"), std::string::npos);
  EXPECT_NE(text.find("$scope module charlie $end"), std::string::npos);
  EXPECT_NE(text.find("$var wire 1 ! net_a $end"), std::string::npos);
  EXPECT_NE(text.find("$var wire 1 \" net_b $end"), std::string::npos);
  EXPECT_NE(text.find("$enddefinitions $end"), std::string::npos);
  // Initial values dumped at time zero.
  EXPECT_NE(text.find("$dumpvars\n0!\n1\"\n$end"), std::string::npos);
  // Deliberately no $date: output must be bit-identical across runs.
  EXPECT_EQ(text.find("$date"), std::string::npos);
  EXPECT_EQ(text, dump({{"net_a", &a}, {"net_b", &b}}));
}

TEST(Vcd, RoundTripPreservesEdges) {
  DigitalTrace a(false, {100e-12, 250.5e-12, 600e-12});
  DigitalTrace b(true, {90e-12, 91e-12});
  DigitalTrace quiet(true, {});
  std::istringstream is(
      dump({{"a", &a}, {"b", &b}, {"quiet", &quiet}}));
  const VcdData parsed = parse_vcd(is);
  EXPECT_DOUBLE_EQ(parsed.timescale, 1e-15);
  ASSERT_EQ(parsed.digital.size(), 3u);
  for (const auto* pair :
       {&*parsed.digital.find("a"), &*parsed.digital.find("b"),
        &*parsed.digital.find("quiet")}) {
    const DigitalTrace& source =
        pair->first == "a" ? a : (pair->first == "b" ? b : quiet);
    const DigitalTrace& round = pair->second;
    EXPECT_EQ(round.initial_value(), source.initial_value()) << pair->first;
    ASSERT_EQ(round.n_transitions(), source.n_transitions()) << pair->first;
    for (std::size_t i = 0; i < source.n_transitions(); ++i) {
      // Quantized to the nearest 1 fs tick.
      EXPECT_NEAR(round.transitions()[i], source.transitions()[i], 0.5e-15)
          << pair->first << " edge " << i;
    }
    EXPECT_EQ(round.final_value(), source.final_value()) << pair->first;
  }
}

TEST(Vcd, CoarseTimescaleQuantizes) {
  DigitalTrace a(false, {100e-12, 200e-12});
  VcdOptions options;
  options.timescale = 1e-12;
  const std::string text = dump({{"a", &a}}, {}, options);
  EXPECT_NE(text.find("$timescale 1 ps $end"), std::string::npos);
  EXPECT_NE(text.find("#100\n"), std::string::npos);
  EXPECT_NE(text.find("#200\n"), std::string::npos);
  std::istringstream is(text);
  const VcdData parsed = parse_vcd(is);
  EXPECT_DOUBLE_EQ(parsed.timescale, 1e-12);
  EXPECT_DOUBLE_EQ(parsed.digital.at("a").transitions()[0], 100e-12);
}

TEST(Vcd, SubTickPulseCancelsOnParse) {
  // Two edges 0.4 fs apart land on one 1 fs tick; the parser cancels the
  // pair (DigitalTrace requires strictly increasing transition times) --
  // exactly what an ideal 1 fs sampler would see.
  DigitalTrace a(false, {100e-15, 100.4e-15, 500e-15});
  std::istringstream is(dump({{"a", &a}}));
  const VcdData parsed = parse_vcd(is);
  const DigitalTrace& round = parsed.digital.at("a");
  EXPECT_EQ(round.initial_value(), false);
  ASSERT_EQ(round.n_transitions(), 1u);
  EXPECT_NEAR(round.transitions()[0], 500e-15, 0.5e-15);
  EXPECT_EQ(round.final_value(), a.final_value());
}

TEST(Vcd, AnalogSignalsAreWrittenAndSkippedByParser) {
  DigitalTrace a(false, {100e-12});
  VcdAnalogSignal analog;
  analog.name = "v_out";
  analog.samples = {{0.0, 0.05}, {50e-12, 0.61}, {100e-12, 1.19}};
  const std::string text = dump({{"a", &a}}, {analog});
  EXPECT_NE(text.find("$var real 64 \" v_out $end"), std::string::npos);
  EXPECT_NE(text.find("r0.050000000000000003 \""), std::string::npos);
  std::istringstream is(text);
  const VcdData parsed = parse_vcd(is);
  // Digital content survives; the real var is consumed but not returned.
  EXPECT_EQ(parsed.digital.size(), 1u);
  EXPECT_EQ(parsed.digital.count("v_out"), 0u);
  EXPECT_EQ(parsed.digital.at("a").n_transitions(), 1u);
}

TEST(Vcd, ParserAcceptsCompactTimescaleToken) {
  std::istringstream is(
      "$timescale 10ps $end\n"
      "$var wire 1 ! a $end\n"
      "$enddefinitions $end\n"
      "#0\n0!\n#7\n1!\n");
  const VcdData parsed = parse_vcd(is);
  EXPECT_DOUBLE_EQ(parsed.timescale, 1e-11);
  EXPECT_DOUBLE_EQ(parsed.digital.at("a").transitions()[0], 7e-11);
}

TEST(Vcd, ParserRejectsBrokenInput) {
  // Missing $timescale.
  {
    std::istringstream is("$enddefinitions $end\n");
    EXPECT_THROW(parse_vcd(is), ConfigError);
  }
  // Missing $enddefinitions.
  {
    std::istringstream is("$timescale 1 fs $end\n");
    EXPECT_THROW(parse_vcd(is), ConfigError);
  }
  // Value change for an id that was never declared.
  {
    std::istringstream is(
        "$timescale 1 fs $end\n$enddefinitions $end\n#0\n1?\n");
    EXPECT_THROW(parse_vcd(is), ConfigError);
  }
  // Multi-bit wires are outside the supported subset.
  {
    std::istringstream is(
        "$timescale 1 fs $end\n$var wire 8 ! bus $end\n"
        "$enddefinitions $end\n");
    EXPECT_THROW(parse_vcd(is), ConfigError);
  }
  // Vector value changes likewise.
  {
    std::istringstream is(
        "$timescale 1 fs $end\n$var wire 1 ! a $end\n"
        "$enddefinitions $end\n#0\nb101 !\n");
    EXPECT_THROW(parse_vcd(is), ConfigError);
  }
}

TEST(Vcd, ManySignalsGetDistinctIdCodes) {
  // Cross the base-94 rollover so two-character id codes appear.
  std::vector<DigitalTrace> traces(100, DigitalTrace(false, {}));
  std::vector<VcdDigitalSignal> digital;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    digital.push_back({"n" + std::to_string(i), &traces[i]});
  }
  std::istringstream is(dump(digital));
  const VcdData parsed = parse_vcd(is);
  EXPECT_EQ(parsed.digital.size(), digital.size());
}

}  // namespace
}  // namespace charlie::waveform
