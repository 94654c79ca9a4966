// Minimal VCD reader for the tests: the inverse of waveform::write_vcd for
// the digital subset it emits (single flat scope, 1-bit wires, real vars
// ignored). Enough to round-trip the writer's output and diff edges
// against the source traces, which is how tests/waveform/test_vcd.cpp
// locks the format.
#pragma once

#include <iosfwd>
#include <map>
#include <string>

#include "waveform/digital_trace.hpp"

namespace charlie::waveform {

struct VcdData {
  double timescale = 1e-15;  // seconds per tick
  /// Digital signals by name; transition times are tick * timescale.
  std::map<std::string, DigitalTrace> digital;
};

/// Parse the digital subset write_vcd emits. Throws ConfigError on
/// structurally invalid input (unknown id codes, missing header sections).
VcdData parse_vcd(std::istream& is);

}  // namespace charlie::waveform
