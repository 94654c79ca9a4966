// Value Change Dump (IEEE 1364 §18) export of simulation traces.
//
// write_vcd() serializes DigitalTraces -- and optionally analog sample
// series such as a hybrid channel's (u, V_O) state -- into the standard
// VCD text format GTKWave and every other waveform viewer load directly.
// Times are quantized to an integer timescale (default 1 fs, comfortably
// below the engine's crossing-solve resolution), digital signals become
// 1-bit wires, analog series become $var real dumps.
//
// The tests read the output back with a minimal parser
// (tests/support/vcd_parse.hpp), which is how tests/waveform/test_vcd.cpp
// locks the format.
#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "waveform/digital_trace.hpp"

namespace charlie::waveform {

struct VcdDigitalSignal {
  std::string name;
  const DigitalTrace* trace = nullptr;  // borrowed; must outlive the call
};

struct VcdAnalogSignal {
  std::string name;
  /// Time-sorted (t, value) samples.
  std::vector<std::pair<double, double>> samples;
};

struct VcdOptions {
  /// Seconds per VCD time unit; transition times are rounded to the nearest
  /// tick. 1 fs keeps sub-ps crossing times to < 0.5 fs quantization error.
  double timescale = 1e-15;
  /// Name of the single $scope module wrapping all signals.
  std::string module = "charlie";
};

/// Write header + $dumpvars + time-ordered value changes. Signal names must
/// be unique; traces quantizing two transitions of one signal onto the same
/// tick keep both (the later change wins visually, as in any VCD).
void write_vcd(std::ostream& os, const std::vector<VcdDigitalSignal>& digital,
               const std::vector<VcdAnalogSignal>& analog = {},
               const VcdOptions& options = {});
void write_vcd(const std::string& path,
               const std::vector<VcdDigitalSignal>& digital,
               const std::vector<VcdAnalogSignal>& analog = {},
               const VcdOptions& options = {});

}  // namespace charlie::waveform
