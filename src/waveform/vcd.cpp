#include "waveform/vcd.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "util/error.hpp"

namespace charlie::waveform {

namespace {

// VCD id codes: shortest base-94 strings over the printable ASCII range
// '!'..'~', the same scheme real simulators emit.
std::string id_code(std::size_t index) {
  std::string id;
  do {
    id += static_cast<char>('!' + index % 94);
    index /= 94;
  } while (index > 0);
  return id;
}

long long to_tick(double t, double timescale) {
  return static_cast<long long>(std::llround(t / timescale));
}

// Timescale directive text: VCD only allows {1,10,100}{s..fs}; we emit the
// decade at or below the requested resolution and scale ticks accordingly.
struct Timescale {
  std::string text;
  double seconds;
};

Timescale timescale_directive(double requested) {
  static constexpr struct {
    const char* text;
    double seconds;
  } kScales[] = {
      {"1 s", 1.0},      {"100 ms", 1e-1},  {"10 ms", 1e-2},  {"1 ms", 1e-3},
      {"100 us", 1e-4},  {"10 us", 1e-5},   {"1 us", 1e-6},   {"100 ns", 1e-7},
      {"10 ns", 1e-8},   {"1 ns", 1e-9},    {"100 ps", 1e-10}, {"10 ps", 1e-11},
      {"1 ps", 1e-12},   {"100 fs", 1e-13}, {"10 fs", 1e-14}, {"1 fs", 1e-15},
  };
  for (const auto& scale : kScales) {
    if (requested >= scale.seconds * (1.0 - 1e-9)) {
      return {scale.text, scale.seconds};
    }
  }
  return {"1 fs", 1e-15};
}

struct Change {
  long long tick;
  std::size_t order;  // original emit order; stable tiebreak within a tick
  std::size_t signal; // index into the combined signal table
  bool is_real;
  bool bit;
  double real;
};

}  // namespace

void write_vcd(std::ostream& os, const std::vector<VcdDigitalSignal>& digital,
               const std::vector<VcdAnalogSignal>& analog,
               const VcdOptions& options) {
  const Timescale ts = timescale_directive(options.timescale);

  // Header. Deliberately no $date: output must be bit-identical across runs
  // (the determinism lint and the round-trip test both rely on it).
  os << "$version charlie write_vcd $end\n";
  os << "$timescale " << ts.text << " $end\n";
  os << "$scope module " << options.module << " $end\n";
  std::vector<std::string> ids;
  ids.reserve(digital.size() + analog.size());
  for (std::size_t i = 0; i < digital.size(); ++i) {
    ids.push_back(id_code(i));
    os << "$var wire 1 " << ids.back() << " " << digital[i].name << " $end\n";
  }
  for (std::size_t i = 0; i < analog.size(); ++i) {
    ids.push_back(id_code(digital.size() + i));
    os << "$var real 64 " << ids.back() << " " << analog[i].name << " $end\n";
  }
  os << "$upscope $end\n";
  os << "$enddefinitions $end\n";

  // Initial values at time 0.
  os << "$dumpvars\n";
  char real_buffer[64];
  for (std::size_t i = 0; i < digital.size(); ++i) {
    const bool v0 = digital[i].trace != nullptr && digital[i].trace->initial_value();
    os << (v0 ? '1' : '0') << ids[i] << "\n";
  }
  for (std::size_t i = 0; i < analog.size(); ++i) {
    const double v0 = analog[i].samples.empty() ? 0.0 : analog[i].samples.front().second;
    std::snprintf(real_buffer, sizeof(real_buffer), "%.17g", v0);
    os << 'r' << real_buffer << ' ' << ids[digital.size() + i] << "\n";
  }
  os << "$end\n";

  // Gather all value changes, sort by (tick, emit order), emit grouped under
  // #tick markers. Changes landing on tick 0 still get a #0 group (after
  // $dumpvars), matching common simulator output.
  std::vector<Change> changes;
  for (std::size_t i = 0; i < digital.size(); ++i) {
    if (digital[i].trace == nullptr) continue;
    const DigitalTrace& trace = *digital[i].trace;
    for (std::size_t k = 0; k < trace.n_transitions(); ++k) {
      changes.push_back({to_tick(trace.transitions()[k], ts.seconds),
                         changes.size(), i, false, trace.is_rising(k), 0.0});
    }
  }
  for (std::size_t i = 0; i < analog.size(); ++i) {
    // First sample already emitted in $dumpvars.
    for (std::size_t k = 1; k < analog[i].samples.size(); ++k) {
      changes.push_back({to_tick(analog[i].samples[k].first, ts.seconds),
                         changes.size(), digital.size() + i, true, false,
                         analog[i].samples[k].second});
    }
  }
  std::stable_sort(changes.begin(), changes.end(),
                   [](const Change& a, const Change& b) {
                     if (a.tick != b.tick) return a.tick < b.tick;
                     return a.order < b.order;
                   });

  long long current_tick = -1;
  for (const Change& change : changes) {
    if (change.tick != current_tick) {
      current_tick = change.tick;
      os << '#' << current_tick << "\n";
    }
    if (change.is_real) {
      std::snprintf(real_buffer, sizeof(real_buffer), "%.17g", change.real);
      os << 'r' << real_buffer << ' ' << ids[change.signal] << "\n";
    } else {
      os << (change.bit ? '1' : '0') << ids[change.signal] << "\n";
    }
  }
}

void write_vcd(const std::string& path,
               const std::vector<VcdDigitalSignal>& digital,
               const std::vector<VcdAnalogSignal>& analog,
               const VcdOptions& options) {
  std::ofstream os(path);
  if (!os) throw ConfigError("vcd: cannot write " + path);
  write_vcd(os, digital, analog, options);
}

}  // namespace charlie::waveform
