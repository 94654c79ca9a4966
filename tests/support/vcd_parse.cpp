#include "support/vcd_parse.hpp"

#include <cctype>
#include <istream>
#include <map>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace charlie::waveform {

namespace {

double timescale_seconds(const std::string& magnitude,
                         const std::string& unit) {
  double m = 0.0;
  if (magnitude == "1") {
    m = 1.0;
  } else if (magnitude == "10") {
    m = 10.0;
  } else if (magnitude == "100") {
    m = 100.0;
  } else {
    throw ConfigError("vcd: bad timescale magnitude '" + magnitude + "'");
  }
  double u = 0.0;
  if (unit == "s") {
    u = 1.0;
  } else if (unit == "ms") {
    u = 1e-3;
  } else if (unit == "us") {
    u = 1e-6;
  } else if (unit == "ns") {
    u = 1e-9;
  } else if (unit == "ps") {
    u = 1e-12;
  } else if (unit == "fs") {
    u = 1e-15;
  } else {
    throw ConfigError("vcd: bad timescale unit '" + unit + "'");
  }
  return m * u;
}

}  // namespace

VcdData parse_vcd(std::istream& is) {
  VcdData data;
  bool saw_timescale = false;
  bool saw_enddefinitions = false;

  struct Signal {
    std::string name;
    bool is_real = false;
    bool value = false;
    bool has_initial = false;
    std::vector<double> transitions;
  };
  std::map<std::string, Signal> by_id;  // id code -> signal state

  long long current_tick = 0;
  std::string token;
  auto read_until_end = [&](std::vector<std::string>& words) {
    words.clear();
    std::string w;
    while (is >> w) {
      if (w == "$end") return;
      words.push_back(w);
    }
    throw ConfigError("vcd: unterminated $ directive");
  };

  std::vector<std::string> words;
  while (is >> token) {
    if (token.empty()) continue;
    if (token[0] == '$') {
      if (token == "$timescale") {
        read_until_end(words);
        // Either "$timescale 1 fs $end" or "$timescale 1fs $end".
        std::string magnitude, unit;
        if (words.size() == 2) {
          magnitude = words[0];
          unit = words[1];
        } else if (words.size() == 1) {
          std::size_t split = 0;
          while (split < words[0].size() &&
                 std::isdigit(static_cast<unsigned char>(words[0][split]))) {
            ++split;
          }
          magnitude = words[0].substr(0, split);
          unit = words[0].substr(split);
        } else {
          throw ConfigError("vcd: malformed $timescale");
        }
        data.timescale = timescale_seconds(magnitude, unit);
        saw_timescale = true;
      } else if (token == "$var") {
        read_until_end(words);
        // $var <type> <width> <id> <name...> $end
        if (words.size() < 4) throw ConfigError("vcd: malformed $var");
        Signal signal;
        signal.is_real = words[0] == "real";
        signal.name = words[3];
        for (std::size_t i = 4; i < words.size(); ++i) {
          signal.name += words[i];  // bit-range suffixes like "[3:0]"
        }
        if (!signal.is_real && words[1] != "1") {
          throw ConfigError("vcd: only 1-bit wires supported, got width " +
                            words[1]);
        }
        by_id[words[2]] = std::move(signal);
      } else if (token == "$enddefinitions") {
        read_until_end(words);
        saw_enddefinitions = true;
      } else if (token == "$dumpvars" || token == "$dumpall" ||
                 token == "$dumpon" || token == "$dumpoff" || token == "$end") {
        // Value-change sections: their contents parse via the normal
        // value-change path below; bare $end closes them.
        continue;
      } else {
        read_until_end(words);  // $date, $version, $comment, $scope, $upscope
      }
      continue;
    }
    if (token[0] == '#') {
      current_tick = std::stoll(token.substr(1));
      continue;
    }
    if (token[0] == '0' || token[0] == '1' || token[0] == 'x' ||
        token[0] == 'X' || token[0] == 'z' || token[0] == 'Z') {
      const std::string id = token.substr(1);
      const auto it = by_id.find(id);
      if (it == by_id.end()) {
        throw ConfigError("vcd: value change for unknown id '" + id + "'");
      }
      const bool value = token[0] == '1';  // x/z collapse to 0
      Signal& signal = it->second;
      if (!signal.has_initial) {
        signal.has_initial = true;
        signal.value = value;
        // An initial change at tick > 0 is also a transition from the
        // (unknown, taken-as-!value) pre-dump state only if the dump says
        // so; write_vcd always dumps initials at tick 0, so treat the first
        // change as the initial value.
      } else if (value != signal.value) {
        signal.value = value;
        const double t = static_cast<double>(current_tick) * data.timescale;
        if (!signal.transitions.empty() && signal.transitions.back() == t) {
          // Two flips on one tick cancel: a sub-tick pulse quantizes away
          // (DigitalTrace requires strictly increasing transition times).
          signal.transitions.pop_back();
        } else {
          signal.transitions.push_back(t);
        }
      }
      continue;
    }
    if (token[0] == 'r' || token[0] == 'R') {
      // Real value change: "r<value> <id>" -- consume the id, ignore.
      std::string id;
      if (!(is >> id)) throw ConfigError("vcd: truncated real value change");
      if (by_id.find(id) == by_id.end()) {
        throw ConfigError("vcd: value change for unknown id '" + id + "'");
      }
      continue;
    }
    if (token[0] == 'b' || token[0] == 'B') {
      throw ConfigError("vcd: vector value changes not supported");
    }
    throw ConfigError("vcd: unrecognized token '" + token + "'");
  }

  if (!saw_timescale) throw ConfigError("vcd: missing $timescale");
  if (!saw_enddefinitions) throw ConfigError("vcd: missing $enddefinitions");

  for (auto& [id, signal] : by_id) {
    if (signal.is_real) continue;
    // Initial value is the dumped value minus the parity of transitions
    // recorded after it -- i.e. the value at the $dumpvars point.
    bool initial = signal.value;
    if (signal.transitions.size() % 2 == 1) initial = !initial;
    data.digital.emplace(signal.name,
                         DigitalTrace(initial, std::move(signal.transitions)));
  }
  return data;
}

}  // namespace charlie::waveform
