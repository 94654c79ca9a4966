// Synthetic benchmark netlist generation.
//
// generate_netlist() grows a layered random combinational netlist over the
// nine-cell library -- SIS cells (INV, BUF, AND2, OR2, XOR2), hybrid MIS
// cells (NAND2, NOR2, NAND3, NOR3), and a configurable fraction of gate
// outputs routed through RC WIRE segments -- sized by gate count, so the
// sharded-simulation benchmarks (bench/bench_sharded_throughput.cpp,
// tools/gen_netlist) can exercise circuits far beyond the shipped ISCAS
// examples. Gates in layer L draw their inputs from the preceding
// `locality` layers, which keeps the live-net profile narrow and gives
// CircuitBuilder::build_sharded realistic low-cut partition points.
//
// Generation is deterministic for a fixed config (one util::Rng stream
// keyed by config.seed, the same under any C++ standard library) and always
// yields a valid acyclic netlist: layer-by-layer construction cannot create
// a cycle, every net has exactly one driver, and wire geometries repeat from
// a small preset pool so the builder's wire-table collapse is memoized, not
// re-derived per wire.
#pragma once

#include <cstddef>
#include <cstdint>

#include "cell/netlist.hpp"

namespace charlie::cell {

struct NetlistGenConfig {
  std::size_t n_gates = 100000;  // cell instances; WIREs come on top
  std::size_t n_inputs = 64;
  std::size_t n_outputs = 32;    // declared outputs, from the last layers
  std::size_t layer_width = 256; // gates per topological layer
  std::size_t locality = 4;      // how many preceding layers inputs span
  double wire_fraction = 0.02;   // gate outputs driven through a WIRE
  std::uint64_t seed = 1;

  void validate() const;  // throws ConfigError on nonsense
};

NetlistDesc generate_netlist(const NetlistGenConfig& config);

}  // namespace charlie::cell
