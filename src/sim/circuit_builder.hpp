// Netlist-driven circuit construction against a characterized cell library.
//
// CircuitBuilder is the instantiation half of the characterize-once /
// instantiate-many lifecycle: it consumes a cell::NetlistDesc (primary
// inputs, primary outputs, cell instances, RC wires) and a
// cell::CellLibrary and emits a validated sim::Circuit -- hybrid MIS cells
// get HybridGateChannel instances sharing the library's per-cell mode
// tables, SIS cells get inertial channels with the library's characterized
// delays, and WIRE statements get hybrid WireChannel instances sharing one
// collapsed wire::WireModeTables per distinct wire geometry (memoized
// inside the builder, so BatchRunner's per-worker build() clones never
// re-derive a collapse). Calling build() repeatedly re-instantiates the
// circuit without re-deriving anything.
//
// build() validates the netlist against the library and throws ConfigError
// (with the offending net/cell and source line when available) for:
//   * unknown cell names;
//   * arity mismatches between an instance and its cell;
//   * duplicate net definitions (two drivers -- gate or wire -- or a
//     driver colliding with a primary input);
//   * undriven nets (an instance or wire input that nothing defines);
//   * invalid wire parameters (wire::WireParams::validate);
//   * declared primary outputs that no net defines;
//   * combinational cycles (the engine requires acyclic circuits).
// Instances and wires may appear in any order; the builder topologically
// sorts them.
#pragma once

#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cell/cell_library.hpp"
#include "cell/netlist.hpp"
#include "sim/circuit.hpp"
#include "sim/sharded_circuit.hpp"
#include "util/name_index.hpp"
#include "wire/wire_tables.hpp"

namespace charlie::sim {

/// Validated netlist topology, ready for emission or static analysis: the
/// resolved cell spec per instance, every net name interned once as an
/// integer net id, the fan-in of every element as net ids, and the element
/// topological order. Elements use unified indexing -- gates first in
/// netlist order, wires after, so element e >= desc.instances.size() is
/// wire e - desc.instances.size(). Net ids number the primary inputs
/// 0..I-1 in declaration order and element e's output I + e, so the driver
/// of a net follows from its id. Produced by
/// CircuitBuilder::analyze_topology (which performs the full build()
/// validation pass) and consumed by build()/build_sharded() internally and
/// by the sta layer's timing graph construction.
struct NetlistTopology {
  std::size_t n_inputs = 0;
  std::vector<const cell::CellSpec*> specs;      // per instance, netlist order
  util::NameIndex net_ids;                       // net name <-> net id
  // Fan-in in CSR form: element e reads the net ids
  // fanin[fanin_begin[e] .. fanin_begin[e + 1]) in pin order.
  std::vector<int> fanin_begin;
  std::vector<int> fanin;
  std::vector<int> order;  // elements, topo order

  std::size_t n_elements() const { return order.size(); }
  std::size_t n_nets() const { return n_inputs + order.size(); }
  int output_net(std::size_t e) const {
    return static_cast<int>(n_inputs + e);
  }
  /// Element driving `net`, or -1 for a primary input.
  int driver(int net) const {
    return net < static_cast<int>(n_inputs)
               ? -1
               : net - static_cast<int>(n_inputs);
  }
  std::span<const int> inputs_of(std::size_t e) const {
    return {fanin.data() + fanin_begin[e],
            static_cast<std::size_t>(fanin_begin[e + 1] - fanin_begin[e])};
  }

  static bool is_wire(const cell::NetlistDesc& desc, std::size_t e) {
    return e >= desc.instances.size();
  }
  static const cell::NetlistWire& wire_of(const cell::NetlistDesc& desc,
                                          std::size_t e) {
    return desc.wires[e - desc.instances.size()];
  }
  static const std::string& output_of(const cell::NetlistDesc& desc,
                                      std::size_t e) {
    return is_wire(desc, e) ? wire_of(desc, e).output
                            : desc.instances[e].output;
  }
};

class CircuitBuilder {
 public:
  /// The library is shared, not copied: every circuit built refers to the
  /// same characterized specs and mode tables.
  explicit CircuitBuilder(std::shared_ptr<const cell::CellLibrary> library);

  /// Convenience: wraps `library` in a shared_ptr by copy.
  explicit CircuitBuilder(const cell::CellLibrary& library);

  /// Validate `desc` against the library and emit the circuit. Primary
  /// inputs are declared in netlist order (the stimulus order for
  /// Circuit::simulate and BatchRunner). Wires are emitted as single-input
  /// buffer gates carrying a WireChannel.
  std::unique_ptr<Circuit> build(const cell::NetlistDesc& desc) const;

  /// Parse-and-build conveniences for netlist text / files.
  std::unique_ptr<Circuit> build_text(const std::string& netlist_text) const;
  std::unique_ptr<Circuit> build_file(const std::string& path) const;

  /// Validate `desc` and emit it as `n_shards` shard circuits for parallel
  /// simulation by sim::ShardedCircuit. Elements are split into contiguous
  /// runs of the topological order, balanced by element count, with each
  /// cut placed (within a balance slack) at the topo position where the
  /// fewest nets are live -- a cheap min-cut that keeps the shard graph
  /// acyclic by construction. n_shards is clamped to [1, n_elements];
  /// simulation output is bit-identical to build() + Circuit::simulate for
  /// any shard count.
  std::unique_ptr<ShardedCircuit> build_sharded(const cell::NetlistDesc& desc,
                                                std::size_t n_shards) const;

  /// Validate `desc` against the library (the same checks and ConfigError
  /// diagnostics as build()) and return its topology without instantiating
  /// any channel. This is the static-analysis entry point: the sta layer
  /// walks the returned topological order to build its timing graph.
  NetlistTopology analyze_topology(const cell::NetlistDesc& desc) const;

  /// Collapsed wire tables of one validated WIRE statement (shared,
  /// memoized per distinct geometry). The sta layer reads static per-arc
  /// wire delays off these tables.
  std::shared_ptr<const wire::WireModeTables> wire_tables(
      const cell::NetlistWire& wire) const {
    return wire_tables_for(wire);
  }

  const cell::CellLibrary& library() const { return *library_; }

  /// Number of distinct wire geometries collapsed so far (testing hook for
  /// the collapse-once guarantee across repeated build() calls).
  std::size_t n_wire_tables() const;

 private:
  std::shared_ptr<const wire::WireModeTables> wire_tables_for(
      const cell::NetlistWire& wire) const;

  /// Emit one validated element (gate or wire) of `desc` into `circuit`
  /// and return its circuit-local output net. `local` maps every net id
  /// the element reads to its circuit-local NetId.
  Circuit::NetId emit_element(Circuit& circuit, const cell::NetlistDesc& desc,
                              const NetlistTopology& topo, std::size_t e,
                              const std::vector<Circuit::NetId>& local) const;

  std::shared_ptr<const cell::CellLibrary> library_;
  // One collapsed table per distinct WireParams fingerprint, shared by
  // every WireChannel instance across all circuits this builder emits (and
  // across builder copies, which share the cache object). Guarded so
  // factory clones may be built from concurrent threads.
  struct WireTableCache {
    std::mutex mutex;
    std::unordered_map<std::string,
                       std::shared_ptr<const wire::WireModeTables>>
        tables;
  };
  std::shared_ptr<WireTableCache> wire_cache_;
};

}  // namespace charlie::sim
