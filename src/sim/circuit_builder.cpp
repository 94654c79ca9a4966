#include "sim/circuit_builder.hpp"

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "sim/wire_channel.hpp"
#include "util/error.hpp"

namespace charlie::sim {

namespace {

[[noreturn]] void build_error(const cell::NetlistInstance& inst,
                              const std::string& why) {
  std::string where = inst.cell + "(" + inst.output + ", ...)";
  if (inst.line > 0) where += " (line " + std::to_string(inst.line) + ")";
  throw ConfigError("circuit builder: " + where + ": " + why);
}

[[noreturn]] void wire_error(const cell::NetlistWire& wire,
                             const std::string& why) {
  std::string where = "WIRE(" + wire.output + ", " + wire.input + ")";
  if (wire.line > 0) where += " (line " + std::to_string(wire.line) + ")";
  throw ConfigError("circuit builder: " + where + ": " + why);
}

wire::WireParams wire_params_of(const cell::NetlistWire& wire) {
  wire::WireParams params;
  params.r_total = wire.r_total;
  params.c_total = wire.c_total;
  params.n_sections = wire.sections;
  params.r_drive = wire.r_drive;
  params.c_load = wire.c_load;
  params.t_drive = wire.t_drive;
  params.vdd = wire.vdd;
  return params;
}

// Unified element indexing (gates first, wires after) lives on
// NetlistTopology so the sta layer walks netlists the same way.
bool is_wire(const cell::NetlistDesc& desc, std::size_t e) {
  return NetlistTopology::is_wire(desc, e);
}

const cell::NetlistWire& wire_of(const cell::NetlistDesc& desc,
                                 std::size_t e) {
  return NetlistTopology::wire_of(desc, e);
}

// The one place that turns net names into net ids: every later stage
// (emission, partitioning, the sta timing graph) works on the ids.
NetlistTopology prepare_netlist(const cell::NetlistDesc& desc,
                                const cell::CellLibrary& library) {
  // --- semantic validation -------------------------------------------------
  const std::size_t n_inputs = desc.inputs.size();
  const std::size_t n_gates = desc.instances.size();
  const std::size_t n_elems = n_gates + desc.wires.size();

  NetlistTopology prep;
  prep.n_inputs = n_inputs;
  // Ids are insertion order: inputs 0..I-1, then element e's output I + e.
  prep.net_ids.reserve(n_inputs + n_elems);
  for (std::size_t i = 0; i < n_inputs; ++i) {
    const std::string& name = desc.inputs[i];
    if (prep.net_ids.insert(name) < 0) {
      throw ConfigError("circuit builder: primary input \"" + name +
                        "\" declared twice");
    }
  }
  prep.specs.assign(n_gates, nullptr);
  for (std::size_t i = 0; i < n_gates; ++i) {
    const auto& inst = desc.instances[i];
    const cell::CellSpec* spec = library.find(inst.cell);
    if (spec == nullptr) {
      build_error(inst, "unknown cell \"" + inst.cell + "\"");
    }
    prep.specs[i] = spec;
    if (static_cast<int>(inst.inputs.size()) != spec->arity) {
      build_error(inst, "cell " + spec->name + " takes " +
                            std::to_string(spec->arity) + " inputs, got " +
                            std::to_string(inst.inputs.size()));
    }
    if (prep.net_ids.insert(inst.output) < 0) {
      build_error(inst, "net \"" + inst.output + "\" is defined twice");
    }
  }
  for (std::size_t w = 0; w < desc.wires.size(); ++w) {
    const auto& wire = desc.wires[w];
    try {
      wire_params_of(wire).validate();
    } catch (const ConfigError& e) {
      wire_error(wire, e.what());
    }
    if (prep.net_ids.insert(wire.output) < 0) {
      wire_error(wire, "net \"" + wire.output + "\" is defined twice");
    }
  }
  // Fan-in resolution doubles as the undriven-net check.
  const std::string undriven =
      "\" is driven by no gate, wire, or primary input";
  prep.fanin_begin.reserve(n_elems + 1);
  prep.fanin_begin.push_back(0);
  prep.fanin.reserve(static_cast<std::size_t>(3) * n_gates + desc.wires.size());
  for (const auto& inst : desc.instances) {
    for (const auto& input : inst.inputs) {
      const int id = prep.net_ids.find(input);
      if (id < 0) build_error(inst, "input net \"" + input + undriven);
      prep.fanin.push_back(id);
    }
    prep.fanin_begin.push_back(static_cast<int>(prep.fanin.size()));
  }
  for (const auto& wire : desc.wires) {
    const int id = prep.net_ids.find(wire.input);
    if (id < 0) wire_error(wire, "input net \"" + wire.input + undriven);
    prep.fanin.push_back(id);
    prep.fanin_begin.push_back(static_cast<int>(prep.fanin.size()));
  }
  for (const auto& name : desc.outputs) {
    if (prep.net_ids.find(name) < 0) {
      throw ConfigError("circuit builder: declared primary output \"" + name +
                        undriven);
    }
  }

  // --- topological order (Kahn) -------------------------------------------
  // The engine appends gates after their input nets exist, so elements are
  // emitted in dependency order regardless of netlist order; leftover
  // elements sit on a combinational cycle. Dependents are one CSR array
  // (counting sort by driver), each driver's users in element/pin order.
  std::vector<int> missing_inputs(n_elems, 0);
  std::vector<int> users_begin(n_elems + 1, 0);
  for (const int net : prep.fanin) {
    const int d = prep.driver(net);
    if (d >= 0) ++users_begin[static_cast<std::size_t>(d) + 1];
  }
  for (std::size_t d = 0; d < n_elems; ++d) {
    users_begin[d + 1] += users_begin[d];
  }
  std::vector<int> users(static_cast<std::size_t>(users_begin[n_elems]));
  std::vector<int> fill(users_begin.begin(), users_begin.end() - 1);
  std::vector<int> ready;
  for (std::size_t e = 0; e < n_elems; ++e) {
    for (const int net : prep.inputs_of(e)) {
      const int d = prep.driver(net);
      if (d >= 0) {
        ++missing_inputs[e];
        users[static_cast<std::size_t>(fill[static_cast<std::size_t>(d)]++)] =
            static_cast<int>(e);
      }
    }
    if (missing_inputs[e] == 0) ready.push_back(static_cast<int>(e));
  }
  prep.order.reserve(n_elems);
  for (std::size_t head = 0; head < ready.size(); ++head) {
    const auto e = static_cast<std::size_t>(ready[head]);
    prep.order.push_back(static_cast<int>(e));
    for (int u = users_begin[e]; u < users_begin[e + 1]; ++u) {
      const int user = users[static_cast<std::size_t>(u)];
      if (--missing_inputs[static_cast<std::size_t>(user)] == 0) {
        ready.push_back(user);
      }
    }
  }
  if (prep.order.size() != n_elems) {
    for (std::size_t e = 0; e < n_elems; ++e) {
      if (missing_inputs[e] > 0) {
        if (is_wire(desc, e)) {
          wire_error(wire_of(desc, e), "combinational cycle through net \"" +
                                           wire_of(desc, e).output + "\"");
        }
        build_error(desc.instances[e],
                    "combinational cycle through net \"" +
                        desc.instances[e].output + "\"");
      }
    }
  }
  return prep;
}

}  // namespace

CircuitBuilder::CircuitBuilder(
    std::shared_ptr<const cell::CellLibrary> library)
    : library_(std::move(library)),
      wire_cache_(std::make_shared<WireTableCache>()) {
  CHARLIE_ASSERT(library_ != nullptr);
}

CircuitBuilder::CircuitBuilder(const cell::CellLibrary& library)
    : library_(std::make_shared<cell::CellLibrary>(library)),
      wire_cache_(std::make_shared<WireTableCache>()) {}

NetlistTopology CircuitBuilder::analyze_topology(
    const cell::NetlistDesc& desc) const {
  return prepare_netlist(desc, *library_);
}

std::size_t CircuitBuilder::n_wire_tables() const {
  std::lock_guard<std::mutex> lock(wire_cache_->mutex);
  return wire_cache_->tables.size();
}

std::shared_ptr<const wire::WireModeTables> CircuitBuilder::wire_tables_for(
    const cell::NetlistWire& wire) const {
  const wire::WireParams params = wire_params_of(wire);
  const std::string key = params.fingerprint();
  std::lock_guard<std::mutex> lock(wire_cache_->mutex);
  auto it = wire_cache_->tables.find(key);
  if (it == wire_cache_->tables.end()) {
    it = wire_cache_->tables.emplace(key, wire::WireModeTables::make(params))
             .first;
  }
  return it->second;
}

Circuit::NetId CircuitBuilder::emit_element(
    Circuit& circuit, const cell::NetlistDesc& desc,
    const NetlistTopology& topo, std::size_t e,
    const std::vector<Circuit::NetId>& local) const {
  const std::span<const int> fanin = topo.inputs_of(e);
  CHARLIE_ASSERT(fanin.size() <= kMaxGateArity);
  std::array<Circuit::NetId, kMaxGateArity> buffer{};
  for (std::size_t p = 0; p < fanin.size(); ++p) {
    buffer[p] = local[static_cast<std::size_t>(fanin[p])];
  }
  const std::span<const Circuit::NetId> inputs(buffer.data(), fanin.size());
  if (is_wire(desc, e)) {
    const auto& wire = wire_of(desc, e);
    return circuit.add_gate(GateKind::kBuf, wire.output, inputs,
                            std::make_unique<WireChannel>(
                                wire_tables_for(wire)));
  }
  const auto& inst = desc.instances[e];
  const cell::CellSpec& spec = *topo.specs[e];
  if (spec.hybrid) {
    return circuit.add_mis_gate(spec.kind, inst.output, inputs,
                                spec.make_mis_channel());
  }
  return circuit.add_gate(spec.kind, inst.output, inputs,
                          spec.make_sis_channel());
}

std::unique_ptr<Circuit> CircuitBuilder::build(
    const cell::NetlistDesc& desc) const {
  const NetlistTopology prep = prepare_netlist(desc, *library_);
  auto circuit = std::make_unique<Circuit>();
  circuit->reserve(prep.n_nets(), prep.n_elements());
  // Global net id -> circuit NetId (inputs keep their ids; element outputs
  // are numbered in emission order).
  std::vector<Circuit::NetId> local(prep.n_nets(), -1);
  for (std::size_t i = 0; i < desc.inputs.size(); ++i) {
    local[i] = circuit->add_input(desc.inputs[i]);
  }
  for (const int e : prep.order) {
    const auto el = static_cast<std::size_t>(e);
    local[static_cast<std::size_t>(prep.output_net(el))] =
        emit_element(*circuit, desc, prep, el, local);
  }
  return circuit;
}

std::unique_ptr<ShardedCircuit> CircuitBuilder::build_sharded(
    const cell::NetlistDesc& desc, std::size_t n_shards) const {
  NetlistTopology prep = prepare_netlist(desc, *library_);
  const std::size_t n_elems = prep.n_elements();
  const std::size_t n_parts = std::clamp<std::size_t>(
      n_shards, 1, std::max<std::size_t>(n_elems, 1));

  // --- cut placement -------------------------------------------------------
  // A cut at topo position p separates order[0..p) from order[p..). Its
  // cost is the number of nets live across it: nets produced before p whose
  // last consumer sits at or after p. Costs for every p come from one
  // difference array over the net live ranges; each of the K-1 cuts then
  // takes the cheapest position within a balance slack around its ideal
  // (equal-element) position.
  std::vector<int> pos(n_elems, 0);
  for (std::size_t i = 0; i < n_elems; ++i) {
    pos[static_cast<std::size_t>(prep.order[i])] = static_cast<int>(i);
  }
  std::vector<int> last_use(n_elems, -1);
  for (std::size_t e = 0; e < n_elems; ++e) {
    for (const int net : prep.inputs_of(e)) {
      const int d = prep.driver(net);
      if (d >= 0) {
        last_use[static_cast<std::size_t>(d)] = std::max(
            last_use[static_cast<std::size_t>(d)], pos[e]);
      }
    }
  }
  std::vector<int> live(n_elems + 1, 0);
  for (std::size_t d = 0; d < n_elems; ++d) {
    if (last_use[d] < 0) continue;  // output consumed by no element
    ++live[static_cast<std::size_t>(pos[d]) + 1];
    --live[static_cast<std::size_t>(last_use[d]) + 1];
  }
  for (std::size_t p = 1; p <= n_elems; ++p) live[p] += live[p - 1];

  std::vector<std::size_t> cut(n_parts + 1, 0);
  cut[n_parts] = n_elems;
  const std::size_t slack =
      std::max<std::size_t>(1, n_elems / (4 * n_parts));
  for (std::size_t i = 1; i < n_parts; ++i) {
    const std::size_t ideal = i * n_elems / n_parts;
    // Every shard keeps at least one element: cut i stays in
    // [cut[i-1] + 1, n_elems - (n_parts - i)].
    const std::size_t floor_p = cut[i - 1] + 1;
    const std::size_t ceil_p = n_elems - (n_parts - i);
    std::size_t lo = std::max(floor_p, ideal > slack ? ideal - slack : 1);
    std::size_t hi = std::min(ceil_p, ideal + slack);
    if (lo > hi) {
      lo = hi = std::clamp(ideal, floor_p, ceil_p);
    }
    std::size_t best = lo;
    for (std::size_t p = lo; p <= hi; ++p) {
      const auto distance = [&](std::size_t q) {
        return q > ideal ? q - ideal : ideal - q;
      };
      if (live[p] < live[best] ||
          (live[p] == live[best] && distance(p) < distance(best))) {
        best = p;
      }
    }
    cut[i] = best;
  }

  std::vector<int> shard_of(n_elems, 0);
  for (std::size_t s = 0; s < n_parts; ++s) {
    for (std::size_t p = cut[s]; p < cut[s + 1]; ++p) {
      shard_of[static_cast<std::size_t>(prep.order[p])] =
          static_cast<int>(s);
    }
  }

  // --- per-shard emission --------------------------------------------------
  // `local` maps a net id to its NetId in the shard being emitted: every
  // net a shard reads is either one of its declared inputs or produced
  // earlier in the shard, so entries left over from earlier shards are
  // always overwritten before they are read. `home` records where each
  // element output lives for boundary edges and trace lookup.
  std::vector<ShardedCircuit::Shard> shards(n_parts);
  std::vector<ShardedCircuit::BoundaryEdge> edges;
  std::vector<ShardedCircuit::NetHome> home(prep.n_nets());
  std::vector<Circuit::NetId> local(prep.n_nets(), -1);
  std::vector<std::size_t> seen_by(prep.n_nets(), n_parts);  // shard stamp
  for (std::size_t s = 0; s < n_parts; ++s) {
    // External nets of this shard: global primary inputs it reads (declared
    // in global stimulus order) and boundary nets from earlier shards
    // (declared in producer topo order) -- both deterministic. A primary
    // input's net id is its global input index.
    std::vector<int> primaries;  // global input indices
    std::vector<int> producers;  // upstream element indices
    for (std::size_t p = cut[s]; p < cut[s + 1]; ++p) {
      const auto e = static_cast<std::size_t>(prep.order[p]);
      for (const int net : prep.inputs_of(e)) {
        std::size_t& stamp = seen_by[static_cast<std::size_t>(net)];
        if (stamp == s) continue;
        stamp = s;
        const int d = prep.driver(net);
        if (d < 0) {
          primaries.push_back(net);
        } else if (shard_of[static_cast<std::size_t>(d)] !=
                   static_cast<int>(s)) {
          producers.push_back(d);
        }
      }
    }
    std::sort(primaries.begin(), primaries.end());
    std::sort(producers.begin(), producers.end(), [&](int a, int b) {
      return pos[static_cast<std::size_t>(a)] <
             pos[static_cast<std::size_t>(b)];
    });

    auto circuit = std::make_unique<Circuit>();
    const std::size_t n_external = primaries.size() + producers.size();
    circuit->reserve(n_external + (cut[s + 1] - cut[s]), cut[s + 1] - cut[s]);
    std::vector<int> binding;
    binding.reserve(n_external);
    for (const int g : primaries) {
      local[static_cast<std::size_t>(g)] =
          circuit->add_input(desc.inputs[static_cast<std::size_t>(g)]);
      binding.push_back(g);
    }
    for (const int d : producers) {
      const auto net = static_cast<std::size_t>(
          prep.output_net(static_cast<std::size_t>(d)));
      ShardedCircuit::BoundaryEdge edge;
      edge.from_shard = home[net].shard;
      edge.from_net = home[net].net;
      edge.to_shard = s;
      edge.to_input = circuit->n_inputs();
      local[net] = circuit->add_input(
          NetlistTopology::output_of(desc, static_cast<std::size_t>(d)));
      binding.push_back(-1);
      edges.push_back(edge);
    }
    for (std::size_t p = cut[s]; p < cut[s + 1]; ++p) {
      const auto e = static_cast<std::size_t>(prep.order[p]);
      const auto net = static_cast<std::size_t>(prep.output_net(e));
      local[net] = emit_element(*circuit, desc, prep, e, local);
      home[net] = {s, local[net]};
    }
    shards[s].circuit = std::move(circuit);
    shards[s].input_binding = std::move(binding);
  }

  return std::make_unique<ShardedCircuit>(std::move(shards), std::move(edges),
                                          desc.inputs.size(),
                                          std::move(prep.net_ids),
                                          std::move(home));
}

std::unique_ptr<Circuit> CircuitBuilder::build_text(
    const std::string& netlist_text) const {
  return build(cell::parse_netlist(netlist_text));
}

std::unique_ptr<Circuit> CircuitBuilder::build_file(
    const std::string& path) const {
  return build(cell::read_netlist_file(path));
}

}  // namespace charlie::sim
