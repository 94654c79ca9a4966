#include "sim/circuit.hpp"

#include <algorithm>

#include "sim/sim_session.hpp"
#include "util/error.hpp"

namespace charlie::sim {

bool eval_gate(GateKind kind, std::span<const bool> in) {
  const std::size_t arity = gate_arity(kind);
  CHARLIE_ASSERT(in.size() == arity);
  return eval_gate(kind, in[0], arity >= 2 ? in[1] : false,
                   arity >= 3 ? in[2] : false);
}

void Circuit::reserve(std::size_t n_nets, std::size_t n_gates) {
  nets_.reserve(n_nets);
  gates_.reserve(n_gates);
  fanin_.reserve(kMaxGateArity * n_gates);
  fanin_begin_.reserve(n_gates);
}

Circuit::NetId Circuit::new_net(const std::string& name) {
  const NetId id = nets_.insert(name);
  if (id < 0) throw ConfigError("circuit: duplicate net name: " + name);
  fanout_stale_ = true;
  return id;
}

Circuit::NetId Circuit::add_input(const std::string& name) {
  const NetId id = new_net(name);
  primary_inputs_.push_back(id);
  return id;
}

// The gate record borrows the channel, which the cold ownership array takes
// first; a gate that append_gate rejects pops it again, so the channel is
// freed and no gate record points at it.
Circuit::NetId Circuit::add_gate(GateKind kind,
                                 const std::string& output_name,
                                 std::span<const NetId> inputs,
                                 std::unique_ptr<SisChannel> channel) {
  CHARLIE_ASSERT(channel != nullptr);
  Gate gate;
  gate.sis = channel.get();
  sis_channels_.push_back(std::move(channel));
  try {
    return append_gate(kind, output_name, inputs, gate);
  } catch (...) {
    sis_channels_.pop_back();
    throw;
  }
}

Circuit::NetId Circuit::add_mis_gate(GateKind kind,
                                     const std::string& output_name,
                                     std::span<const NetId> inputs,
                                     std::unique_ptr<GateChannel> channel) {
  CHARLIE_ASSERT(channel != nullptr);
  Gate gate;
  gate.mis = channel.get();
  gate.is_mis = true;
  mis_channels_.push_back(std::move(channel));
  try {
    return append_gate(kind, output_name, inputs, gate);
  } catch (...) {
    mis_channels_.pop_back();
    throw;
  }
}

Circuit::NetId Circuit::append_gate(GateKind kind,
                                    const std::string& output_name,
                                    std::span<const NetId> inputs,
                                    Gate gate) {
  CHARLIE_ASSERT_MSG(inputs.size() == gate_arity(kind),
                     "circuit: wrong gate arity");
  CHARLIE_ASSERT_MSG(!gate.is_mis || gate.mis->n_inputs() ==
                                         static_cast<int>(gate_arity(kind)),
                     "circuit: channel arity does not match the gate kind");
  gate.kind = kind;
  gate.output = new_net(output_name);
  for (const NetId net : inputs) {
    CHARLIE_ASSERT(net >= 0 && net < static_cast<NetId>(n_nets()));
  }
  gate.arity = static_cast<std::uint8_t>(inputs.size());
  fanin_begin_.push_back(static_cast<std::uint32_t>(fanin_.size()));
  fanin_.insert(fanin_.end(), inputs.begin(), inputs.end());
  gates_.push_back(gate);
  return gate.output;
}

void Circuit::compile_fanout() {
  if (!fanout_stale_) return;
  // Counting sort of the fan-in array by net: walking gates in order and
  // ports in order fills each net's range in exactly that order.
  fanout_begin_.assign(n_nets() + 1, 0);
  for (const NetId net : fanin_) {
    ++fanout_begin_[static_cast<std::size_t>(net) + 1];
  }
  for (std::size_t n = 0; n < n_nets(); ++n) {
    fanout_begin_[n + 1] += fanout_begin_[n];
  }
  fanout_.resize(fanin_.size());
  std::vector<std::uint32_t> cursor(fanout_begin_.begin(),
                                    fanout_begin_.end() - 1);
  for (std::size_t g = 0; g < gates_.size(); ++g) {
    const std::span<const NetId> inputs = fanin(g);
    for (std::size_t port = 0; port < inputs.size(); ++port) {
      fanout_[cursor[static_cast<std::size_t>(inputs[port])]++] = {
          static_cast<std::uint32_t>(g), static_cast<std::uint32_t>(port)};
    }
  }
  fanout_stale_ = false;
}

Circuit::NetId Circuit::find_net(const std::string& name) const {
  const NetId id = nets_.find(name);
  if (id < 0) throw ConfigError("circuit: unknown net " + name);
  return id;
}

const std::string& Circuit::net_name(NetId id) const {
  CHARLIE_ASSERT(id >= 0 && id < static_cast<NetId>(n_nets()));
  return nets_.name(id);
}

const waveform::DigitalTrace& Circuit::SimResult::trace(NetId id) const {
  CHARLIE_ASSERT(id >= 0 && id < static_cast<NetId>(traces.size()));
  return traces[static_cast<std::size_t>(id)];
}

Circuit::SimResult Circuit::simulate(
    const std::vector<waveform::DigitalTrace>& stimuli, double t_begin,
    double t_end) {
  CHARLIE_ASSERT(t_end > t_begin);
  // The whole window in one advance: reproduces the original single-pass
  // engine bit-for-bit (see sim/sim_session.hpp).
  SimSession session(*this, stimuli, t_begin);
  session.advance(t_end);
  return session.take_result();
}

namespace {

// The budgeted entry points are the no-throw boundary: a failure anywhere
// in the run (solver non-convergence, assertion, injected fault) becomes a
// structured kFailed result with the traces produced so far.
void advance_guarded(SimSession& session, double t_end) {
  try {
    session.advance(t_end);
  } catch (const std::exception& e) {
    session.mark_failed(e.what());
  }
}

}  // namespace

Circuit::SimResult Circuit::simulate(
    const std::vector<waveform::DigitalTrace>& stimuli, double t_begin,
    double t_end, const RunBudget& budget) {
  CHARLIE_ASSERT(t_end > t_begin);
  SimSession session(*this, stimuli, t_begin, budget);
  advance_guarded(session, t_end);
  return session.take_result();
}

void Circuit::simulate_into(RunArena& arena, double t_begin, double t_end,
                            const RunBudget& budget) {
  CHARLIE_ASSERT(t_end > t_begin);
  SimSession session(*this, std::move(arena), t_begin, budget);
  advance_guarded(session, t_end);
  arena = session.take_arena();
}

}  // namespace charlie::sim
