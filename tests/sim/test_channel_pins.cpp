// Bit-exact pins of every delay channel's output traces.
//
// Each channel is driven with fixed-seed random stimuli, through the
// trace harness (run_gate_channel / run_sis_channel) and through a small
// sim::Circuit that chains all of them. The FNV-1a digest of the output
// traces (initial value plus the bit pattern of every transition time) is
// pinned, so a refactor of the channels' event bookkeeping that moves a
// single crossing by one ulp fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "core/gate_params.hpp"
#include "sim/circuit.hpp"
#include "sim/exp_channel.hpp"
#include "sim/hybrid_gate_channel.hpp"
#include "sim/inertial.hpp"
#include "sim/pure_delay.hpp"
#include "sim/run_channel.hpp"
#include "sim/sumexp_channel.hpp"
#include "sim/wire_channel.hpp"
#include "util/rng.hpp"
#include "waveform/generator.hpp"
#include "wire/wire_params.hpp"

namespace charlie::sim {
namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t trace_digest(std::uint64_t h, const waveform::DigitalTrace& tr) {
  h = fnv_mix(h, tr.initial_value() ? 1u : 0u);
  h = fnv_mix(h, tr.n_transitions());
  for (const double t : tr.transitions()) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &t, sizeof bits);
    h = fnv_mix(h, bits);
  }
  return h;
}

std::uint64_t trace_digest(const waveform::DigitalTrace& tr) {
  return trace_digest(kFnvOffset, tr);
}

// The transition count is pinned beside the digest so a failure says
// whether events appeared/vanished or only moved.
void expect_pin(const waveform::DigitalTrace& out, std::uint64_t digest,
                std::size_t n_transitions) {
  EXPECT_EQ(trace_digest(out), digest);
  EXPECT_EQ(out.n_transitions(), n_transitions);
}

std::vector<waveform::DigitalTrace> stimuli(std::size_t n_inputs,
                                            double mu, std::uint64_t seed) {
  waveform::TraceConfig config;
  config.mu = mu;
  config.sigma = 0.5 * mu;
  config.n_transitions = 300;
  config.t_start = 50e-12;
  util::Rng rng(seed);
  return waveform::generate_traces(config, n_inputs, rng);
}

ExpChannelParams exp_params() {
  ExpChannelParams p;
  p.delta_inf_up = 32e-12;
  p.delta_inf_down = 27e-12;
  p.delta_min = 6e-12;
  return p;
}

SumExpChannelParams sumexp_params() {
  SumExpChannelParams p;
  p.delta_min = 4e-12;
  return p;
}

constexpr double kEnd = 60e-9;

TEST(ChannelPins, HybridNor2Trace) {
  HybridGateChannel ch(core::GateParams::nor2_reference());
  const auto in = stimuli(2, 40e-12, 11);
  expect_pin(run_gate_channel(ch, in, 0.0, kEnd), 0x4fce187b2fab9157ull, 72);
}

TEST(ChannelPins, HybridNand3Trace) {
  HybridGateChannel ch(core::GateParams::nand3_reference());
  const auto in = stimuli(3, 150e-12, 12);
  expect_pin(run_gate_channel(ch, in, 0.0, kEnd), 0x66aab52eeea3f494ull, 48);
}

TEST(ChannelPins, WireTrace) {
  WireChannel ch(wire::WireParams::reference());
  const auto in = stimuli(1, 50e-12, 13);
  expect_pin(run_sis_channel(ch, in[0], 0.0, kEnd), 0x63f08fe27adbec6eull, 224);
}

TEST(ChannelPins, ExpTrace) {
  ExpChannel ch(exp_params());
  const auto in = stimuli(1, 30e-12, 14);
  expect_pin(run_sis_channel(ch, in[0], 0.0, kEnd), 0x0d6c020ff34d6affull, 246);
}

TEST(ChannelPins, SumExpTrace) {
  SumExpChannel ch(sumexp_params());
  const auto in = stimuli(1, 30e-12, 15);
  expect_pin(run_sis_channel(ch, in[0], 0.0, kEnd), 0xff1ccf798d9badbbull, 282);
}

TEST(ChannelPins, InertialTrace) {
  InertialChannel ch(25e-12, 20e-12);
  const auto in = stimuli(1, 30e-12, 16);
  expect_pin(run_sis_channel(ch, in[0], 0.0, kEnd), 0x98bcd1281f1efcc0ull, 142);
}

TEST(ChannelPins, PureDelayTrace) {
  PureDelayChannel ch(17e-12);
  const auto in = stimuli(1, 30e-12, 17);
  expect_pin(run_sis_channel(ch, in[0], 0.0, kEnd), 0x43a198ee68b41947ull, 300);
}

TEST(ChannelPins, CircuitOfEveryChannel) {
  Circuit c;
  const auto a = c.add_input("a");
  const auto b = c.add_input("b");
  const auto d = c.add_input("d");
  const auto n1 = c.add_mis_gate(
      GateKind::kNor2, "n1", {a, b},
      std::make_unique<HybridGateChannel>(core::GateParams::nor2_reference()));
  const auto n2 = c.add_mis_gate(
      GateKind::kNand3, "n2", {n1, d, a},
      std::make_unique<HybridGateChannel>(
          core::GateParams::nand3_reference()));
  const auto w = c.add_gate(
      GateKind::kBuf, "w", {n2},
      std::make_unique<WireChannel>(wire::WireParams::reference()));
  const auto e = c.add_gate(GateKind::kInv, "e", {w},
                            std::make_unique<ExpChannel>(exp_params()));
  const auto s = c.add_gate(GateKind::kOr2, "s", {e, b},
                            std::make_unique<SumExpChannel>(sumexp_params()));
  const auto i = c.add_gate(GateKind::kXor2, "i", {s, n1},
                            std::make_unique<InertialChannel>(25e-12, 20e-12));
  c.add_gate(GateKind::kAnd2, "p", {i, d},
             std::make_unique<PureDelayChannel>(17e-12));

  const auto result = c.simulate(stimuli(3, 60e-12, 18), 0.0, kEnd);
  ASSERT_TRUE(result.ok());
  std::uint64_t h = kFnvOffset;
  for (const auto& trace : result.traces) h = trace_digest(h, trace);
  EXPECT_EQ(h, 0xecb2852b7af160cbull);
  EXPECT_EQ(result.n_events, 1878);
}

}  // namespace
}  // namespace charlie::sim
