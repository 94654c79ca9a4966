// The merged stimulus stream and the run-arena session path: merge_stimuli
// against a std::stable_sort reference, and a session fed the merged stream
// (through a reused RunArena) against one fed the per-input transitions
// one by one through inject().
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "cell/cell_library.hpp"
#include "cell/netlist.hpp"
#include "sim/circuit_builder.hpp"
#include "sim/sim_session.hpp"
#include "util/rng.hpp"
#include "waveform/generator.hpp"

namespace charlie::sim {
namespace {

using waveform::DigitalTrace;

// The order the session used before the merge: every input's transitions
// appended in declaration order, then stably sorted by time.
std::vector<StimulusEvent> stable_sort_reference(
    const std::vector<DigitalTrace>& stimuli) {
  std::vector<StimulusEvent> events;
  for (std::size_t i = 0; i < stimuli.size(); ++i) {
    for (std::size_t k = 0; k < stimuli[i].n_transitions(); ++k) {
      events.push_back({stimuli[i].transitions()[k],
                        static_cast<std::uint32_t>(i),
                        stimuli[i].is_rising(k)});
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const StimulusEvent& x, const StimulusEvent& y) {
                     return x.t < y.t;
                   });
  return events;
}

void expect_merge_matches_reference(const std::vector<DigitalTrace>& stimuli) {
  std::vector<StimulusEvent> stream;
  std::vector<std::uint32_t> buckets;
  merge_stimuli(stimuli, stream, buckets);
  const auto expected = stable_sort_reference(stimuli);
  ASSERT_EQ(stream.size(), expected.size());
  for (std::size_t e = 0; e < expected.size(); ++e) {
    EXPECT_EQ(stream[e].t, expected[e].t) << "event " << e;
    EXPECT_EQ(stream[e].input, expected[e].input) << "event " << e;
    EXPECT_EQ(stream[e].value, expected[e].value) << "event " << e;
  }
}

// Transitions on a coarse integer grid of `step`: inputs collide at equal
// times all the time. Grid index `k0` <= 0 puts transitions at and before
// t = 0 (exactly 0.0 included when the walk lands on it).
std::vector<DigitalTrace> grid_stimuli(std::size_t n_inputs,
                                       std::size_t n_transitions, long k0,
                                       std::uint64_t seed) {
  const double step = 50e-12;
  util::Rng rng(seed);
  std::vector<DigitalTrace> stimuli;
  for (std::size_t i = 0; i < n_inputs; ++i) {
    DigitalTrace trace(rng.bernoulli(0.5), {});
    long k = k0;
    for (std::size_t n = 0; n < n_transitions; ++n) {
      k += rng.uniform_int(1, 3);
      trace.append_transition(static_cast<double>(k) * step);
    }
    stimuli.push_back(std::move(trace));
  }
  return stimuli;
}

TEST(MergeStimuli, MatchesStableSortOnEqualTimesAcrossInputs) {
  expect_merge_matches_reference(grid_stimuli(7, 40, -6, 1));
  expect_merge_matches_reference(grid_stimuli(36, 64, 0, 2));
}

TEST(MergeStimuli, MatchesStableSortOnEdgeShapes) {
  // Empty inputs, alone and between busy ones.
  expect_merge_matches_reference({DigitalTrace(), DigitalTrace(true, {})});
  auto mixed = grid_stimuli(4, 20, -3, 3);
  mixed.insert(mixed.begin() + 1, DigitalTrace());
  mixed.push_back(DigitalTrace(true, {}));
  expect_merge_matches_reference(mixed);
  // A single input; a single transition.
  expect_merge_matches_reference(grid_stimuli(1, 30, -2, 4));
  expect_merge_matches_reference({DigitalTrace(false, {1e-9})});
  // Every input switching at the same instants (one bucket span of zero).
  std::vector<DigitalTrace> lockstep;
  for (int i = 0; i < 5; ++i) {
    lockstep.push_back(DigitalTrace(i % 2 == 0, {2e-12}));
  }
  expect_merge_matches_reference(lockstep);
  // One far outlier crowds every other event into the first bucket.
  auto outlier = grid_stimuli(6, 30, 0, 5);
  outlier[3].append_transition(1.0);
  expect_merge_matches_reference(outlier);
}

TEST(MergeStimuli, MatchesStableSortOnGeneratedStimuli) {
  for (const bool global : {false, true}) {
    waveform::TraceConfig config;
    config.global_mode = global;
    config.n_transitions = global ? 300 : 50;
    config.t_start = -1e-9;  // part of every stream lies before t = 0
    util::Rng rng(6);
    expect_merge_matches_reference(
        waveform::generate_traces(config, 9, rng));
  }
}

class RunArenaSession : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto library = std::make_shared<const cell::CellLibrary>(
        cell::CellLibrary::reference());
    const auto desc = cell::read_netlist_file(
        CHARLIE_SOURCE_DIR "/examples/netlists/c432.net");
    circuit_ = sim::CircuitBuilder(library).build(desc);
  }

  // The reference path: constant stimuli at their t_begin values, then
  // every later transition injected input by input. inject() orders its
  // queue with a stable comparison sort by time, so input-major injection
  // reproduces the stable-sort order independently of merge_stimuli.
  Circuit::SimResult injected_run(const std::vector<DigitalTrace>& stimuli,
                                  double t_begin, double t_end) {
    std::vector<DigitalTrace> settled;
    for (const auto& trace : stimuli) {
      settled.emplace_back(trace.value_at(t_begin), std::vector<double>{});
    }
    SimSession session(*circuit_, settled, t_begin);
    for (std::size_t i = 0; i < stimuli.size(); ++i) {
      for (std::size_t k = 0; k < stimuli[i].n_transitions(); ++k) {
        const double t = stimuli[i].transitions()[k];
        if (t > t_begin) session.inject(i, t, stimuli[i].is_rising(k));
      }
    }
    session.advance(t_end);
    return session.take_result();
  }

  void expect_same_run(const Circuit::SimResult& arena_result,
                       const Circuit::SimResult& reference) {
    EXPECT_EQ(arena_result.n_events, reference.n_events);
    EXPECT_EQ(arena_result.max_heap_depth, reference.max_heap_depth);
    ASSERT_EQ(arena_result.traces.size(), reference.traces.size());
    for (std::size_t n = 0; n < reference.traces.size(); ++n) {
      EXPECT_EQ(arena_result.traces[n].initial_value(),
                reference.traces[n].initial_value())
          << circuit_->net_name(static_cast<Circuit::NetId>(n));
      EXPECT_EQ(arena_result.traces[n].transitions(),
                reference.traces[n].transitions())
          << circuit_->net_name(static_cast<Circuit::NetId>(n));
    }
  }

  std::unique_ptr<Circuit> circuit_;
};

TEST_F(RunArenaSession, StreamFedSessionMatchesInjectedTransitions) {
  RunArena arena;  // reused across every case below
  auto check = [&](std::vector<DigitalTrace> stimuli, double t_begin) {
    double t_last = t_begin;
    for (const auto& trace : stimuli) {
      if (!trace.empty()) t_last = std::max(t_last, trace.transitions().back());
    }
    const double t_end = t_last + 2e-9;
    const Circuit::SimResult reference = injected_run(stimuli, t_begin, t_end);
    arena.stimuli = std::move(stimuli);
    circuit_->simulate_into(arena, t_begin, t_end, RunBudget{});
    ASSERT_TRUE(arena.result.ok());
    expect_same_run(arena.result, reference);
    // The stream the session consumed keeps the transitions at or before
    // t_begin, in merge order, for the caller's response-delay sweep.
    std::vector<StimulusEvent> merged;
    std::vector<std::uint32_t> buckets;
    merge_stimuli(arena.stimuli, merged, buckets);
    ASSERT_EQ(arena.stream.size(), merged.size());
    for (std::size_t e = 0; e < merged.size(); ++e) {
      EXPECT_EQ(arena.stream[e].t, merged[e].t);
      EXPECT_EQ(arena.stream[e].input, merged[e].input);
    }
  };
  const std::size_t n_inputs = circuit_->n_inputs();
  // Equal-time transitions on many inputs, some at and before t_begin.
  check(grid_stimuli(n_inputs, 24, -5, 7), 0.0);
  check(grid_stimuli(n_inputs, 12, -2, 8), 100e-12);
  // Generated LOCAL and GLOBAL stimuli through the same, now larger, arena.
  for (const bool global : {false, true}) {
    waveform::TraceConfig config;
    config.global_mode = global;
    config.n_transitions = global ? 400 : 16;
    util::Rng rng(9);
    std::vector<DigitalTrace> stimuli;
    waveform::generate_traces_into(config, n_inputs, rng, stimuli);
    check(std::move(stimuli), 0.0);
  }
  // Inputs that never switch.
  check(std::vector<DigitalTrace>(n_inputs), 0.0);
}

// Pre-known stimuli on the lower inputs, the upper inputs' transitions
// injected window by window -- once in time order (the sharded runner's
// order, which skips the sort) and once input-major (which needs it). On
// grid stimuli full of equal times, the stream must come out exactly as
// one merged stimulus stream: pre-known events first at equal times, then
// injected ones in input order.
TEST_F(RunArenaSession, WindowedInjectionMatchesOneMergedStream) {
  const std::size_t n_inputs = circuit_->n_inputs();
  const std::size_t n_known = n_inputs / 2;
  const std::vector<DigitalTrace> stimuli = grid_stimuli(n_inputs, 24, 1, 11);
  double t_last = 0.0;
  for (const auto& trace : stimuli) {
    t_last = std::max(t_last, trace.transitions().back());
  }
  const double t_end = t_last + 2e-9;
  const Circuit::SimResult reference = circuit_->simulate(stimuli, 0.0, t_end);
  for (const bool time_ordered : {true, false}) {
    std::vector<DigitalTrace> known = stimuli;
    for (std::size_t i = n_known; i < n_inputs; ++i) {
      known[i] = DigitalTrace(stimuli[i].initial_value(), {});
    }
    SimSession session(*circuit_, known, 0.0);
    constexpr int kWindows = 5;
    double horizon = 0.0;
    for (int w = 1; w <= kWindows; ++w) {
      const double next = w == kWindows ? t_end : t_end * w / kWindows;
      std::vector<StimulusEvent> window;
      for (std::size_t i = n_known; i < n_inputs; ++i) {
        for (std::size_t k = 0; k < stimuli[i].n_transitions(); ++k) {
          const double t = stimuli[i].transitions()[k];
          if (t > horizon && t <= next) {
            window.push_back({t, static_cast<std::uint32_t>(i),
                              stimuli[i].is_rising(k)});
          }
        }
      }
      if (time_ordered) {
        std::sort(window.begin(), window.end(),
                  [](const StimulusEvent& x, const StimulusEvent& y) {
                    return x.t < y.t || (x.t == y.t && x.input < y.input);
                  });
      }
      for (const StimulusEvent& ev : window) {
        session.inject(ev.input, ev.t, ev.value);
      }
      session.advance(next);
      horizon = next;
    }
    SCOPED_TRACE(time_ordered ? "time-ordered injection" : "input-major");
    expect_same_run(session.take_result(), reference);
  }
}

TEST_F(RunArenaSession, ArenaRunMatchesTheVectorEntryPoint) {
  waveform::TraceConfig config;
  config.n_transitions = 32;
  RunArena arena;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    util::Rng rng(seed);
    waveform::generate_traces_into(config, circuit_->n_inputs(), rng,
                                   arena.stimuli);
    const Circuit::SimResult reference =
        circuit_->simulate(arena.stimuli, 0.0, 8e-9);
    circuit_->simulate_into(arena, 0.0, 8e-9, RunBudget{});
    expect_same_run(arena.result, reference);
  }
}

}  // namespace
}  // namespace charlie::sim
