#include "waveform/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/math.hpp"

namespace charlie::waveform {
namespace {

TEST(Generator, LocalModeProducesIndependentTraces) {
  TraceConfig cfg;
  cfg.mu = 100e-12;
  cfg.sigma = 50e-12;
  cfg.n_transitions = 200;
  util::Rng rng(1);
  const auto traces = generate_traces(cfg, 2, rng);
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].n_transitions(), 200u);
  EXPECT_EQ(traces[1].n_transitions(), 200u);
  // Independent streams: transition times must differ.
  EXPECT_NE(traces[0].transitions()[10], traces[1].transitions()[10]);
}

TEST(Generator, GapStatisticsMatchConfig) {
  TraceConfig cfg;
  cfg.mu = 100e-12;
  cfg.sigma = 20e-12;
  cfg.n_transitions = 5000;
  util::Rng rng(7);
  const auto traces = generate_traces(cfg, 1, rng);
  std::vector<double> gaps;
  const auto& ts = traces[0].transitions();
  for (std::size_t i = 1; i < ts.size(); ++i) gaps.push_back(ts[i] - ts[i - 1]);
  EXPECT_NEAR(math::mean(gaps), cfg.mu, 3e-12);
  EXPECT_NEAR(math::stddev(gaps), cfg.sigma, 3e-12);
}

TEST(Generator, MinWidthFloorRespected) {
  TraceConfig cfg;
  cfg.mu = 5e-12;
  cfg.sigma = 20e-12;  // would often draw negative gaps
  cfg.n_transitions = 2000;
  cfg.min_width = 1e-12;
  util::Rng rng(3);
  const auto traces = generate_traces(cfg, 1, rng);
  const auto& ts = traces[0].transitions();
  for (std::size_t i = 1; i < ts.size(); ++i) {
    EXPECT_GT(ts[i] - ts[i - 1], cfg.min_width * 0.999);
  }
}

TEST(Generator, GlobalModeSplitsOneSchedule) {
  TraceConfig cfg;
  cfg.mu = 2000e-12;
  cfg.sigma = 1000e-12;
  cfg.n_transitions = 400;
  cfg.global_mode = true;
  util::Rng rng(5);
  const auto traces = generate_traces(cfg, 2, rng);
  // The global schedule is split across inputs.
  EXPECT_EQ(traces[0].n_transitions() + traces[1].n_transitions(), 400u);
  // Roughly half each.
  EXPECT_GT(traces[0].n_transitions(), 120u);
  EXPECT_GT(traces[1].n_transitions(), 120u);
  // Transitions on different inputs are far apart (that is GLOBAL's point):
  // minimum cross-input separation should be of the pulse-width order.
  double min_sep = 1.0;
  for (double ta : traces[0].transitions()) {
    for (double tb : traces[1].transitions()) {
      min_sep = std::min(min_sep, std::abs(ta - tb));
    }
  }
  EXPECT_GT(min_sep, 1e-12);
}

TEST(Generator, StartTimeHonored) {
  TraceConfig cfg;
  cfg.t_start = 1e-9;
  cfg.n_transitions = 10;
  util::Rng rng(2);
  for (const auto& trace : generate_traces(cfg, 2, rng)) {
    EXPECT_GT(trace.transitions().front(), cfg.t_start);
  }
}

TEST(Generator, DeterministicPerSeed) {
  TraceConfig cfg;
  cfg.n_transitions = 50;
  util::Rng rng1(11);
  util::Rng rng2(11);
  const auto a = generate_traces(cfg, 2, rng1);
  const auto b = generate_traces(cfg, 2, rng2);
  EXPECT_EQ(a[0].transitions(), b[0].transitions());
  EXPECT_EQ(a[1].transitions(), b[1].transitions());
}

// generate_traces_into refills caller-owned storage with exactly the traces
// generate_traces returns, whatever the storage held before, and consumes
// the same RNG draws.
TEST(Generator, IntoMatchesGenerateTracesForAnyPriorArena) {
  for (const bool global : {false, true}) {
    TraceConfig cfg;
    cfg.global_mode = global;
    cfg.n_transitions = 40;
    for (const std::size_t prior_inputs : {0u, 2u, 9u}) {
      std::vector<DigitalTrace> arena;
      if (prior_inputs > 0) {
        TraceConfig prior = cfg;
        prior.n_transitions = 70;
        util::Rng warm(99);
        generate_traces_into(prior, prior_inputs, warm, arena);
      }
      util::Rng rng_a(5);
      util::Rng rng_b(5);
      const auto expected = generate_traces(cfg, 5, rng_a);
      generate_traces_into(cfg, 5, rng_b, arena);
      ASSERT_EQ(arena.size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(arena[i].initial_value(), expected[i].initial_value());
        EXPECT_EQ(arena[i].transitions(), expected[i].transitions())
            << (global ? "GLOBAL" : "LOCAL") << " input " << i
            << ", arena previously held " << prior_inputs << " inputs";
      }
      // Both streams sit at the same position afterwards.
      EXPECT_EQ(rng_a.uniform(0.0, 1.0), rng_b.uniform(0.0, 1.0));
    }
  }
}

TEST(Generator, IntoReusesTraceStorageOnARepeatedShape) {
  for (const bool global : {false, true}) {
    TraceConfig cfg;
    cfg.global_mode = global;
    cfg.n_transitions = 64;
    std::vector<DigitalTrace> arena;
    util::Rng first(1);
    generate_traces_into(cfg, 6, first, arena);
    std::vector<const double*> data;
    for (const auto& trace : arena) data.push_back(trace.transitions().data());
    // A different seed: GLOBAL mode deals the transitions out differently,
    // but no input can receive more than n_transitions.
    util::Rng second(2);
    generate_traces_into(cfg, 6, second, arena);
    ASSERT_EQ(arena.size(), data.size());
    for (std::size_t i = 0; i < arena.size(); ++i) {
      EXPECT_EQ(arena[i].transitions().data(), data[i])
          << (global ? "GLOBAL" : "LOCAL") << " input " << i;
    }
  }
}

TEST(Generator, PaperConfigsMatchFig7) {
  const auto configs = paper_fig7_configs();
  ASSERT_EQ(configs.size(), 4u);
  EXPECT_EQ(configs[0].label(), "100/50 - LOCAL");
  EXPECT_EQ(configs[1].label(), "200/100 - LOCAL");
  EXPECT_EQ(configs[2].label(), "2000/1000 - GLOBAL");
  EXPECT_EQ(configs[3].label(), "5000/5 - GLOBAL");
  EXPECT_EQ(configs[0].n_transitions, 500u);
  EXPECT_EQ(configs[3].n_transitions, 250u);  // paper: 250 for the last
  EXPECT_FALSE(configs[0].global_mode);
  EXPECT_TRUE(configs[2].global_mode);
}

}  // namespace
}  // namespace charlie::waveform
