// End-to-end validation of the cell-library front-end against the analog
// substrate: the mixed-arity netlist file ships in examples/netlists/,
// parses, builds via CellLibrary + CircuitBuilder, simulates under
// BatchRunner -- and cell characterization runs exactly once per cell no
// matter how many libraries, circuits, or worker clones consume it.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <set>
#include <string>

#include "cell/cell_library.hpp"
#include "cell/netlist.hpp"
#include "core/gate_parametrize.hpp"
#include "sim/batch_runner.hpp"
#include "sim/circuit_builder.hpp"
#include "sim/run_channel.hpp"
#include "spice/technology.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "waveform/generator.hpp"

namespace charlie {
namespace {

const char* mixed_tree_path() {
  return CHARLIE_SOURCE_DIR "/examples/netlists/mixed_tree.net";
}

const spice::Technology& tech() {
  static const spice::Technology t = spice::Technology::freepdk15_like();
  return t;
}

// Characterized once for the whole test binary; later tests assert that
// re-characterizing is a cache hit.
const cell::CellLibrary& library() {
  static const cell::CellLibrary lib = [] {
    cell::CellLibrary::reset_characterization_cache();
    return cell::CellLibrary::characterize(tech());
  }();
  return lib;
}

TEST(NetlistCircuit, MixedArityNetlistFileParses) {
  const auto desc = cell::read_netlist_file(mixed_tree_path());
  EXPECT_EQ(desc.inputs.size(), 6u);
  ASSERT_GE(desc.n_gates(), 10u);  // the acceptance floor
  std::set<std::string> cells;
  for (const auto& inst : desc.instances) cells.insert(inst.cell);
  EXPECT_EQ(cells, (std::set<std::string>{"NOR2", "NOR3", "NAND2",
                                          "NAND3"}));
}

TEST(NetlistCircuit, CharacterizationRunsExactlyOncePerCell) {
  const auto& lib = library();  // first (and only) pipeline run
  for (const char* cell : {"NOR2", "NOR3", "NAND2", "NAND3", "INV"}) {
    EXPECT_EQ(cell::CellLibrary::n_characterization_runs(cell), 1) << cell;
  }
  // A second library for the same technology: pure cache hit, and the mode
  // tables are literally the same objects.
  const auto lib2 = cell::CellLibrary::characterize(tech());
  for (const char* cell : {"NOR2", "NOR3", "NAND2", "NAND3", "INV"}) {
    EXPECT_EQ(cell::CellLibrary::n_characterization_runs(cell), 1) << cell;
  }
  for (const char* cell : {"NOR2", "NOR3", "NAND2", "NAND3"}) {
    EXPECT_EQ(lib.spec(cell).tables.get(), lib2.spec(cell).tables.get())
        << cell;
  }
  EXPECT_EQ(lib.tech_fingerprint(), tech().fingerprint());
}

// Every hybrid-cell fit lies within 1% of the fit's plausibility box.
TEST(NetlistCircuit, CharacterizedHybridCellsStayInThePlausibilityBox) {
  namespace box = core::fit_pipeline;
  auto expect_within = [](double v, const box::PlausibleRange& range,
                          const std::string& what) {
    EXPECT_GE(v, 0.99 * range.lo) << what;
    EXPECT_LE(v, 1.01 * range.hi) << what;
  };
  for (const char* cell : {"NOR2", "NOR3", "NAND2", "NAND3"}) {
    const core::GateParams& p = library().spec(cell).params;
    for (int i = 0; i < p.n_inputs(); ++i) {
      const std::string port =
          std::string(cell) + " input " + std::to_string(i);
      expect_within(p.r_series[i], box::kResistanceBox, port + " series R");
      expect_within(p.r_parallel[i], box::kResistanceBox,
                    port + " parallel R");
    }
    const std::string name(cell);
    expect_within(p.c_int, box::kInternalCapBox, name + " C_int");
    expect_within(p.c_out, box::kOutputCapBox, name + " C_out");
  }
}

TEST(NetlistCircuit, FittedCellsAreDistinctPerCell) {
  // Sanity on the characterized library: topologies match the cells and
  // the fits are not accidentally shared.
  const auto& lib = library();
  EXPECT_EQ(lib.spec("NOR2").params.topology, core::GateTopology::kNorLike);
  EXPECT_EQ(lib.spec("NAND3").params.topology,
            core::GateTopology::kNandLike);
  EXPECT_EQ(lib.spec("NOR3").params.n_inputs(), 3);
  EXPECT_NE(lib.spec("NOR2").params.r_series[0],
            lib.spec("NAND2").params.r_series[0]);
  EXPECT_GT(lib.spec("INV").rise_delay, 0.0);
  EXPECT_GT(lib.spec("INV").fall_delay, 0.0);
}

TEST(NetlistCircuit, CsvCacheRoundTripPreservesTheFit) {
  const std::string path = ::testing::TempDir() + "charlie_cells.csv";
  std::remove(path.c_str());
  const auto& lib = library();
  lib.save_csv(path);

  // load_csv: bit-exact parameters, no pipeline runs.
  const auto loaded = cell::CellLibrary::load_csv(path);
  EXPECT_EQ(loaded.tech_fingerprint(), tech().fingerprint());
  for (const char* cell : {"NOR2", "NOR3", "NAND2", "NAND3"}) {
    EXPECT_EQ(lib.spec(cell).params.r_series,
              loaded.spec(cell).params.r_series)
        << cell;
    EXPECT_EQ(lib.spec(cell).params.r_parallel,
              loaded.spec(cell).params.r_parallel)
        << cell;
    EXPECT_EQ(lib.spec(cell).params.c_int, loaded.spec(cell).params.c_int);
    EXPECT_EQ(lib.spec(cell).params.c_out, loaded.spec(cell).params.c_out);
    EXPECT_EQ(lib.spec(cell).params.delta_min,
              loaded.spec(cell).params.delta_min);
  }
  EXPECT_EQ(lib.spec("INV").rise_delay, loaded.spec("INV").rise_delay);
  EXPECT_EQ(lib.spec("XOR2").fall_delay, loaded.spec("XOR2").fall_delay);

  // characterize_cached on a warm file: no new pipeline runs.
  const auto cached = cell::CellLibrary::characterize_cached(path, tech());
  EXPECT_EQ(cell::CellLibrary::n_characterization_runs("NOR2"), 1);
  EXPECT_EQ(cached.spec("NOR3").params.c_out, lib.spec("NOR3").params.c_out);

  // A stale fingerprint forces regeneration (served from the in-memory
  // cache here, so still no new pipeline runs) and rewrites the file.
  {
    std::string text = util::read_text_file(path);
    const auto at = text.find("fingerprint,0,");
    ASSERT_NE(at, std::string::npos);
    text.insert(at + std::string("fingerprint,0,").size(), "stale-");
    std::ofstream out(path);
    out << text;
  }
  const auto refreshed = cell::CellLibrary::characterize_cached(path, tech());
  EXPECT_EQ(refreshed.tech_fingerprint(), tech().fingerprint());
  EXPECT_EQ(cell::CellLibrary::load_csv(path).tech_fingerprint(),
            tech().fingerprint());
  EXPECT_EQ(cell::CellLibrary::n_characterization_runs("NOR2"), 1);
  std::remove(path.c_str());
}

TEST(NetlistCircuit, MixedTreeSimulatesUnderBatchRunner) {
  const auto desc = cell::read_netlist_file(mixed_tree_path());
  const auto lib = std::make_shared<const cell::CellLibrary>(library());
  const sim::CircuitBuilder builder(lib);

  auto run = [&](std::size_t n_threads) {
    sim::BatchConfig config;
    config.trace.mu = 150e-12;
    config.trace.sigma = 60e-12;
    config.trace.n_transitions = 60;
    config.n_runs = 4;
    config.n_threads = n_threads;
    config.base_seed = 99;
    sim::BatchRunner runner([&builder, &desc] { return builder.build(desc); },
                            {"out"}, config);
    return runner.run();
  };

  const auto serial = run(1);
  EXPECT_EQ(serial.n_runs, 4u);
  EXPECT_GT(serial.total_events, 0);
  EXPECT_GT(serial.nets.front().transitions, 0);

  // Deterministic aggregate regardless of thread count.
  const auto parallel = run(3);
  EXPECT_EQ(serial.total_events, parallel.total_events);
  EXPECT_EQ(serial.nets.front().transitions,
            parallel.nets.front().transitions);
  EXPECT_EQ(serial.events_per_run, parallel.events_per_run);
}

TEST(NetlistCircuit, CircuitGatesMatchPerGateGoldenTraces) {
  // Simulate the whole netlist, then re-run every gate's channel standalone
  // on the in-circuit input traces: the builder's wiring must reproduce
  // each gate's output trace exactly.
  const auto desc = cell::read_netlist_file(mixed_tree_path());
  const auto& lib = library();
  const sim::CircuitBuilder builder(lib);
  const auto circuit = builder.build(desc);

  util::Rng rng(7);
  waveform::TraceConfig config;
  config.mu = 160e-12;
  config.sigma = 70e-12;
  config.n_transitions = 50;
  const auto stimuli =
      waveform::generate_traces(config, circuit->n_inputs(), rng);
  const double t_end = 60e-9;
  const auto result = circuit->simulate(stimuli, 0.0, t_end);

  int checked = 0;
  for (const auto& inst : desc.instances) {
    const auto& spec = lib.spec(inst.cell);
    std::vector<waveform::DigitalTrace> inputs;
    for (const auto& net : inst.inputs) {
      inputs.push_back(result.trace(circuit->find_net(net)));
    }
    const auto channel = spec.make_mis_channel();
    const auto golden =
        sim::run_gate_channel(*channel, inputs, 0.0, t_end);
    const auto& in_circuit = result.trace(circuit->find_net(inst.output));
    EXPECT_EQ(golden.initial_value(), in_circuit.initial_value())
        << inst.cell << " " << inst.output;
    EXPECT_EQ(golden.transitions(), in_circuit.transitions())
        << inst.cell << " " << inst.output;
    ++checked;
  }
  EXPECT_GE(checked, 10);
}

TEST(NetlistCircuit, CharacterizeCachedRegeneratesCorruptCaches) {
  // Every corruption mode of the CSV cache -- truncation mid-file, a row
  // with the wrong column count, a fingerprint mismatch, binary garbage --
  // must silently regenerate (served from the in-memory memo, so no new
  // pipeline runs) and leave a freshly valid file behind; never throw.
  const std::string path = ::testing::TempDir() + "charlie_cells_corrupt.csv";
  const auto& lib = library();
  const long runs_before = cell::CellLibrary::n_characterization_runs("NOR2");

  auto corrupt_and_recover = [&](const std::string& label,
                                 auto&& corruption) {
    std::remove(path.c_str());
    lib.save_csv(path);
    corruption();
    // The corrupted file must not load...
    EXPECT_THROW(cell::CellLibrary::load_csv(path), ConfigError) << label;
    // ...but characterize_cached must regenerate instead of failing.
    const auto recovered =
        cell::CellLibrary::characterize_cached(path, tech());
    EXPECT_EQ(recovered.tech_fingerprint(), tech().fingerprint()) << label;
    EXPECT_EQ(recovered.spec("NOR2").params.c_out,
              lib.spec("NOR2").params.c_out)
        << label;
    // The rewritten file is valid again.
    EXPECT_EQ(cell::CellLibrary::load_csv(path).tech_fingerprint(),
              tech().fingerprint())
        << label;
  };

  corrupt_and_recover("truncated", [&] {
    const std::string text = util::read_text_file(path);
    std::ofstream out(path, std::ios::trunc);
    out << text.substr(0, text.size() / 2);
  });
  corrupt_and_recover("wrong column count", [&] {
    std::string text = util::read_text_file(path);
    const auto at = text.find("\nNOR2,");
    ASSERT_NE(at, std::string::npos);
    const auto eol = text.find('\n', at + 1);
    text.replace(at, eol - at, "\nNOR2,only_two_fields");
    std::ofstream out(path, std::ios::trunc);
    out << text;
  });
  corrupt_and_recover("binary garbage", [&] {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << std::string("\x01\x02\x03 not a csv at all \xff\xfe\x00 tail", 29);
  });

  // Fingerprint mismatch: loads fine as a file but belongs to a different
  // technology, so characterize_cached must regenerate too.
  {
    std::remove(path.c_str());
    lib.save_csv(path);
    std::string text = util::read_text_file(path);
    const auto at = text.find("fingerprint,0,");
    ASSERT_NE(at, std::string::npos);
    text.insert(at + std::string("fingerprint,0,").size(), "other-tech-");
    std::ofstream out(path, std::ios::trunc);
    out << text;
    out.close();
    const auto recovered =
        cell::CellLibrary::characterize_cached(path, tech());
    EXPECT_EQ(recovered.tech_fingerprint(), tech().fingerprint());
    EXPECT_EQ(cell::CellLibrary::load_csv(path).tech_fingerprint(),
              tech().fingerprint());
  }

  // All regenerations were in-memory cache hits: the SPICE+fit pipeline
  // never re-ran.
  EXPECT_EQ(cell::CellLibrary::n_characterization_runs("NOR2"), runs_before);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace charlie
