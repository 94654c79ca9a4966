// Seam probes: the per-event engine seams and the per-run rebind seams,
// each timed from outside through its public function on c432's cells.
// A probe runs kBatches batches of a fixed number of calls; the layer
// value is the median ns per call, its spread the batches' IQR / median.
#include <memory>

#include "bench.hpp"
#include "core/mode_table_grid.hpp"
#include "sim/circuit_builder.hpp"
#include "sim/event_heap.hpp"
#include "sim/hybrid_gate_channel.hpp"
#include "sim/two_exp_crossing.hpp"
#include "util/rng.hpp"
#include "waveform/digital_trace.hpp"

namespace perfbench {

using namespace charlie;

namespace {

constexpr int kBatches = 21;

// Keeps probe results observable so the timed calls are not folded away.
volatile double g_sink = 0.0;

template <typename Body>
void probe(const std::string& name, std::size_t calls_per_batch, Body body) {
  std::vector<double> ns;
  body();  // warm caches and lazy state
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = Clock::now();
    body();
    ns.push_back(seconds_since(t0) * 1e9 /
                 static_cast<double>(calls_per_batch));
  }
  layer_samples().record(name, median(ns));
  layer_samples().record(name + "_spread", iqr_frac(ns));
}

// Hybrid (MIS) cells instantiated in c432, in registry order.
std::vector<const cell::CellSpec*> hybrid_cells(
    const cell::CellLibrary& library) {
  std::vector<const cell::CellSpec*> cells;
  for (const char* name : {"NAND2", "NOR2", "NAND3", "NOR3"}) {
    cells.push_back(&library.spec(name));
  }
  return cells;
}

void probe_heap(std::uint64_t seed) {
  // pop + re-schedule of the popped gate at a steady queue depth, with as
  // many slots as c432 has gates.
  constexpr std::size_t kSlots = 160;
  constexpr std::size_t kDepth = 32;
  constexpr std::size_t kOps = 200000;
  util::Rng rng(seed);
  std::vector<double> gaps(4096);
  for (double& g : gaps) g = rng.uniform(1e-12, 100e-12);
  sim::EventHeap heap;
  probe("sim.heap_op_ns", kOps, [&] {
    heap.reset(kSlots);
    long seq = 0;
    for (std::size_t s = 0; s < kDepth; ++s) {
      heap.schedule(s, gaps[s], seq++, false);
    }
    for (std::size_t i = 0; i < kOps; ++i) {
      const std::size_t slot = heap.top_slot();
      const double t = heap.top().t;
      heap.pop();
      heap.schedule(slot, t + gaps[i % gaps.size()], seq++, (i & 1) != 0);
    }
    g_sink = g_sink + heap.top().t;
  });
}

void probe_on_input(const cell::CellLibrary& library, std::uint64_t seed) {
  // Input transitions at MIS-relevant separations; between inputs the
  // engine fires every crossing that came due, as here.
  constexpr std::size_t kInputs = 20000;
  const auto cells = hybrid_cells(library);
  struct Event {
    double t;
    int port;
  };
  std::vector<std::vector<Event>> streams;
  util::Rng rng(seed);
  for (const auto* spec : cells) {
    std::vector<Event> events;
    double t = 0.0;
    for (std::size_t i = 0; i < kInputs / cells.size(); ++i) {
      t += rng.uniform(5e-12, 120e-12);
      events.push_back({t, static_cast<int>(rng.uniform(0.0, spec->arity))});
    }
    streams.push_back(std::move(events));
  }
  probe("sim.on_input_ns", kInputs, [&] {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      sim::HybridGateChannel channel(cells[c]->tables);
      std::vector<bool> level(static_cast<std::size_t>(cells[c]->arity),
                              false);
      channel.initialize(0.0, level);
      for (const Event& e : streams[c]) {
        for (auto p = channel.pending(); p && p->t <= e.t;
             p = channel.pending()) {
          channel.on_fire(*p);
        }
        const auto port = static_cast<std::size_t>(e.port);
        level[port] = !level[port];
        channel.on_input(e.t, e.port, level[port]);
      }
      if (const auto p = channel.pending()) g_sink = g_sink + p->t;
    }
  });
}

void probe_crossing(const cell::CellLibrary& library, std::uint64_t seed) {
  // Expansions of every mode of c432's hybrid cells entered from sampled
  // states; the probe times the crossing search on them.
  struct Case {
    sim::TwoExpVo vo;
    double vth;
    double horizon;
  };
  std::vector<Case> cases;
  util::Rng rng(seed);
  for (const auto* spec : hybrid_cells(library)) {
    const core::GateModeTables& tables = *spec->tables;
    const double vdd = 2.0 * tables.vth();
    for (core::GateState s = 0; s < tables.n_states(); ++s) {
      for (int k = 0; k < 64; ++k) {
        const ode::Vec2 x(rng.uniform(0.0, vdd), rng.uniform(0.0, vdd));
        const sim::TwoExpVo vo = sim::two_exp_expand(tables.state_table(s), x);
        if (vo.valid) cases.push_back({vo, tables.vth(), tables.horizon()});
      }
    }
  }
  constexpr std::size_t kCalls = 40000;
  probe("sim.crossing_ns", kCalls, [&] {
    double acc = 0.0;
    for (std::size_t i = 0; i < kCalls; ++i) {
      const Case& c = cases[i % cases.size()];
      const auto hit = sim::two_exp_next_crossing(c.vo, c.vth, 0.0, c.horizon);
      if (hit) acc += hit->tau;
    }
    g_sink = g_sink + acc;
  });
}

void probe_append() {
  constexpr std::size_t kAppends = 200000;
  waveform::DigitalTrace trace;
  trace.reserve(kAppends);
  probe("waveform.append_ns", kAppends, [&] {
    trace.reset(false);
    double t = 0.0;
    for (std::size_t i = 0; i < kAppends; ++i) {
      t += 1e-12;
      trace.append_transition(t);
    }
    g_sink = g_sink + static_cast<double>(trace.n_transitions());
  });
}

void probe_rebind(const cell::CellLibrary& library, std::uint64_t seed) {
  const sim::ProcessVariation variation = bench_variation();
  std::vector<core::ProcessPoint> points;
  for (std::uint64_t i = 0; i < 256; ++i) {
    points.push_back(variation.sample(seed, i));
  }

  // One grid blend per call, cycling c432's hybrid cells.
  struct Target {
    std::unique_ptr<core::ModeTableGrid> grid;
    std::unique_ptr<core::GateModeTables> local;
  };
  std::vector<Target> targets;
  for (const auto* spec : hybrid_cells(library)) {
    targets.push_back(
        {std::make_unique<core::ModeTableGrid>(spec->params,
                                               variation.grid_spec()),
         std::make_unique<core::GateModeTables>(spec->params)});
  }
  constexpr std::size_t kBlends = 20000;
  probe("core.grid_interpolate_ns", kBlends, [&] {
    for (std::size_t i = 0; i < kBlends; ++i) {
      Target& t = targets[i % targets.size()];
      t.grid->interpolate_into(points[i % points.size()], *t.local);
    }
    g_sink = g_sink + targets[0].local->horizon();
  });

  // Whole-circuit rebind of a c432 clone, as a batch worker does per run.
  const sim::CircuitBuilder builder(
      std::make_shared<const cell::CellLibrary>(library));
  const auto circuit = builder.build(cell::read_netlist_file(kC432Path));
  sim::ProcessBinder::GridMap grids;
  sim::ProcessBinder::build_grids(*circuit, variation.grid_spec(), grids);
  sim::ProcessBinder binder(*circuit, grids);
  constexpr std::size_t kBinds = 4000;
  probe("sim.binder_bind_ns", kBinds, [&] {
    for (std::size_t i = 0; i < kBinds; ++i) {
      binder.bind(points[i % points.size()]);
    }
  });
}

}  // namespace

void run_seam_probes(const Options& options,
                     const cell::CellLibrary& library) {
  probe_heap(options.seed);
  probe_on_input(library, options.seed);
  probe_crossing(library, options.seed);
  probe_append();
  probe_rebind(library, options.seed);
}

}  // namespace perfbench
