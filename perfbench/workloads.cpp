// The four workloads (README.md says why each exists) and the cross-layer
// pass. Every call into the program's public API that a layer metric
// names is wrapped in a span of that name.
#include <algorithm>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "cell/netlist_gen.hpp"
#include "obs/trace_recorder.hpp"
#include "sim/batch_runner.hpp"
#include "sim/circuit_builder.hpp"
#include "sim/sharded_circuit.hpp"
#include "sta/timing_graph.hpp"
#include "util/rng.hpp"
#include "waveform/generator.hpp"
#include "waveform/vcd.hpp"

namespace perfbench {

using namespace charlie;
using obs::ScopedSpan;

namespace {

constexpr std::size_t kMcRuns = 1024;        // runs per mc_c432 batch
constexpr std::size_t kMcTransitions = 64;   // per input, long stimuli
constexpr std::size_t kBigTransitions = 256;  // per input, big_sim
constexpr std::size_t kStatRuns = 16384;     // runs per stat_c432 batch
constexpr std::size_t kStatTransitions = 2;  // per input, two-vector style
constexpr std::size_t kStatCorners = 64;     // STA corners = runs 0..63
constexpr std::size_t kBigCorners = 8;       // big_sta corner analyses
constexpr std::size_t kPaths = 5;            // top-k critical paths
// The default 100k-gate gen_netlist netlist. Its generator seed is fixed:
// path-search time on generated netlists varies ~2x with the generator
// seed, which would swamp job time across workload seeds. The workload
// seed drives the stimuli and the sampled corners instead.
constexpr std::uint64_t kBigNetlistSeed = 1;

cell::NetlistDesc parse(const std::string& path) {
  ScopedSpan span("cell.parse");
  return cell::read_netlist_file(path);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
}

sim::CircuitFactory factory(std::shared_ptr<const sim::CircuitBuilder> builder,
                            std::shared_ptr<const cell::NetlistDesc> desc) {
  return [builder, desc] {
    ScopedSpan span("sim.build");
    return builder->build(*desc);
  };
}

sim::BatchConfig mc_config(std::uint64_t seed, std::size_t workers,
                           std::size_t n_runs) {
  sim::BatchConfig config;
  config.trace.mu = 150e-12;
  config.trace.sigma = 60e-12;
  config.trace.n_transitions = kMcTransitions;
  config.n_runs = n_runs;
  config.base_seed = seed;
  config.n_threads = workers;
  config.stat_deadline = 1.0e-9;
  return config;
}

sim::BatchConfig stat_config(std::uint64_t seed, std::size_t workers,
                             std::size_t n_runs, double deadline) {
  sim::BatchConfig config;
  config.trace.mu = 300e-12;
  config.trace.sigma = 100e-12;
  config.trace.n_transitions = kStatTransitions;
  config.n_runs = n_runs;
  config.base_seed = seed;
  config.n_threads = workers;
  config.t_settle = 4e-9;
  config.variation = bench_variation();
  config.stat_deadline = deadline;
  return config;
}

// One BatchRunner::run() with its process CPU per engine event and its
// Newton->Brent hand-off share recorded as layer samples.
sim::BatchResult run_batch(sim::BatchRunner& runner) {
  const double cpu0 = cpu_seconds();
  sim::BatchResult result;
  {
    ScopedSpan span("sim.batch_run");
    result = runner.run();
  }
  const double cpu = cpu_seconds() - cpu0;
  if (result.total_events > 0) {
    const auto events = static_cast<double>(result.total_events);
    layer_samples().record("sim.cpu_ns_per_event", cpu * 1e9 / events);
    layer_samples().record(
        "sim.brent_fallback_frac",
        static_cast<double>(
            result.metrics.counter("run.newton_brent_fallbacks")) /
            events);
  }
  return result;
}

void digest_batch(Digest& d, const sim::BatchResult& r) {
  d.add(static_cast<long long>(r.total_events));
  for (const long e : r.events_per_run) d.add(static_cast<long long>(e));
  d.add(static_cast<long long>(r.stats.n_samples));
  for (const auto& [q, v] : r.stats.quantiles) {
    d.add(q);
    d.add(v);
  }
  d.add(r.stats.mean);
  d.add(r.stats.stddev);
  d.add(r.stats.min);
  d.add(r.stats.max);
  d.add(static_cast<long long>(r.stats.n_meeting_deadline));
  d.add(r.stats.yield);
  for (const double c : r.critical_delays) d.add(c);
}

std::uint64_t batch_digest(const sim::BatchResult& r) {
  Digest d;
  digest_batch(d, r);
  return d.value();
}

// The STA screen: nominal pass, top-k paths, sampled corners (corner c =
// variation.sample(seed, c), the process point of batch run c), canonical
// SSTA.
struct Screen {
  sta::TimingResult nominal;
  std::vector<double> corner_delays;
  Ops ops;
  double arc_evaluations = 0.0;
};

Screen sta_screen(const sta::TimingGraph& graph, std::uint64_t seed,
                  std::size_t n_corners, bool find_paths, Digest& d) {
  const sim::ProcessVariation variation = bench_variation();
  Screen s;
  {
    ScopedSpan span("sta.analyze");
    s.nominal = graph.analyze(graph.nominal_arcs(), 0.0);
  }
  s.ops.check(s.nominal.critical_delay > 0.0,
              "nominal STA critical delay is not positive");
  if (find_paths) {
    std::vector<sta::CriticalPath> paths;
    {
      ScopedSpan span("sta.paths");
      paths = graph.critical_paths(graph.nominal_arcs(), kPaths);
    }
    layer_samples().record("sta.paths_found",
                           static_cast<double>(paths.size()));
    s.ops.check(paths.size() == kPaths,
                "critical_paths returned " + std::to_string(paths.size()) +
                    " of " + std::to_string(kPaths) + " paths");
  }
  for (std::size_t c = 0; c < n_corners; ++c) {
    double delay = 0.0;
    {
      ScopedSpan span("sta.corner");
      const sta::ArcSet arcs = graph.arcs_at(variation.sample(seed, c));
      delay = graph.analyze(arcs, 0.0).critical_delay;
    }
    s.corner_delays.push_back(delay);
  }
  s.ops.count(static_cast<long>(n_corners),
              static_cast<long>(std::count_if(
                  s.corner_delays.begin(), s.corner_delays.end(),
                  [](double delay) { return !(delay > 0.0); })),
              "corner STA critical delays are not positive");
  sta::CanonicalArcSet canonical;
  {
    ScopedSpan span("sta.canonical_arcs");
    canonical = graph.canonical_arcs(variation);
  }
  sta::Canonical ssta;
  {
    ScopedSpan span("sta.ssta");
    ssta = graph.analyze_ssta(canonical);
  }
  s.ops.check(ssta.sigma() > 0.0, "SSTA sigma is not positive");
  s.arc_evaluations =
      static_cast<double>(graph.nominal_arcs().elements.size()) *
      static_cast<double>(n_corners + 2);

  d.add(s.nominal.critical_delay);
  d.add(s.nominal.worst_slack);
  for (const sta::NetTiming& n : s.nominal.nets) {
    d.add(n.arrival_rise);
    d.add(n.arrival_fall);
  }
  for (const double c : s.corner_delays) d.add(c);
  d.add(ssta.mean);
  for (const double x : ssta.sens) d.add(x);
  d.add(ssta.sigma_rand);
  return s;
}

// Corner c and batch run c share one process point: the run's observed
// critical delay must not exceed the corner's STA bound.
long bound_violations(const sim::BatchResult& r, const Screen& screen) {
  long violations = 0;
  for (std::size_t c = 0; c < screen.corner_delays.size(); ++c) {
    const double observed = r.critical_delays[c];
    if (observed >= 0.0 &&
        observed > screen.corner_delays[c] * (1.0 + 1e-9)) {
      ++violations;
    }
  }
  layer_samples().record("sta.bound_violations",
                         static_cast<double>(violations));
  return violations;
}

// Stimuli handed to the sharded engine: generated here from the seed.
struct Stimuli {
  std::vector<waveform::DigitalTrace> traces;
  double t_end = 0.0;
};

Stimuli make_stimuli(std::size_t n_inputs, std::size_t n_transitions,
                     std::uint64_t seed) {
  waveform::TraceConfig config = mc_config(seed, 1, 1).trace;
  config.n_transitions = n_transitions;
  util::Rng rng(seed);
  Stimuli s;
  s.traces = waveform::generate_traces(config, n_inputs, rng);
  double t_last = config.t_start;
  for (const auto& t : s.traces) {
    if (!t.empty()) t_last = std::max(t_last, t.transitions().back());
  }
  s.t_end = t_last + 1e-9;
  return s;
}

void digest_nets(Digest& d, long n_events,
                 const std::vector<const waveform::DigitalTrace*>& traces) {
  d.add(static_cast<long long>(n_events));
  for (const auto* t : traces) {
    d.add(static_cast<long long>(t->initial_value()));
    for (const double x : t->transitions()) d.add(x);
  }
}

// build_sharded -> simulate -> VCD + metrics JSON export of one netlist.
// Returns the digest of the simulated outputs (events + output traces).
struct ShardedOutcome {
  bool ok = false;
  long n_events = 0;
  std::uint64_t nets_digest = 0;
};

ShardedOutcome sharded_flow(const sim::CircuitBuilder& builder,
                            const cell::NetlistDesc& desc,
                            const Stimuli& stimuli, std::size_t workers,
                            const std::string& out_prefix) {
  std::unique_ptr<sim::ShardedCircuit> circuit;
  {
    ScopedSpan span("sim.build_sharded");
    circuit = builder.build_sharded(desc, workers);
  }
  sim::ShardedSimConfig config;
  config.n_threads = workers;
  sim::ShardedCircuit::Result result;
  {
    ScopedSpan span("sim.sharded_simulate");
    result = circuit->simulate(stimuli.traces, 0.0, stimuli.t_end, config);
  }
  std::vector<waveform::VcdDigitalSignal> signals;
  for (const std::string& net : desc.inputs) {
    signals.push_back({net, &result.trace(net)});
  }
  std::vector<const waveform::DigitalTrace*> outputs;
  for (const std::string& net : desc.outputs) {
    signals.push_back({net, &result.trace(net)});
    outputs.push_back(&result.trace(net));
  }
  {
    ScopedSpan span("waveform.vcd_write");
    waveform::write_vcd(out_prefix + ".vcd", signals);
  }
  std::string json;
  {
    ScopedSpan span("obs.metrics_json");
    json = result.metrics.to_json();
  }
  write_file(out_prefix + ".metrics.json", json);

  long tasks = 0;
  long empty = 0;
  for (const auto& shard : result.shard_window_events) {
    for (const long e : shard) {
      ++tasks;
      if (e == 0) ++empty;
    }
  }
  layer_samples().record("sim.shard_load_imbalance", result.load_imbalance());
  layer_samples().record(
      "sim.shard_empty_task_frac",
      tasks > 0 ? static_cast<double>(empty) / static_cast<double>(tasks)
                : 0.0);
  ShardedOutcome out;
  out.ok = result.ok();
  out.n_events = result.n_events;
  Digest d;
  digest_nets(d, result.n_events, outputs);
  out.nets_digest = d.value();
  return out;
}

// Fixed 100k-gate netlist file shared by big_sim and big_sta.
std::string write_big_netlist(const std::string& out_dir) {
  cell::NetlistGenConfig config;
  config.seed = kBigNetlistSeed;
  const std::string path = out_dir + "/big_netlist.net";
  cell::write_netlist_file(cell::generate_netlist(config), path);
  return path;
}

// --- mc_c432 ---------------------------------------------------------------

class McC432 final : public Workload {
 public:
  explicit McC432(Options o) : o_(std::move(o)) {}

  void setup() override {
    runner_.reset();  // the previous set-up's pool and clones
    library_ = characterize_library();
    desc_ = std::make_shared<const cell::NetlistDesc>(parse(kC432Path));
    builder_ = std::make_shared<const sim::CircuitBuilder>(library_);
    runner_ = std::make_unique<sim::BatchRunner>(
        factory(builder_, desc_), desc_->outputs,
        mc_config(o_.seed, o_.workers, kMcRuns));
    expected_ = job().digest;
  }

  JobOutcome job() override {
    const auto t0 = Clock::now();
    const sim::BatchResult r = run_batch(*runner_);
    JobOutcome out;
    out.wall_s = seconds_since(t0);
    out.samples = static_cast<double>(r.n_runs);
    out.events = static_cast<double>(r.total_events);
    out.ops.count(static_cast<long>(r.n_runs), static_cast<long>(r.n_failed),
                  "runs ended with a non-kOk status");
    out.digest = batch_digest(r);
    return out;
  }

  std::uint64_t expected_digest() const override { return expected_; }

  Ops verify() override {
    Ops v;
    sim::BatchRunner reference(factory(builder_, desc_), desc_->outputs,
                               mc_config(o_.seed, 1, kMcRuns));
    v.check(batch_digest(reference.run()) == expected_,
            "1-worker batch digest differs from the multi-worker batch");
    return v;
  }

  std::string digest_key() const override { return "mc_c432/any"; }

  std::string shape_json() const override {
    std::ostringstream s;
    s << "{\"netlist\": \"c432\", \"gates\": " << desc_->n_gates()
      << ", \"runs_per_job\": " << kMcRuns
      << ", \"transitions_per_input\": " << kMcTransitions << "}";
    return s.str();
  }

 private:
  Options o_;
  std::shared_ptr<const cell::CellLibrary> library_;
  std::shared_ptr<const cell::NetlistDesc> desc_;
  std::shared_ptr<const sim::CircuitBuilder> builder_;
  std::unique_ptr<sim::BatchRunner> runner_;
  std::uint64_t expected_ = 0;
};

// --- stat_c432 -------------------------------------------------------------

class StatC432 final : public Workload {
 public:
  explicit StatC432(Options o) : o_(std::move(o)) {}

  void setup() override {
    runner_.reset();
    library_ = characterize_library();
    desc_ = std::make_shared<const cell::NetlistDesc>(parse(kC432Path));
    builder_ = std::make_shared<const sim::CircuitBuilder>(library_);
    {
      ScopedSpan span("sta.graph_build");
      graph_ = std::make_unique<sta::TimingGraph>(*desc_, library_);
    }
    // Yield deadline: three quarters of the nominal STA bound.
    deadline_ =
        0.75 * graph_->analyze(graph_->nominal_arcs(), 0.0).critical_delay;
    runner_ = std::make_unique<sim::BatchRunner>(
        factory(builder_, desc_), desc_->outputs, config(o_.workers));
    expected_ = job().digest;
    expected_batch_ = last_batch_digest_;
  }

  JobOutcome job() override {
    Digest d;
    const auto t0 = Clock::now();
    const Screen screen = sta_screen(*graph_, o_.seed, kStatCorners, true, d);
    const sim::BatchResult r = run_batch(*runner_);
    JobOutcome out;
    out.wall_s = seconds_since(t0);
    const long violations = bound_violations(r, screen);
    out.samples = static_cast<double>(r.n_runs);
    out.events = static_cast<double>(r.total_events);
    out.ops = screen.ops;
    out.ops.count(static_cast<long>(r.n_runs), static_cast<long>(r.n_failed),
                  "runs ended with a non-kOk status");
    out.ops.count(static_cast<long>(kStatCorners), violations,
                  "runs exceed their corner's STA critical delay");
    last_batch_digest_ = batch_digest(r);
    digest_batch(d, r);
    out.digest = d.value();
    return out;
  }

  std::uint64_t expected_digest() const override { return expected_; }

  Ops verify() override {
    Ops v;
    sim::BatchRunner reference(factory(builder_, desc_), desc_->outputs,
                               config(1));
    v.check(batch_digest(reference.run()) == expected_batch_,
            "1-worker variation batch digest differs from the multi-worker "
            "batch");
    return v;
  }

  std::string digest_key() const override {
    return "stat_c432/" + grid_isa();
  }

  std::string shape_json() const override {
    std::ostringstream s;
    s << "{\"netlist\": \"c432\", \"gates\": " << desc_->n_gates()
      << ", \"runs_per_job\": " << kStatRuns
      << ", \"transitions_per_input\": " << kStatTransitions
      << ", \"sta_corners\": " << kStatCorners << "}";
    return s.str();
  }

 private:
  sim::BatchConfig config(std::size_t workers) const {
    return stat_config(o_.seed, workers, kStatRuns, deadline_);
  }

  Options o_;
  std::shared_ptr<const cell::CellLibrary> library_;
  std::shared_ptr<const cell::NetlistDesc> desc_;
  std::shared_ptr<const sim::CircuitBuilder> builder_;
  std::unique_ptr<sta::TimingGraph> graph_;
  std::unique_ptr<sim::BatchRunner> runner_;
  double deadline_ = 0.0;
  std::uint64_t expected_ = 0;
  std::uint64_t expected_batch_ = 0;
  std::uint64_t last_batch_digest_ = 0;
};

// --- big_sim ---------------------------------------------------------------

class BigSim final : public Workload {
 public:
  explicit BigSim(Options o)
      : o_(std::move(o)), netlist_path_(write_big_netlist(o_.out_dir)) {
    stimuli_ = make_stimuli(
        cell::read_netlist_file(netlist_path_).inputs.size(), kBigTransitions,
        o_.seed);
  }

  void setup() override {
    library_ = characterize_library();
    builder_ = std::make_shared<const sim::CircuitBuilder>(library_);
    expected_ = job().digest;
    expected_nets_ = last_nets_digest_;
  }

  JobOutcome job() override {
    const auto t0 = Clock::now();
    const cell::NetlistDesc desc = parse(netlist_path_);
    const std::string prefix = o_.out_dir + "/big_sim";
    const ShardedOutcome r =
        sharded_flow(*builder_, desc, stimuli_, o_.workers, prefix);
    JobOutcome out;
    out.wall_s = seconds_since(t0);
    gates_ = desc.n_gates();
    out.samples = 1.0;
    out.events = static_cast<double>(r.n_events);
    out.ops.check(r.ok, "sharded simulation ended with a non-kOk status");
    last_nets_digest_ = r.nets_digest;
    Digest d;
    d.add(static_cast<long long>(r.nets_digest));
    d.add(read_file(prefix + ".vcd"));
    d.add(read_file(prefix + ".metrics.json"));
    out.digest = d.value();
    return out;
  }

  std::uint64_t expected_digest() const override { return expected_; }

  Ops verify() override {
    Ops v;
    const cell::NetlistDesc desc = cell::read_netlist_file(netlist_path_);
    const std::unique_ptr<sim::Circuit> circuit = builder_->build(desc);
    const sim::Circuit::SimResult mono =
        circuit->simulate(stimuli_.traces, 0.0, stimuli_.t_end);
    std::vector<const waveform::DigitalTrace*> outputs;
    for (const std::string& net : desc.outputs) {
      outputs.push_back(&mono.trace(circuit->find_net(net)));
    }
    Digest d;
    digest_nets(d, mono.n_events, outputs);
    v.check(mono.ok() && d.value() == expected_nets_,
            "sharded outputs differ from the monolithic engine's");
    return v;
  }

  std::string digest_key() const override { return "big_sim/any"; }

  std::string shape_json() const override {
    std::ostringstream s;
    s << "{\"netlist\": \"generate_netlist(seed=" << kBigNetlistSeed
      << ")\", \"gates\": " << gates_
      << ", \"transitions_per_input\": " << kBigTransitions
      << ", \"shards\": " << o_.workers << "}";
    return s.str();
  }

 private:
  Options o_;
  std::string netlist_path_;
  Stimuli stimuli_;
  std::shared_ptr<const cell::CellLibrary> library_;
  std::shared_ptr<const sim::CircuitBuilder> builder_;
  std::size_t gates_ = 0;
  std::uint64_t expected_ = 0;
  std::uint64_t expected_nets_ = 0;
  std::uint64_t last_nets_digest_ = 0;
};

// --- big_sta ---------------------------------------------------------------

class BigSta final : public Workload {
 public:
  explicit BigSta(Options o)
      : o_(std::move(o)), netlist_path_(write_big_netlist(o_.out_dir)) {}

  // The warm-up job skips critical_paths: it warms every other stage, and
  // the path search is the recorded defect (README.md), ~7 s per call.
  void setup() override {
    library_ = characterize_library();
    expected_ = run(false).digest;
  }

  JobOutcome job() override { return run(true); }

  std::uint64_t expected_digest() const override { return expected_; }

  Ops verify() override {
    Ops v;
    // The critical delay is the latest endpoint arrival.
    double latest = 0.0;
    for (const sta::NetTiming& n : last_nominal_.nets) {
      if (std::find(endpoints_.begin(), endpoints_.end(), n.net) !=
          endpoints_.end()) {
        latest = std::max({latest, n.arrival_rise, n.arrival_fall});
      }
    }
    v.check(latest == last_nominal_.critical_delay,
            "critical delay is not the latest endpoint arrival");
    v.check(last_nominal_.worst_slack == 0.0,
            "worst slack against the critical delay is not 0");
    return v;
  }

  std::string digest_key() const override { return "big_sta/any"; }

  std::string shape_json() const override {
    std::ostringstream s;
    s << "{\"netlist\": \"generate_netlist(seed=" << kBigNetlistSeed
      << ")\", \"gates\": " << gates_ << ", \"sta_corners\": " << kBigCorners
      << ", \"paths_requested\": " << kPaths << "}";
    return s.str();
  }

 private:
  JobOutcome run(bool find_paths) {
    Digest d;
    const auto t0 = Clock::now();
    const cell::NetlistDesc desc = parse(netlist_path_);
    std::unique_ptr<sta::TimingGraph> graph;
    {
      ScopedSpan span("sta.graph_build");
      graph = std::make_unique<sta::TimingGraph>(desc, library_);
    }
    Screen s = sta_screen(*graph, o_.seed, kBigCorners, find_paths, d);
    JobOutcome out;
    out.wall_s = seconds_since(t0);
    gates_ = desc.n_gates();
    endpoints_ = graph->endpoints();
    out.samples = static_cast<double>(kBigCorners);
    out.events = s.arc_evaluations;
    out.ops.count(2, 0, "");  // parse and graph build throw on failure
    out.ops.merge(s.ops);
    out.digest = d.value();
    last_nominal_ = std::move(s.nominal);
    return out;
  }

  Options o_;
  std::string netlist_path_;
  std::shared_ptr<const cell::CellLibrary> library_;
  std::size_t gates_ = 0;
  std::vector<std::string> endpoints_;
  sta::TimingResult last_nominal_;
  std::uint64_t expected_ = 0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"mc_c432", "stat_c432",
                                                 "big_sim", "big_sta"};
  return names;
}

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "mc_c432") return std::make_unique<McC432>(o);
  if (o.workload == "stat_c432") return std::make_unique<StatC432>(o);
  if (o.workload == "big_sim") return std::make_unique<BigSim>(o);
  if (o.workload == "big_sta") return std::make_unique<BigSta>(o);
  return nullptr;
}

void run_layer_pass(const Options& o,
                    std::shared_ptr<const cell::CellLibrary> library) {
  LayerSamples::in_pass = true;
  ScopedSpan pass("bench.layer_pass");
  const auto desc = std::make_shared<const cell::NetlistDesc>(parse(kC432Path));
  const auto builder = std::make_shared<const sim::CircuitBuilder>(library);
  sim::BatchRunner nominal(factory(builder, desc), desc->outputs,
                           mc_config(o.seed, o.workers, 32));
  sim::BatchRunner variation(factory(builder, desc), desc->outputs,
                             stat_config(o.seed, o.workers, 256, 0.0));
  sim::BatchResult varied;
  for (int i = 0; i < 3; ++i) {
    run_batch(nominal);
    varied = run_batch(variation);
  }
  const Stimuli stimuli =
      make_stimuli(desc->inputs.size(), kMcTransitions, o.seed);
  for (int i = 0; i < 3; ++i) {
    sharded_flow(*builder, *desc, stimuli, o.workers,
                 o.out_dir + "/layer_pass");
  }
  std::unique_ptr<sta::TimingGraph> graph;
  {
    ScopedSpan span("sta.graph_build");
    graph = std::make_unique<sta::TimingGraph>(*desc, library);
  }
  Digest unused;
  bound_violations(varied, sta_screen(*graph, o.seed, 8, true, unused));
  LayerSamples::in_pass = false;
}

}  // namespace perfbench
