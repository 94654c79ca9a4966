// Parallel Monte-Carlo batch simulation.
//
// Runs N independent event-driven simulations of the same circuit over
// randomly generated stimuli (one deterministic RNG stream per seed) and
// aggregates throughput counters and delay/metric histograms. Work is
// spread across a worker pool with one circuit clone per worker. Per-run
// results are flat run-indexed arrays (event counts, per-net transition
// counts and pulse/response sums) plus worker-local integer histogram
// tallies; the reduction folds the floating-point sums in run order and
// adds the integers in any order, so the aggregate is bit-identical no
// matter how many threads execute it.
//
// The pool, the per-worker circuit clones, and the per-worker run arenas
// (stimuli, merged stimulus stream, trace storage, session scratch) are
// built once -- on the first run() -- and reused by every later run() of
// the same BatchRunner, so a run in steady state allocates nothing. Each
// worker's state lives on its own cache lines.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/process_point.hpp"
#include "obs/metrics.hpp"
#include "sim/circuit.hpp"
#include "sim/net_criticality.hpp"
#include "sim/process_variation.hpp"
#include "sim/sim_session.hpp"
#include "util/thread_pool.hpp"
#include "waveform/generator.hpp"

namespace charlie::sim {

/// Fixed-range histogram with order-independent counts. The range is fixed
/// up front so per-run partials merge exactly.
class Histogram {
 public:
  Histogram() = default;
  Histogram(double lo, double hi, std::size_t n_bins);

  void add(double x);
  void merge(const Histogram& other);

  /// Where add(x) counts `x` in a flat tally of n_bins + 2 entries laid out
  /// [bins..., underflow, overflow]. A reduction that tallies counts apart
  /// from the sum folds them back with merge_tally() and merge_sum(): the
  /// pair equals merge() of a histogram fed the same values.
  std::size_t slot(double x) const;
  void merge_tally(std::span<const std::uint64_t> tally);
  void merge_sum(double sum) { sum_ += sum; }

  double lo() const { return lo_; }
  double hi() const { return hi_; }
  const std::vector<std::uint64_t>& bins() const { return bins_; }
  std::uint64_t underflow() const { return underflow_; }
  std::uint64_t overflow() const { return overflow_; }
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / count_; }

 private:
  double lo_ = 0.0;
  double hi_ = 1.0;
  std::vector<std::uint64_t> bins_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

struct BatchConfig {
  waveform::TraceConfig trace;   // stimulus statistics, per run
  std::size_t n_runs = 16;
  // Run i's stimulus stream and process sample are pure functions of
  // (base_seed, first_run_index + i) through keyed util::Rng streams, so
  // per-run content is independent of the thread count and of how a batch
  // is split across BatchRunner instances.
  std::uint64_t base_seed = 1;
  std::uint64_t first_run_index = 0;  // global index of this batch's run 0
  std::size_t n_threads = 1;     // 0 = hardware concurrency
  double t_settle = 1e-9;        // simulated tail after the last stimulus edge
  // Histograms span pulse widths up to 4 trace.mu and response delays up to
  // trace.mu.
  std::size_t histogram_bins = 32;
  // Per-run execution budget (event ceiling, wall-clock deadline,
  // cancellation token). Default: no limits. A tripped run terminates with
  // the corresponding status in BatchResult::diagnostics; the batch
  // continues.
  RunBudget budget;
  // Gaussian process variation; all sigmas zero (default) = nominal-only
  // batch, the pre-variation fast path with no grids or rebinding.
  ProcessVariation variation;
  // Critical-delay quantiles reported in BatchResult::stats (values in
  // (0, 1], evaluated by nearest rank on the sorted sample).
  std::vector<double> quantiles = {0.5, 0.95, 0.99};
  // Timing deadline for the yield query [s]; 0 = no deadline (the yield
  // fields of BatchResult::stats stay zero).
  double stat_deadline = 0.0;
  // Batch-local index of one run whose traces (primary inputs + observed
  // nets) are copied into BatchResult::captured, e.g. for VCD export; -1
  // disables capture. A terminated run's partial traces are still captured.
  long capture_run = -1;
};

/// Aggregates of one observed net across the whole batch.
struct NetAggregate {
  std::string net;
  long long transitions = 0;
  // Width of every pulse on this net.
  Histogram pulse_width;
  // Latency of every transition relative to the latest stimulus transition
  // at or before it (input-to-output response proxy).
  Histogram response_delay;
};

/// Distribution queries over the per-run critical delays (the largest
/// response delay a run observes across all observed nets). Failed runs and
/// runs with no response sample are excluded; everything here is reduced in
/// run order from per-run values, so it is bit-identical for any thread
/// count.
struct BatchStats {
  std::size_t n_samples = 0;  // runs contributing a critical delay
  double mean = 0.0;          // of the critical delays [s]
  double stddev = 0.0;        // population standard deviation [s]
  double min = 0.0;
  double max = 0.0;
  // (q, delay) per requested quantile: nearest-rank (ceil(q n)-th order
  // statistic) on the sorted sample; 0 when the sample is empty.
  std::vector<std::pair<double, double>> quantiles;
  // Yield against BatchConfig::stat_deadline: the fraction of sampled runs
  // whose critical delay meets (<=) the deadline. All zero when no
  // deadline was configured.
  double deadline = 0.0;
  std::size_t n_meeting_deadline = 0;
  double yield = 0.0;
  // Per observed net (parallel to BatchResult::nets): the number of
  // sampled runs whose critical delay occurred on that net (ties go to the
  // lowest net index).
  std::vector<std::uint64_t> criticality;
};

struct BatchResult {
  std::size_t n_runs = 0;
  std::size_t n_threads = 0;
  long long total_events = 0;        // engine events across all runs
  std::vector<long> events_per_run;  // indexed by run (= seed offset)
  // Per-net aggregates, one entry per observed net in declaration order.
  std::vector<NetAggregate> nets;
  // Per-run outcome (status, guard counters, captured error), indexed by
  // run. Runs with a non-kOk status are excluded from every aggregate
  // above -- they contribute only their diagnostics and event count.
  std::vector<RunDiagnostics> diagnostics;
  std::size_t n_failed = 0;  // runs with a non-kOk status
  // Per-run critical delay (see BatchStats), indexed by run; -1.0 for runs
  // excluded from the statistics (failed, or no response sample).
  std::vector<double> critical_delays;
  // Statistical queries over critical_delays.
  BatchStats stats;
  // Batch-level observability aggregate, reduced in run order (bit-identical
  // for any thread count): guard/fallback counters folded through
  // obs::absorb_run_counters plus batch.* counters and sim.* histograms
  // (events per run, peak event-heap depth). docs/observability.md lists
  // the names.
  obs::MetricsRegistry metrics;
  // Traces of the BatchConfig::capture_run run (primary inputs first, then
  // the observed nets, both in declaration order); empty when capture was
  // disabled or the index is out of range.
  struct CapturedTrace {
    std::string net;
    waveform::DigitalTrace trace;
  };
  std::vector<CapturedTrace> captured;

  bool all_ok() const { return n_failed == 0; }
  const NetAggregate& net(const std::string& name) const;

  /// stats.criticality as a ranked list (rank_net_criticality over the
  /// observed nets): most-critical net first, zero-count nets dropped. The
  /// same presentation the sta layer uses for corner criticality, so batch
  /// and STA reports read side-by-side.
  std::vector<NetCriticality> criticality_ranking() const;
};

/// Builds one circuit instance per worker. Called from the coordinating
/// thread only, before any simulation starts.
using CircuitFactory = std::function<std::unique_ptr<Circuit>()>;

class BatchRunner {
 public:
  /// Observe the named nets (e.g. a netlist's `output(...)`
  /// declarations): every net gets its own NetAggregate.
  BatchRunner(CircuitFactory factory, std::vector<std::string> output_nets,
              BatchConfig config);

  /// Runs the batch. Deterministic for a fixed (factory, config): the
  /// aggregate is bit-identical for any n_threads. May be called
  /// repeatedly; workers and their circuit clones persist across calls.
  ///
  /// Per-run isolation: one run's failure (solver non-convergence,
  /// assertion, injected fault) or budget trip is captured into that run's
  /// entry in BatchResult::diagnostics while every other run completes --
  /// run() does not throw for a single bad run, and the pool stays usable.
  BatchResult run();

 private:
  // One worker's mutable simulation state, cache-line-aligned so two
  // workers never share a line through this vector (the circuit clone and
  // arena allocations behind the pointers are each worker's own).
  struct alignas(64) Worker {
    std::unique_ptr<Circuit> circuit;
    std::vector<Circuit::NetId> outputs;  // observed nets, resolved per clone
    RunArena arena;                       // every buffer of one run
    // Histogram counts per observed net, [pulse_width, response_delay] in
    // Histogram::slot() layout: `run_tally` stages the current run,
    // `tally` sums this run() call's runs that finished kOk.
    std::vector<std::uint64_t> run_tally;
    std::vector<std::uint64_t> tally;
    // Per-worker process retargeting (variation batches only). The grids
    // behind it are shared across workers; the worker-local table copies
    // are re-filled in place per run, so rebinding never allocates.
    std::unique_ptr<ProcessBinder> binder;
  };

  void ensure_workers();

  CircuitFactory factory_;
  std::vector<std::string> output_nets_;
  BatchConfig config_;
  std::unique_ptr<util::ThreadPool> pool_;  // built on first run()
  std::vector<Worker> workers_;
};

}  // namespace charlie::sim
