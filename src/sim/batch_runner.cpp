#include "sim/batch_runner.hpp"

#include <algorithm>
#include <cmath>

#include "obs/trace_recorder.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace charlie::sim {

Histogram::Histogram(double lo, double hi, std::size_t n_bins)
    : lo_(lo), hi_(hi), bins_(n_bins, 0) {
  CHARLIE_ASSERT(hi > lo);
  CHARLIE_ASSERT(n_bins >= 1);
}

void Histogram::add(double x) {
  // A default-constructed histogram has no bins; letting the in-range path
  // below run would index an empty vector.
  CHARLIE_ASSERT_MSG(!bins_.empty(), "histogram: add() without a range");
  ++count_;
  sum_ += x;
  const std::size_t s = slot(x);
  if (s < bins_.size()) {
    ++bins_[s];
  } else if (s == bins_.size()) {
    ++underflow_;
  } else {
    ++overflow_;
  }
}

std::size_t Histogram::slot(double x) const {
  if (x < lo_) return bins_.size();
  if (x >= hi_) return bins_.size() + 1;
  const auto bin = static_cast<std::size_t>(
      static_cast<double>(bins_.size()) * (x - lo_) / (hi_ - lo_));
  return std::min(bin, bins_.size() - 1);
}

void Histogram::merge_tally(std::span<const std::uint64_t> tally) {
  CHARLIE_ASSERT(tally.size() == bins_.size() + 2);
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    bins_[i] += tally[i];
    count_ += tally[i];
  }
  underflow_ += tally[bins_.size()];
  overflow_ += tally[bins_.size() + 1];
  count_ += tally[bins_.size()] + tally[bins_.size() + 1];
}

void Histogram::merge(const Histogram& other) {
  CHARLIE_ASSERT(other.lo_ == lo_ && other.hi_ == hi_ &&
                 other.bins_.size() == bins_.size());
  for (std::size_t i = 0; i < bins_.size(); ++i) bins_[i] += other.bins_[i];
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  count_ += other.count_;
  sum_ += other.sum_;
}

const NetAggregate& BatchResult::net(const std::string& name) const {
  for (const auto& agg : nets) {
    if (agg.net == name) return agg;
  }
  throw ConfigError("batch result: net \"" + name + "\" was not observed");
}

std::vector<NetCriticality> BatchResult::criticality_ranking() const {
  std::vector<std::string> names;
  names.reserve(nets.size());
  for (const auto& agg : nets) names.push_back(agg.net);
  return rank_net_criticality(names, stats.criticality);
}

BatchRunner::BatchRunner(CircuitFactory factory,
                         std::vector<std::string> output_nets,
                         BatchConfig config)
    : factory_(std::move(factory)),
      output_nets_(std::move(output_nets)),
      config_(std::move(config)) {
  CHARLIE_ASSERT(factory_ != nullptr);
  CHARLIE_ASSERT(config_.n_runs >= 1);
  CHARLIE_ASSERT_MSG(!output_nets_.empty(),
                     "batch runner: at least one observed net");
}

namespace {

// A run's largest response delay over the observed nets and the index of
// the net it occurred on; -1 for both without a response sample.
struct CriticalDelay {
  double delay = -1.0;
  int net = -1;
};

// Accounts one kOk run's observed nets. Per net: the transition count and
// the pulse-width and response-delay sums go to the run's slots, and the
// histogram counts are staged in `tally` ([pulse_width, response_delay]
// per net, Histogram::slot() layout).
CriticalDelay account_run(const Circuit::SimResult& sim,
                          const std::vector<Circuit::NetId>& outputs,
                          const std::vector<StimulusEvent>& stream,
                          const Histogram& pulse_shape,
                          const Histogram& response_shape,
                          std::span<std::uint64_t> tally,
                          std::span<long long> transitions,
                          std::span<double> pulse_sum,
                          std::span<double> response_sum) {
  const std::size_t n_slots = pulse_shape.bins().size() + 2;
  std::fill(tally.begin(), tally.end(), 0);
  CriticalDelay critical;
  for (std::size_t n = 0; n < outputs.size(); ++n) {
    const std::vector<double>& ts = sim.trace(outputs[n]).transitions();
    std::uint64_t* pulse_tally = tally.data() + 2 * n * n_slots;
    std::uint64_t* response_tally = pulse_tally + n_slots;
    double pulse = 0.0;
    for (std::size_t k = 1; k < ts.size(); ++k) {
      const double width = ts[k] - ts[k - 1];
      ++pulse_tally[pulse_shape.slot(width)];
      pulse += width;
    }
    // Response delay: output transition time minus the latest stimulus
    // transition at or before it. Both sequences are time-sorted, so one
    // merged sweep suffices.
    double response = 0.0;
    std::size_t si = 0;
    for (const double t : ts) {
      while (si + 1 < stream.size() && stream[si + 1].t <= t) ++si;
      if (si < stream.size() && stream[si].t <= t) {
        const double delay = t - stream[si].t;
        ++response_tally[response_shape.slot(delay)];
        response += delay;
        // Strict > ties the run's critical delay to the lowest net index.
        if (delay > critical.delay) {
          critical.delay = delay;
          critical.net = static_cast<int>(n);
        }
      }
    }
    transitions[n] = static_cast<long long>(ts.size());
    pulse_sum[n] = pulse;
    response_sum[n] = response;
  }
  return critical;
}

}  // namespace

void BatchRunner::ensure_workers() {
  if (pool_ != nullptr) return;
  pool_ = std::make_unique<util::ThreadPool>(config_.n_threads);
  const std::size_t n_workers = pool_->n_threads();

  // One circuit clone per worker, built up front on this thread (the
  // factory need not be thread-safe). Circuit::simulate_into reinitializes
  // all channel state and reuses the worker's trace arena, so a clone
  // serves every run its worker claims, across every run() call.
  workers_.resize(n_workers);
  for (std::size_t w = 0; w < n_workers; ++w) {
    workers_[w].circuit = factory_();
    CHARLIE_ASSERT(workers_[w].circuit != nullptr);
    // Resolved per clone: a factory is not required to assign net ids in
    // the same order on every call.
    workers_[w].outputs.reserve(output_nets_.size());
    for (const auto& name : output_nets_) {
      workers_[w].outputs.push_back(workers_[w].circuit->find_net(name));
    }
  }

  // Variation batches: one collocation grid per distinct cell table
  // (shared by every worker whose clone shares the table, i.e. the
  // CircuitBuilder path pays the corner derivation once per cell), plus a
  // per-worker binder owning the worker-local table copies.
  if (config_.variation.enabled()) {
    config_.variation.validate();
    const core::ModeTableGrid::Spec spec = config_.variation.grid_spec();
    ProcessBinder::GridMap grids;
    for (Worker& w : workers_) {
      ProcessBinder::build_grids(*w.circuit, spec, grids);
    }
    for (Worker& w : workers_) {
      w.binder = std::make_unique<ProcessBinder>(
          *w.circuit, grids, config_.variation.vdd_nominal);
    }
  }
}

BatchResult BatchRunner::run() {
  ensure_workers();
  const std::size_t n_workers = pool_->n_threads();
  const std::size_t n_runs = config_.n_runs;
  const std::size_t n_nets = output_nets_.size();

  const Histogram pulse_shape(0.0, 4.0 * config_.trace.mu,
                              config_.histogram_bins);
  const Histogram response_shape(0.0, config_.trace.mu,
                                 config_.histogram_bins);
  const std::size_t n_slots = config_.histogram_bins + 2;  // per histogram
  for (Worker& w : workers_) {
    w.tally.assign(2 * n_nets * n_slots, 0);
    w.run_tally.resize(w.tally.size());
  }

  // Per-run results indexed by run (not worker): the reduction below walks
  // them in run order, which is what makes the aggregate independent of
  // which worker executed which run. Per-net arrays are [run * n_nets + n].
  BatchResult result;
  result.n_runs = n_runs;
  result.n_threads = n_workers;
  result.events_per_run.assign(n_runs, 0);
  result.diagnostics.assign(n_runs, RunDiagnostics{});
  result.critical_delays.assign(n_runs, -1.0);
  std::vector<long> max_heap_depth(n_runs, 0);
  // Observed net of the run's critical delay; -1 without a response sample.
  std::vector<int> critical_net(n_runs, -1);
  std::vector<long long> transitions(n_runs * n_nets, 0);
  std::vector<double> pulse_sum(n_runs * n_nets, 0.0);
  std::vector<double> response_sum(n_runs * n_nets, 0.0);
  // Exactly one run matches capture_run, so the slot is written by at most
  // one worker (no synchronization needed beyond the pool's batch barrier).
  std::vector<BatchResult::CapturedTrace> captured;
  pool_->parallel_for(n_runs, [&](std::size_t worker, std::size_t run) {
    Worker& w = workers_[worker];
    obs::ScopedSpan obs_span("batch.run", "run", static_cast<long long>(run),
                             "events", 0);
    // Fresh per-run fault tallies: an armed plan's fire index depends
    // only on this run's own content, not on which worker executes it
    // or how runs interleave (thread-count-invariant fault placement).
    if (util::FaultInjector::armed()) {
      util::FaultInjector::reset_local_hits();
    }
    // The run's content derives from its global index through
    // counter-based streams: splitting or re-basing a batch via
    // first_run_index reproduces per-run content exactly.
    const std::uint64_t index = config_.first_run_index + run;
    RunSpec spec;
    spec.stimulus_seed = util::CounterRng(config_.base_seed, index).next_u64();
    if (config_.variation.enabled()) {
      spec.point = config_.variation.sample(config_.base_seed, index);
    }
    try {
      // Retarget the worker's clone to this run's process sample before
      // any channel state is initialized (simulate_into reinitializes all
      // of it).
      if (w.binder != nullptr) w.binder->bind(spec.point);
      util::Rng rng(spec.stimulus_seed);
      waveform::generate_traces_into(config_.trace, w.circuit->n_inputs(),
                                     rng, w.arena.stimuli);
      double t_last = config_.trace.t_start;
      for (const auto& trace : w.arena.stimuli) {
        if (!trace.empty()) {
          t_last = std::max(t_last, trace.transitions().back());
        }
      }
      // The budgeted entry point never throws through the engine -- a
      // failure or budget trip comes back as a structured non-kOk result.
      w.circuit->simulate_into(w.arena, 0.0, t_last + config_.t_settle,
                               config_.budget);
      const Circuit::SimResult& sim = w.arena.result;
      result.events_per_run[run] = sim.n_events;
      max_heap_depth[run] = sim.max_heap_depth;
      result.diagnostics[run] = sim.diagnostics;
      obs_span.set_value1(sim.n_events);

      // A terminated run contributes its diagnostics and event count but
      // no histogram samples: partial traces would skew the distributions
      // silently.
      CriticalDelay critical;
      if (sim.ok()) {
        const std::size_t row = run * n_nets;
        critical = account_run(
            sim, w.outputs, w.arena.stream, pulse_shape, response_shape,
            w.run_tally, {transitions.data() + row, n_nets},
            {pulse_sum.data() + row, n_nets},
            {response_sum.data() + row, n_nets});
      }
      if (config_.capture_run == static_cast<long>(run)) {
        // Copy out of the arena before this worker's next run resets it.
        for (std::size_t i = 0; i < w.circuit->n_inputs(); ++i) {
          const Circuit::NetId id = w.circuit->input_net(i);
          captured.push_back({w.circuit->net_name(id), sim.trace(id)});
        }
        for (const Circuit::NetId id : w.outputs) {
          captured.push_back({w.circuit->net_name(id), sim.trace(id)});
        }
      }
      // Commit last: a run whose accounting threw contributes nothing.
      if (sim.ok()) {
        for (std::size_t i = 0; i < w.tally.size(); ++i) {
          w.tally[i] += w.run_tally[i];
        }
        result.critical_delays[run] = critical.delay;
        critical_net[run] = critical.net;
      }
    } catch (const std::exception& e) {
      // Isolation backstop for failures outside the engine's no-throw
      // boundary (stimulus generation, accounting): only this run
      // fails; the worker and its arena stay usable.
      result.events_per_run[run] = 0;
      max_heap_depth[run] = 0;
      result.diagnostics[run] = RunDiagnostics{};
      result.diagnostics[run].status = RunStatus::kFailed;
      result.diagnostics[run].error = e.what();
    }
  });

  // Reduction. Integer counts add in any order; the floating-point sums and
  // the statistics sample fold in run order: bit-identical for any thread
  // count.
  result.nets.reserve(n_nets);
  for (std::size_t n = 0; n < n_nets; ++n) {
    NetAggregate agg;
    agg.net = output_nets_[n];
    agg.pulse_width = pulse_shape;
    agg.response_delay = response_shape;
    for (const Worker& w : workers_) {
      const std::span<const std::uint64_t> tally(w.tally);
      agg.pulse_width.merge_tally(tally.subspan(2 * n * n_slots, n_slots));
      agg.response_delay.merge_tally(
          tally.subspan((2 * n + 1) * n_slots, n_slots));
    }
    result.nets.push_back(std::move(agg));
  }
  result.stats.criticality.assign(n_nets, 0);
  std::vector<double> sample;  // critical delays of contributing runs
  sample.reserve(n_runs);
  util::RunCounters counters;
  obs::LogHistogram& events_hist =
      result.metrics.histogram_for("sim.events_per_run");
  obs::LogHistogram& depth_hist =
      result.metrics.histogram_for("sim.max_heap_depth");
  for (std::size_t run = 0; run < n_runs; ++run) {
    const long n_events = result.events_per_run[run];
    result.total_events += n_events;
    counters += result.diagnostics[run].counters;
    events_hist.add(static_cast<double>(n_events));
    depth_hist.add(static_cast<double>(max_heap_depth[run]));
    if (result.diagnostics[run].status != RunStatus::kOk) {
      ++result.n_failed;
      continue;  // no histogram/statistics contribution from a failed run
    }
    if (result.critical_delays[run] >= 0.0) {
      sample.push_back(result.critical_delays[run]);
      ++result.stats.criticality[static_cast<std::size_t>(critical_net[run])];
    }
    for (std::size_t n = 0; n < n_nets; ++n) {
      NetAggregate& agg = result.nets[n];
      agg.transitions += transitions[run * n_nets + n];
      agg.pulse_width.merge_sum(pulse_sum[run * n_nets + n]);
      agg.response_delay.merge_sum(response_sum[run * n_nets + n]);
    }
  }
  // Guard/fallback telemetry of every run, failed ones included.
  obs::absorb_run_counters(result.metrics, counters);
  result.metrics.add("batch.runs", static_cast<long long>(result.n_runs));
  result.metrics.add("batch.runs_failed",
                     static_cast<long long>(result.n_failed));
  result.metrics.add("batch.events", result.total_events);
  result.captured = std::move(captured);

  // Distribution queries over the per-run critical delays. `sample` was
  // collected in run order and is reduced with fixed-order arithmetic, so
  // every statistic is bit-identical for any thread count.
  BatchStats& st = result.stats;
  st.n_samples = sample.size();
  if (!sample.empty()) {
    double sum = 0.0;
    for (const double x : sample) sum += x;
    st.mean = sum / static_cast<double>(sample.size());
    double ss = 0.0;
    for (const double x : sample) ss += (x - st.mean) * (x - st.mean);
    st.stddev = std::sqrt(ss / static_cast<double>(sample.size()));
    std::vector<double> sorted = sample;
    std::sort(sorted.begin(), sorted.end());
    st.min = sorted.front();
    st.max = sorted.back();
    st.quantiles.reserve(config_.quantiles.size());
    for (const double q : config_.quantiles) {
      // Nearest-rank: the ceil(q n)-th order statistic, clamped to the
      // sample range for q outside (0, 1].
      const double rank = std::ceil(q * static_cast<double>(sorted.size()));
      const auto i = static_cast<std::size_t>(std::clamp(
          rank, 1.0, static_cast<double>(sorted.size())));
      st.quantiles.emplace_back(q, sorted[i - 1]);
    }
    if (config_.stat_deadline > 0.0) {
      st.deadline = config_.stat_deadline;
      for (const double x : sample) {
        if (x <= st.deadline) ++st.n_meeting_deadline;
      }
      st.yield = static_cast<double>(st.n_meeting_deadline) /
                 static_cast<double>(st.n_samples);
    }
  } else {
    for (const double q : config_.quantiles) st.quantiles.emplace_back(q, 0.0);
    if (config_.stat_deadline > 0.0) st.deadline = config_.stat_deadline;
  }
  return result;
}

}  // namespace charlie::sim
