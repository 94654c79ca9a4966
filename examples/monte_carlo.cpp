// Monte-Carlo batch simulation demo: N randomized traces through a
// netlist-built chain of MIS-aware NOR gates, spread over a worker pool,
// with aggregated delay histograms. Results are bit-identical for any
// thread count.
//
// The circuit comes from the cell-library front-end: a structural netlist
// (embedded below, or any file in docs/netlist_format.md syntax) is parsed
// once and re-instantiated per worker clone by sim::CircuitBuilder; all
// clones share the library's per-cell mode tables, so the mode derivation
// happens exactly once per cell no matter how many runs or threads.
//
//   ./example_monte_carlo [n_runs] [n_threads] [netlist_file] [max_events]
//                         [sigma_vdd=S] [sigma_vth=S] [sigma_drive=S]
//                         [grid=N] [deadline=T] [trace_out=F]
//                         [metrics_out=F] [vcd_out=F]
//
// The numeric positionals are parsed strictly: a non-number, a negative
// value or n_runs = 0 prints the usage line and exits 2 (n_threads = 0 is
// the hardware concurrency, max_events = 0 unlimited). A numeric
// key=value knob whose value is not a number (sigma_vdd=abc) prints the
// knob's name and exits 1.
//
// Observability knobs (docs/observability.md): trace_out=F arms the
// execution tracer around the batch and writes Chrome trace-event JSON to
// F (load in Perfetto); metrics_out=F writes the batch's aggregated
// obs::MetricsRegistry as JSON; vcd_out=F captures run 0's input and
// observed-net traces and writes them as a VCD waveform (load in GTKWave).
//
// The observed nets are the netlist's `output(...)` declarations (all of
// them -- each gets its own aggregate); a netlist without declarations
// falls back to the last instance's output. Try
// examples/netlists/c432.net for a large multi-output workload.
//
// Variation mode: any non-zero sigma_* knob (key=value arguments, any
// position) switches the batch to statistical timing -- every run draws its
// own process sample (supply scale, threshold shift, drive scale) from a
// counter-based stream, the per-worker circuit clones are rebound through
// the collocation grid (`grid=N` points per active axis), and the report
// grows the critical-delay distribution: mean/stddev, quantiles, yield
// against `deadline=T` (seconds), and per-net criticality counts. See
// docs/statistical_timing.md.
//
// Every run executes under a RunGuard: an optional per-run event budget
// (4th argument; 0 = unlimited) plus the numerical-guard telemetry. The
// health section at the end summarizes per-run outcomes and any
// degradation-path counters (docs/robustness.md).
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "cell/cell_library.hpp"
#include "cell/netlist.hpp"
#include "obs/trace_recorder.hpp"
#include "sim/batch_runner.hpp"
#include "sim/circuit_builder.hpp"
#include "sim/run_guard.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/units.hpp"
#include "waveform/vcd.hpp"

using namespace charlie;

namespace {

// The PR-2 four-stage NOR chain, now as a netlist.
constexpr const char* kNorChain = R"(
input(a, b)
NOR2(n0, a, b)
NOR2(n1, b, n0)
NOR2(n2, n0, n1)
NOR2(out, n1, n2)
)";

constexpr const char* kUsage =
    "usage: example_monte_carlo [n_runs] [n_threads] [netlist_file] "
    "[max_events] [key=value ...]\n";

// Numeric positional `index` (strict whole-field parse), or `fallback`
// when absent. A non-number, a negative value, or 0 where `min` is 1
// prints the usage line and exits 2.
long count_arg(const std::vector<std::string>& positional, std::size_t index,
               const char* name, long min, long fallback) {
  if (index >= positional.size()) return fallback;
  try {
    const long value = util::parse_long_field(positional[index], name);
    if (value >= min) return value;
    std::fprintf(stderr, "%s must be at least %ld, got %ld\n", name, min,
                 value);
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "%s\n", e.what());
  }
  std::fputs(kUsage, stderr);
  std::exit(2);
}

void print_histogram(const char* title, const sim::Histogram& h) {
  std::printf("%s: n=%llu mean=%s\n", title,
              static_cast<unsigned long long>(h.count()),
              units::format_time(h.mean()).c_str());
  std::uint64_t peak = 1;
  for (const auto count : h.bins()) peak = std::max(peak, count);
  const double bin_width =
      (h.hi() - h.lo()) / static_cast<double>(h.bins().size());
  for (std::size_t i = 0; i < h.bins().size(); ++i) {
    const double lo = h.lo() + static_cast<double>(i) * bin_width;
    const int stars =
        static_cast<int>(50.0 * static_cast<double>(h.bins()[i]) /
                         static_cast<double>(peak));
    std::printf("  %8s |%.*s%s\n", units::format_time(lo).c_str(), stars,
                "**************************************************",
                h.bins()[i] > 0 && stars == 0 ? "." : "");
  }
  if (h.overflow() > 0) {
    std::printf("  (+%llu above range)\n",
                static_cast<unsigned long long>(h.overflow()));
  }
}

}  // namespace

int main(int argc, char** argv) {
  // key=value knobs may sit at any position; the rest stay positional.
  sim::ProcessVariation variation;
  double deadline = 0.0;
  std::string trace_out;
  std::string metrics_out;
  std::string vcd_out;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      positional.push_back(arg);
      continue;
    }
    const std::string key = arg.substr(0, eq);
    if (key == "trace_out") {
      trace_out = arg.substr(eq + 1);
      continue;
    }
    if (key == "metrics_out") {
      metrics_out = arg.substr(eq + 1);
      continue;
    }
    if (key == "vcd_out") {
      vcd_out = arg.substr(eq + 1);
      continue;
    }
    const auto parsed = util::try_parse_double_field(arg.substr(eq + 1));
    if (!parsed) {
      std::fprintf(stderr, "knob \"%s\": \"%s\" is not a number\n",
                   key.c_str(), arg.c_str() + eq + 1);
      return 1;
    }
    const double value = *parsed;
    if (key == "sigma_vdd") {
      variation.vdd_sigma = value;
    } else if (key == "sigma_vth") {
      variation.vth_sigma = value;
    } else if (key == "sigma_drive") {
      variation.drive_sigma = value;
    } else if (key == "grid") {
      variation.grid_levels = static_cast<int>(value);
    } else if (key == "deadline") {
      deadline = value;
    } else {
      std::fprintf(stderr, "unknown knob \"%s\"\n", key.c_str());
      return 1;
    }
  }
  const auto n_runs =
      static_cast<std::size_t>(count_arg(positional, 0, "n_runs", 1, 64));
  const auto n_threads =
      static_cast<std::size_t>(count_arg(positional, 1, "n_threads", 0, 0));
  const long max_events = count_arg(positional, 3, "max_events", 0, 0);

  // Characterize-once / instantiate-many: the reference library derives
  // each cell's mode tables a single time; every worker clone below shares
  // them through the specs.
  const auto library =
      std::make_shared<const cell::CellLibrary>(cell::CellLibrary::reference());
  const cell::NetlistDesc netlist =
      positional.size() > 2 && !positional[2].empty()
          ? cell::read_netlist_file(positional[2])
          : cell::parse_netlist(kNorChain);  // "" = embedded chain
  if (netlist.instances.empty()) {
    std::fprintf(stderr, "netlist has no gates\n");
    return 1;
  }
  std::vector<std::string> out_nets = netlist.outputs;
  if (out_nets.empty()) out_nets.push_back(netlist.instances.back().output);

  sim::CircuitBuilder builder(library);
  auto factory = [&builder, &netlist] { return builder.build(netlist); };

  sim::BatchConfig config;
  config.trace.mu = 150e-12;
  config.trace.sigma = 60e-12;
  config.trace.n_transitions = 400;
  config.n_runs = n_runs;
  config.n_threads = n_threads;
  config.base_seed = 2022;
  config.budget.max_events = max_events;  // 0 = unlimited
  config.variation = variation;
  config.stat_deadline = deadline;
  if (!vcd_out.empty()) config.capture_run = 0;

  sim::BatchRunner runner(factory, out_nets, config);
  if (!trace_out.empty()) obs::TraceRecorder::start();
  const auto result = runner.run();
  if (!trace_out.empty()) {
    obs::TraceRecorder::stop();
    const auto snapshot = obs::TraceRecorder::collect();
    obs::write_chrome_trace(snapshot, trace_out);
    std::printf("trace           : %zu events -> %s\n", snapshot.events.size(),
                trace_out.c_str());
  }
  if (!metrics_out.empty()) {
    result.metrics.write_json(metrics_out);
    std::printf("metrics         : %s\n", metrics_out.c_str());
  }
  if (!vcd_out.empty()) {
    std::vector<waveform::VcdDigitalSignal> signals;
    signals.reserve(result.captured.size());
    for (const auto& captured : result.captured) {
      signals.push_back({captured.net, &captured.trace});
    }
    waveform::write_vcd(vcd_out, signals);
    std::printf("vcd             : run 0, %zu signals -> %s\n", signals.size(),
                vcd_out.c_str());
  }

  std::printf("gates           : %zu (observing %zu net%s)\n",
              netlist.n_gates(), out_nets.size(),
              out_nets.size() == 1 ? "" : "s");
  std::printf("runs            : %zu (threads: %zu)\n", result.n_runs,
              result.n_threads);
  std::printf("engine events   : %lld\n", result.total_events);
  for (const auto& agg : result.nets) {
    std::printf("net %-12s: %lld transitions, mean pulse %s, mean response "
                "%s\n",
                agg.net.c_str(), agg.transitions,
                units::format_time(agg.pulse_width.mean()).c_str(),
                units::format_time(agg.response_delay.mean()).c_str());
  }
  print_histogram("output pulse width", result.nets.front().pulse_width);
  print_histogram("response delay", result.nets.front().response_delay);

  // Statistical timing report (variation mode): the critical-delay
  // distribution across process samples.
  if (variation.enabled()) {
    const sim::BatchStats& st = result.stats;
    std::printf("process sigmas  : vdd %.3g, vth %.3g V, drive %.3g "
                "(grid %d^axis, clamp %.1f sigma)\n",
                variation.vdd_sigma, variation.vth_sigma,
                variation.drive_sigma, variation.grid_levels,
                sim::ProcessVariation::kMaxSigma);
    std::printf("critical delay  : n=%zu mean=%s stddev=%s min=%s max=%s\n",
                st.n_samples, units::format_time(st.mean).c_str(),
                units::format_time(st.stddev).c_str(),
                units::format_time(st.min).c_str(),
                units::format_time(st.max).c_str());
    for (const auto& [q, value] : st.quantiles) {
      std::printf("  q%-5.3g       : %s\n", 100.0 * q,
                  units::format_time(value).c_str());
    }
    if (st.deadline > 0.0) {
      std::printf("yield           : %.1f%% (%zu/%zu meet %s)\n",
                  100.0 * st.yield, st.n_meeting_deadline, st.n_samples,
                  units::format_time(st.deadline).c_str());
    }
    std::printf("criticality     :");
    for (const auto& [net, count] : result.criticality_ranking()) {
      std::printf(" %s=%llu", net.c_str(),
                  static_cast<unsigned long long>(count));
    }
    std::printf("\n");
  }

  // Run health: per-run outcomes plus the numerical degradation-path
  // telemetry, read back from the batch's metrics registry (the per-run
  // RunCounters fold into it during the run-order reduction).
  std::size_t per_status[5] = {};
  for (const auto& diag : result.diagnostics) {
    ++per_status[static_cast<std::size_t>(diag.status)];
  }
  std::printf("run health      : %zu/%zu ok", result.n_runs - result.n_failed,
              result.n_runs);
  for (const sim::RunStatus status :
       {sim::RunStatus::kBudgetExhausted, sim::RunStatus::kDeadlineExceeded,
        sim::RunStatus::kCancelled, sim::RunStatus::kFailed}) {
    const std::size_t n = per_status[static_cast<std::size_t>(status)];
    if (n > 0) std::printf(", %zu %s", n, sim::to_string(status));
  }
  std::printf("\n");
  const long long newton_brent =
      result.metrics.counter("run.newton_brent_fallbacks");
  const long long scan = result.metrics.counter("run.scan_fallbacks");
  const long long nonfinite =
      result.metrics.counter("run.nonfinite_guard_trips");
  if (newton_brent + scan + nonfinite +
          result.metrics.counter("run.fit_fallbacks") >
      0) {
    std::printf("guard telemetry : %lld newton->brent, %lld scan fallbacks, "
                "%lld non-finite trips\n",
                newton_brent, scan, nonfinite);
  }
  for (std::size_t run = 0; run < result.diagnostics.size(); ++run) {
    const auto& diag = result.diagnostics[run];
    if (diag.status != sim::RunStatus::kOk) {
      std::printf("  run %zu: %s\n", run, diag.summary().c_str());
    }
  }
  return result.all_ok() ? 0 : 1;
}
