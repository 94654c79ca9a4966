// Whole-BatchResult equality for the bit-identity tests: every aggregate a
// batch publishes, compared exactly (doubles by value, no tolerance).
#pragma once

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sim/batch_runner.hpp"

namespace charlie::sim::testing {

inline std::string histogram_difference(const Histogram& a,
                                        const Histogram& b) {
  if (a.lo() != b.lo() || a.hi() != b.hi()) return "range";
  if (a.bins() != b.bins()) return "bins";
  if (a.underflow() != b.underflow()) return "underflow";
  if (a.overflow() != b.overflow()) return "overflow";
  if (a.count() != b.count()) return "count";
  if (a.sum() != b.sum()) return "sum";
  return {};
}

/// Success iff `a` and `b` agree on every field except n_threads: per-net
/// histograms (bins, underflow, overflow, count, sum) and transitions, the
/// per-run events, critical delays and diagnostics, the statistics, the
/// captured traces and the metrics JSON bytes.
inline ::testing::AssertionResult batch_results_equal(const BatchResult& a,
                                                      const BatchResult& b) {
  auto differ = [](const std::string& what) {
    return ::testing::AssertionFailure() << "BatchResult differs: " << what;
  };
  if (a.n_runs != b.n_runs) return differ("n_runs");
  if (a.total_events != b.total_events) return differ("total_events");
  if (a.events_per_run != b.events_per_run) return differ("events_per_run");
  if (a.nets.size() != b.nets.size()) return differ("nets.size()");
  for (std::size_t n = 0; n < a.nets.size(); ++n) {
    const NetAggregate& x = a.nets[n];
    const NetAggregate& y = b.nets[n];
    if (x.net != y.net || x.transitions != y.transitions) {
      return differ("net " + x.net + " name/transitions");
    }
    if (const auto d = histogram_difference(x.pulse_width, y.pulse_width);
        !d.empty()) {
      return differ("net " + x.net + " pulse_width " + d);
    }
    if (const auto d =
            histogram_difference(x.response_delay, y.response_delay);
        !d.empty()) {
      return differ("net " + x.net + " response_delay " + d);
    }
  }
  if (a.diagnostics.size() != b.diagnostics.size()) {
    return differ("diagnostics.size()");
  }
  for (std::size_t r = 0; r < a.diagnostics.size(); ++r) {
    const RunDiagnostics& x = a.diagnostics[r];
    const RunDiagnostics& y = b.diagnostics[r];
    const util::RunCounters& cx = x.counters;
    const util::RunCounters& cy = y.counters;
    if (x.status != y.status || x.n_events != y.n_events ||
        x.t_horizon != y.t_horizon || x.error != y.error ||
        cx.newton_brent_fallbacks != cy.newton_brent_fallbacks ||
        cx.scan_fallbacks != cy.scan_fallbacks ||
        cx.nonfinite_guard_trips != cy.nonfinite_guard_trips ||
        cx.fit_fallbacks != cy.fit_fallbacks) {
      std::ostringstream os;
      os << "diagnostics of run " << r << ": " << x.summary() << " vs "
         << y.summary();
      return differ(os.str());
    }
  }
  if (a.n_failed != b.n_failed) return differ("n_failed");
  if (a.critical_delays != b.critical_delays) return differ("critical_delays");
  const BatchStats& s = a.stats;
  const BatchStats& t = b.stats;
  if (s.n_samples != t.n_samples || s.mean != t.mean ||
      s.stddev != t.stddev || s.min != t.min || s.max != t.max ||
      s.quantiles != t.quantiles || s.deadline != t.deadline ||
      s.n_meeting_deadline != t.n_meeting_deadline || s.yield != t.yield ||
      s.criticality != t.criticality) {
    return differ("stats");
  }
  if (a.captured.size() != b.captured.size()) return differ("captured");
  for (std::size_t i = 0; i < a.captured.size(); ++i) {
    const auto& x = a.captured[i];
    const auto& y = b.captured[i];
    if (x.net != y.net ||
        x.trace.initial_value() != y.trace.initial_value() ||
        x.trace.transitions() != y.trace.transitions()) {
      return differ("captured trace of " + x.net);
    }
  }
  if (a.metrics.to_json() != b.metrics.to_json()) {
    return differ("metrics JSON");
  }
  return ::testing::AssertionSuccess();
}

}  // namespace charlie::sim::testing
