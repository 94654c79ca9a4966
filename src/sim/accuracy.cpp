#include "sim/accuracy.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "sim/run_channel.hpp"
#include "spice/rc_line.hpp"
#include "util/error.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "waveform/digitize.hpp"
#include "waveform/metrics.hpp"

namespace charlie::sim {
namespace {

// Index of the model the others are normalized against; `context` prefixes
// the assertion message.
template <class Model>
std::size_t find_baseline(const std::vector<Model>& models,
                          const std::string& context) {
  const auto it = std::find_if(models.begin(), models.end(),
                               [](const Model& m) { return m.is_baseline; });
  CHARLIE_ASSERT_MSG(
      it != models.end(),
      (context + ": a baseline model is required").c_str());
  return static_cast<std::size_t>(it - models.begin());
}

// Each model's mean and spread of the deviation areas over the
// repetitions, normalized by the baseline's mean.
template <class Model>
void summarize(const std::vector<Model>& models,
               const std::vector<std::vector<double>>& areas,
               std::size_t baseline_index, const std::string& context,
               AccuracyResult& result) {
  const double baseline_mean = math::mean(areas[baseline_index]);
  CHARLIE_ASSERT_MSG(
      baseline_mean > 0.0,
      (context + ": baseline produced zero deviation area").c_str());
  for (std::size_t m = 0; m < models.size(); ++m) {
    ModelAccuracy acc;
    acc.name = models[m].name;
    acc.mean_area = math::mean(areas[m]);
    acc.stddev_area = math::stddev(areas[m]);
    acc.normalized = acc.mean_area / baseline_mean;
    result.models.push_back(std::move(acc));
  }
}

}  // namespace

AccuracyOptions::AccuracyOptions() {
  // Crossing-time fidelity of ~0.1 ps is ample for ps-scale deviation
  // areas; keep the analog runs fast.
  transient.v_abstol = 5e-5;
  transient.v_reltol = 5e-4;
}

AccuracyResult evaluate_accuracy(const spice::Technology& tech,
                                 const waveform::TraceConfig& config,
                                 const std::vector<ModelUnderTest>& models,
                                 const AccuracyOptions& options) {
  return evaluate_gate_accuracy(tech, spice::CellKind::kNor2, config, models,
                                options);
}

AccuracyResult evaluate_gate_accuracy(const spice::Technology& tech,
                                      spice::CellKind cell,
                                      const waveform::TraceConfig& config,
                                      const std::vector<ModelUnderTest>& models,
                                      const AccuracyOptions& options) {
  const std::size_t baseline_index = find_baseline(models, "accuracy");
  const std::size_t n_inputs =
      static_cast<std::size_t>(spice::cell_arity(cell));

  util::Rng rng(options.seed);
  std::vector<std::vector<double>> areas(models.size());

  AccuracyResult result;
  result.config_label = config.label();

  for (int rep = 0; rep < options.repetitions; ++rep) {
    util::Rng rep_rng = rng.fork();
    // Floor t_start so the first edge's ramp can develop from a settled DC
    // state; never move a caller-specified start earlier (see
    // AccuracyOptions).
    waveform::TraceConfig cfg = config;
    cfg.t_start = std::max(cfg.t_start, 2.0 * tech.input_rise_time);
    const auto traces = waveform::generate_traces(cfg, n_inputs, rep_rng);
    double t_last = cfg.t_start;
    for (const auto& trace : traces) {
      if (!trace.empty()) t_last = std::max(t_last, trace.transitions().back());
    }
    const double t_end = t_last + options.tail_time;

    // Golden analog reference.
    const auto analog =
        spice::run_gate_cell(tech, cell, traces, t_end, options.transient);
    const auto golden = waveform::digitize(analog.vo, tech.vth());
    // Digital models see the digitized analog inputs, so runt pulses that
    // never reach V_th are absent for every model consistently.
    std::vector<waveform::DigitalTrace> digitized;
    digitized.reserve(n_inputs);
    for (const auto& wave : analog.vin) {
      digitized.push_back(waveform::digitize(wave, tech.vth()));
    }
    result.golden_transitions += static_cast<long>(golden.n_transitions());

    for (std::size_t m = 0; m < models.size(); ++m) {
      auto channel = models[m].make();
      const auto out = run_gate_channel(*channel, digitized, 0.0, t_end);
      areas[m].push_back(
          waveform::deviation_area(golden, out, 0.0, t_end));
    }
  }

  summarize(models, areas, baseline_index, "accuracy", result);
  return result;
}

WireAccuracyOptions::WireAccuracyOptions() {
  // Same fidelity/runtime trade as AccuracyOptions: ~0.1 ps crossing
  // fidelity is ample for ps-scale deviation areas.
  transient.v_abstol = 5e-5;
  transient.v_reltol = 5e-4;
}

AccuracyResult evaluate_wire_accuracy(
    const wire::WireParams& params, const waveform::TraceConfig& config,
    const std::vector<WireModelUnderTest>& models,
    const WireAccuracyOptions& options) {
  params.validate();
  const std::size_t baseline_index = find_baseline(models, "wire accuracy");

  spice::RcLineSpec spec;
  spec.r_total = params.r_total;
  spec.c_total = params.c_total;
  spec.n_sections = params.n_sections;
  spec.r_drive = params.r_drive;
  spec.c_load = params.c_load;
  spec.vdd = params.vdd;

  util::Rng rng(options.seed);
  std::vector<std::vector<double>> areas(models.size());

  AccuracyResult result;
  result.config_label = config.label();

  for (int rep = 0; rep < options.repetitions; ++rep) {
    util::Rng rep_rng = rng.fork();
    // Floor t_start so the first edge's ramp can develop from a settled DC
    // state (same convention as the gate experiment).
    waveform::TraceConfig cfg = config;
    cfg.t_start = std::max(cfg.t_start, 2.0 * options.drive_rise_time);
    const auto traces = waveform::generate_traces(cfg, 1, rep_rng);
    const auto& drive = traces.front();
    double t_last = cfg.t_start;
    if (!drive.empty()) t_last = std::max(t_last, drive.transitions().back());
    const double t_end = t_last + options.tail_time;

    // Golden: the full uncollapsed ladder on the analog substrate.
    const auto analog = spice::run_rc_line(spec, drive, options.drive_rise_time,
                                           t_end, options.transient);
    const auto golden = waveform::digitize(analog.vout, params.vth());
    // Models see the digitized analog drive, so runt drive pulses that never
    // reach V_th are absent for every model consistently.
    const auto digitized = waveform::digitize(analog.vin, params.vth());
    result.golden_transitions += static_cast<long>(golden.n_transitions());

    for (std::size_t m = 0; m < models.size(); ++m) {
      auto channel = models[m].make();
      const auto out = run_sis_channel(*channel, digitized, 0.0, t_end);
      areas[m].push_back(waveform::deviation_area(golden, out, 0.0, t_end));
    }
  }

  summarize(models, areas, baseline_index, "wire accuracy", result);
  return result;
}

}  // namespace charlie::sim
