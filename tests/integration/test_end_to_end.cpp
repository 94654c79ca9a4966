// End-to-end pipeline tests: analog substrate -> characterization -> fit ->
// hybrid channel -> accuracy evaluation (the full Section VI workflow).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/delay_model.hpp"
#include "core/parametrize.hpp"
#include "sim/accuracy.hpp"
#include "sim/gate_models.hpp"
#include "sim/hybrid_gate_channel.hpp"
#include "sim/run_channel.hpp"
#include "spice/characterize.hpp"
#include "waveform/digitize.hpp"
#include "waveform/metrics.hpp"

namespace charlie {
namespace {

// Shared fixture computing the expensive calibration once.
class EndToEnd : public ::testing::Test {
 protected:
  struct Calibration {
    spice::Technology tech = spice::Technology::freepdk15_like();
    spice::SubstrateCharacteristics substrate;
    core::FitResult fit;
  };

  static const Calibration& calib() {
    static const Calibration c = [] {
      Calibration out;
      out.substrate = spice::measure_characteristics(out.tech);
      core::CharacteristicDelays targets;
      targets.fall_minus_inf = out.substrate.fall_minus_inf;
      targets.fall_zero = out.substrate.fall_zero;
      targets.fall_plus_inf = out.substrate.fall_plus_inf;
      targets.rise_minus_inf = out.substrate.rise_minus_inf;
      targets.rise_zero = out.substrate.rise_zero;
      targets.rise_plus_inf = out.substrate.rise_plus_inf;
      core::FitOptions opts;
      opts.vdd = out.tech.vdd;
      opts.nelder_mead_evaluations = 1500;
      out.fit = core::fit_nor_params(targets, opts);
      return out;
    }();
    return c;
  }

  struct Tracking {
    waveform::DigitalTrace golden;  // digitized analog output
    waveform::DigitalTrace model;   // hybrid channel output
    waveform::EdgePairingStats stats;
  };

  // Runs the analog NOR2 on inputs (a, b) and the fitted hybrid channel on
  // the digitized analog inputs, and pairs the two outputs' edges within
  // 30 ps.
  static Tracking track_analog(const waveform::DigitalTrace& a,
                               const waveform::DigitalTrace& b) {
    const Calibration& cal = calib();
    const double t_end =
        std::max(a.transitions().back(), b.transitions().back()) + 500e-12;
    spice::TransientOptions topt;
    topt.v_abstol = 5e-5;
    topt.v_reltol = 5e-4;
    const auto analog = spice::run_nor2(cal.tech, a, b, t_end, topt);
    const auto golden = waveform::digitize(analog.vo, cal.tech.vth());
    const auto a_dig = waveform::digitize(analog.va, cal.tech.vth());
    const auto b_dig = waveform::digitize(analog.vb, cal.tech.vth());

    sim::HybridGateChannel channel(core::GateParams::from_nor(cal.fit.params));
    auto out = sim::run_gate_channel(channel, a_dig, b_dig, 0.0, t_end);
    auto stats = waveform::pair_edges(golden, out, 30e-12);
    return {golden, std::move(out), std::move(stats)};
  }
};

TEST_F(EndToEnd, FitMatchesSubstrateFallingCurve) {
  // Fitted hybrid model vs direct analog measurement across Delta: the
  // falling curve is the paper's "very good fit" case (Fig 5).
  const core::NorDelayModel model(calib().fit.params);
  for (double delta : {-80e-12, -30e-12, 0.0, 30e-12, 80e-12}) {
    const double analog =
        spice::measure_falling_delay(calib().tech, delta).delay;
    const double hybrid = model.falling_delay(delta).delay;
    EXPECT_NEAR(hybrid, analog, 5e-12)
        << "delta=" << delta << ": model deviates from substrate";
  }
}

TEST_F(EndToEnd, FitReproducesSisAsymmetries) {
  const auto& s = calib().substrate;
  const auto& a = calib().fit.achieved;
  // Orderings must carry over even if absolute errors exist.
  EXPECT_LT(a.fall_zero, a.fall_minus_inf);
  EXPECT_LT(a.fall_minus_inf, a.fall_plus_inf);
  EXPECT_LT(a.rise_plus_inf, a.rise_minus_inf);
  // And each achieved value is within a few ps of the target.
  EXPECT_NEAR(a.fall_zero, s.fall_zero, 2e-12);
  EXPECT_NEAR(a.fall_minus_inf, s.fall_minus_inf, 2e-12);
  EXPECT_NEAR(a.rise_plus_inf, s.rise_plus_inf, 3e-12);
}

TEST_F(EndToEnd, HybridChannelTracksAnalogOnRandomTrace) {
  // A short random trace: the fitted hybrid channel's output must stay
  // close to the digitized analog output (mean |offset| well below the
  // gate delay). The edges are literal: they are the trace that
  // generate_traces drew for seed 7777 (mu 300 ps, sigma 100 ps, 30
  // transitions per input, t_start 2 * input_rise_time) under the
  // std::mt19937_64-based generator the repo used before its own
  // counter-based one, frozen so the check keeps its original input.
  const waveform::DigitalTrace a(
      false,
      {5.0285721173671185e-10, 8.9545392255086447e-10, 1.0792405255235198e-09,
       1.4617086214840476e-09, 1.778079536079953e-09,  2.101398154801836e-09,
       2.2870340786311357e-09, 2.5132878571317708e-09, 2.6513238667774784e-09,
       3.0942104400127809e-09, 3.4095528669594436e-09, 3.7027813610925329e-09,
       3.9961391322684459e-09, 4.4310461321059128e-09, 4.7245385683641154e-09,
       4.9482573033238855e-09, 5.3131454018815184e-09, 5.7280055308151754e-09,
       6.1733068917497853e-09, 6.4151558799628599e-09, 6.7263234867159747e-09,
       6.8372044998987822e-09, 7.0409483950110356e-09, 7.2834881541825187e-09,
       7.5469133456891526e-09, 7.7279504901092531e-09, 7.9270408807746354e-09,
       8.2844467693943389e-09, 8.5518585474072055e-09, 8.7870781685059779e-09});
  const waveform::DigitalTrace b(
      false,
      {4.7069557626175832e-10, 8.7288718337783155e-10, 1.0485657999221172e-09,
       1.1994356156015745e-09, 1.4434275822454829e-09, 1.5759591539791881e-09,
       1.7202705735105987e-09, 2.1203045292140096e-09, 2.1935088052043378e-09,
       2.4054790012077961e-09, 2.7156745133074908e-09, 2.9691755426584541e-09,
       3.2870448276453444e-09, 3.8070570046129511e-09, 4.0584944987795698e-09,
       4.4685897165131456e-09, 4.7539101932340053e-09, 5.0306045490378353e-09,
       5.2333024620060858e-09, 5.6029867850364282e-09, 5.8586622700754936e-09,
       6.2070067362637828e-09, 6.631855517158964e-09,  7.0243000952011012e-09,
       7.3557738188033494e-09, 7.6570287497063844e-09, 7.9850114376907083e-09,
       8.2477355633509396e-09, 8.4991807270481445e-09, 8.8358468766442126e-09});
  const auto stats = track_analog(a, b).stats;
  EXPECT_EQ(stats.unmatched_reference, 0u);
  EXPECT_EQ(stats.unmatched_model, 0u);
  EXPECT_LT(stats.mean_abs_offset, 5e-12);
}

// Counts the transitions of `trace` in [t0, t1].
std::size_t edges_in(const waveform::DigitalTrace& trace, double t0,
                     double t1) {
  const auto& ts = trace.transitions();
  return static_cast<std::size_t>(
      std::count_if(ts.begin(), ts.end(),
                    [&](double t) { return t >= t0 && t <= t1; }));
}

TEST_F(EndToEnd, HybridChannelPassesAnInputPulseTheAnalogGateFilters) {
  // A known limitation of the model, pinned. Input A pulses high for
  // 20.7 ps (4772.5 to 4793.2 ps) while B is low. The analog NOR output
  // never crosses V_th through that pulse; the hybrid channel passes it as
  // a 4.1 ps output pulse at 4804.4 to 4808.5 ps. Every other edge pairs
  // within 30 ps. The edges are literal: they are the trace that
  // generate_traces draws for seed 7777 (same configuration as
  // HybridChannelTracksAnalogOnRandomTrace) from the repo's counter-based
  // generator.
  const waveform::DigitalTrace a(
      false,
      {4.2436984688937703e-10, 6.7061729348034871e-10, 1.2257725534503802e-09,
       1.4554670163767391e-09, 1.9221660090952811e-09, 2.2843556817444589e-09,
       2.7062872992347307e-09, 2.9143866319037814e-09, 3.0709555271496498e-09,
       3.5391605434115012e-09, 3.9352973864611824e-09, 4.5078362273688807e-09,
       4.7725185900489977e-09, 4.7931636585063097e-09, 5.1242387284020041e-09,
       5.3247029186690182e-09, 5.7409404798254776e-09, 5.9801176570739583e-09,
       6.2611634730680363e-09, 6.4231069256776698e-09, 6.7178174396138589e-09,
       6.8137843317185505e-09, 6.8812571295624513e-09, 7.1004577604389319e-09,
       7.3743633502515072e-09, 7.6176816468454551e-09, 7.9360870466576389e-09,
       8.2870674674970959e-09, 8.6042452424264221e-09, 8.7621787511751466e-09});
  const waveform::DigitalTrace b(
      false,
      {4.4269818018439065e-10, 6.1051899358962598e-10, 9.8886106254339592e-10,
       1.2971740402342197e-09, 1.6635664416767742e-09, 1.9397027542187219e-09,
       2.1126025899791125e-09, 2.4077963618135784e-09, 2.6217820359825364e-09,
       2.8870706409563751e-09, 3.3405654644365764e-09, 3.6508574267636247e-09,
       4.011013558477141e-09,  4.2285195272344635e-09, 4.4645248453470318e-09,
       4.7025416175468867e-09, 4.8582987391695535e-09, 5.1325305655042702e-09,
       5.4703684915815649e-09, 5.7295638414406855e-09, 6.1255715746866425e-09,
       6.4984653425287508e-09, 6.74258261103166e-09,   6.9664774606303753e-09,
       7.3095549841298097e-09, 7.5079825527260254e-09, 7.8505663252698277e-09,
       8.1963360958957306e-09, 8.567785621210316e-09,  8.8128678496037632e-09});
  const auto run = track_analog(a, b);
  EXPECT_EQ(run.stats.unmatched_reference, 0u);
  EXPECT_EQ(run.stats.unmatched_model, 2u);
  EXPECT_EQ(edges_in(run.golden, 4.76e-9, 4.89e-9), 0u);
  EXPECT_EQ(edges_in(run.model, 4.80e-9, 4.81e-9), 2u);
  EXPECT_EQ(edges_in(run.model, 4.76e-9, 4.89e-9), 2u);
  EXPECT_LT(run.stats.mean_abs_offset, 5e-12);
}

TEST_F(EndToEnd, AccuracyRankingShortPulses) {
  // The paper's headline (Fig 7, short pulses): hybrid model with
  // delta_min beats the inertial baseline; the stripped variant does not.
  const auto& cal = calib();
  sim::SisGateDelays sis;
  sis.rise = 0.5 * (cal.substrate.rise_minus_inf + cal.substrate.rise_plus_inf);
  sis.fall = 0.5 * (cal.substrate.fall_minus_inf + cal.substrate.fall_plus_inf);
  core::NorParams stripped = cal.fit.params;
  stripped.delta_min = 0.0;

  std::vector<sim::ModelUnderTest> models;
  models.push_back({"inertial",
                    [&] {
                      return sim::make_inertial_gate(
                          core::GateTopology::kNorLike, 2, sis);
                    },
                    true});
  models.push_back({"hm", [&] {
                      return std::make_unique<sim::HybridGateChannel>(
                          core::GateParams::from_nor(cal.fit.params));
                    },
                    false});
  models.push_back({"hm_stripped", [&] {
                      return std::make_unique<sim::HybridGateChannel>(
                          core::GateParams::from_nor(stripped));
                    },
                    false});

  waveform::TraceConfig cfg;
  cfg.mu = 150e-12;
  cfg.sigma = 70e-12;
  cfg.n_transitions = 60;
  sim::AccuracyOptions opts;
  opts.repetitions = 2;
  const auto result =
      sim::evaluate_accuracy(cal.tech, cfg, models, opts);
  ASSERT_EQ(result.models.size(), 3u);
  EXPECT_DOUBLE_EQ(result.models[0].normalized, 1.0);
  EXPECT_LT(result.models[1].normalized, 0.9);   // HM clearly better
  EXPECT_GT(result.models[2].normalized,
            result.models[1].normalized);        // stripped clearly worse
}

TEST_F(EndToEnd, DeterministicAcrossRuns) {
  const auto& cal = calib();
  sim::SisGateDelays sis{50e-12, 45e-12};
  std::vector<sim::ModelUnderTest> models;
  models.push_back({"inertial",
                    [&] {
                      return sim::make_inertial_gate(
                          core::GateTopology::kNorLike, 2, sis);
                    },
                    true});
  waveform::TraceConfig cfg;
  cfg.mu = 200e-12;
  cfg.sigma = 50e-12;
  cfg.n_transitions = 20;
  sim::AccuracyOptions opts;
  opts.repetitions = 1;
  const auto r1 = sim::evaluate_accuracy(cal.tech, cfg, models, opts);
  const auto r2 = sim::evaluate_accuracy(cal.tech, cfg, models, opts);
  EXPECT_DOUBLE_EQ(r1.models[0].mean_area, r2.models[0].mean_area);
}

}  // namespace
}  // namespace charlie
