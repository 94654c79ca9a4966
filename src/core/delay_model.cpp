#include "core/delay_model.hpp"

#include <cmath>
#include <initializer_list>
#include <span>

#include "core/gate_delay.hpp"
#include "util/error.hpp"

namespace charlie::core {

namespace {

// Ports and input states of the NOR2 instance: input A is port 0 (state
// bit 0), B is port 1 (state bit 1).
constexpr int kPortA = 0;
constexpr int kPortB = 1;
constexpr GateState kS00 = 0b00;  // (A,B) = (0,0)
constexpr GateState kS10 = 0b01;  // (A,B) = (1,0)
constexpr GateState kS01 = 0b10;  // (A,B) = (0,1)
constexpr GateState kS11 = 0b11;  // (A,B) = (1,1)

double crossing(const GateModeTables& tables, GateState start, double vn_hold,
                std::initializer_list<GateInputEvent> events, bool rising) {
  return gate_output_crossing(
      tables, start, vn_hold,
      std::span<const GateInputEvent>(events.begin(), events.size()), rising);
}

}  // namespace

NorDelayModel::NorDelayModel(const NorParams& params)
    : params_(params), tables_(GateParams::from_nor(params)) {}

DelayResult NorDelayModel::falling_delay(double delta) const {
  const double ts = std::fabs(delta);
  // Earlier input rises at t=0: A for Delta > 0 (tA < tB), B for Delta < 0.
  const bool a_first = delta > 0.0;
  const int first = a_first ? kPortA : kPortB;
  const int later = a_first ? kPortB : kPortA;
  DelayResult result;
  result.t_cross = crossing(tables_, kS00, 0.0,
                            {{0.0, first, true}, {ts, later, true}},
                            /*rising=*/false);
  result.delay = result.t_cross + params().delta_min;  // from earlier input
  return result;
}

DelayResult NorDelayModel::rising_delay(double delta, double vn0) const {
  const double ts = std::fabs(delta);
  // Earlier input falls at t=0: B for Delta < 0 (tB < tA), A for Delta > 0.
  const bool a_first = delta > 0.0;
  const int first = a_first ? kPortA : kPortB;
  const int later = a_first ? kPortB : kPortA;
  DelayResult result;
  result.t_cross = crossing(tables_, kS11, vn0,
                            {{0.0, first, false}, {ts, later, false}},
                            /*rising=*/true);
  // The delay is defined from the later input, once mode (0,0) is active;
  // an earlier rising crossing would be a charge-sharing glitch of the
  // intermediate mode (possible only for C_N > C_O).
  if (result.t_cross < ts) {
    throw ConvergenceError(
        "nor delay model: output rose before the later input fell");
  }
  result.delay = result.t_cross - ts + params().delta_min;
  return result;
}

double NorDelayModel::falling_sis_b_first() const {
  // B rises alone: (0,0) -> (0,1); O drains through R4.
  return crossing(tables_, kS00, 0.0, {{0.0, kPortB, true}},
                  /*rising=*/false) +
         params().delta_min;
}

double NorDelayModel::falling_sis_a_first() const {
  // A rises alone: (0,0) -> (1,0); O drains through R3, dragged by C_N.
  return crossing(tables_, kS00, 0.0, {{0.0, kPortA, true}},
                  /*rising=*/false) +
         params().delta_min;
}

double NorDelayModel::rising_sis_b_first(double vn0) const {
  // B fell long ago: (1,1) -> (1,0) drains V_N to 0 regardless of vn0;
  // then A falls: (0,0) starts from (0, 0).
  (void)vn0;  // drained before the delay-defining switch
  return crossing(tables_, kS10, 0.0, {{0.0, kPortA, false}},
                  /*rising=*/true) +
         params().delta_min;
}

double NorDelayModel::rising_sis_a_first(double vn0) const {
  // A fell long ago: (1,1) -> (0,1) charges V_N to VDD regardless of vn0;
  // then B falls: (0,0) starts from (VDD, 0).
  (void)vn0;  // recharged before the delay-defining switch
  return crossing(tables_, kS01, 0.0, {{0.0, kPortB, false}},
                  /*rising=*/true) +
         params().delta_min;
}

}  // namespace charlie::core
