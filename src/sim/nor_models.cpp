#include "sim/nor_models.hpp"

#include "sim/exp_channel.hpp"
#include "sim/sumexp_channel.hpp"

namespace charlie::sim {

std::unique_ptr<GateChannel> make_exp_nor(const SisGateDelays& delays,
                                          double delta_min) {
  ExpChannelParams p;
  p.delta_inf_up = delays.rise;
  p.delta_inf_down = delays.fall;
  p.delta_min = delta_min;
  return std::make_unique<SisLogicGate>(core::GateTopology::kNorLike, 2,
                                        std::make_unique<ExpChannel>(p));
}

std::unique_ptr<GateChannel> make_sumexp_nor(const SisGateDelays& delays,
                                             double delta_min) {
  SumExpChannelParams p;
  p.delta_min = delta_min;
  p.calibrate_direction(true, delays.rise);
  p.calibrate_direction(false, delays.fall);
  return std::make_unique<SisLogicGate>(core::GateTopology::kNorLike, 2,
                                        std::make_unique<SumExpChannel>(p));
}

}  // namespace charlie::sim
