#include "sim/process_variation.hpp"

#include <cmath>
#include <utility>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace charlie::sim {

namespace {

// Salt separating the process-sample stream from the stimulus stream of the
// same (seed, run_index) key.
constexpr std::uint64_t kProcessStreamSalt = 0x70726f6373616c74ULL;

void check_sigma(double sigma, const char* name) {
  if (!(sigma >= 0.0) || !std::isfinite(sigma)) {
    throw ConfigError(std::string("process variation: ") + name +
                      " must be finite and >= 0");
  }
}

}  // namespace

void ProcessVariation::validate() const {
  check_sigma(vdd_sigma, "vdd_sigma");
  check_sigma(vth_sigma, "vth_sigma");
  check_sigma(drive_sigma, "drive_sigma");
  if (grid_levels < 2) {
    throw ConfigError("process variation: grid_levels must be >= 2");
  }
  if (vdd_nominal < 0.0 || !std::isfinite(vdd_nominal)) {
    throw ConfigError("process variation: vdd_nominal must be >= 0");
  }
  if (kMaxSigma * vdd_sigma >= 1.0 || kMaxSigma * drive_sigma >= 1.0) {
    throw ConfigError(
        "process variation: the clamped span crosses zero supply or drive "
        "(3.5 * sigma must stay below 1 for the scale axes)");
  }
}

core::ProcessPoint ProcessVariation::sample(std::uint64_t seed,
                                            std::uint64_t run_index) const {
  util::CounterRng rng(seed ^ kProcessStreamSalt, run_index);
  core::ProcessPoint p;
  // Always draw all three axes: the stream layout (two uniforms per draw)
  // must not depend on which sigmas are active. A zero sigma returns the
  // mean exactly, so inactive axes stay bit-exactly nominal.
  p.vdd_scale = rng.normal_clamped(1.0, vdd_sigma, kMaxSigma);
  p.vth_shift = rng.normal_clamped(0.0, vth_sigma, kMaxSigma);
  p.drive_scale = rng.normal_clamped(1.0, drive_sigma, kMaxSigma);
  return p;
}

core::ModeTableGrid::Spec ProcessVariation::grid_spec() const {
  validate();
  const auto levels = static_cast<std::size_t>(grid_levels);
  core::ModeTableGrid::Spec spec;
  if (vdd_sigma > 0.0) {
    spec.vdd_scale = {1.0 + vdd_sigma * -kMaxSigma,
                      1.0 + vdd_sigma * kMaxSigma, levels};
  }
  if (vth_sigma > 0.0) {
    spec.vth_shift = {0.0 + vth_sigma * -kMaxSigma,
                      0.0 + vth_sigma * kMaxSigma, levels};
  }
  if (drive_sigma > 0.0) {
    spec.drive_scale = {1.0 + drive_sigma * -kMaxSigma,
                        1.0 + drive_sigma * kMaxSigma, levels};
  }
  return spec;
}

void ProcessBinder::build_grids(Circuit& circuit,
                                const core::ModeTableGrid::Spec& spec,
                                GridMap& grids) {
  circuit.for_each_mis_channel([&](GateChannel& channel) {
    auto* hybrid = dynamic_cast<HybridGateChannel*>(&channel);
    if (hybrid == nullptr) return;  // non-hybrid MIS channels stay nominal
    auto& slot = grids[hybrid->gate_tables().get()];
    if (slot == nullptr) {
      slot = std::make_shared<const core::ModeTableGrid>(
          hybrid->gate_tables()->gate_params(), spec);
    }
  });
}

ProcessBinder::ProcessBinder(Circuit& circuit, const GridMap& grids,
                             double vdd_override)
    : vdd_nominal_(vdd_override) {
  std::map<const core::GateModeTables*, std::size_t> rebind_of;
  circuit.for_each_mis_channel([&](GateChannel& channel) {
    auto* hybrid = dynamic_cast<HybridGateChannel*>(&channel);
    if (hybrid == nullptr) return;
    const auto& nominal = hybrid->gate_tables();
    const auto [it, inserted] =
        rebind_of.emplace(nominal.get(), rebinds_.size());
    if (inserted) {
      const auto grid_it = grids.find(nominal.get());
      if (grid_it == grids.end()) {
        throw ConfigError(
            "process binder: no grid for a hybrid table; run build_grids "
            "over this circuit first");
      }
      TableRebind rebind;
      rebind.nominal = nominal;
      rebind.grid = grid_it->second;
      rebind.local = std::make_shared<core::GateModeTables>(*nominal);
      rebinds_.push_back(std::move(rebind));
    }
    if (vdd_nominal_ == 0.0) {
      vdd_nominal_ = nominal->gate_params().vdd;
    }
    hybrid_channels_.push_back({hybrid, it->second});
  });
  circuit.for_each_sis_channel([&](SisChannel& channel) {
    auto* inertial = dynamic_cast<InertialChannel*>(&channel);
    if (inertial == nullptr) return;  // wire/pure-delay channels stay nominal
    inertial_.push_back(
        {inertial, inertial->delay_up(), inertial->delay_down()});
  });
  if (!inertial_.empty() && vdd_nominal_ <= 0.0) {
    throw ConfigError(
        "process binder: circuit has inertial channels but no hybrid gate "
        "to read the nominal VDD from; set ProcessVariation::vdd_nominal");
  }
}

void ProcessBinder::bind(const core::ProcessPoint& point) {
  const bool nominal = point.is_nominal();
  if (!nominal) {
    for (TableRebind& rebind : rebinds_) {
      rebind.grid->interpolate_into(point, *rebind.local);
    }
  }
  for (const HybridSlot& slot : hybrid_channels_) {
    const TableRebind& rebind = rebinds_[slot.rebind];
    if (nominal) {
      slot.channel->rebind_tables(rebind.nominal);
    } else {
      slot.channel->rebind_tables(rebind.local);
    }
  }
  if (!inertial_.empty()) {
    const double s = point.resistance_scale(vdd_nominal_);
    for (const InertialSlot& slot : inertial_) {
      slot.channel->set_delays(slot.delay_up * s, slot.delay_down * s);
    }
  }
}

}  // namespace charlie::sim
