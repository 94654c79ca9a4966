#include "sta/timing_graph.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <span>
#include <utility>

#include "util/error.hpp"

namespace charlie::sta {

namespace {

// Unateness of the supported gate kinds. "Same" feeds input rise into
// output rise (positive unate); "opposite" feeds input rise into output
// fall (negative unate). XOR is both (non-unate). Wires are emitted as
// kBuf, so they land in "same".
bool feeds_same(sim::GateKind kind) {
  switch (kind) {
    case sim::GateKind::kBuf:
    case sim::GateKind::kAnd2:
    case sim::GateKind::kOr2:
    case sim::GateKind::kXor2:
      return true;
    default:
      return false;
  }
}

bool feeds_opposite(sim::GateKind kind) {
  switch (kind) {
    case sim::GateKind::kInv:
    case sim::GateKind::kNand2:
    case sim::GateKind::kNor2:
    case sim::GateKind::kNand3:
    case sim::GateKind::kNor3:
    case sim::GateKind::kXor2:
      return true;
    default:
      return false;
  }
}

}  // namespace

TimingGraph::TimingGraph(const cell::NetlistDesc& desc,
                         std::shared_ptr<const cell::CellLibrary> library)
    : desc_(desc),
      library_(std::move(library)),
      builder_(library_),
      topo_(builder_.analyze_topology(desc_)) {
  const std::size_t n_elems = topo_.n_elements();
  kinds_.reserve(n_elems);
  for (std::size_t e = 0; e < n_elems; ++e) {
    kinds_.push_back(sim::NetlistTopology::is_wire(desc_, e)
                         ? sim::GateKind::kBuf
                         : topo_.specs[e]->kind);
  }

  endpoints_ = desc_.outputs;
  if (endpoints_.empty() && !desc_.instances.empty()) {
    endpoints_.push_back(desc_.instances.back().output);
  }
  if (endpoints_.empty() && !desc_.wires.empty()) {
    endpoints_.push_back(desc_.wires.back().output);
  }
  endpoint_ids_.reserve(endpoints_.size());
  for (const auto& name : endpoints_) endpoint_ids_.push_back(net_id(name));

  nominal_arcs_ = extract_arcs(desc_, *library_, builder_);
}

int TimingGraph::net_id(const std::string& name) const {
  const int id = topo_.net_ids.find(name);
  CHARLIE_ASSERT_MSG(id >= 0, "timing graph: unknown net");
  return id;
}

ArcSet TimingGraph::arcs_at(const core::ProcessPoint& point) const {
  if (point.is_nominal()) return nominal_arcs_;
  const cell::CellLibrary corner = library_->at_corner(point);
  return extract_arcs(desc_, corner, builder_);
}

// Generic forward pass: latest/statistical arrival per (net, direction)
// over the topological order. `arc_of(e, pin, out_rising)` supplies the arc
// as a V; `join` merges competing contributions (max / statistical max).
// Every primary input arrives at V{} (time zero) in both directions.
template <typename V, typename ArcOf, typename Join>
void TimingGraph::propagate(ArcOf&& arc_of, Join&& join, std::vector<V>& rise,
                            std::vector<V>& fall) const {
  rise.assign(topo_.n_nets(), V{});
  fall.assign(topo_.n_nets(), V{});
  for (const int el : topo_.order) {
    const auto e = static_cast<std::size_t>(el);
    const std::span<const int> inputs = topo_.inputs_of(e);
    const bool same = feeds_same(kinds_[e]);
    const bool opposite = feeds_opposite(kinds_[e]);
    for (const bool out_rising : {false, true}) {
      V best{};
      bool has = false;
      for (std::size_t p = 0; p < inputs.size(); ++p) {
        const auto in = static_cast<std::size_t>(inputs[p]);
        const V arc = arc_of(e, p, out_rising);
        const auto consider = [&](const V& arrival) {
          V cand = arrival + arc;
          best = has ? join(best, cand) : cand;
          has = true;
        };
        if (same) consider(out_rising ? rise[in] : fall[in]);
        if (opposite) consider(out_rising ? fall[in] : rise[in]);
      }
      CHARLIE_ASSERT_MSG(has, "timing graph: element with no timing arc");
      (out_rising ? rise : fall)[static_cast<std::size_t>(
          topo_.output_net(e))] = best;
    }
  }
}

TimingResult TimingGraph::analyze(const ArcSet& arcs, double deadline) const {
  CHARLIE_ASSERT_MSG(arcs.elements.size() == kinds_.size(),
                     "timing graph: arc set does not match the netlist");
  std::vector<double> rise;
  std::vector<double> fall;
  propagate<double>(
      [&](std::size_t e, std::size_t p, bool out_rising) {
        return out_rising ? arcs.elements[e].rise[p] : arcs.elements[e].fall[p];
      },
      [](double a, double b) { return std::max(a, b); }, rise, fall);

  TimingResult res;
  bool first = true;
  for (std::size_t i = 0; i < endpoint_ids_.size(); ++i) {
    const auto id = static_cast<std::size_t>(endpoint_ids_[i]);
    for (const bool rising : {true, false}) {
      const double a = rising ? rise[id] : fall[id];
      if (first || a > res.critical_delay) {
        res.critical_delay = a;
        res.critical_endpoint = endpoints_[i];
        res.critical_rising = rising;
        first = false;
      }
    }
  }

  // Required times backward from the endpoints. A deadline of 0 measures
  // slack against the critical delay itself.
  const double target = deadline > 0.0 ? deadline : res.critical_delay;
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> req_rise(topo_.n_nets(), inf);
  std::vector<double> req_fall(topo_.n_nets(), inf);
  for (const int id : endpoint_ids_) {
    req_rise[static_cast<std::size_t>(id)] = target;
    req_fall[static_cast<std::size_t>(id)] = target;
  }
  for (auto it = topo_.order.rbegin(); it != topo_.order.rend(); ++it) {
    const auto e = static_cast<std::size_t>(*it);
    const std::span<const int> inputs = topo_.inputs_of(e);
    const bool same = feeds_same(kinds_[e]);
    const bool opposite = feeds_opposite(kinds_[e]);
    const auto out = static_cast<std::size_t>(topo_.output_net(e));
    for (const bool out_rising : {false, true}) {
      const double r = out_rising ? req_rise[out] : req_fall[out];
      if (!std::isfinite(r)) continue;
      for (std::size_t p = 0; p < inputs.size(); ++p) {
        const auto in = static_cast<std::size_t>(inputs[p]);
        const double arc = out_rising ? arcs.elements[e].rise[p]
                                      : arcs.elements[e].fall[p];
        if (same) {
          double& t = out_rising ? req_rise[in] : req_fall[in];
          t = std::min(t, r - arc);
        }
        if (opposite) {
          double& t = out_rising ? req_fall[in] : req_rise[in];
          t = std::min(t, r - arc);
        }
      }
    }
  }

  res.nets.resize(topo_.n_nets());
  res.worst_slack = inf;
  for (std::size_t n = 0; n < topo_.n_nets(); ++n) {
    NetTiming& t = res.nets[n];
    t.net = nets()[n];
    t.arrival_rise = rise[n];
    t.arrival_fall = fall[n];
    t.required_rise = req_rise[n];
    t.required_fall = req_fall[n];
    t.slack = std::min(req_rise[n] - rise[n], req_fall[n] - fall[n]);
    if (std::isfinite(t.slack)) res.worst_slack = std::min(res.worst_slack, t.slack);
  }
  if (!std::isfinite(res.worst_slack)) res.worst_slack = 0.0;
  return res;
}

std::vector<CriticalPath> TimingGraph::critical_paths(const ArcSet& arcs,
                                                      std::size_t k) const {
  CHARLIE_ASSERT_MSG(arcs.elements.size() == kinds_.size(),
                     "timing graph: arc set does not match the netlist");
  std::vector<CriticalPath> out;
  if (k == 0 || endpoint_ids_.empty()) return out;

  std::vector<double> rise;
  std::vector<double> fall;
  propagate<double>(
      [&](std::size_t e, std::size_t p, bool out_rising) {
        return out_rising ? arcs.elements[e].rise[p] : arcs.elements[e].fall[p];
      },
      [](double a, double b) { return std::max(a, b); }, rise, fall);
  const auto arrival = [&](int net, bool rising) {
    return rising ? rise[static_cast<std::size_t>(net)]
                  : fall[static_cast<std::size_t>(net)];
  };

  // Best-first backward search from the endpoints. A state is a partial
  // path (endpoint back to `net` transitioning in `rising` direction) with
  // `suffix` = exact delay of that tail; its priority adds the head's
  // arrival, the exact maximum any completion can reach. Popping in
  // priority order therefore emits complete paths in exact decreasing
  // delay order (best-first search with a perfect heuristic). Each step
  // records the tail delay below it so the final times fall out of the
  // total.
  struct State {
    int net = -1;
    bool rising = true;
    double suffix = 0.0;
    double priority = 0.0;
    std::vector<PathStep> steps;  // endpoint first; t holds the tail delay
  };
  const auto cmp = [](const State& a, const State& b) {
    return a.priority < b.priority;
  };
  std::priority_queue<State, std::vector<State>, decltype(cmp)> queue(cmp);
  for (std::size_t i = 0; i < endpoint_ids_.size(); ++i) {
    for (const bool rising : {true, false}) {
      State s;
      s.net = endpoint_ids_[i];
      s.rising = rising;
      s.priority = arrival(s.net, rising);
      s.steps.push_back({endpoints_[i], rising, 0.0});
      queue.push(std::move(s));
    }
  }

  // Expansion guard: with exact arrivals the search only touches states on
  // top-k-competitive prefixes, but a dense graph of near-equal paths could
  // still blow up; cap the work and return what is proven so far.
  constexpr std::size_t kMaxExpansions = 200000;
  std::size_t expansions = 0;
  while (!queue.empty() && out.size() < k && expansions < kMaxExpansions) {
    ++expansions;
    State s = queue.top();
    queue.pop();
    const int d = topo_.driver(s.net);
    if (d < 0) {
      // Head is a primary input: the path is complete and its priority is
      // its exact delay.
      CriticalPath path;
      path.delay = s.suffix;
      path.steps.reserve(s.steps.size());
      for (auto it = s.steps.rbegin(); it != s.steps.rend(); ++it) {
        path.steps.push_back({it->net, it->rising, s.suffix - it->t});
      }
      out.push_back(std::move(path));
      continue;
    }
    const std::span<const int> inputs =
        topo_.inputs_of(static_cast<std::size_t>(d));
    const bool same = feeds_same(kinds_[static_cast<std::size_t>(d)]);
    const bool opposite = feeds_opposite(kinds_[static_cast<std::size_t>(d)]);
    for (std::size_t p = 0; p < inputs.size(); ++p) {
      const int in = inputs[p];
      const double arc =
          s.rising ? arcs.elements[static_cast<std::size_t>(d)].rise[p]
                   : arcs.elements[static_cast<std::size_t>(d)].fall[p];
      const auto push = [&](bool in_rising) {
        State n = s;
        n.net = in;
        n.rising = in_rising;
        n.suffix += arc;
        n.priority = arrival(in, in_rising) + n.suffix;
        n.steps.push_back({nets()[static_cast<std::size_t>(in)], in_rising,
                           n.suffix});
        queue.push(std::move(n));
      };
      if (same) push(s.rising);
      if (opposite) push(!s.rising);
    }
  }
  return out;
}

CanonicalArcSet TimingGraph::canonical_arcs(
    const sim::ProcessVariation& variation) const {
  variation.validate();
  const std::size_t n_elems = kinds_.size();
  CanonicalArcSet set;
  set.rise.resize(n_elems);
  set.fall.resize(n_elems);
  for (std::size_t e = 0; e < n_elems; ++e) {
    const ElementArcs& arcs = nominal_arcs_.elements[e];
    set.rise[e].reserve(arcs.rise.size());
    set.fall[e].reserve(arcs.fall.size());
    for (const double d : arcs.rise) set.rise[e].push_back(Canonical::constant(d));
    for (const double d : arcs.fall) set.fall[e].push_back(Canonical::constant(d));
  }

  const std::array<double, kNAxes> sigmas = {
      variation.vdd_sigma, variation.vth_sigma, variation.drive_sigma};
  for (std::size_t axis = 0; axis < kNAxes; ++axis) {
    if (sigmas[axis] <= 0.0) continue;
    core::ProcessPoint plus = core::ProcessPoint::nominal();
    core::ProcessPoint minus = core::ProcessPoint::nominal();
    switch (axis) {
      case 0:
        plus.vdd_scale = 1.0 + sigmas[axis];
        minus.vdd_scale = 1.0 - sigmas[axis];
        break;
      case 1:
        plus.vth_shift = sigmas[axis];
        minus.vth_shift = -sigmas[axis];
        break;
      default:
        plus.drive_scale = 1.0 + sigmas[axis];
        minus.drive_scale = 1.0 - sigmas[axis];
        break;
    }
    const ArcSet up = arcs_at(plus);
    const ArcSet down = arcs_at(minus);
    for (std::size_t e = 0; e < n_elems; ++e) {
      for (std::size_t p = 0; p < set.rise[e].size(); ++p) {
        set.rise[e][p].sens[axis] =
            0.5 * (up.elements[e].rise[p] - down.elements[e].rise[p]);
      }
      for (std::size_t p = 0; p < set.fall[e].size(); ++p) {
        set.fall[e][p].sens[axis] =
            0.5 * (up.elements[e].fall[p] - down.elements[e].fall[p]);
      }
    }
  }
  return set;
}

Canonical TimingGraph::analyze_ssta(const CanonicalArcSet& arcs) const {
  CHARLIE_ASSERT_MSG(arcs.rise.size() == kinds_.size() &&
                         arcs.fall.size() == kinds_.size(),
                     "timing graph: canonical arc set does not match");
  std::vector<Canonical> rise;
  std::vector<Canonical> fall;
  propagate<Canonical>(
      [&](std::size_t e, std::size_t p, bool out_rising) {
        return out_rising ? arcs.rise[e][p] : arcs.fall[e][p];
      },
      [](const Canonical& a, const Canonical& b) {
        return statistical_max(a, b);
      },
      rise, fall);
  Canonical worst;
  bool first = true;
  for (const int id : endpoint_ids_) {
    for (const bool rising : {true, false}) {
      const Canonical& a = rising ? rise[static_cast<std::size_t>(id)]
                                  : fall[static_cast<std::size_t>(id)];
      worst = first ? a : statistical_max(worst, a);
      first = false;
    }
  }
  return worst;
}

}  // namespace charlie::sta
