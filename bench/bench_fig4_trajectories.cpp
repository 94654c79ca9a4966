// Reproduces paper Fig 4: temporal evolution of (V_N, V_O) for all four
// mode systems with the paper's initial values (Table I parameters).
//   V_N(0) = V_O(0) = VDD, except system (0,0) starting at GND and
//   system (1,1) with V_N = VDD/2.
// Each system is one core::ModeSegment on the NOR2's GateModeTables, the
// state advance the event engine uses.
#include <iostream>

#include "bench_common.hpp"
#include "core/two_exp_crossing.hpp"
#include "util/math.hpp"

int main(int argc, char** argv) {
  using namespace charlie;
  util::Cli cli(argc, argv);
  const int n_points = cli.get_int("--points", 16);
  const double t_end = cli.get_double("--t-end-ps", 150.0) * 1e-12;
  const bool csv = cli.has_flag("--csv");
  cli.finish();

  const auto p = core::NorParams::paper_table1();
  const core::GateModeTables tables(core::GateParams::from_nor(p));

  // Input states (A,B) with A in bit 0 and B in bit 1.
  struct Row {
    core::GateState state;
    ode::Vec2 x0;
  };
  const Row systems[] = {
      {0b00, {0.0, 0.0}},          // (0,0)
      {0b10, {p.vdd, p.vdd}},      // (0,1)
      {0b01, {p.vdd, p.vdd}},      // (1,0)
      {0b11, {p.vdd / 2.0, p.vdd}},  // (1,1)
  };

  std::cout << "=== Fig 4: mode trajectories (Table I parameters) ===\n";
  util::TextTable table({"t [ps]", "VN(0,0)", "VN(0,1)", "VN(1,0)",
                         "VN(1,1)", "VO(0,0)", "VO(0,1)", "VO(1,0)",
                         "VO(1,1)"});
  std::unique_ptr<util::CsvWriter> out;
  if (csv) {
    out = std::make_unique<util::CsvWriter>(
        "bench_out/fig4_trajectories.csv",
        std::vector<std::string>{"t_ps", "vn00", "vn01", "vn10", "vn11",
                                 "vo00", "vo01", "vo10", "vo11"});
  }
  for (double t : math::linspace(0.0, t_end, n_points)) {
    std::vector<double> row{bench::ps(t)};
    std::vector<double> vn_vals;
    std::vector<double> vo_vals;
    for (const Row& sys : systems) {
      core::ModeSegment segment;
      segment.reset(0.0, sys.x0, tables.state_table(sys.state));
      const ode::Vec2 x = segment.state_at(t);
      vn_vals.push_back(x.x);
      vo_vals.push_back(x.y);
    }
    row.insert(row.end(), vn_vals.begin(), vn_vals.end());
    row.insert(row.end(), vo_vals.begin(), vo_vals.end());
    table.add_row(row, 3);
    if (out) out->row(row);
  }
  table.print(std::cout);

  std::cout << "\nChecks (paper Section III F):\n"
            << "  * V_N(1,1) stays frozen at VDD/2\n"
            << "  * V_O(1,1) is the steepest falling trajectory "
               "(parallel nMOS discharge)\n"
            << "  * V_N(0,0)/V_O(0,0) charge toward VDD, N leading O\n";
  if (csv) std::cout << "CSV written to bench_out/fig4_trajectories.csv\n";
  return 0;
}
