// Fig. 6 — utility-privacy trade-off on the indoor-floorplan workload
// (247 simulated walkers x 129 hallway segments). The walkers stand in for
// the paper's Android dataset: each counts steps along a segment and reports
// steps x calibrated stride, with per-user stride miscalibration, stride
// noise and miscounted steps (floorplan/walker.h).
#include <iostream>

#include "common/cli.h"
#include "eval/figures.h"
#include "eval/report.h"

int main(int argc, char** argv) {
  dptd::CliParser cli("Fig. 6: utility-privacy trade-off, floorplan, CRH");
  cli.add_int("users", 247, "number of walkers");
  cli.add_int("segments", 129, "number of hallway segments");
  cli.add_int("trials", 3, "repetitions per grid point");
  cli.add_int("seed", 2020, "root RNG seed");
  cli.add_string("csv", "fig6_floorplan.csv", "output CSV path (empty = none)");
  if (!cli.parse(argc, argv)) return 0;

  dptd::eval::TradeoffConfig config;
  config.workload.kind = dptd::eval::Workload::kFloorplan;
  config.workload.num_users = static_cast<std::size_t>(cli.get_int("users"));
  config.workload.num_objects =
      static_cast<std::size_t>(cli.get_int("segments"));
  config.trials = static_cast<std::size_t>(cli.get_int("trials"));
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  const dptd::eval::TradeoffResult result = dptd::eval::run_tradeoff(config);
  dptd::eval::print_tradeoff(
      std::cout, result, "Fig. 6 — indoor floorplan, CRH: MAE & noise vs eps");
  if (!cli.get_string("csv").empty()) {
    dptd::eval::write_tradeoff_csv(cli.get_string("csv"), result);
    std::cout << "CSV written to " << cli.get_string("csv") << "\n";
  }
  return 0;
}
