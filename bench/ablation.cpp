// Ablation bench, beyond the paper: perturbation mechanisms x aggregation
// methods at matched mean |noise|. Shows (1) weighted truth discovery beats
// mean/median under every mechanism, and (2) the user-sampled-variance
// design costs little utility versus a public fixed-variance Gaussian while
// keeping the variance private.
#include <iostream>

#include "common/cli.h"
#include "eval/figures.h"
#include "eval/report.h"

int main(int argc, char** argv) {
  dptd::CliParser cli("Ablation: mechanisms x truth-discovery methods");
  cli.add_int("users", 150, "number of users");
  cli.add_int("objects", 30, "number of objects");
  cli.add_double("lambda1", 2.0, "error-variance rate");
  cli.add_int("trials", 5, "repetitions per cell");
  cli.add_int("seed", 31, "root RNG seed");
  cli.add_string("csv", "ablation.csv", "output CSV path (empty = none)");
  if (!cli.parse(argc, argv)) return 0;

  dptd::eval::AblationConfig config;
  config.workload.num_users = static_cast<std::size_t>(cli.get_int("users"));
  config.workload.num_objects =
      static_cast<std::size_t>(cli.get_int("objects"));
  config.workload.lambda1 = cli.get_double("lambda1");
  config.trials = static_cast<std::size_t>(cli.get_int("trials"));
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  const dptd::eval::AblationResult result = dptd::eval::run_ablation(config);
  dptd::eval::print_ablation(std::cout, result);
  if (!cli.get_string("csv").empty()) {
    dptd::eval::write_ablation_csv(cli.get_string("csv"), result);
    std::cout << "CSV written to " << cli.get_string("csv") << "\n";
  }
  return 0;
}
