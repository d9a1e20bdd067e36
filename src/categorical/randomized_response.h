// k-ary randomized response with user-sampled privacy levels — the
// categorical analogue of the paper's continuous mechanism (extension).
//
// Classical k-RR keeps the true label with probability
//   p = e^eps / (e^eps + k - 1)
// and otherwise reports one of the other k-1 labels uniformly; this is
// exactly eps-LDP per report.
//
// Mirroring Algorithm 2's "each user samples his own private variance", each
// user here samples a *private* epsilon_s ~ Exp(rate lambda_rr) (the server
// releases only lambda_rr), so no party knows any user's actual flip
// probability. Heavily-flipped users end up with high disagreement and are
// down-weighted by weighted voting — the same utility story as the
// continuous mechanism. Claims in and out are label-id readings (exact
// doubles in data::ObservationMatrix), the store every vote reads.
#pragma once

#include <cstdint>

#include "categorical/label_matrix.h"
#include "common/rng.h"

namespace dptd::categorical {

/// Keep-probability of k-RR at privacy level eps.
double krr_keep_probability(double epsilon, std::size_t num_labels);

/// The eps guaranteed by a given keep probability (inverse of the above).
double krr_epsilon(double keep_probability, std::size_t num_labels);

/// One k-RR response for `truth` with keep probability p.
Label krr_perturb(Label truth, double keep_probability,
                  std::size_t num_labels, Rng& rng);

struct RandomizedResponseReport {
  std::vector<double> epsilons;  ///< private eps_s actually sampled per user
  double mean_keep_probability = 0.0;
  std::size_t flipped_cells = 0;
  std::size_t total_cells = 0;
};

struct RandomizedResponseOutcome {
  data::ObservationMatrix perturbed;  ///< label-id readings
  RandomizedResponseReport report;
};

class UserSampledRandomizedResponse {
 public:
  struct Config {
    /// Rate of the exponential distribution user privacy levels are drawn
    /// from; mean eps = 1/lambda_rr. Smaller lambda_rr = weaker privacy =
    /// fewer flips.
    double lambda_rr = 0.5;
    std::uint64_t seed = 77;
  };

  explicit UserSampledRandomizedResponse(Config config);

  /// k-RR over every claim of `original`, whose values must be label ids
  /// below `num_labels` (truth::is_label_value); throws otherwise.
  RandomizedResponseOutcome perturb(const data::ObservationMatrix& original,
                                    std::size_t num_labels) const;

  /// The eps the given user samples under this mechanism seed.
  double user_epsilon(std::size_t user) const;

  const Config& config() const { return config_; }

 private:
  Config config_;
};

}  // namespace dptd::categorical
