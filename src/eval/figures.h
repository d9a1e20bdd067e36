// Experiment runners that regenerate every figure of the paper's evaluation
// (§5). Each returns a plain series struct; bench binaries print them via
// eval/report.h. All runners are deterministic in their config seed.
//
// Epsilon-to-noise mapping: for a privacy target (eps, delta) the accountant
// gives the minimum noise level c (Theorem 4.8 with the Lemma 4.7
// sensitivity), and lambda2 = lambda1 / c. Sweeping eps therefore sweeps the
// injected noise exactly the way the paper's x-axes do.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/accountant.h"
#include "eval/metrics.h"

namespace dptd::eval {

/// Which dataset the experiment runs on.
enum class Workload {
  kSynthetic,  ///< §5.1: 150 users x 30 objects, sigma_s^2 ~ Exp(lambda1)
  kFloorplan,  ///< §5.2: 247 walkers x 129 hallway segments
};

/// Shared workload parameters.
struct WorkloadConfig {
  Workload kind = Workload::kSynthetic;
  std::size_t num_users = 150;
  std::size_t num_objects = 30;
  double lambda1 = 2.0;  ///< synthetic error-variance rate
};

/// Estimates lambda1 (rate of the error-variance distribution) from data with
/// ground truth: 1 / mean_s( mean_n (x_s_n - truth_n)^2 ). Used to drive the
/// accountant on the floorplan workload where lambda1 is not a knob.
double estimate_lambda1(const data::Dataset& dataset);

// ---------------------------------------------------------------------------
// Figures 2 / 5 / 6 — utility-privacy trade-off curves.

struct TradeoffConfig {
  WorkloadConfig workload;
  std::string method = "crh";  ///< "gtm" reproduces Fig. 5
  std::vector<double> epsilons = {0.25, 0.5, 0.75, 1.0, 1.25, 1.5,
                                  1.75, 2.0,  2.25, 2.5, 2.75, 3.0};
  std::vector<double> deltas = {0.2, 0.3, 0.4, 0.5};  ///< privacy deltas
  /// Sensitivity parameters for the eps -> c mapping; defaults give
  /// paper-scale noise magnitudes (avg noise ~1 near eps = 0.5).
  core::SensitivityParams sensitivity{1.0, 0.5};
  std::size_t trials = 5;
  std::uint64_t seed = 7;
};

struct TradeoffPoint {
  double epsilon = 0.0;
  double noise_level_c = 0.0;  ///< c implied by (eps, delta)
  double lambda2 = 0.0;
  Summary mae;        ///< MAE( A(D), A(M(D)) ) — Fig. a-panels
  Summary avg_noise;  ///< mean |added noise| — Fig. b-panels
};

struct TradeoffSeries {
  double delta = 0.0;
  std::vector<TradeoffPoint> points;
};

struct TradeoffResult {
  std::vector<TradeoffSeries> series;  ///< one per delta
};

TradeoffResult run_tradeoff(const TradeoffConfig& config);

// ---------------------------------------------------------------------------
// Figure 3 — effect of lambda1.

struct Lambda1Config {
  std::vector<double> lambda1s = {0.5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  double epsilon = 1.0;  ///< fixed privacy target driving the noise
  double delta = 0.3;
  core::SensitivityParams sensitivity{1.0, 0.5};
  std::size_t num_users = 150;
  std::size_t num_objects = 30;
  std::string method = "crh";
  std::size_t trials = 5;
  std::uint64_t seed = 11;
};

struct Lambda1Point {
  double lambda1 = 0.0;
  double lambda2 = 0.0;
  Summary mae;
  Summary avg_noise;
};

struct Lambda1Result {
  std::vector<Lambda1Point> points;
};

Lambda1Result run_lambda1_effect(const Lambda1Config& config);

// ---------------------------------------------------------------------------
// Figure 4 — effect of the number of users S.

struct UsersConfig {
  std::vector<std::size_t> user_counts = {100, 200, 300, 400, 500, 600};
  double lambda1 = 2.0;
  /// Noise is pinned (lambda2 fixed from this target at the *first* S), so
  /// the b-panel stays flat while MAE falls with S.
  double epsilon = 1.0;
  double delta = 0.3;
  core::SensitivityParams sensitivity{1.0, 0.5};
  std::size_t num_objects = 30;
  std::string method = "crh";
  std::size_t trials = 5;
  std::uint64_t seed = 13;
};

struct UsersPoint {
  std::size_t num_users = 0;
  Summary mae;
  Summary avg_noise;
};

struct UsersResult {
  double lambda2 = 0.0;
  std::vector<UsersPoint> points;
};

UsersResult run_users_effect(const UsersConfig& config);

// ---------------------------------------------------------------------------
// Figure 7 — true vs estimated weights, original and perturbed data.

struct WeightComparisonConfig {
  std::size_t num_selected_users = 7;
  double epsilon = 1.0;
  double delta = 0.3;
  core::SensitivityParams sensitivity{1.0, 0.5};
  std::uint64_t seed = 2020;
  /// Floorplan scenario dimensions (paper: 247 x 129).
  std::size_t num_users = 247;
  std::size_t num_segments = 129;
};

struct WeightComparisonResult {
  std::vector<std::size_t> user_ids;
  /// Normalized (sum-to-one over *all* users, then scaled by user count so
  /// the average weight is 1) — keeps the plot scale stable.
  std::vector<double> true_weight_original;
  std::vector<double> estimated_weight_original;
  std::vector<double> true_weight_perturbed;
  std::vector<double> estimated_weight_perturbed;
  double pearson_original = 0.0;   ///< over all users, not just selected
  double pearson_perturbed = 0.0;
  /// The user (index into user_ids) whose sampled noise variance was largest
  /// — the paper's "user 5" story.
  std::size_t largest_noise_selected_index = 0;
};

WeightComparisonResult run_weight_comparison(
    const WeightComparisonConfig& config);

// ---------------------------------------------------------------------------
// Figure 8 — running time vs average added noise.

struct EfficiencyConfig {
  std::size_t num_users = 247;
  std::size_t num_objects = 2000;  ///< large enough for measurable runtimes
  double lambda1 = 2.0;
  std::vector<double> target_noises = {0.1, 0.2, 0.3, 0.4, 0.5,
                                       0.6, 0.7, 0.8, 0.9, 1.0};
  std::string method = "crh";
  std::size_t trials = 3;
  std::uint64_t seed = 23;
};

struct EfficiencyPoint {
  double avg_noise = 0.0;   ///< measured mean |noise|
  Summary seconds;          ///< truth-discovery wall time on perturbed data
  Summary iterations;
};

struct EfficiencyResult {
  Summary original_seconds;  ///< truth discovery on the original data
  Summary original_iterations;
  std::vector<EfficiencyPoint> points;
};

EfficiencyResult run_efficiency(const EfficiencyConfig& config);

// ---------------------------------------------------------------------------
// Ablation, beyond the paper — perturbation mechanisms x aggregation methods
// at matched mean |noise|: does weighted truth discovery beat mean/median
// under every mechanism, and what does sampling each user's variance cost
// against a public fixed-variance Gaussian?

struct AblationConfig {
  WorkloadConfig workload;
  std::vector<std::string> methods = {"crh", "gtm", "catd", "mean", "median"};
  std::vector<std::string> mechanisms = {"user-sampled-gaussian",
                                         "fixed-gaussian", "laplace"};
  /// Target mean |noise| levels; every mechanism is calibrated to match.
  std::vector<double> target_noises = {0.25, 0.5, 1.0, 2.0};
  std::size_t trials = 5;
  std::uint64_t seed = 31;
};

struct AblationCell {
  std::string method;
  std::string mechanism;
  double target_noise = 0.0;
  Summary mae_vs_original;      ///< MAE(A(D), A(M(D)))
  Summary mae_vs_ground_truth;  ///< MAE(A(M(D)), truth)
};

struct AblationResult {
  Summary unperturbed_truth_mae_mean;    ///< MAE(mean(D), truth) baseline
  std::vector<AblationCell> cells;
};

AblationResult run_ablation(const AblationConfig& config);

}  // namespace dptd::eval
