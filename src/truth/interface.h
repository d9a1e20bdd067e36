// Common interface for truth-discovery algorithms over continuous data.
//
// All methods follow the two-principle template the paper summarizes in
// Algorithm 1: iterate (a) weighted aggregation of claims into truths and
// (b) re-estimation of user weights from distance-to-truths. Every method
// implements run_sharded, the entry point a round's server calls.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "data/dataset.h"
#include "data/sharding.h"

namespace dptd::truth {

class FoldBackend;

/// Convergence control shared by iterative methods.
struct ConvergenceCriteria {
  /// Stop when the mean absolute change of the aggregated results between two
  /// consecutive iterations falls below this threshold (paper §3.1 / §5.3).
  double tolerance = 1e-6;
  std::size_t max_iterations = 100;
};

struct Result {
  std::vector<double> truths;   ///< one aggregated value per object
  std::vector<double> weights;  ///< one non-negative weight per user
  std::size_t iterations = 0;   ///< iterations actually executed
  bool converged = false;       ///< true if tolerance was reached

  /// Weights rescaled to sum to 1 (convenience for comparisons/plots). When
  /// every weight is zero (e.g. a degenerate one-iteration run), there is no
  /// quality signal to rescale, so the uniform distribution is returned
  /// instead of dividing by zero.
  std::vector<double> normalized_weights() const;
};

/// Seed state for iterative methods in multi-round deployments: round r+1
/// starts from round r's converged truths/weights instead of the cold
/// initialization, so on slowly-drifting truths it converges in fewer
/// iterations. Either vector may be empty (= no seed for that half).
struct WarmStart {
  std::vector<double> truths;   ///< size num_objects, or empty
  std::vector<double> weights;  ///< size num_users, or empty

  bool empty() const { return truths.empty() && weights.empty(); }
};

/// Throws std::invalid_argument if a non-empty warm-start vector has the
/// wrong size, a non-finite entry, or (for weights) a negative entry.
void validate_warm_start(std::size_t num_users, std::size_t num_objects,
                         const WarmStart& warm);
void validate_warm_start(const data::ObservationMatrix& observations,
                         const WarmStart& warm);

class TruthDiscovery {
 public:
  virtual ~TruthDiscovery() = default;

  /// Runs the method on an observation matrix. Every object must have at
  /// least one present observation; throws std::invalid_argument otherwise.
  virtual Result run(const data::ObservationMatrix& observations) const = 0;

  /// Runs the method seeded from `warm`. The default ignores the seed and
  /// forwards to run() (single-pass baselines have no state to seed);
  /// iterative methods override it. An empty WarmStart must reproduce run()
  /// bit-for-bit.
  virtual Result run_warm(const data::ObservationMatrix& observations,
                          const WarmStart& warm) const {
    (void)warm;
    return run(observations);
  }

  /// True when run_warm() actually honors the seed.
  virtual bool supports_warm_start() const { return false; }

  /// Runs the method over a user-sharded matrix, reducing per-shard
  /// sufficient statistics in fixed shard order. For the registered methods
  /// the result is bitwise identical to the single-shard run for any shard
  /// count with the same canonical block size.
  virtual Result run_sharded(const data::ShardedMatrix& shards,
                             const WarmStart& warm = {}) const = 0;

  /// Runs the method's loop over `backend` (truth/fold_backend.h): the one
  /// loop run_sharded and the distributed coordinator share. `warm` is
  /// assumed validated against the backend's user space. The default throws
  /// std::logic_error: the method has no fold loop.
  virtual Result run_folds(FoldBackend& backend, const WarmStart& warm) const;

  /// Stable identifier ("crh", "gtm", "catd", "mean", "median").
  virtual std::string name() const = 0;
};

/// A method whose loop is written once, as run_folds: run, run_warm and
/// run_sharded all execute it over a LocalBackend (truth/fold_backend.h)
/// with a pool of `num_threads` (1 = serial, 0 = hardware concurrency).
/// Seeds are validated, and passed on, only when supports_warm_start().
class FoldMethod : public TruthDiscovery {
 public:
  Result run(const data::ObservationMatrix& observations) const override;
  Result run_warm(const data::ObservationMatrix& observations,
                  const WarmStart& warm) const override;
  Result run_sharded(const data::ShardedMatrix& shards,
                     const WarmStart& warm = {}) const override;

 protected:
  explicit FoldMethod(std::size_t num_threads) : num_threads_(num_threads) {}

 private:
  std::size_t num_threads_;
};

/// Weighted aggregation step shared by all methods (paper Eq. 1):
/// truths[n] = sum_s w_s x_s_n / sum_s w_s over present cells.
/// Users with zero weight are kept (contribute nothing unless every weight on
/// an object is zero, in which case the unweighted mean is used).
///
/// Accumulated as a canonical block-chained fold that walks the user-major
/// rows one block at a time (see truth/sharded_stats.h), so results are
/// bit-identical for any pool size (including serial) and any shard count.
std::vector<double> weighted_aggregate(const data::ObservationMatrix& obs,
                                       const std::vector<double>& weights,
                                       ThreadPool* pool = nullptr);
std::vector<double> weighted_aggregate(const data::ShardedMatrix& shards,
                                       const std::vector<double>& weights,
                                       ThreadPool* pool = nullptr);

/// Sufficient statistics of one weighted-aggregation pass. The fold is
/// resumable: weighted_aggregate_fold ADDS into an existing accumulator in
/// canonical block order, so a distributed deployment can thread the same
/// accumulator through block-aligned shards (each continuing where the
/// previous one stopped) and land on the exact bits of the in-process pass.
struct AggregateStats {
  std::vector<double> weighted_sum;  ///< sum_s w_s x_s_n per object
  std::vector<double> weight_sum;    ///< sum_s w_s per object
  std::vector<double> plain_sum;     ///< sum_s x_s_n per object
  std::vector<std::size_t> counts;   ///< claims per object

  void reset(std::size_t num_objects) {
    weighted_sum.assign(num_objects, 0.0);
    weight_sum.assign(num_objects, 0.0);
    plain_sum.assign(num_objects, 0.0);
    counts.assign(num_objects, 0);
  }
};

/// Folds `shards`' claims into `acc` (which the caller resets or pre-loads
/// with the chain state of preceding shards). `weights` is indexed by the
/// matrix's own user ids — global for a partitioned matrix, local for a
/// shard's borrowed single() view.
void weighted_aggregate_fold(const data::ShardedMatrix& shards,
                             std::span<const double> weights,
                             AggregateStats& acc, ThreadPool* pool = nullptr);

/// Finalizes a fully folded accumulator into truths: weighted mean per
/// object, falling back to the plain mean when every claimant has zero
/// weight. Throws on an object with no claims.
std::vector<double> truths_from_aggregate(const AggregateStats& acc,
                                          ThreadPool* pool = nullptr);

/// Pool shared by one truth-discovery run. Owns nothing when the configured
/// thread count is 1 (serial); otherwise owns a ThreadPool for the run's
/// lifetime (0 = hardware concurrency).
class RunPool {
 public:
  explicit RunPool(std::size_t num_threads) {
    if (num_threads != 1) pool_.emplace(num_threads);
  }
  ThreadPool* get() { return pool_ ? &*pool_ : nullptr; }

 private:
  std::optional<ThreadPool> pool_;
};

/// Mean absolute change between two truth vectors (convergence metric).
double truth_change(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace dptd::truth
