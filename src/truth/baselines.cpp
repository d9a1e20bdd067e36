#include "truth/baselines.h"

#include "common/check.h"
#include "common/statistics.h"
#include "truth/fold_backend.h"

namespace dptd::truth {

Result MeanAggregator::run_folds(FoldBackend& backend,
                                 const WarmStart& warm) const {
  (void)warm;  // single-pass baseline: no state to seed
  Result result;
  backend.begin_iterations();
  backend.set_weights({});
  result.truths = aggregate_truths(backend);
  backend.end_iterations();
  result.weights.assign(backend.num_users(), 1.0);
  result.iterations = 1;
  result.converged = true;
  return result;
}

Result MedianAggregator::run_folds(FoldBackend& backend,
                                   const WarmStart& warm) const {
  (void)warm;  // single-pass baseline: no state to seed
  Result result;
  backend.begin_iterations();
  const GatheredColumns columns = backend.gather();
  backend.end_iterations();
  result.truths.resize(backend.num_objects());
  for_each_range(backend.pool(), result.truths.size(),
                 [&](std::size_t begin, std::size_t end) {
                   for (std::size_t n = begin; n < end; ++n) {
                     const auto col = columns.column(n);
                     DPTD_REQUIRE(!col.empty(),
                                  "MedianAggregator: object with no claims");
                     result.truths[n] = median(col);
                   }
                 });
  result.weights.assign(backend.num_users(), 1.0);
  result.iterations = 1;
  result.converged = true;
  return result;
}

}  // namespace dptd::truth
