// Naive aggregation baselines the paper compares against (mean, median):
// quality-blind, single-pass, uniform weights.
#pragma once

#include "truth/interface.h"

namespace dptd::truth {

class MeanAggregator final : public FoldMethod {
 public:
  /// 1 = serial (default), 0 = hardware concurrency. Bit-identical for
  /// every value (per-object accumulation order is fixed).
  explicit MeanAggregator(std::size_t num_threads = 1)
      : FoldMethod(num_threads) {}

  Result run_folds(FoldBackend& backend, const WarmStart& warm) const override;
  std::string name() const override { return "mean"; }
};

class MedianAggregator final : public FoldMethod {
 public:
  /// 1 = serial (default), 0 = hardware concurrency. Bit-identical for
  /// every value (each object's median is computed independently).
  explicit MedianAggregator(std::size_t num_threads = 1)
      : FoldMethod(num_threads) {}

  Result run_folds(FoldBackend& backend, const WarmStart& warm) const override;
  std::string name() const override { return "median"; }
};

}  // namespace dptd::truth
