#include "core/expert_max.h"

#include <cmath>
#include <utility>

namespace crowdmax {

Result<BudgetedMaxResult> BudgetedFindMaxWithExperts(
    const std::vector<ElementId>& items, Comparator* naive,
    Comparator* expert, const BudgetedMaxOptions& options) {
  if (!options.prices.Valid()) {
    return Status::InvalidArgument("invalid cost model");
  }
  if (items.empty()) {
    return Status::InvalidArgument("input set must be non-empty");
  }
  const int64_t u_n = options.base.filter.u_n;
  if (u_n < 1) return Status::InvalidArgument("u_n must be >= 1");

  // Reserve the worst-case expert phase, then cap naive work with the
  // remainder. The first filtering round needs about n*(g-1)/2
  // comparisons; demand at least that much naive headroom so the run can
  // make progress.
  const double expert_reserve =
      static_cast<double>(TwoMaxFindComparisonUpperBound(2 * u_n - 1)) *
      options.prices.expert_cost;
  const double naive_funds = options.budget - expert_reserve;
  const int64_t n = static_cast<int64_t>(items.size());
  const int64_t g = options.base.filter.group_size_multiplier * u_n;
  const int64_t first_round_cost =
      n >= 2 * u_n ? (n / g) * (g * (g - 1) / 2) +
                         ((n % g > u_n) ? (n % g) * (n % g - 1) / 2 : 0)
                   : 0;
  const int64_t naive_cap =
      options.prices.naive_cost > 0.0
          ? static_cast<int64_t>(std::floor(naive_funds /
                                            options.prices.naive_cost))
          : (naive_funds >= 0.0 ? FilterComparisonUpperBound(n, u_n)
                                : int64_t{-1});
  if (naive_cap < first_round_cost || naive_funds < 0.0) {
    return Status::InvalidArgument(
        "budget cannot cover the expert reserve plus the first filtering "
        "round");
  }

  ExpertMaxOptions run_options = options.base;
  run_options.filter.max_comparisons = naive_cap;
  Result<ExpertMaxResult> run =
      FindMaxWithExperts(items, naive, expert, run_options);
  if (!run.ok()) return run.status();

  BudgetedMaxResult out;
  out.result = std::move(run).value();
  out.naive_comparison_cap = naive_cap;
  out.filter_stopped_by_budget = out.result.filter_stopped_by_budget;
  out.actual_cost = out.result.CostUnder(options.prices);
  out.within_budget = out.actual_cost <= options.budget + 1e-9;
  return out;
}

}  // namespace crowdmax
