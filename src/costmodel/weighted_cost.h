#pragma once

#include <cstddef>
#include <vector>

namespace lpa::costmodel {

/// \brief Weight of query `j` in `frequencies`; queries past the end of the
/// vector weigh 0.
inline double FrequencyAt(const std::vector<double>& frequencies, int j) {
  return static_cast<size_t>(j) < frequencies.size()
             ? frequencies[static_cast<size_t>(j)]
             : 0.0;
}

/// \brief The one reduction rule of a frequency-weighted workload cost:
/// `sum_j f_j * cost(j, f_j)` over `j < num_queries`, summed in query order
/// and skipping every query with `f_j <= 0` (`cost` is never called for it).
///
/// The environments, the action pruner's bounds, the optimizer baseline and
/// the autopilot all reduce through this function, so a total priced by any
/// of them — from a cache, a per-query cost vector or the planner — is
/// bit-identical to the plain serial loop.
template <typename CostFn>
double WeightedCost(int num_queries, const std::vector<double>& frequencies,
                    CostFn&& cost) {
  double total = 0.0;
  for (int j = 0; j < num_queries; ++j) {
    const double f = FrequencyAt(frequencies, j);
    if (f <= 0.0) continue;
    total += f * cost(j, f);
  }
  return total;
}

/// \brief WeightedCost over a per-query cost vector (`costs[j]` is query j's
/// cost; the vector's size is the number of queries).
inline double WeightedCost(const std::vector<double>& costs,
                           const std::vector<double>& frequencies) {
  return WeightedCost(static_cast<int>(costs.size()), frequencies,
                      [&costs](int j, double) {
                        return costs[static_cast<size_t>(j)];
                      });
}

}  // namespace lpa::costmodel
