// Small statistics helpers shared by model code, tests, and benches.
#pragma once

#include <vector>

namespace pmemolap {

/// Geometric mean; values must be positive. Returns 0 for an empty vector.
double GeoMean(const std::vector<double>& values);

/// Linear-interpolated percentile, p in [0, 100]. Returns 0 for an empty
/// vector. The input does not need to be sorted.
double Percentile(std::vector<double> values, double p);

}  // namespace pmemolap
