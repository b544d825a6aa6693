#ifndef TEXTJOIN_COMMON_MATH_UTIL_H_
#define TEXTJOIN_COMMON_MATH_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.h"

namespace textjoin {

// Ceiling of a/b for nonnegative a and positive b.
constexpr int64_t CeilDiv(int64_t a, int64_t b) {
  return (a + b - 1) / b;
}

// Ceiling of a fractional page count, as used pervasively by the paper's
// cost formulas (reading an entity of size `frac` pages touches
// ceil(frac) whole pages). Requires frac >= 0.
int64_t CeilPages(double frac);

// The q-quantile of ascending `sorted`, formatted with two decimals, or "-"
// when fewer than ten samples lie beyond it: a p999 of a few hundred
// samples would be the maximum.
std::string Percentile(const std::vector<double>& sorted, double q);

}  // namespace textjoin

#endif  // TEXTJOIN_COMMON_MATH_UTIL_H_
