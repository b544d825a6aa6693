#include "common/math_util.h"

#include <cmath>
#include <cstdio>
#include <limits>

namespace textjoin {

int64_t CeilPages(double frac) {
  TEXTJOIN_CHECK_GE(frac, 0.0);
  double c = std::ceil(frac);
  if (c >= static_cast<double>(std::numeric_limits<int64_t>::max())) {
    return std::numeric_limits<int64_t>::max();
  }
  return static_cast<int64_t>(c);
}

std::string Percentile(const std::vector<double>& sorted, double q) {
  const size_t idx =
      static_cast<size_t>(q * static_cast<double>(sorted.size()));
  if (idx + 10 >= sorted.size()) return "-";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", sorted[idx]);
  return buf;
}

}  // namespace textjoin
