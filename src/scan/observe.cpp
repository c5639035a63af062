#include "vcomp/scan/observe.hpp"

#include <algorithm>
#include <cmath>

#include "vcomp/util/assert.hpp"

namespace vcomp::scan {

std::size_t shift_for_info_ratio(std::size_t num_pi, std::size_t num_po,
                                 std::size_t chain_len, double ratio) {
  VCOMP_REQUIRE(ratio > 0.0 && ratio <= 1.0, "info ratio must be in (0, 1]");
  const double io = static_cast<double>(num_pi + num_po);
  const double total = io + 2.0 * static_cast<double>(chain_len);
  const double s = (ratio * total - io) / 2.0;
  if (s < 0.5) return 0;  // unattainable — '/' in the paper's Table 2
  const auto rounded = static_cast<std::size_t>(std::llround(s));
  return std::min(rounded, chain_len);
}

}  // namespace vcomp::scan
