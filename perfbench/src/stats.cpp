#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::int64_t
nearestRank(std::int64_t n, double p)
{
    // The epsilon keeps p*n that lands on an integer (0.9 * 100) from
    // rounding up a rank through binary floating-point error.
    const auto r = static_cast<std::int64_t>(
        std::ceil(p * static_cast<double>(n) - 1e-9));
    return std::clamp<std::int64_t>(r, 1, std::max<std::int64_t>(n, 1));
}

std::int64_t
samplesBeyond(std::int64_t n, double p)
{
    return n <= 0 ? 0 : n - nearestRank(n, p);
}

std::int64_t
minSamplesFor(double p, std::int64_t beyond)
{
    std::int64_t n = beyond + 1;
    while (samplesBeyond(n, p) < beyond)
        ++n;
    return n;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    const auto n = static_cast<std::int64_t>(v.size());
    const auto k = static_cast<std::size_t>(nearestRank(n, p) - 1);
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                     v.end());
    return v[k];
}

} // namespace perfbench
