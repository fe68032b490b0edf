#include "bool/support.hpp"

#include <algorithm>
#include <bit>

namespace plee::bf {

std::vector<std::uint32_t> enumerate_support_subsets(std::uint32_t full_support,
                                                     int max_size) {
    std::vector<std::uint32_t> subsets;
    // Enumerate submasks of full_support via the standard decrement-and-mask
    // walk, then order deterministically.
    for (std::uint32_t sub = full_support; sub != 0; sub = (sub - 1) & full_support) {
        if (sub == full_support) continue;  // proper subsets only
        if (std::popcount(sub) > max_size) continue;
        subsets.push_back(sub);
    }
    std::sort(subsets.begin(), subsets.end(), [](std::uint32_t a, std::uint32_t b) {
        const int ca = std::popcount(a);
        const int cb = std::popcount(b);
        return ca != cb ? ca < cb : a < b;
    });
    return subsets;
}

std::vector<int> support_members(std::uint32_t support) {
    std::vector<int> members;
    for (int v = 0; v < 32; ++v) {
        if (support & (1u << v)) members.push_back(v);
    }
    return members;
}

}  // namespace plee::bf
