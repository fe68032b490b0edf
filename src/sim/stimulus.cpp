#include "sim/stimulus.hpp"

#include <random>

namespace plee::sim {

void stimulus_block::extract(std::size_t vec, std::vector<bool>& out) const {
    out.resize(width);
    for (std::size_t i = 0; i < width; ++i) out[i] = bit(vec, i);
}

std::vector<stimulus_block> make_stimulus(std::size_t count, std::size_t width,
                                          std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<stimulus_block> blocks((count + k_lanes - 1) / k_lanes);
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        blocks[b].width = width;
        blocks[b].num_vectors = std::min(k_lanes, count - b * k_lanes);
        blocks[b].words.assign(width, 0);
    }
    // Vector-major draw order — the exact stream random_vectors always used,
    // so per-seed lane contents stay byte-identical to the unpacked form.
    for (std::size_t v = 0; v < count; ++v) {
        stimulus_block& block = blocks[v / k_lanes];
        const std::uint64_t lane_bit = std::uint64_t{1} << (v % k_lanes);
        for (std::size_t i = 0; i < width; ++i) {
            if (rng() < k_stimulus_one_below) block.words[i] |= lane_bit;
        }
    }
    return blocks;
}

}  // namespace plee::sim
