// stimulus.hpp — bit-packed multi-vector stimulus.
//
// The measure phase drives every circuit with batches of random input
// vectors.  The lane-parallel simulators (sync_lane_simulator and
// pl_simulator::run_lanes) evaluate 64 vectors at once by packing one bit
// per vector into a 64-bit word per signal, so the stimulus is generated
// directly in that transposed layout: a stimulus_block holds up to 64
// vectors as `width` words, where bit L of word i is vector L's value of
// input i.
//
// Determinism contract: make_stimulus sets a bit when one mt19937_64 draw is
// below k_stimulus_one_below, in vector-major order, so the stream depends
// only on the standard-specified engine.  Under libstdc++ this is the
// stream std::bernoulli_distribution(0.5) drew from the same engine.
// random_vectors unpacks the blocks, so lane L of block B is byte-identical
// to vector 64*B + L of the unpacked representation for any seed.

#pragma once

#include <cstdint>
#include <vector>

namespace plee::sim {

/// Lanes per stimulus block: one bit per vector in a 64-bit word.
inline constexpr std::size_t k_lanes = 64;

/// A stimulus bit is 1 when its draw is below 2^63 - 512.  libstdc++'s
/// bernoulli_distribution(0.5) tests generate_canonical(draw) < 0.5, and
/// the draw's conversion to double rounds to nearest even: every draw from
/// 2^63 - 512 up rounds to 2^63, i.e. 0.5.  So the threshold reproduces the
/// distribution bit for bit without its floating-point step.
inline constexpr std::uint64_t k_stimulus_one_below =
    (std::uint64_t{1} << 63) - 512;

/// Up to 64 input vectors in transposed (lane-packed) layout.
struct stimulus_block {
    std::size_t width = 0;        ///< inputs per vector
    std::size_t num_vectors = 0;  ///< occupied lanes, 1..64
    /// One word per input; bit L holds vector L's value of that input.
    /// Bits at and above num_vectors are zero.
    std::vector<std::uint64_t> words;

    /// Mask with the low num_vectors bits set — the block's occupied lanes.
    std::uint64_t lane_mask() const {
        return num_vectors >= k_lanes ? ~std::uint64_t{0}
                                      : (std::uint64_t{1} << num_vectors) - 1;
    }

    /// Value of input `input` in vector (lane) `vec`.
    bool bit(std::size_t vec, std::size_t input) const {
        return (words[input] >> vec) & 1u;
    }

    /// Unpacks one lane into a caller-owned reusable buffer (resized to
    /// width) — the only place a per-vector bool vector is materialized.
    void extract(std::size_t vec, std::vector<bool>& out) const;
};

/// Deterministic pseudo-random stimulus, packed: ceil(count / 64) blocks,
/// the last one partially filled.  Same bit stream as random_vectors.
std::vector<stimulus_block> make_stimulus(std::size_t count, std::size_t width,
                                          std::uint64_t seed);

}  // namespace plee::sim
