#include "sim/measure.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "netlist/sync_sim.hpp"
#include "obs/registry.hpp"
#include "rt/errors.hpp"
#include "rt/wall_timer.hpp"

namespace plee::sim {

std::vector<std::vector<bool>> random_vectors(std::size_t count, std::size_t width,
                                              std::uint64_t seed) {
    const std::vector<stimulus_block> blocks = make_stimulus(count, width, seed);
    std::vector<std::vector<bool>> vectors(count);
    for (std::size_t v = 0; v < count; ++v) {
        blocks[v / k_lanes].extract(v % k_lanes, vectors[v]);
    }
    return vectors;
}

reference make_reference(const nl::netlist* golden, std::size_t width,
                         const measure_options& options) {
    if (options.lanes != 1 && options.lanes != k_lanes) {
        throw std::invalid_argument(
            "measure_average_delay: lanes must be 1 or 64");
    }
    reference ref;
    ref.width = width;
    ref.lanes = options.lanes;
    ref.blocks = make_stimulus(options.num_vectors, width, options.seed);
    if (golden == nullptr) return ref;

    const obs::scoped_span span(options.trace, "sim.golden");
    const std::vector<nl::cell_id>& outs = golden->outputs();
    ref.expected.assign(ref.blocks.size() * outs.size(), 0);
    if (options.lanes == 1) {
        // One sequential run: the register state carries across vectors.
        nl::sync_simulator gold(*golden);
        std::vector<bool> inputs;
        for (std::size_t v = 0; v < options.num_vectors; ++v) {
            ref.blocks[v / k_lanes].extract(v % k_lanes, inputs);
            gold.set_inputs(inputs);
            gold.eval();
            std::uint64_t* words = &ref.expected[v / k_lanes * outs.size()];
            for (std::size_t j = 0; j < outs.size(); ++j) {
                words[j] |= std::uint64_t{gold.value_of(outs[j])} << (v % k_lanes);
            }
            gold.latch();
        }
    } else {
        // Independent vectors: every lane starts from reset.
        nl::sync_lane_simulator gold(*golden);
        for (std::size_t b = 0; b < ref.blocks.size(); ++b) {
            gold.reset();
            gold.set_inputs(ref.blocks[b].words.data(), width);
            gold.eval();
            gold.output_values(&ref.expected[b * outs.size()]);
        }
    }
    return ref;
}

measure_result measure_average_delay(const pl::pl_netlist& pl,
                                     const nl::netlist* golden,
                                     const measure_options& options) {
    return measure_average_delay(
        pl, make_reference(golden, pl.sources().size(), options), options);
}

measure_result measure_average_delay(const pl::pl_netlist& pl,
                                     const reference& ref,
                                     const measure_options& options) {
    const std::size_t outputs = pl.sinks().size();
    if (ref.width != pl.sources().size() || ref.lanes != options.lanes ||
        (!ref.expected.empty() &&
         ref.expected.size() != ref.blocks.size() * outputs)) {
        throw std::invalid_argument(
            "measure_average_delay: the reference does not fit the PL netlist "
            "or the lane count");
    }
    measure_result result;
    result.lanes = ref.lanes;
    pl_simulator simulator(pl, options.sim);
    std::vector<wave_record> waves;             // lanes == 1
    std::vector<lane_block_result> lane_results;  // lanes == 64
    {
        const obs::scoped_span span(options.trace, "sim.run");
        const wall_timer timer;
        if (ref.lanes == 1) {
            // Sequential-wave protocol: one run over all vectors.
            waves = simulator.run_packed(ref.blocks);
            result.stats = simulator.stats();
        } else {
            // Lane-parallel protocol: 64 independent single-vector runs per
            // block.
            for (const stimulus_block& block : ref.blocks) {
                lane_results.push_back(simulator.run_lanes(block));
                result.stats += simulator.stats();
            }
        }
        result.sim_wall_ms = timer.elapsed_ms();
    }

    // The PL outputs, packed like reference::expected.
    std::vector<std::uint64_t> actual(ref.blocks.size() * outputs, 0);
    for (std::size_t w = 0; w < waves.size(); ++w) {
        for (std::size_t j = 0; j < outputs; ++j) {
            actual[w / k_lanes * outputs + j] |= std::uint64_t{waves[w].outputs[j]}
                                                 << (w % k_lanes);
        }
        result.delays.push_back(waves[w].delay());
    }
    for (std::size_t b = 0; b < lane_results.size(); ++b) {
        std::copy(lane_results[b].outputs.begin(), lane_results[b].outputs.end(),
                  actual.begin() + static_cast<std::ptrdiff_t>(b * outputs));
        for (std::size_t lane = 0; lane < lane_results[b].num_vectors; ++lane) {
            result.delays.push_back(lane_results[b].delay(lane));
        }
    }

    // The golden check, one word XOR per output and block for both protocols.
    if (!ref.expected.empty()) {
        std::size_t mismatched = 0;
        for (std::size_t b = 0; b < ref.blocks.size(); ++b) {
            std::uint64_t diff = 0;
            for (std::size_t k = b * outputs; k < (b + 1) * outputs; ++k) {
                diff |= actual[k] ^ ref.expected[k];
            }
            mismatched += static_cast<std::size_t>(
                std::popcount(diff & ref.blocks[b].lane_mask()));
        }
        if (mismatched > 0) {
            throw plee_error(
                "measure_average_delay[" +
                    (options.sim.label.empty() ? "?" : options.sim.label) +
                    "]: PL outputs diverge from the synchronous golden model on " +
                    std::to_string(mismatched) + " of " +
                    std::to_string(result.delays.size()) + " waves");
        }
    }

    double sum = 0.0;
    double sum_sq = 0.0;
    result.min_delay = result.delays.empty() ? 0.0 : result.delays.front();
    result.max_delay = result.min_delay;
    for (const double d : result.delays) {
        sum += d;
        sum_sq += d * d;
        result.min_delay = std::min(result.min_delay, d);
        result.max_delay = std::max(result.max_delay, d);
    }
    if (!result.delays.empty()) {
        const double n = static_cast<double>(result.delays.size());
        result.avg_delay = sum / n;
        const double variance =
            std::max(0.0, sum_sq / n - result.avg_delay * result.avg_delay);
        result.stddev = std::sqrt(variance);
    }

    if (options.telemetry) {
        // Distribution + registry flush happen once per measurement, off the
        // simulator's hot path: the per-event cost of telemetry is zero.
        for (const double d : result.delays) {
            result.delay_hist.record(
                d <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(d * 1e3)));
        }
        static obs::counter& events =
            obs::registry::global().get_counter("sim.events");
        static obs::counter& firings =
            obs::registry::global().get_counter("sim.firings");
        static obs::counter& vectors =
            obs::registry::global().get_counter("sim.vectors");
        static obs::counter& ee_hits =
            obs::registry::global().get_counter("sim.ee.hits");
        static obs::counter& ee_misses =
            obs::registry::global().get_counter("sim.ee.misses");
        static obs::counter& ee_wins =
            obs::registry::global().get_counter("sim.ee.wins");
        static obs::histogram& delay_hist =
            obs::registry::global().get_histogram("sim.vector_delay_ps");
        static obs::histogram& wall_hist =
            obs::registry::global().get_histogram("sim.measure_wall_us");
        events.add(result.stats.events);
        firings.add(result.stats.firings);
        vectors.add(result.delays.size());
        ee_hits.add(result.stats.ee_hits);
        ee_misses.add(result.stats.ee_misses);
        ee_wins.add(result.stats.ee_wins);
        delay_hist.merge(result.delay_hist);
        wall_hist.record(result.sim_wall_ms <= 0.0
                             ? 0
                             : static_cast<std::uint64_t>(
                                   std::llround(result.sim_wall_ms * 1e3)));
    }
    return result;
}

}  // namespace plee::sim
