// Tests for the 64-lane word-parallel simulation mode: the sync golden
// model's lane kernel, the PL lane sweep behind run_lanes (a differential
// matrix against serial run(), divergent lane times, the typed failures,
// stats accounting, the heap fallback), the lane-packed stimulus, and the
// lanes=64 measurement path.  The contract under test everywhere: lane L is
// bit-identical to a scalar/serial run of lane L's vector alone, and the
// output bits of unoccupied lanes are 0.

#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bench_circuits/itc99.hpp"
#include "ee/ee_transform.hpp"
#include "netlist/sync_sim.hpp"
#include "obs/flight_recorder.hpp"
#include "plogic/pl_mapper.hpp"
#include "rt/cancel.hpp"
#include "rt/errors.hpp"
#include "sim/errors.hpp"
#include "sim/measure.hpp"
#include "sim/pl_sim.hpp"
#include "sim/stimulus.hpp"
#include "workload/workload.hpp"

namespace plee::sim {
namespace {

struct built_circuit {
    nl::netlist sync;
    pl::pl_netlist pl;
};

built_circuit build_preset(wl::scenario kind, std::size_t gates,
                           std::uint64_t seed, bool with_ee) {
    built_circuit c;
    c.sync = wl::generate(wl::scenario_params(kind, gates, seed));
    pl::map_result mapped = pl::map_to_phased_logic(c.sync);
    if (with_ee) ee::apply_early_evaluation(mapped.pl);
    c.pl = std::move(mapped.pl);
    return c;
}

built_circuit build_bench(const std::string& id, bool with_ee) {
    built_circuit c;
    c.sync = bench::build_benchmark(id);
    pl::map_result mapped = pl::map_to_phased_logic(c.sync);
    if (with_ee) ee::apply_early_evaluation(mapped.pl);
    c.pl = std::move(mapped.pl);
    return c;
}

/// The shared oracle: run_lanes over every block must reproduce, lane for
/// lane, a serial single-vector run — sink values, input/output stable
/// times — and the summed EE counters of the lane runs must equal the
/// summed counters of the serial runs.  One pass serves each block, its
/// word-events and firings equal any one serial run's (every gate fires
/// once per vector), and unoccupied lanes' output bits are 0.
void expect_lanes_match_serial(const pl::pl_netlist& plnl, std::uint64_t seed,
                               std::size_t count, sim_options opts = {},
                               std::uint64_t* splits_out = nullptr) {
    const std::vector<stimulus_block> blocks =
        make_stimulus(count, plnl.sources().size(), seed);
    pl_simulator lane_sim(plnl, opts);
    pl_simulator ref(plnl, opts);
    sim_run_stats lane_total{};
    sim_run_stats ref_total{};
    std::vector<std::vector<bool>> one(1);
    for (const stimulus_block& block : blocks) {
        const lane_block_result lr = lane_sim.run_lanes(block);
        ASSERT_EQ(lr.num_vectors, block.num_vectors);
        const sim_run_stats& ls = lane_sim.stats();
        EXPECT_EQ(ls.lane_blocks, 1u);
        EXPECT_EQ(ls.lane_vectors, block.num_vectors);
        EXPECT_EQ(ls.lane_runs, 1u);
        for (std::size_t j = 0; j < lr.outputs.size(); ++j) {
            EXPECT_EQ(lr.outputs[j] & ~block.lane_mask(), 0u) << "sink " << j;
        }
        lane_total.ee_hits += ls.ee_hits;
        lane_total.ee_misses += ls.ee_misses;
        lane_total.ee_wins += ls.ee_wins;
        lane_total.lane_splits += ls.lane_splits;
        for (std::size_t lane = 0; lane < block.num_vectors; ++lane) {
            block.extract(lane, one[0]);
            const std::vector<wave_record> waves = ref.run(one);
            ASSERT_EQ(waves.size(), 1u);
            const sim_run_stats& rs = ref.stats();
            EXPECT_EQ(ls.events, rs.events) << "lane " << lane;
            EXPECT_EQ(ls.firings, rs.firings) << "lane " << lane;
            ref_total.ee_hits += rs.ee_hits;
            ref_total.ee_misses += rs.ee_misses;
            ref_total.ee_wins += rs.ee_wins;
            const wave_record& w = waves.front();
            // Exact, not within ULPs: the lane sweep does the serial
            // run's arithmetic lane by lane.
            EXPECT_EQ(lr.input_stable[lane], w.input_stable) << "lane " << lane;
            EXPECT_EQ(lr.output_stable[lane], w.output_stable) << "lane " << lane;
            EXPECT_EQ(lr.delay(lane), w.delay()) << "lane " << lane;
            ASSERT_EQ(lr.outputs.size(), w.outputs.size());
            for (std::size_t j = 0; j < w.outputs.size(); ++j) {
                EXPECT_EQ(((lr.outputs[j] >> lane) & 1u) != 0, w.outputs[j])
                    << "lane " << lane << " sink " << j;
            }
        }
    }
    EXPECT_EQ(lane_total.ee_hits, ref_total.ee_hits);
    EXPECT_EQ(lane_total.ee_misses, ref_total.ee_misses);
    EXPECT_EQ(lane_total.ee_wins, ref_total.ee_wins);
    if (splits_out != nullptr) *splits_out = lane_total.lane_splits;
}

// --- Stimulus ------------------------------------------------------------

TEST(LaneStimulus, PackedBlocksMatchRandomVectors) {
    const std::size_t count = 150;  // 2 full blocks + a partial one
    const std::size_t width = 11;
    const std::uint64_t seed = 42;
    const std::vector<stimulus_block> blocks = make_stimulus(count, width, seed);
    const std::vector<std::vector<bool>> vectors =
        random_vectors(count, width, seed);
    ASSERT_EQ(blocks.size(), 3u);
    EXPECT_EQ(blocks[0].num_vectors, 64u);
    EXPECT_EQ(blocks[1].num_vectors, 64u);
    EXPECT_EQ(blocks[2].num_vectors, 22u);
    EXPECT_EQ(blocks[2].lane_mask(), (std::uint64_t{1} << 22) - 1);
    std::vector<bool> out;
    for (std::size_t v = 0; v < count; ++v) {
        const stimulus_block& b = blocks[v / k_lanes];
        for (std::size_t i = 0; i < width; ++i) {
            EXPECT_EQ(b.bit(v % k_lanes, i), vectors[v][i]);
        }
        b.extract(v % k_lanes, out);
        EXPECT_EQ(out, vectors[v]);
    }
}

/// A URBG that returns one fixed value: pins a draw to the rounding edge.
struct fixed_urbg {
    using result_type = std::uint64_t;
    std::uint64_t value = 0;
    static constexpr std::uint64_t min() { return 0; }
    static constexpr std::uint64_t max() { return ~std::uint64_t{0}; }
    std::uint64_t operator()() { return value; }
};

TEST(LaneStimulus, ThresholdDrawReproducesBernoulliHalf) {
    // The threshold's own edge: 2^63 - 513 is a 1, 2^63 - 512 a 0.
    EXPECT_EQ(k_stimulus_one_below, (std::uint64_t{1} << 63) - 512);
#if defined(__GLIBCXX__)
    // libstdc++'s bernoulli_distribution(0.5) rounds the draw to double;
    // around 2^63 the spacing is 1024, and the tie at 2^63 - 512 rounds to
    // the even 2^63, i.e. 0.5, which is not below 0.5.
    const std::uint64_t edge = std::uint64_t{1} << 63;
    for (const std::uint64_t draw :
         {std::uint64_t{0}, edge - 1024, edge - 513, edge - 512, edge - 511,
          edge - 1, edge, ~std::uint64_t{0}}) {
        fixed_urbg g{draw};
        std::bernoulli_distribution half(0.5);
        EXPECT_EQ(half(g), draw < k_stimulus_one_below) << draw;
    }
    // Seeded: the raw streams, and make_stimulus against blocks built from
    // the distribution in the same vector-major order.
    for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{42},
                                     std::uint64_t{0x9e3779b97f4a7c15}}) {
        std::mt19937_64 a(seed), b(seed);
        std::bernoulli_distribution half(0.5);
        for (int i = 0; i < 200000; ++i) {
            ASSERT_EQ(half(a), b() < k_stimulus_one_below) << seed << " #" << i;
        }
        const std::size_t count = 150, width = 13;
        const std::vector<stimulus_block> blocks = make_stimulus(count, width, seed);
        std::mt19937_64 rng(seed);
        for (std::size_t v = 0; v < count; ++v) {
            for (std::size_t i = 0; i < width; ++i) {
                ASSERT_EQ(blocks[v / k_lanes].bit(v % k_lanes, i), half(rng))
                    << seed << " vector " << v << " input " << i;
            }
        }
    }
#else
    GTEST_SKIP() << "bernoulli_distribution's algorithm is library-specific";
#endif
}

// --- Synchronous golden model -------------------------------------------

TEST(SyncLanes, MatchesScalarOverMultiCycleTrajectories) {
    // Latch-heavy preset: the DFF state words must track 64 independent
    // per-lane trajectories across clock edges, not just one eval.
    const built_circuit c =
        build_preset(wl::scenario::control_fsm, 80, 7, false);
    const std::size_t num_inputs = c.sync.inputs().size();
    const std::size_t num_outputs = c.sync.outputs().size();
    const std::size_t cycles = 8;

    std::mt19937_64 rng(99);
    std::vector<std::vector<std::uint64_t>> stimulus(cycles);
    for (auto& words : stimulus) {
        words.resize(num_inputs);
        for (std::uint64_t& w : words) w = rng();
    }

    nl::sync_lane_simulator lanes(c.sync);
    lanes.reset();
    std::vector<std::vector<std::uint64_t>> lane_outputs(cycles);
    for (std::size_t k = 0; k < cycles; ++k) {
        lanes.set_inputs(stimulus[k].data(), num_inputs);
        lanes.eval();
        lane_outputs[k].resize(num_outputs);
        lanes.output_values(lane_outputs[k].data());
        lanes.latch();
    }

    for (std::size_t lane = 0; lane < k_lanes; ++lane) {
        nl::sync_simulator scalar(c.sync);
        scalar.reset();
        std::vector<bool> inputs(num_inputs);
        for (std::size_t k = 0; k < cycles; ++k) {
            for (std::size_t i = 0; i < num_inputs; ++i) {
                inputs[i] = (stimulus[k][i] >> lane) & 1u;
            }
            scalar.set_inputs(inputs);
            scalar.eval();
            const std::vector<bool> outs = scalar.output_values();
            for (std::size_t j = 0; j < num_outputs; ++j) {
                ASSERT_EQ(((lane_outputs[k][j] >> lane) & 1u) != 0, outs[j])
                    << "cycle " << k << " lane " << lane << " output " << j;
            }
            scalar.latch();
        }
    }
}

// --- PL lane sweep: run_lanes vs serial run() ----------------------------

/// The differential matrix's delay models (as in test_sim_queue): the
/// default, all-zero (every token at t = 0), all-equal ties, and an
/// irregular one where no two components are equal.
std::vector<std::pair<std::string, delay_model>> delay_models() {
    delay_model zero;
    zero.d_celem = zero.d_lut = zero.d_latch = zero.d_ee_penalty =
        zero.d_source = 0.0;
    delay_model ties;
    ties.d_celem = ties.d_lut = ties.d_latch = ties.d_ee_penalty =
        ties.d_source = 1.0;
    delay_model irregular;
    irregular.d_celem = 0.3;
    irregular.d_lut = 0.7;
    irregular.d_latch = 0.2;
    irregular.d_ee_penalty = 0.9;
    irregular.d_source = 0.05;
    return {{"default", delay_model{}},
            {"zero", zero},
            {"ties", ties},
            {"irregular", irregular}};
}

/// One netlist through every delay model, with a full block and partial
/// blocks of 1, 37 and 63 vectors.
void expect_matrix_matches_serial(const pl::pl_netlist& plnl,
                                  std::uint64_t seed) {
    for (const auto& [name, delays] : delay_models()) {
        SCOPED_TRACE(name);
        sim_options opts;
        opts.delays = delays;
        for (const std::size_t count : {1u, 37u, 63u, 64u}) {
            SCOPED_TRACE(count);
            expect_lanes_match_serial(plnl, seed + count, count, opts);
        }
    }
}

TEST(LaneSweep, DifferentialAgainstSerialOnWorkloadPresets) {
    for (const wl::scenario kind : wl::all_scenarios()) {
        SCOPED_TRACE(wl::to_string(kind));
        for (const bool with_ee : {false, true}) {
            SCOPED_TRACE(with_ee ? "ee" : "plain");
            const built_circuit c = build_preset(kind, 80, 5, with_ee);
            expect_matrix_matches_serial(c.pl, /*seed=*/0xfeedu + with_ee);
        }
    }
}

TEST(LaneSweep, DifferentialAgainstSerialOnItc99) {
    for (const char* id : {"b01", "b02", "b03", "b04", "b05", "b06", "b07",
                           "b08", "b09", "b10"}) {
        SCOPED_TRACE(id);
        for (const bool with_ee : {false, true}) {
            SCOPED_TRACE(with_ee ? "ee" : "plain");
            const built_circuit c = build_bench(id, with_ee);
            expect_matrix_matches_serial(c.pl, /*seed=*/0xb10cu);
        }
    }
}

TEST(LaneSim, PartialBlockAndMultiBlockCounts) {
    const built_circuit c =
        build_preset(wl::scenario::datapath_like, 60, 3, true);
    // 100 vectors = one full block + a 36-lane partial block.
    expect_lanes_match_serial(c.pl, /*seed=*/17, /*count=*/100);
}

/// Every component delay equal: maximizes simultaneous efire/normal
/// arrivals, the adversarial tie case for divergence handling.
sim_options tie_delay_options() {
    sim_options opts;
    opts.delays.d_celem = 1.0;
    opts.delays.d_lut = 1.0;
    opts.delays.d_latch = 1.0;
    opts.delays.d_ee_penalty = 1.0;
    opts.delays.d_source = 1.0;
    return opts;
}

TEST(LaneSim, DivergenceSplitsStayBitIdentical) {
    // A divergent efire word gives the master's outputs per-lane times (a
    // slab) instead of one shared time; with tie delays and EE applied the
    // 64 lanes must actually exercise that path.
    sim_options opts = tie_delay_options();
    std::uint64_t splits = 0;
    const built_circuit c =
        build_preset(wl::scenario::datapath_like, 120, 11, true);
    expect_lanes_match_serial(c.pl, /*seed=*/23, /*count=*/64, opts, &splits);
    EXPECT_GT(splits, 0u);
}

// --- Satellite regressions: lane accounting ------------------------------

TEST(LaneSim, DelaySubtractsRecordedReleaseTime) {
    // delay(lane) must mirror wave_record::delay() — stable output minus
    // the recorded release — not assume a zero release epoch.
    lane_block_result r;
    r.num_vectors = 2;
    r.output_stable[0] = 7.5;
    r.release[0] = 2.5;
    r.output_stable[1] = 4.0;
    r.release[1] = 0.0;
    EXPECT_DOUBLE_EQ(r.delay(0), 5.0);
    EXPECT_DOUBLE_EQ(r.delay(1), 4.0);
}

TEST(LaneSim, EeCountersAreOrderIndependentOnSequentialCircuits) {
    // Regression: EE hit/miss counters used to depend on how far the
    // post-completion drain raced ahead of the last sink record, so a lane
    // pass could not reproduce summed serial counters on feedback-heavy
    // circuits.  With firings capped at the wave horizon, every engine
    // counts each EE master exactly once per wave.
    const built_circuit c = build_bench("b04", true);
    std::size_t masters = 0;
    for (pl::gate_id g = 0; g < c.pl.num_gates(); ++g) {
        if (c.pl.gate(g).efire_in != pl::k_invalid_edge) ++masters;
    }
    ASSERT_GT(masters, 0u);
    const std::size_t n = 5;
    const std::vector<std::vector<bool>> vectors =
        random_vectors(n, c.pl.sources().size(), 7);
    pl_simulator cal(c.pl);
    cal.run(vectors);
    EXPECT_EQ(cal.stats().ee_hits + cal.stats().ee_misses, masters * n);
    sim_options heap_opts;
    heap_opts.queue = queue_kind::binary_heap;
    pl_simulator heap(c.pl, heap_opts);
    heap.run(vectors);
    EXPECT_EQ(heap.stats().ee_hits, cal.stats().ee_hits);
    EXPECT_EQ(heap.stats().ee_misses, cal.stats().ee_misses);
    EXPECT_EQ(heap.stats().ee_wins, cal.stats().ee_wins);
}

TEST(LaneSim, HeapFallbackCommitsStatsBeforeBudgetThrow) {
    // Regression: the scalar heap fallback used to lose the completed
    // per-vector runs' stats when a later vector blew the event budget —
    // the totals must be committed before the exception propagates.
    const built_circuit c =
        build_preset(wl::scenario::control_fsm, 60, 13, true);
    const std::vector<stimulus_block> blocks =
        make_stimulus(40, c.pl.sources().size(), 77);

    // Probe one lane's serial event count.  With firings capped at the wave
    // horizon every single-vector run of a circuit pops the same number of
    // events, so the per-run budget trips at a known point.
    sim_options probe_opts;
    probe_opts.queue = queue_kind::binary_heap;
    pl_simulator probe(c.pl, probe_opts);
    std::vector<std::vector<bool>> one(1);
    blocks.front().extract(0, one.front());
    probe.run(one);
    const std::uint64_t per_run = probe.stats().events;
    ASSERT_GT(per_run, 1u);

    sim_options tight = probe_opts;
    tight.max_events = per_run - 1;
    pl_simulator simulator(c.pl, tight);
    EXPECT_THROW(simulator.run_lanes(blocks.front()), budget_exhausted);
    // The block totals and the failing run's partial work must both be
    // visible after the throw — the old fallback lost them, leaving the
    // flight recorder's "events before death" column reading zero.
    const sim_run_stats& s = simulator.stats();
    EXPECT_EQ(s.lane_blocks, 1u);
    EXPECT_EQ(s.lane_vectors, blocks.front().num_vectors);
    EXPECT_EQ(s.lane_runs, 0u);  // the throwing run never completed
    EXPECT_EQ(s.events, per_run);  // budget + the offending increment
}

TEST(LaneSim, NoSplitsWithoutEarlyEvaluation) {
    // No EE masters -> no divergence source: one pass serves all 64 lanes.
    const built_circuit c =
        build_preset(wl::scenario::random_dag, 80, 9, false);
    const std::vector<stimulus_block> blocks =
        make_stimulus(64, c.pl.sources().size(), 31);
    pl_simulator simulator(c.pl);
    simulator.run_lanes(blocks.front());
    EXPECT_EQ(simulator.stats().lane_runs, 1u);
    EXPECT_EQ(simulator.stats().lane_splits, 0u);
}

/// Divergent times reaching a token-free acknowledge: master m = a & late
/// (early path when a = 0) feeds u, whose other input is the initial token
/// on a marked edge from source c.  So u's ack back to c is token-free and
/// carries m's per-lane times, c fires after u, and c's stable time and its
/// second sink's arrival differ per lane.
pl::pl_netlist divergent_ack_netlist() {
    pl::pl_netlist pl;
    const auto wire = [&](pl::gate_id from, pl::gate_id to, int pin,
                          bool marked) {
        pl.add_data_edge(from, to, pin, marked, false);
        pl.add_ack_edge(to, from, !marked);
    };
    const bf::truth_table id = bf::truth_table::variable(1, 0);
    const bf::truth_table and2 =
        bf::truth_table::variable(2, 0) & bf::truth_table::variable(2, 1);
    const pl::gate_id a = pl.add_gate(pl::gate_kind::source, "a");
    const pl::gate_id b = pl.add_gate(pl::gate_kind::source, "b");
    const pl::gate_id c = pl.add_gate(pl::gate_kind::source, "c");
    const pl::gate_id d1 = pl.add_gate(pl::gate_kind::compute, "d1");
    const pl::gate_id d2 = pl.add_gate(pl::gate_kind::compute, "d2");
    const pl::gate_id m = pl.add_gate(pl::gate_kind::compute, "m");
    const pl::gate_id u = pl.add_gate(pl::gate_kind::compute, "u");
    const pl::gate_id s1 = pl.add_gate(pl::gate_kind::sink, "s1");
    const pl::gate_id s2 = pl.add_gate(pl::gate_kind::sink, "s2");
    pl.set_function(d1, id);
    pl.set_function(d2, id);
    pl.set_function(m, and2);
    pl.set_function(u, and2);
    wire(b, d1, 0, false);
    wire(d1, d2, 0, false);
    wire(a, m, 0, false);
    wire(d2, m, 1, false);
    wire(c, u, 0, true);
    wire(m, u, 1, false);
    wire(u, s1, 0, false);
    wire(c, s2, 0, false);
    pl.attach_trigger(m, ~id, 1u);  // a = 0 decides m = 0
    return pl;
}

TEST(LaneSweep, DivergentTimesReachATokenFreeAck) {
    const pl::pl_netlist pl = divergent_ack_netlist();
    std::uint64_t splits = 0;
    expect_lanes_match_serial(pl, /*seed=*/9, /*count=*/64, {}, &splits);
    EXPECT_GT(splits, 0u);

    // The source behind the token-free ack really does settle per lane.
    const std::vector<stimulus_block> blocks =
        make_stimulus(64, pl.sources().size(), 9);
    pl_simulator simulator(pl);
    const lane_block_result r = simulator.run_lanes(blocks.front());
    const auto [lo, hi] = std::minmax_element(r.input_stable.begin(),
                                              r.input_stable.end());
    EXPECT_LT(*lo, *hi);

    // And the heap oracle agrees with the hand-built netlist's semantics.
    sim_options heap_opts;
    heap_opts.queue = queue_kind::binary_heap;
    pl_simulator heap(pl, heap_opts);
    const lane_block_result h = heap.run_lanes(blocks.front());
    EXPECT_EQ(h.outputs, r.outputs);
    EXPECT_EQ(h.input_stable, r.input_stable);
    EXPECT_EQ(h.output_stable, r.output_stable);
}

// --- Lane sweep: the typed failures and the polling cadence --------------

/// A gate that can never fire: `stuck` has no inputs, and its token-free
/// edge starves `g` and the sink behind it.  A healthy second path
/// (in2 -> h -> out2) still fires, so the sweep runs in checked mode and
/// stops part-way.
pl::pl_netlist starving_netlist() {
    pl::pl_netlist pl;
    const pl::gate_id src = pl.add_gate(pl::gate_kind::source, "in");
    const pl::gate_id stuck = pl.add_gate(pl::gate_kind::const_source, "stuck");
    const pl::gate_id g = pl.add_gate(pl::gate_kind::compute, "g");
    pl.set_function(g, bf::truth_table::variable(2, 0) &
                           bf::truth_table::variable(2, 1));
    const pl::gate_id snk = pl.add_gate(pl::gate_kind::sink, "out");
    pl.add_data_edge(src, g, 0, false, false);
    pl.add_data_edge(stuck, g, 1, false, false);
    pl.add_data_edge(g, snk, 0, false, false);
    pl.add_ack_edge(snk, g, true);
    pl.add_ack_edge(g, src, true);
    const pl::gate_id src2 = pl.add_gate(pl::gate_kind::source, "in2");
    const pl::gate_id h = pl.add_gate(pl::gate_kind::compute, "h");
    pl.set_function(h, bf::truth_table::variable(1, 0));
    const pl::gate_id snk2 = pl.add_gate(pl::gate_kind::sink, "out2");
    pl.add_data_edge(src2, h, 0, false, false);
    pl.add_data_edge(h, snk2, 0, false, false);
    pl.add_ack_edge(snk2, h, true);
    pl.add_ack_edge(h, src2, true);
    return pl;
}

TEST(LaneSweep, CheckedModeDeadlockMatchesHeapFallback) {
    const pl::pl_netlist pl = starving_netlist();
    const std::vector<stimulus_block> blocks =
        make_stimulus(5, pl.sources().size(), 3);
    std::string diagnostic[2];
    sim_run_stats stats[2];
    for (const queue_kind queue : {queue_kind::binary_heap, queue_kind::sweep}) {
        const int k = queue == queue_kind::binary_heap ? 0 : 1;
        sim_options opts;
        opts.queue = queue;
        pl_simulator simulator(pl, opts);
        try {
            simulator.run_lanes(blocks.front());
            ADD_FAILURE() << "expected deadlock_error on " << to_string(queue);
        } catch (const deadlock_error& e) {
            const std::string what = e.what();
            diagnostic[k] = what.substr(0, what.find(" (after"));
            EXPECT_NE(what.find(k == 0 ? "heap queue" : "lanes queue"),
                      std::string::npos)
                << what;
        }
        stats[k] = simulator.stats();
    }
    EXPECT_NE(diagnostic[1].find("0/1 waves stable"), std::string::npos)
        << diagnostic[1];
    EXPECT_EQ(diagnostic[0], diagnostic[1]);
    // The fallback stops at lane 0, whose run does the lane sweep's work.
    EXPECT_EQ(stats[0].events, stats[1].events);
    EXPECT_EQ(stats[0].firings, stats[1].firings);
    EXPECT_GT(stats[1].firings, 0u);
}

TEST(LaneSweep, UnsafeNetlistRaisesBeforeAnyFiring) {
    // No acknowledge from `slow` back to `src`: in pipelined mode src is on
    // no cycle at all, so the structural check rejects the netlist before
    // the sweep fires anything.
    pl::pl_netlist pl;
    const pl::gate_id src = pl.add_gate(pl::gate_kind::source, "in");
    const pl::gate_id slow = pl.add_gate(pl::gate_kind::compute, "slow");
    pl.set_function(slow, bf::truth_table::variable(2, 0) &
                              bf::truth_table::variable(2, 1));
    const pl::gate_id late = pl.add_gate(pl::gate_kind::source, "late");
    const pl::gate_id snk = pl.add_gate(pl::gate_kind::sink, "out");
    pl.add_data_edge(src, slow, 0, false, false);
    pl.add_data_edge(late, slow, 1, false, false);
    pl.add_data_edge(slow, snk, 0, false, false);
    pl.add_ack_edge(snk, slow, true);
    pl.add_ack_edge(slow, late, true);

    sim_options opts;
    opts.non_pipelined = false;
    pl_simulator simulator(pl, opts);
    const std::vector<stimulus_block> blocks =
        make_stimulus(8, pl.sources().size(), 1);
    EXPECT_THROW(simulator.run_lanes(blocks.front()), invariant_violation);
    EXPECT_EQ(simulator.stats().events, 0u);
    EXPECT_EQ(simulator.stats().firings, 0u);
}

/// A block big enough to cross several polling boundaries, and its
/// word-event count.
struct polled_block {
    built_circuit circuit;
    std::vector<stimulus_block> blocks;
    std::uint64_t events = 0;
};

polled_block make_polled_block() {
    polled_block p{build_preset(wl::scenario::datapath_like, 800, 31, true),
                   {}, 0};
    p.blocks = make_stimulus(64, p.circuit.pl.sources().size(), 5);
    pl_simulator probe(p.circuit.pl);
    probe.run_lanes(p.blocks.front());
    p.events = probe.stats().events;
    return p;
}

TEST(LaneSweep, BudgetExhaustedAtMaxEventsPlusOne) {
    const polled_block p = make_polled_block();
    ASSERT_GT(p.events, 2 * k_cancel_check_events);

    sim_options exact;
    exact.max_events = p.events;
    pl_simulator fits(p.circuit.pl, exact);
    EXPECT_NO_THROW(fits.run_lanes(p.blocks.front()));
    EXPECT_EQ(fits.stats().events, p.events);

    for (const std::uint64_t budget :
         {p.events - 1, std::uint64_t{k_cancel_check_events}, std::uint64_t{7}}) {
        SCOPED_TRACE(budget);
        sim_options tight;
        tight.max_events = budget;
        pl_simulator simulator(p.circuit.pl, tight);
        try {
            simulator.run_lanes(p.blocks.front());
            ADD_FAILURE() << "expected budget_exhausted";
        } catch (const budget_exhausted& e) {
            EXPECT_EQ(e.events(), budget + 1);
            EXPECT_NE(std::string(e.what()).find("lanes queue"),
                      std::string::npos);
        }
        EXPECT_EQ(simulator.stats().events, budget + 1);
    }
}

TEST(LaneSweep, CancelAndProgressRunAtTheEventCadence) {
    const polled_block p = make_polled_block();
    ASSERT_GT(p.events, 2 * k_cancel_check_events);

    // A progress beat at every multiple of the cadence, tagged with the
    // deposit count it was taken at.
    obs::flight_recorder recorder(256);
    sim_options beat;
    beat.recorder = &recorder;
    pl_simulator beating(p.circuit.pl, beat);
    beating.run_lanes(p.blocks.front());
    std::uint64_t beats = 0;
    for (const obs::fr_event& e : recorder.dump()) {
        if (std::string(e.tag) != "sim.progress") continue;
        ++beats;
        EXPECT_EQ(e.a, beats * k_cancel_check_events);
    }
    EXPECT_EQ(beats, p.events / k_cancel_check_events);

    // An expired token stops the pass at the first poll.
    cancel_token token;
    token.cancel();
    sim_options cancelled;
    cancelled.cancel = &token;
    pl_simulator stopped(p.circuit.pl, cancelled);
    try {
        stopped.run_lanes(p.blocks.front());
        ADD_FAILURE() << "expected job_timeout";
    } catch (const job_timeout& e) {
        EXPECT_EQ(e.progress(), k_cancel_check_events);
    }
    EXPECT_EQ(stopped.stats().events, k_cancel_check_events);
}

TEST(LaneSim, HeapEngineFallsBackToSerialAndMatchesSweep) {
    const built_circuit c =
        build_preset(wl::scenario::control_fsm, 60, 13, true);
    const std::vector<stimulus_block> blocks =
        make_stimulus(40, c.pl.sources().size(), 77);
    sim_options heap_opts;
    heap_opts.queue = queue_kind::binary_heap;
    pl_simulator heap_sim(c.pl, heap_opts);
    pl_simulator sweep_sim(c.pl);
    const lane_block_result h = heap_sim.run_lanes(blocks.front());
    const lane_block_result k = sweep_sim.run_lanes(blocks.front());
    ASSERT_EQ(h.num_vectors, k.num_vectors);
    EXPECT_EQ(h.outputs, k.outputs);
    for (std::size_t lane = 0; lane < h.num_vectors; ++lane) {
        EXPECT_DOUBLE_EQ(h.input_stable[lane], k.input_stable[lane]);
        EXPECT_DOUBLE_EQ(h.output_stable[lane], k.output_stable[lane]);
    }
    // The fallback is 40 scalar runs; the per-lane EE semantics still agree.
    EXPECT_EQ(heap_sim.stats().lane_runs, 40u);
    EXPECT_EQ(heap_sim.stats().lane_vectors, 40u);
    EXPECT_EQ(heap_sim.stats().ee_hits, sweep_sim.stats().ee_hits);
    EXPECT_EQ(heap_sim.stats().ee_misses, sweep_sim.stats().ee_misses);
    EXPECT_EQ(heap_sim.stats().ee_wins, sweep_sim.stats().ee_wins);
}

TEST(LaneSim, RejectsBadArguments) {
    const built_circuit c =
        build_preset(wl::scenario::random_dag, 40, 19, false);
    const std::size_t width = c.pl.sources().size();

    sim_options trace_opts;
    trace_opts.collect_trace = true;
    pl_simulator tracing(c.pl, trace_opts);
    const std::vector<stimulus_block> ok = make_stimulus(8, width, 1);
    EXPECT_THROW(tracing.run_lanes(ok.front()), std::invalid_argument);

    pl_simulator simulator(c.pl);
    const std::vector<stimulus_block> narrow = make_stimulus(8, width + 1, 1);
    EXPECT_THROW(simulator.run_lanes(narrow.front()), std::invalid_argument);

    stimulus_block empty;
    empty.width = width;
    empty.num_vectors = 0;
    empty.words.assign(width, 0);
    EXPECT_THROW(simulator.run_lanes(empty), std::invalid_argument);
}

// --- Measurement path ----------------------------------------------------

TEST(LaneMeasure, MatchesSerialPerVectorReference) {
    const built_circuit c =
        build_preset(wl::scenario::datapath_like, 80, 21, true);
    measure_options opts;
    opts.num_vectors = 100;
    opts.seed = 4242;
    opts.lanes = k_lanes;
    const measure_result r = measure_average_delay(c.pl, &c.sync, opts);
    EXPECT_EQ(r.lanes, k_lanes);
    ASSERT_EQ(r.delays.size(), 100u);
    EXPECT_EQ(r.stats.lane_blocks, 2u);
    EXPECT_EQ(r.stats.lane_runs, 2u);  // one pass per block

    // Every reported delay must equal a fresh serial single-vector run.
    const std::vector<std::vector<bool>> vectors =
        random_vectors(100, c.pl.sources().size(), opts.seed);
    pl_simulator ref(c.pl);
    for (std::size_t v = 0; v < vectors.size(); ++v) {
        const std::vector<wave_record> waves = ref.run({vectors[v]});
        EXPECT_DOUBLE_EQ(r.delays[v], waves.front().delay()) << "vector " << v;
    }
}

TEST(LaneMeasure, RejectsUnsupportedLaneCounts) {
    const built_circuit c =
        build_preset(wl::scenario::random_dag, 40, 25, false);
    measure_options opts;
    opts.lanes = 8;
    EXPECT_THROW(measure_average_delay(c.pl, &c.sync, opts),
                 std::invalid_argument);
}

}  // namespace
}  // namespace plee::sim
