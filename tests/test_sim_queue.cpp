// Differential test of the two pl_simulator scalar engines: the binary-heap
// event loop (the oracle) and the static max-plus wave sweep (the default
// throughput engine) must produce exactly equal wave records and stats on
// every circuit family — ITC99 b01-b15 and every workload scenario preset,
// each plain and EE-transformed — under four delay models, in pipelined and
// non-pipelined mode — and on random marked graphs, live or stopping in
// checked mode, including the initial-value shapes those families lack.
// Traces must hold the same token arrivals; the sweep has no pop order, so
// both are compared in (time, edge) order.  The typed failures (budget,
// deadlock) and the fleet runner are checked across engines too.

#include <algorithm>
#include <bit>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bench_circuits/itc99.hpp"
#include "ee/ee_transform.hpp"
#include "plogic/pl_mapper.hpp"
#include "plogic/pl_netlist.hpp"
#include "plogic/pl_schedule.hpp"
#include "random_marked_graph.hpp"
#include "runner/runner.hpp"
#include "sim/errors.hpp"
#include "sim/measure.hpp"
#include "sim/pl_sim.hpp"
#include "workload/workload.hpp"

namespace plee::sim {
namespace {

struct engine_run {
    std::vector<wave_record> waves;
    sim_run_stats stats;
    std::vector<trace_event> trace;
};

engine_run simulate(const pl::pl_netlist& pl, queue_kind queue,
                    bool non_pipelined, bool collect_trace,
                    const std::vector<std::vector<bool>>& vectors,
                    const delay_model& delays = {}) {
    sim_options opts;
    opts.queue = queue;
    opts.non_pipelined = non_pipelined;
    opts.collect_trace = collect_trace;
    opts.delays = delays;
    pl_simulator simulator(pl, opts);
    engine_run run;
    run.waves = simulator.run(vectors);
    run.stats = simulator.stats();
    run.trace = simulator.trace();
    return run;
}

/// The heap engine records arrivals in pop order, the sweep in trace_order.
std::vector<trace_event> time_edge_order(std::vector<trace_event> trace) {
    std::stable_sort(trace.begin(), trace.end(), trace_order);
    return trace;
}

/// Bit-identical means exact: outputs, all three timestamps of every wave,
/// every stats counter, and the full trace in (time, edge) order.
void expect_identical(const engine_run& heap, const engine_run& sweep,
                      const std::string& label) {
    ASSERT_EQ(heap.waves.size(), sweep.waves.size()) << label;
    for (std::size_t w = 0; w < heap.waves.size(); ++w) {
        const wave_record& a = heap.waves[w];
        const wave_record& b = sweep.waves[w];
        EXPECT_EQ(a.outputs, b.outputs) << label << " wave " << w;
        EXPECT_EQ(a.release_time, b.release_time) << label << " wave " << w;
        EXPECT_EQ(a.input_stable, b.input_stable) << label << " wave " << w;
        EXPECT_EQ(a.output_stable, b.output_stable) << label << " wave " << w;
    }
    EXPECT_EQ(heap.stats.events, sweep.stats.events) << label;
    EXPECT_EQ(heap.stats.firings, sweep.stats.firings) << label;
    EXPECT_EQ(heap.stats.ee_hits, sweep.stats.ee_hits) << label;
    EXPECT_EQ(heap.stats.ee_misses, sweep.stats.ee_misses) << label;
    EXPECT_EQ(heap.stats.ee_wins, sweep.stats.ee_wins) << label;
    const std::vector<trace_event> ordered = time_edge_order(heap.trace);
    ASSERT_EQ(ordered.size(), sweep.trace.size()) << label;
    for (std::size_t i = 0; i < ordered.size(); ++i) {
        ASSERT_EQ(ordered[i].time, sweep.trace[i].time) << label << " #" << i;
        ASSERT_EQ(ordered[i].edge, sweep.trace[i].edge) << label << " #" << i;
        ASSERT_EQ(ordered[i].value, sweep.trace[i].value) << label << " #" << i;
    }
}

/// Both engines in both pipeline modes.  The heap oracle runs once with
/// trace collection; the sweep runs with and without it, and both sweep
/// runs must match the oracle.
void check_all_modes(const pl::pl_netlist& pl, const std::string& label,
                     std::size_t num_vectors, const delay_model& delays = {}) {
    const std::vector<std::vector<bool>> vectors =
        random_vectors(num_vectors, pl.sources().size(), 0x5eed);
    for (bool non_pipelined : {true, false}) {
        const std::string mode =
            label + (non_pipelined ? " non-pipelined" : " pipelined");
        const engine_run heap = simulate(pl, queue_kind::binary_heap,
                                         non_pipelined, true, vectors, delays);
        expect_identical(heap,
                         simulate(pl, queue_kind::sweep, non_pipelined, true,
                                  vectors, delays),
                         mode + " trace");
        // Untraced: waves and stats only (the oracle's trace stands in).
        engine_run untraced = simulate(pl, queue_kind::sweep, non_pipelined,
                                       false, vectors, delays);
        EXPECT_TRUE(untraced.trace.empty()) << mode;
        untraced.trace = time_edge_order(heap.trace);
        expect_identical(heap, untraced, mode);
    }
}

/// The differential matrix's delay models: the default, all-zero (every
/// deposit at t = 0, so the heap's order is pure seq), all-equal ties, and
/// an irregular one where no two components are equal.
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

/// One netlist through every delay model of the matrix.
void check_all_delay_models(const pl::pl_netlist& pl, const std::string& label,
                            std::size_t num_vectors) {
    for (const auto& [name, delays] : delay_models()) {
        check_all_modes(pl, label + " " + name, num_vectors, delays);
    }
}

pl::pl_netlist map_with_ee(const nl::netlist& netlist) {
    pl::map_result mapped = pl::map_to_phased_logic(netlist);
    ee::apply_early_evaluation(mapped.pl);
    return std::move(mapped.pl);
}

TEST(SimQueue, Itc99SuiteBitIdentical) {
    for (const bench::benchmark_info& info : bench::itc99_suite()) {
        const nl::netlist netlist = info.build();
        check_all_delay_models(pl::map_to_phased_logic(netlist).pl,
                               info.id + "/plain", 6);
        check_all_delay_models(map_with_ee(netlist), info.id + "/ee", 6);
    }
}

TEST(SimQueue, WorkloadPresetsBitIdentical) {
    for (wl::scenario kind : wl::all_scenarios()) {
        const nl::netlist netlist =
            wl::generate(wl::scenario_params(kind, 120, 99));
        // Plain PL mapping and the EE-transformed circuit both count: the
        // EE masters exercise the efire path and the invariant checker.
        check_all_delay_models(pl::map_to_phased_logic(netlist).pl,
                               std::string(wl::to_string(kind)) + "/plain", 8);
        check_all_delay_models(map_with_ee(netlist),
                               std::string(wl::to_string(kind)) + "/ee", 8);
    }
}

TEST(SimQueue, WideArityLut6PlusPipelineBitIdentical) {
    // The multiword end-to-end: a workload-generated wide-arity netlist
    // (LUT5-8 gates, multiword truth tables), EE-transformed, must simulate
    // bit-identically on both engines — and the run must actually exercise
    // the wide path: at least one attached trigger must belong to a master
    // with more than 6 data pins.
    for (wl::scenario kind : {wl::scenario::lut6_dag, wl::scenario::lut8_datapath}) {
        const nl::netlist netlist =
            wl::generate(wl::scenario_params(kind, 160, 2026));
        pl::map_result mapped = pl::map_to_phased_logic(netlist);
        const ee::ee_stats stats = ee::apply_early_evaluation(mapped.pl);
        ASSERT_GT(stats.triggers_added, 0u) << wl::to_string(kind);

        std::size_t wide_masters = 0;
        std::size_t widest_pins = 0;
        for (const ee::applied_trigger& at : stats.applied) {
            const std::size_t pins = mapped.pl.gate(at.master).data_in.size();
            widest_pins = std::max(widest_pins, pins);
            if (pins > 6) ++wide_masters;
            // Every attached trigger re-derives exactly from the master via
            // the scalar per-minterm oracle — the EE pass went through the
            // multiword kernels, the oracle does not.
            ASSERT_EQ(at.candidate.function,
                      ee::scalar::exact_trigger_function(
                          mapped.pl.gate(at.master).function,
                          at.candidate.support))
                << wl::to_string(kind) << " master " << at.master;
        }
        if (kind == wl::scenario::lut8_datapath) {
            EXPECT_GT(wide_masters, 0u)
                << "no >6-pin EE master generated; widest=" << widest_pins;
        }
        check_all_modes(mapped.pl, std::string(wl::to_string(kind)) + "/wide-ee", 6);
    }
}

TEST(SimQueue, StressDelayModelsBitIdentical) {
    // A 5e5x spread between the smallest and largest delay: a source's
    // deposits land long before any gate's, so the waves overlap deeply in
    // pipelined mode.
    const nl::netlist netlist =
        wl::generate(wl::scenario_params(wl::scenario::random_dag, 80, 7));
    delay_model spread;
    spread.d_source = 1e-4;
    spread.d_lut = 50.0;
    check_all_modes(map_with_ee(netlist), "spread", 4, spread);
}

TEST(SimQueue, EventBudgetExhaustsIdentically) {
    const pl::pl_netlist pl = map_with_ee(bench::make_b05());
    const std::vector<std::vector<bool>> vectors =
        random_vectors(50, pl.sources().size(), 1);
    for (queue_kind queue : {queue_kind::binary_heap, queue_kind::sweep}) {
        sim_options opts;
        opts.queue = queue;
        opts.max_events = 1000;
        pl_simulator simulator(pl, opts);
        EXPECT_THROW(simulator.run(vectors), std::runtime_error)
            << to_string(queue);
        // Both engines stop at exactly the budget boundary.
        EXPECT_EQ(simulator.stats().events, 1001u) << to_string(queue);
    }
}

TEST(SimQueue, OversizedEventBudgetFallsBackToHeapEngine) {
    // A budget far beyond any run: the sweep has no packed event key to
    // overflow and runs as usual, and must still equal the oracle.
    const pl::pl_netlist pl = map_with_ee(bench::make_b02());
    const std::vector<std::vector<bool>> vectors =
        random_vectors(10, pl.sources().size(), 3);
    sim_options huge;
    huge.queue = queue_kind::sweep;
    huge.max_events = std::uint64_t{1} << 60;
    pl_simulator fallback(pl, huge);
    sim_options heap_opts;
    heap_opts.queue = queue_kind::binary_heap;
    pl_simulator reference(pl, heap_opts);
    const std::vector<wave_record> a = fallback.run(vectors);
    const std::vector<wave_record> b = reference.run(vectors);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t w = 0; w < a.size(); ++w) {
        EXPECT_EQ(a[w].outputs, b[w].outputs);
        EXPECT_EQ(a[w].output_stable, b[w].output_stable);
    }
    EXPECT_EQ(fallback.stats().events, reference.stats().events);
}

TEST(SimQueue, PartialProgressDeadlockOnBothEngines) {
    // A constant gate with no inputs never fires, but its edge into `g`
    // starts marked: g fires wave 0 on the initial token and then starves,
    // so the run stops after one stable wave on either engine.  A healthy
    // second path (in2 -> h -> out2) keeps firing until the non-pipelined
    // environment stops releasing waves.
    pl::pl_netlist pl;
    const pl::gate_id src = pl.add_gate(pl::gate_kind::source, "in");
    const pl::gate_id stuck = pl.add_gate(pl::gate_kind::const_source, "stuck");
    const pl::gate_id g = pl.add_gate(pl::gate_kind::compute, "g");
    pl.set_function(g, bf::truth_table::variable(2, 0) &
                           bf::truth_table::variable(2, 1));
    const pl::gate_id snk = pl.add_gate(pl::gate_kind::sink, "out");
    pl.add_data_edge(src, g, 0, false, false);
    pl.add_data_edge(stuck, g, 1, true, true);
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

    for (bool non_pipelined : {true, false}) {
        std::string diagnostic[2];
        sim_run_stats stats[2];
        for (queue_kind queue : {queue_kind::binary_heap, queue_kind::sweep}) {
            const int k = queue == queue_kind::binary_heap ? 0 : 1;
            sim_options opts;
            opts.queue = queue;
            opts.non_pipelined = non_pipelined;
            pl_simulator simulator(pl, opts);
            try {
                simulator.run({{true, false}, {false, true}, {true, true}});
                ADD_FAILURE() << "expected deadlock_error on " << to_string(queue);
            } catch (const deadlock_error& e) {
                const std::string what = e.what();
                diagnostic[k] = what.substr(0, what.find(" (after"));
            }
            stats[k] = simulator.stats();
        }
        EXPECT_NE(diagnostic[0].find("1/3 waves stable"), std::string::npos)
            << diagnostic[0];
        EXPECT_EQ(diagnostic[0], diagnostic[1]);
        EXPECT_EQ(stats[0].events, stats[1].events);
        EXPECT_EQ(stats[0].firings, stats[1].firings);
    }
}

/// How one engine ended a run: its records, stats and trace, or the typed
/// failure it raised (its message up to the event count and engine name).
struct outcome {
    engine_run run;
    std::string error;
};

outcome try_simulate(const pl::pl_netlist& pl, queue_kind queue,
                     bool non_pipelined,
                     const std::vector<std::vector<bool>>& vectors,
                     const delay_model& delays = {}) {
    sim_options opts;
    opts.queue = queue;
    opts.non_pipelined = non_pipelined;
    opts.collect_trace = true;
    opts.delays = delays;
    pl_simulator simulator(pl, opts);
    outcome o;
    try {
        o.run.waves = simulator.run(vectors);
        o.run.trace = simulator.trace();
    } catch (const sim_error& e) {
        const std::string what = e.what();
        o.error = what.substr(0, what.find(" (after"));
    }
    o.run.stats = simulator.stats();
    return o;
}

/// run_lanes under the lane sweep against the lane oracle (one serial heap
/// run per lane): sink words, per-lane stable times and the per-lane EE
/// counters, or the same typed failure.
void expect_lanes_match_oracle(const pl::pl_netlist& pl, const std::string& label,
                               std::uint64_t seed) {
    const std::vector<stimulus_block> blocks =
        make_stimulus(40, pl.sources().size(), seed);
    lane_block_result result[2];
    std::string error[2];
    sim_run_stats stats[2];
    for (const queue_kind queue : {queue_kind::binary_heap, queue_kind::sweep}) {
        const int k = queue == queue_kind::sweep ? 1 : 0;
        sim_options opts;
        opts.queue = queue;
        pl_simulator simulator(pl, opts);
        try {
            result[k] = simulator.run_lanes(blocks.front());
        } catch (const sim_error& e) {
            const std::string what = e.what();
            error[k] = what.substr(0, what.find(" (after"));
        }
        stats[k] = simulator.stats();
    }
    EXPECT_EQ(error[0], error[1]) << label;
    if (!error[0].empty() || !error[1].empty()) return;
    EXPECT_EQ(result[0].outputs, result[1].outputs) << label;
    for (std::size_t lane = 0; lane < result[0].num_vectors; ++lane) {
        EXPECT_EQ(result[0].input_stable[lane], result[1].input_stable[lane])
            << label << " lane " << lane;
        EXPECT_EQ(result[0].output_stable[lane], result[1].output_stable[lane])
            << label << " lane " << lane;
    }
    EXPECT_EQ(stats[0].ee_hits, stats[1].ee_hits) << label;
    EXPECT_EQ(stats[0].ee_misses, stats[1].ee_misses) << label;
    EXPECT_EQ(stats[0].ee_wins, stats[1].ee_wins) << label;
}

/// A random function of `pins` <= 6 inputs.
bf::truth_table random_function(int pins, std::mt19937_64& rng) {
    const std::uint64_t rows = std::uint64_t{1} << pins;
    return bf::truth_table(pins, rows == 64 ? rng() : rng() & ((std::uint64_t{1} << rows) - 1));
}

/// A graph of testing::random_marked_graph made simulable.  Each edge
/// becomes, at random, a data edge on the consumer's next pin (a marked one
/// with a random initial value, and more often, so that producers drive
/// several) or an acknowledge; a source drives one gate
/// and a sink reads another, each on its own one-token cycle; every compute
/// gate gets a random function, and some gates with two or more pins a
/// trigger over a random subset of them.
pl::pl_netlist random_simulable_graph(std::mt19937_64& rng) {
    const auto add = [&rng](pl::pl_netlist& pl, pl::gate_id from, pl::gate_id to,
                            bool marked) {
        const std::size_t pins = pl.gate(to).data_in.size();
        const bool data = pins < 4 && rng() % 4 < (marked ? 3u : 2u);
        const bool init = rng() % 2 == 0;
        if (data) {
            pl.add_data_edge(from, to, static_cast<int>(pins), marked, marked && init);
        } else {
            pl.add_ack_edge(from, to, marked);
        }
    };
    pl::pl_netlist pl = pl::testing::random_marked_graph(rng, add);
    const pl::gate_id inner = static_cast<pl::gate_id>(pl.num_gates());
    const pl::gate_id driven = static_cast<pl::gate_id>(rng() % inner);
    const pl::gate_id read = static_cast<pl::gate_id>(rng() % inner);
    const pl::gate_id src = pl.add_gate(pl::gate_kind::source, "in");
    pl.add_data_edge(src, driven, static_cast<int>(pl.gate(driven).data_in.size()),
                     false, false);
    pl.add_ack_edge(driven, src, true);
    const pl::gate_id snk = pl.add_gate(pl::gate_kind::sink, "out");
    pl.add_data_edge(read, snk, 0, false, false);
    pl.add_ack_edge(snk, read, true);
    for (pl::gate_id g = 0; g < inner; ++g) {
        const int pins = static_cast<int>(pl.gate(g).data_in.size());
        pl.set_function(g, random_function(pins, rng));
    }
    for (pl::gate_id g = 0; g < inner; ++g) {
        const std::size_t pins = pl.gate(g).data_in.size();
        if (pins < 2 || rng() % 2 != 0) continue;
        const std::uint32_t all = (1u << pins) - 1;
        const std::uint32_t mask = 1 + static_cast<std::uint32_t>(rng() % (all - 1));
        pl.attach_trigger(g, random_function(std::popcount(mask), rng), mask);
    }
    return pl;
}

/// Producers that drive marked data edges with different initial values,
/// and marked edges whose producer comes before its consumer in the firing
/// order: the two cases a per-gate token store must get right.
struct marking_cases {
    std::size_t mixed_init_producers = 0;
    std::size_t marked_forward_edges = 0;
};

marking_cases count_marking_cases(const pl::pl_netlist& pl,
                                  const pl::firing_schedule& schedule) {
    marking_cases c;
    std::vector<std::size_t> pos(pl.num_gates(), pl.num_gates());
    for (std::size_t i = 0; i < schedule.order.size(); ++i) pos[schedule.order[i]] = i;
    for (pl::gate_id g = 0; g < pl.num_gates(); ++g) {
        bool init[2] = {false, false};
        for (const pl::edge_id e : pl.gate(g).out_edges) {
            const pl::pl_edge& edge = pl.edge(e);
            if (!edge.init_token) continue;
            if (edge.kind == pl::edge_kind::data) init[edge.init_value ? 1 : 0] = true;
            if (edge.to != g && pos[g] < pos[edge.to]) ++c.marked_forward_edges;
        }
        c.mixed_init_producers += init[0] && init[1] ? 1 : 0;
    }
    return c;
}

/// A live, safe graph with both register shapes: gate r feeds itself over a
/// marked data edge whose initial token is 1, and gate q over a marked data
/// edge from r whose initial token is 0.
pl::pl_netlist two_initial_values() {
    pl::pl_netlist pl;
    const pl::gate_id src = pl.add_gate(pl::gate_kind::source, "in");
    const pl::gate_id r = pl.add_gate(pl::gate_kind::compute, "r");
    const pl::gate_id q = pl.add_gate(pl::gate_kind::compute, "q");
    const pl::gate_id snk = pl.add_gate(pl::gate_kind::sink, "out");
    pl.set_function(r, bf::truth_table::variable(2, 0) ^ bf::truth_table::variable(2, 1));
    pl.set_function(q, bf::truth_table::variable(1, 0));
    pl.add_data_edge(src, r, 0, false, false);
    pl.add_ack_edge(r, src, true);
    pl.add_data_edge(r, r, 1, true, true);
    pl.add_data_edge(r, q, 0, true, false);
    pl.add_ack_edge(q, r, false);
    pl.add_data_edge(q, snk, 0, false, false);
    pl.add_ack_edge(snk, q, true);
    return pl;
}

TEST(SimQueue, HandBuiltInitialValuesBitIdentical) {
    const pl::pl_netlist pl = two_initial_values();
    ASSERT_TRUE(pl.verify().ok()) << pl.verify().violation;
    const pl::flat_topology topo(pl);
    EXPECT_EQ(count_marking_cases(pl, pl::make_firing_schedule(pl, topo))
                  .mixed_init_producers,
              1u);
    check_all_delay_models(pl, "two-initial-values", 9);
    expect_lanes_match_oracle(pl, "two-initial-values", 5);
    // Wave 0 reads both initial tokens: r = in ^ 1, q = 0; after that q
    // repeats r's previous output.
    const engine_run run =
        simulate(pl, queue_kind::sweep, true, false, {{false}, {true}, {true}});
    ASSERT_EQ(run.waves.size(), 3u);
    EXPECT_EQ(run.waves[0].outputs, std::vector<bool>{false});
    EXPECT_EQ(run.waves[1].outputs, std::vector<bool>{true});   // r0 = 0 ^ 1
    EXPECT_EQ(run.waves[2].outputs, std::vector<bool>{false});  // r1 = 1 ^ 1
}

TEST(SimQueue, RandomMarkedGraphsBitIdentical) {
    // The random graphs of the structural-check differential, with data
    // edges, an environment, functions and triggers.  Structurally unsafe
    // graphs are rejected before any firing (Measure mutants cover that);
    // every other graph runs on both engines in both pipeline modes, traced,
    // and on both lane engines.  Live ones must complete bit-identically;
    // the rest run the sweep's checked mode and must stop (or complete) at
    // exactly the heap's firings, with the same diagnostic.
    //
    // In a live and safe graph a marked edge's token is the only one on
    // some cycle through it, so the rest of that cycle is a token-free path
    // from consumer to producer: the consumer always comes first in the
    // firing order.  A marked edge from an earlier gate exists only when
    // that gate never fires, i.e. in checked mode.
    std::mt19937_64 rng(2026);
    std::size_t live = 0, checked = 0, deadlocked = 0;
    marking_cases live_cases, checked_cases;
    const delay_model irregular = delay_models().back().second;
    for (int trial = 0; trial < 20000; ++trial) {
        const pl::pl_netlist pl = random_simulable_graph(rng);
        const pl::flat_topology topo(pl);
        const pl::firing_schedule schedule = pl::make_firing_schedule(pl, topo);
        if (!pl::find_unsafe_edge(pl, topo, schedule).empty()) continue;
        const std::string label = "trial " + std::to_string(trial);
        const marking_cases cases = count_marking_cases(pl, schedule);
        const bool ok = pl.verify().ok();
        marking_cases& tally = ok ? live_cases : checked_cases;
        tally.mixed_init_producers += cases.mixed_init_producers;
        tally.marked_forward_edges += cases.marked_forward_edges;
        ++(ok ? live : checked);
        const std::vector<std::vector<bool>> vectors =
            random_vectors(6, pl.sources().size(), static_cast<std::uint64_t>(trial));
        for (const delay_model& delays : {delay_model{}, irregular}) {
            for (const bool non_pipelined : {true, false}) {
                const std::string mode =
                    label + (non_pipelined ? " non-pipelined" : " pipelined");
                const outcome heap = try_simulate(pl, queue_kind::binary_heap,
                                                  non_pipelined, vectors, delays);
                const outcome sweep = try_simulate(pl, queue_kind::sweep,
                                                   non_pipelined, vectors, delays);
                EXPECT_EQ(heap.error, sweep.error) << mode;
                if (ok) {
                    EXPECT_EQ(sweep.error, "") << mode;
                }
                if (!heap.error.empty()) {
                    deadlocked += non_pipelined ? 1 : 0;
                    EXPECT_EQ(heap.run.stats.events, sweep.run.stats.events) << mode;
                    EXPECT_EQ(heap.run.stats.firings, sweep.run.stats.firings) << mode;
                    continue;
                }
                expect_identical(heap.run, sweep.run, mode);
            }
        }
        expect_lanes_match_oracle(pl, label, static_cast<std::uint64_t>(trial));
    }
    // 832 live, 10,983 checked-mode graphs; 52 / 1,307 mixed-value
    // producers; 0 / 572 marked edges from an earlier gate.
    EXPECT_GT(live, 600u);
    EXPECT_GT(checked, 5000u);
    EXPECT_GT(deadlocked, 5000u);
    EXPECT_GT(live_cases.mixed_init_producers, 30u);
    EXPECT_EQ(live_cases.marked_forward_edges, 0u);
    EXPECT_GT(checked_cases.mixed_init_producers, 500u);
    EXPECT_GT(checked_cases.marked_forward_edges, 300u);
}

TEST(SimQueue, QueueKindStrings) {
    EXPECT_STREQ(to_string(queue_kind::binary_heap), "heap");
    EXPECT_STREQ(to_string(queue_kind::sweep), "sweep");
    EXPECT_EQ(queue_kind_from_string("heap"), queue_kind::binary_heap);
    EXPECT_EQ(queue_kind_from_string("binary_heap"), queue_kind::binary_heap);
    EXPECT_EQ(queue_kind_from_string("sweep"), queue_kind::sweep);
    // The engine's former name stays an accepted alias.
    EXPECT_EQ(queue_kind_from_string("calendar"), queue_kind::sweep);
    EXPECT_THROW(queue_kind_from_string("splay"), std::invalid_argument);
}

TEST(SimQueue, FleetRunsBitIdenticalAcrossEnginesAndThreads) {
    std::vector<runner::fleet_job> jobs;
    runner::fleet_job b05;
    b05.id = "b05";
    b05.description = "b05";
    b05.netlist = bench::build_benchmark("b05");
    jobs.push_back(std::move(b05));
    for (int i = 0; i < 2; ++i) {
        runner::fleet_job job;
        job.id = "w" + std::to_string(i);
        job.description = job.id;
        job.netlist = wl::generate(wl::scenario_params(
            wl::all_scenarios()[static_cast<std::size_t>(i)], 90,
            40 + static_cast<std::uint64_t>(i)));
        jobs.push_back(std::move(job));
    }

    std::vector<runner::fleet_result> fleets;
    for (queue_kind queue : {queue_kind::binary_heap, queue_kind::sweep}) {
        for (unsigned threads : {1u, 2u}) {
            runner::fleet_options opts;
            opts.num_threads = threads;
            opts.experiment.measure.num_vectors = 10;
            opts.experiment.measure.sim.queue = queue;
            fleets.push_back(runner::run_fleet(jobs, opts));
        }
    }
    const runner::fleet_result& base = fleets.front();
    EXPECT_GT(base.total_sim_events, 0u);
    EXPECT_GT(base.sim_events_per_s(), 0.0);
    for (const runner::fleet_result& other : fleets) {
        ASSERT_EQ(other.results.size(), base.results.size());
        EXPECT_EQ(other.total_sim_events, base.total_sim_events);
        for (std::size_t i = 0; i < base.results.size(); ++i) {
            EXPECT_EQ(other.results[i].row.delay_no_ee,
                      base.results[i].row.delay_no_ee);
            EXPECT_EQ(other.results[i].row.delay_ee,
                      base.results[i].row.delay_ee);
            EXPECT_EQ(other.results[i].row.stats_ee.events,
                      base.results[i].row.stats_ee.events);
            EXPECT_EQ(other.results[i].row.stats_ee.ee_hits,
                      base.results[i].row.stats_ee.ee_hits);
        }
    }
}

}  // namespace
}  // namespace plee::sim
