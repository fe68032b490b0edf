// Tests for the measurement harness (Section 4's protocol): random stimulus
// generation, delay statistics, the golden functional cross-check, and the
// simulator's marked-graph check against marked_graph::verify() on broken
// netlists.

#include "sim/measure.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "bench_circuits/itc99.hpp"
#include "ee/ee_transform.hpp"
#include "netlist/sync_sim.hpp"
#include "plogic/pl_mapper.hpp"
#include "rt/errors.hpp"
#include "sim/errors.hpp"
#include "synth/rtl.hpp"
#include "workload/workload.hpp"

namespace plee::sim {
namespace {

nl::netlist alu_netlist() {
    syn::module_builder m("alu");
    const syn::bus a = m.input_bus("a", 6);
    const syn::bus b = m.input_bus("b", 6);
    const syn::expr_id sel = m.input("sel");
    const syn::bus sum = m.add(a, b).sum;
    const syn::bus dif = m.sub(a, b).diff;
    m.output_bus("y", m.mux2(sel, sum, dif));
    m.output("eq", m.eq(a, b));
    return m.build();
}

TEST(Measure, RandomVectorsAreDeterministicPerSeed) {
    const auto v1 = random_vectors(10, 8, 42);
    const auto v2 = random_vectors(10, 8, 42);
    const auto v3 = random_vectors(10, 8, 43);
    EXPECT_EQ(v1, v2);
    EXPECT_NE(v1, v3);
    EXPECT_EQ(v1.size(), 10u);
    EXPECT_EQ(v1.front().size(), 8u);
}

TEST(Measure, RandomVectorsMix) {
    const auto vs = random_vectors(64, 16, 7);
    std::size_t ones = 0;
    for (const auto& v : vs) {
        for (bool b : v) ones += b;
    }
    // Bernoulli(1/2): grossly unbalanced output would indicate a bug.
    EXPECT_GT(ones, 64u * 16u / 4);
    EXPECT_LT(ones, 64u * 16u * 3 / 4);
}

TEST(Measure, StatisticsAreConsistent) {
    const nl::netlist n = alu_netlist();
    const pl::map_result mapped = pl::map_to_phased_logic(n);
    measure_options opts;
    opts.num_vectors = 50;
    const measure_result r = measure_average_delay(mapped.pl, &n, opts);

    EXPECT_EQ(r.delays.size(), 50u);
    EXPECT_GT(r.avg_delay, 0.0);
    EXPECT_LE(r.min_delay, r.avg_delay);
    EXPECT_GE(r.max_delay, r.avg_delay);
    EXPECT_GE(r.stddev, 0.0);

    double sum = 0;
    for (double d : r.delays) sum += d;
    EXPECT_NEAR(sum / 50.0, r.avg_delay, 1e-9);
}

TEST(Measure, GoldenComparisonPassesThroughEe) {
    const nl::netlist n = alu_netlist();
    pl::map_result mapped = pl::map_to_phased_logic(n);
    ee::apply_early_evaluation(mapped.pl);
    measure_options opts;
    opts.num_vectors = 100;  // the paper's count
    const measure_result r = measure_average_delay(mapped.pl, &n, opts);
    EXPECT_GT(r.stats.ee_hits + r.stats.ee_misses, 0u);
}

TEST(Measure, NullGoldenSkipsComparison) {
    const nl::netlist n = alu_netlist();
    const pl::map_result mapped = pl::map_to_phased_logic(n);
    measure_options opts;
    opts.num_vectors = 5;
    const measure_result r = measure_average_delay(mapped.pl, nullptr, opts);
    EXPECT_EQ(r.delays.size(), 5u);
}

TEST(Measure, DelayIsSeedStableForFixedCircuit) {
    const nl::netlist n = alu_netlist();
    const pl::map_result mapped = pl::map_to_phased_logic(n);
    measure_options opts;
    opts.num_vectors = 30;
    const measure_result r1 = measure_average_delay(mapped.pl, &n, opts);
    const measure_result r2 = measure_average_delay(mapped.pl, &n, opts);
    EXPECT_DOUBLE_EQ(r1.avg_delay, r2.avg_delay);
}

TEST(Measure, DelayModelScalesResults) {
    const nl::netlist n = alu_netlist();
    const pl::map_result mapped = pl::map_to_phased_logic(n);
    measure_options slow;
    slow.num_vectors = 20;
    slow.sim.delays.d_lut = 10.0;  // stretch the LUT delay
    measure_options fast;
    fast.num_vectors = 20;
    const measure_result rs = measure_average_delay(mapped.pl, &n, slow);
    const measure_result rf = measure_average_delay(mapped.pl, &n, fast);
    EXPECT_GT(rs.avg_delay, rf.avg_delay * 2);
}

/// Maps the ALU, then flips one truth-table bit of a compute gate that
/// drives a primary output: the bit vector 0 reads, so both protocols see
/// the corruption.
pl::pl_netlist corrupted_alu(const nl::netlist& n) {
    pl::map_result mapped = pl::map_to_phased_logic(n);
    nl::sync_simulator gold(n);
    gold.set_inputs(random_vectors(1, n.inputs().size(), measure_options{}.seed)[0]);
    gold.eval();
    for (const nl::cell_id out : n.outputs()) {
        const nl::cell& driver = n.at(n.at(out).fanins.front());
        if (driver.kind != nl::cell_kind::lut) continue;
        std::uint32_t minterm = 0;
        for (std::size_t pin = 0; pin < driver.fanins.size(); ++pin) {
            minterm |= std::uint32_t{gold.value_of(driver.fanins[pin])} << pin;
        }
        bf::truth_table fn = driver.function;
        fn.set(minterm, !fn.eval(minterm));
        mapped.pl.set_function(mapped.gate_of_cell[n.at(out).fanins.front()], fn);
        return std::move(mapped.pl);
    }
    throw std::logic_error("corrupted_alu: no output is driven by a LUT");
}

TEST(Measure, GoldenMismatchThrowsTypedErrorUnderBothProtocols) {
    const nl::netlist n = alu_netlist();
    const pl::pl_netlist corrupted = corrupted_alu(n);
    for (const std::size_t lanes : {std::size_t{1}, k_lanes}) {
        measure_options opts;
        opts.lanes = lanes;
        try {
            measure_average_delay(corrupted, &n, opts);
            ADD_FAILURE() << "lanes=" << lanes << ": the corruption went unseen";
        } catch (const plee_error& e) {
            EXPECT_NE(std::string(e.what()).find("of 100 waves"), std::string::npos)
                << e.what();
        }
        // Without a golden model the same netlist measures cleanly.
        EXPECT_EQ(measure_average_delay(corrupted, nullptr, opts).delays.size(),
                  100u);
    }
}

TEST(Measure, RejectsAReferenceThatDoesNotFit) {
    const nl::netlist n = alu_netlist();
    const pl::map_result mapped = pl::map_to_phased_logic(n);
    measure_options opts;
    opts.num_vectors = 5;
    const std::size_t width = mapped.pl.sources().size();
    EXPECT_THROW(measure_average_delay(mapped.pl,
                                       make_reference(nullptr, width + 1, opts), opts),
                 std::invalid_argument);
    const reference serial = make_reference(&n, width, opts);
    measure_options lanes = opts;
    lanes.lanes = k_lanes;
    EXPECT_THROW(measure_average_delay(mapped.pl, serial, lanes),
                 std::invalid_argument);
    opts.lanes = 2;
    EXPECT_THROW(make_reference(&n, width, opts), std::invalid_argument);
}

/// `pl` rebuilt through the construction API without edge `drop` and with
/// the marking of edge `flip` inverted (k_invalid_edge: neither).
pl::pl_netlist mutate(const pl::pl_netlist& pl, pl::edge_id drop,
                      pl::edge_id flip) {
    pl::pl_netlist out;
    for (const pl::pl_gate& g : pl.gates()) {
        const pl::gate_id id = out.add_gate(g.kind, g.name);
        if (g.kind == pl::gate_kind::compute) out.set_function(id, g.function);
        if (g.kind == pl::gate_kind::const_source) out.set_const_value(id, g.const_value);
    }
    for (pl::edge_id e = 0; e < pl.num_edges(); ++e) {
        if (e == drop) continue;
        const pl::pl_edge& edge = pl.edge(e);
        const bool marked = edge.init_token != (e == flip);
        if (edge.kind == pl::edge_kind::data) {
            out.add_data_edge(edge.from, edge.to, edge.to_pin, marked, edge.init_value);
        } else {
            out.add_ack_edge(edge.from, edge.to, marked);
        }
    }
    return out;
}

TEST(Measure, SimulatorRejectsExactlyWhatVerifyRejectsOnMutants) {
    // The pipeline does not call verify(); the simulator's structural check
    // (invariant_violation before any firing) and its deadlock detection
    // must reject exactly the netlists verify() rejects.  Mutants of mapped
    // netlists: every single ack-edge deletion and every single marking
    // flip (2,581 in all), under both engines and both protocols.  A
    // one-wave lane run never reaches the waves a token-free cycle behind a
    // register starves, so run_lanes rejects such a cycle structurally.
    std::vector<nl::netlist> netlists;
    for (const char* id : {"b01", "b02", "b03", "b06", "b09"}) {
        netlists.push_back(bench::build_benchmark(id));
    }
    for (wl::scenario kind : wl::all_scenarios()) {
        netlists.push_back(wl::generate(wl::scenario_params(kind, 40, 3)));
    }
    std::size_t mutants = 0, rejected = 0;
    for (const nl::netlist& n : netlists) {
        const pl::pl_netlist pl = pl::map_to_phased_logic(n).pl;
        std::vector<pl::pl_netlist> broken;
        for (pl::edge_id e = 0; e < pl.num_edges(); ++e) {
            if (pl.edge(e).kind == pl::edge_kind::ack) {
                broken.push_back(mutate(pl, e, pl::k_invalid_edge));
            }
            broken.push_back(mutate(pl, pl::k_invalid_edge, e));
        }
        for (const std::size_t lanes : {std::size_t{1}, k_lanes}) {
            measure_options opts;
            opts.num_vectors = 20;
            opts.lanes = lanes;
            const reference ref = make_reference(&n, pl.sources().size(), opts);
            for (std::size_t m = 0; m < broken.size(); ++m) {
                const pl::mg_report report = broken[m].verify();
                if (lanes == 1) {
                    ++mutants;
                    rejected += report.ok() ? 0 : 1;
                }
                for (const queue_kind queue :
                     {queue_kind::binary_heap, queue_kind::sweep}) {
                    opts.sim.queue = queue;
                    const std::string label = "mutant " + std::to_string(m) +
                                              ", " + to_string(queue) + ", lanes " +
                                              std::to_string(lanes) + ": " +
                                              report.violation;
                    bool thrown = false;
                    try {
                        measure_average_delay(broken[m], ref, opts);
                    } catch (const invariant_violation& e) {
                        thrown = true;
                        EXPECT_EQ(e.events(), 0u) << label;
                    } catch (const deadlock_error&) {
                        thrown = true;
                        // A live graph never deadlocks: a rejected live
                        // mutant is unsafe or ill-formed, caught before
                        // the first firing.
                        EXPECT_FALSE(report.live) << label;
                    } catch (const plee_error&) {
                        // A golden mismatch: a new marking may change the
                        // function without breaking the marked graph.
                    }
                    EXPECT_EQ(thrown, !report.ok()) << label;
                }
            }
        }
    }
    EXPECT_GT(mutants, 2000u);
    EXPECT_GT(rejected, 400u);
}

}  // namespace
}  // namespace plee::sim
