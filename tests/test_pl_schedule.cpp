// Tests for the static firing structure of a PL netlist: the token-free
// firing order, never-firing gates, and the structural safety check, which
// is cross-checked against marked_graph::verify() (the dense reachability
// oracle) on random marked graphs, live or not.

#include "plogic/pl_schedule.hpp"

#include <gtest/gtest.h>

#include <random>

#include "bench_circuits/itc99.hpp"
#include "ee/ee_transform.hpp"
#include "plogic/pl_mapper.hpp"
#include "random_marked_graph.hpp"
#include "workload/workload.hpp"

namespace plee::pl {
namespace {

std::string unsafe_edge(const pl_netlist& pl) {
    const flat_topology topo(pl);
    return find_unsafe_edge(pl, topo, make_firing_schedule(pl, topo));
}

/// A ring of `n` compute gates joined by ack edges, the first `tokens` of
/// them marked.
pl_netlist ring(std::size_t n, std::size_t tokens) {
    pl_netlist pl;
    testing::add_ring(pl, n, tokens);
    return pl;
}

TEST(PlSchedule, MappedNetlistsAreSafeAndFullyOrdered) {
    // The mapper's and the EE pass's postcondition: neither re-checks its
    // output at run time, so this is the suite-wide guard.
    std::vector<nl::netlist> netlists;
    for (const bench::benchmark_info& b : bench::itc99_suite()) {
        netlists.push_back(b.build());
    }
    for (wl::scenario kind : wl::all_scenarios()) {
        netlists.push_back(wl::generate(wl::scenario_params(kind, 100, 5)));
    }
    for (std::size_t i = 0; i < netlists.size(); ++i) {
        pl::map_result mapped = map_to_phased_logic(netlists[i]);
        for (int ee = 0; ee < 2; ++ee) {
            const std::string label =
                "netlist " + std::to_string(i) + (ee == 1 ? " ee" : " plain");
            if (ee == 1) ee::apply_early_evaluation(mapped.pl);
            const flat_topology topo(mapped.pl);
            const firing_schedule s = make_firing_schedule(mapped.pl, topo);
            EXPECT_EQ(s.order.size(), mapped.pl.num_gates()) << label;
            EXPECT_FALSE(s.any_never_fires) << label;
            const mg_report report = mapped.pl.verify();
            EXPECT_TRUE(report.ok()) << label << ": " << report.violation;
            EXPECT_EQ(find_unsafe_edge(mapped.pl, topo, s), "") << label;
        }
    }
}

TEST(PlSchedule, RingSafetyFollowsItsTokenCount) {
    EXPECT_EQ(unsafe_edge(ring(3, 1)), "");
    EXPECT_NE(unsafe_edge(ring(3, 2)), "");
    EXPECT_NE(unsafe_edge(ring(4, 3)), "");
}

TEST(PlSchedule, TokenFreeCycleNeverFiresAndIsNotASafetyViolation) {
    // Gates 0 and 1 form a token-free cycle; gate 2 hangs off it.
    pl_netlist pl = ring(2, 0);
    pl.add_gate(gate_kind::compute);
    pl.add_ack_edge(1, 2, false);
    pl.add_ack_edge(2, 1, true);
    const flat_topology topo(pl);
    const firing_schedule s = make_firing_schedule(pl, topo);
    EXPECT_TRUE(s.order.empty());
    EXPECT_TRUE(s.any_never_fires);
    EXPECT_EQ(find_unsafe_edge(pl, topo, s), "");
}

TEST(PlSchedule, SourceToSinkEdgeWithoutAcknowledgeIsUnsafe) {
    // The environment's release hand-off is not a token of the netlist: an
    // edge on no cycle is unbounded, whatever the environment does.
    pl_netlist pl;
    const gate_id src = pl.add_gate(gate_kind::source, "in");
    const gate_id snk = pl.add_gate(gate_kind::sink, "out");
    pl.add_data_edge(src, snk, 0, false, false);
    EXPECT_NE(unsafe_edge(pl), "");
    EXPECT_FALSE(pl.verify().ok());
}

TEST(PlSchedule, GateWithoutInputsNeverFires) {
    // A constant with no acknowledge inputs never fires, so its edge carries
    // no deposits and is not checked, but its consumer is left in the order.
    pl_netlist pl;
    const gate_id k = pl.add_gate(gate_kind::const_source, "k");
    const gate_id g = pl.add_gate(gate_kind::compute, "g");
    pl.add_data_edge(k, g, 0, true, true);
    pl.add_ack_edge(g, g, true);
    const flat_topology topo(pl);
    const firing_schedule s = make_firing_schedule(pl, topo);
    EXPECT_EQ(s.order.size(), 2u);
    EXPECT_TRUE(s.never_fires[k]);
    EXPECT_FALSE(s.never_fires[g]);
    EXPECT_EQ(find_unsafe_edge(pl, topo, s), "");
}

TEST(PlSchedule, AgreesWithDenseVerifyOnRandomGraphs) {
    // The structural check plus the never-firing test decide what verify()
    // decides by Tarjan and dense reachability: well-formed, live and safe.
    // testing::random_marked_graph: a ring of 0-2 tokens, random chords,
    // and sometimes dangling gates with a one-way edge.
    std::mt19937_64 rng(2026);
    std::size_t dead = 0, ill_formed = 0, unsafe = 0, ok = 0;
    for (int trial = 0; trial < 20000; ++trial) {
        const pl_netlist pl = testing::random_marked_graph(rng);
        const mg_report report = pl.verify();
        const flat_topology topo(pl);
        const firing_schedule s = make_firing_schedule(pl, topo);
        const bool accepted =
            !s.any_never_fires && find_unsafe_edge(pl, topo, s).empty();
        EXPECT_EQ(accepted, report.ok()) << "trial " << trial;
        dead += report.live ? 0 : 1;
        ill_formed += report.well_formed ? 0 : 1;
        unsafe += report.live && report.well_formed && !report.safe ? 1 : 0;
        ok += report.ok() ? 1 : 0;
    }
    EXPECT_GT(dead, 10000u);
    EXPECT_GT(ill_formed, 5000u);
    EXPECT_GT(unsafe, 1000u);
    EXPECT_GT(ok, 500u);
}

}  // namespace
}  // namespace plee::pl
