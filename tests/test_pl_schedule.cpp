// Tests for the static firing structure of a PL netlist: the token-free
// firing order, never-firing gates, and the structural safety check, which
// is cross-checked against marked_graph::verify() (the dense reachability
// oracle) on random live marked graphs.

#include "plogic/pl_schedule.hpp"

#include <gtest/gtest.h>

#include <random>

#include "bench_circuits/itc99.hpp"
#include "ee/ee_transform.hpp"
#include "plogic/pl_mapper.hpp"
#include "workload/workload.hpp"

namespace plee::pl {
namespace {

std::string unsafe_edge(const pl_netlist& pl, bool env_release) {
    const flat_topology topo(pl);
    return find_unsafe_edge(pl, topo, make_firing_schedule(pl, topo), env_release);
}

/// A ring of `n` compute gates joined by ack edges, the first `tokens` of
/// them marked.
pl_netlist ring(std::size_t n, std::size_t tokens) {
    pl_netlist pl;
    for (std::size_t i = 0; i < n; ++i) pl.add_gate(gate_kind::compute);
    for (std::size_t i = 0; i < n; ++i) {
        pl.add_ack_edge(static_cast<gate_id>(i), static_cast<gate_id>((i + 1) % n),
                        i < tokens);
    }
    return pl;
}

TEST(PlSchedule, MappedNetlistsAreSafeAndFullyOrdered) {
    std::vector<nl::netlist> netlists;
    for (const char* id : {"b01", "b05", "b09", "b13"}) {
        netlists.push_back(bench::build_benchmark(id));
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
            EXPECT_TRUE(mapped.pl.verify().safe) << label;
            EXPECT_EQ(find_unsafe_edge(mapped.pl, topo, s, false), "") << label;
            EXPECT_EQ(find_unsafe_edge(mapped.pl, topo, s, true), "") << label;
        }
    }
}

TEST(PlSchedule, RingSafetyFollowsItsTokenCount) {
    EXPECT_EQ(unsafe_edge(ring(3, 1), false), "");
    EXPECT_NE(unsafe_edge(ring(3, 2), false), "");
    EXPECT_NE(unsafe_edge(ring(4, 3), false), "");
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
    EXPECT_EQ(find_unsafe_edge(pl, topo, s, false), "");
}

TEST(PlSchedule, EnvironmentReleaseClosesSourceToSinkPaths) {
    // source -> sink with no acknowledge: only the non-pipelined
    // environment's release hand-off bounds the edge.
    pl_netlist pl;
    const gate_id src = pl.add_gate(gate_kind::source, "in");
    const gate_id snk = pl.add_gate(gate_kind::sink, "out");
    pl.add_data_edge(src, snk, 0, false, false);
    EXPECT_NE(unsafe_edge(pl, false), "");
    EXPECT_EQ(unsafe_edge(pl, true), "");
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
    EXPECT_EQ(find_unsafe_edge(pl, topo, s, false), "");
}

TEST(PlSchedule, AgreesWithDenseVerifyOnRandomLiveGraphs) {
    // On live, well-formed marked graphs of gates with inputs, the
    // structural check is exactly the occupancy theorem that verify()
    // decides by dense reachability.
    std::mt19937_64 rng(2026);
    std::size_t compared = 0, unsafe = 0;
    for (int trial = 0; trial < 3000; ++trial) {
        const std::size_t n = 2 + rng() % 7;
        pl_netlist pl = ring(n, 1);  // every gate has an input
        const std::size_t extra = rng() % (2 * n);
        for (std::size_t i = 0; i < extra; ++i) {
            pl.add_ack_edge(static_cast<gate_id>(rng() % n),
                            static_cast<gate_id>(rng() % n), rng() % 3 == 0);
        }
        const mg_report report = pl.verify();
        if (!report.live || !report.well_formed) continue;
        ++compared;
        unsafe += report.safe ? 0 : 1;
        EXPECT_EQ(unsafe_edge(pl, false).empty(), report.safe) << "trial " << trial;
    }
    EXPECT_GT(compared, 500u);
    EXPECT_GT(unsafe, 50u);
}

}  // namespace
}  // namespace plee::pl
