// Tests for the Early Evaluation netlist transform: trigger gates are
// attached where profitable, pairing metadata is consistent, and the marked
// graph stays live and safe (the Section 3 requirement).

#include "ee/ee_transform.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <string>

#include "bench_circuits/itc99.hpp"
#include "bool/support.hpp"
#include "fault/injector.hpp"
#include "obs/registry.hpp"
#include "plogic/pl_mapper.hpp"
#include "rt/errors.hpp"
#include "synth/rtl.hpp"
#include "workload/workload.hpp"

namespace plee::ee {
namespace {

/// An 8-bit ripple adder over registered operands: the carry chain gives a
/// deep arrival profile, the classic EE target.
nl::netlist ripple_adder() {
    syn::module_builder m("adder");
    const syn::bus a = m.input_bus("a", 8);
    const syn::bus b = m.input_bus("b", 8);
    const auto r = m.add(a, b);
    m.output_bus("sum", r.sum);
    m.output("cout", r.carry);
    return m.build();
}

TEST(EeTransform, AddsTriggersToAdder) {
    pl::map_result mapped = pl::map_to_phased_logic(ripple_adder());
    const std::size_t gates_before = mapped.pl.num_pl_gates();

    const ee_stats stats = apply_early_evaluation(mapped.pl);
    EXPECT_GT(stats.triggers_added, 0u);
    EXPECT_EQ(stats.triggers_added, mapped.pl.num_trigger_gates());
    EXPECT_EQ(stats.applied.size(), stats.triggers_added);
    // The paper's "PL Gates" count excludes the EE gates.
    EXPECT_EQ(mapped.pl.num_pl_gates(), gates_before);
}

TEST(EeTransform, GraphStaysLiveAndSafe) {
    pl::map_result mapped = pl::map_to_phased_logic(ripple_adder());
    apply_early_evaluation(mapped.pl);
    const pl::mg_report report = mapped.pl.verify();
    EXPECT_TRUE(report.well_formed);
    EXPECT_TRUE(report.live);
    EXPECT_TRUE(report.safe);
}

TEST(EeTransform, PairingMetadataConsistent) {
    pl::map_result mapped = pl::map_to_phased_logic(ripple_adder());
    const ee_stats stats = apply_early_evaluation(mapped.pl);
    for (const applied_trigger& at : stats.applied) {
        const pl::pl_gate& master = mapped.pl.gate(at.master);
        const pl::pl_gate& trig = mapped.pl.gate(at.trigger);
        EXPECT_EQ(master.trigger, at.trigger);
        EXPECT_EQ(trig.master, at.master);
        EXPECT_EQ(trig.kind, pl::gate_kind::trigger);
        EXPECT_NE(master.efire_in, pl::k_invalid_edge);
        // The efire edge runs trigger -> master.
        const pl::pl_edge& efire = mapped.pl.edge(master.efire_in);
        EXPECT_EQ(efire.from, at.trigger);
        EXPECT_EQ(efire.to, at.master);
        // Trigger taps exactly the support pins of the master.
        EXPECT_EQ(trig.data_in.size(),
                  static_cast<std::size_t>(std::popcount(at.candidate.support)));
        EXPECT_EQ(trig.function, at.candidate.function);
        // Tapped producers match the master's pins.
        std::size_t t = 0;
        for (std::size_t pin = 0; pin < master.data_in.size(); ++pin) {
            if (!(at.candidate.support & (1u << pin))) continue;
            EXPECT_EQ(mapped.pl.edge(trig.data_in[t]).from,
                      mapped.pl.edge(master.data_in[pin]).from);
            ++t;
        }
    }
}

TEST(EeTransform, ThresholdReducesTriggerCount) {
    // "Thresholding the cost function allows for a tradeoff in area versus
    // delay": monotone decrease in EE gates with rising threshold.
    std::size_t prev = std::numeric_limits<std::size_t>::max();
    for (double threshold : {0.0, 100.0, 300.0, 1e9}) {
        pl::map_result mapped = pl::map_to_phased_logic(ripple_adder());
        ee_options opts;
        opts.search.cost_threshold = threshold;
        const ee_stats stats = apply_early_evaluation(mapped.pl, opts);
        EXPECT_LE(stats.triggers_added, prev);
        prev = stats.triggers_added;
    }
    EXPECT_EQ(prev, 0u);  // an absurd threshold suppresses all EE
}

TEST(EeTransform, CubeListMethodAlsoWorks) {
    pl::map_result mapped = pl::map_to_phased_logic(ripple_adder());
    ee_options opts;
    opts.search.method = trigger_method::cube_list;
    const ee_stats stats = apply_early_evaluation(mapped.pl, opts);
    EXPECT_GT(stats.triggers_added, 0u);
    EXPECT_TRUE(mapped.pl.verify().ok());
}

TEST(EeTransform, NoTriggersWithoutArrivalSkew) {
    // Single-level circuit: every master input arrives at depth 0, so no
    // candidate passes the Tmax < Mmax test and no EE gate is added.
    syn::module_builder m("flat");
    auto& a = m.arena();
    const syn::expr_id x = m.input("x");
    const syn::expr_id y = m.input("y");
    const syn::expr_id z = m.input("z");
    m.output("f", a.or_(a.and_(x, y), z));
    pl::map_result mapped = pl::map_to_phased_logic(m.build());
    const ee_stats stats = apply_early_evaluation(mapped.pl);
    EXPECT_EQ(stats.triggers_added, 0u);
    EXPECT_GT(stats.masters_considered, 0u);
}

TEST(EeTransform, AppliedCandidatesRespectPolicy) {
    pl::map_result mapped = pl::map_to_phased_logic(ripple_adder());
    ee_options opts;
    opts.search.cost_threshold = 50.0;
    const ee_stats stats = apply_early_evaluation(mapped.pl, opts);
    for (const applied_trigger& at : stats.applied) {
        EXPECT_GT(at.candidate.cost, 50.0);
        EXPECT_LT(at.candidate.trigger_max_arrival, at.candidate.master_max_arrival);
        EXPECT_GT(at.candidate.covered_minterms, 0);
    }
}

TEST(EeTransform, WideMasterTriggersMatchScalarOracle) {
    // LUT6/LUT8 netlists: almost every master is a distinct wide function.
    // Each applied trigger must be the scalar oracle's exact trigger for its
    // master and support.
    for (const wl::scenario kind :
         {wl::scenario::lut6_dag, wl::scenario::lut8_datapath}) {
        for (const std::uint64_t seed : {3u, 11u}) {
            const nl::netlist n =
                wl::generate(wl::scenario_params(kind, 120, seed));
            const std::string label = std::string(wl::to_string(kind)) +
                                      " seed=" + std::to_string(seed);

            pl::map_result mapped = pl::map_to_phased_logic(n);
            const ee_stats stats = apply_early_evaluation(mapped.pl);
            ASSERT_GT(stats.triggers_added, 0u) << label;

            int widest = 0;
            for (const applied_trigger& at : stats.applied) {
                const bf::truth_table& master = mapped.pl.gate(at.master).function;
                widest = std::max(widest, master.num_vars());
                ASSERT_EQ(at.candidate.function,
                          scalar::exact_trigger_function(master, at.candidate.support))
                    << label << " master=" << at.master;
            }
            // The sweep really exercised wide masters, not just LUT4s.
            EXPECT_GT(widest, 4) << label;
        }
    }
}

TEST(EeTransform, ExpiredCancelOrInjectedFaultStopsTheSearch) {
    // Both stops happen at the first poll (site 0), before any trigger is
    // attached, so the netlist keeps its shape.
    const nl::netlist n = bench::build_benchmark("b05");
    {
        pl::map_result mapped = pl::map_to_phased_logic(n);
        const std::size_t gates = mapped.pl.num_gates();
        const std::size_t edges = mapped.pl.num_edges();
        cancel_token token;
        token.cancel();
        ee_options opts;
        opts.cancel = &token;
        opts.context = "b05";
        try {
            apply_early_evaluation(mapped.pl, opts);
            ADD_FAILURE() << "an expired token must stop the search";
        } catch (const job_timeout& e) {
            EXPECT_NE(std::string(e.what()).find("ee.search[b05]"), std::string::npos)
                << e.what();
            EXPECT_EQ(e.progress(), 0u);
        }
        EXPECT_EQ(mapped.pl.num_gates(), gates);
        EXPECT_EQ(mapped.pl.num_edges(), edges);
    }
    {
        pl::map_result mapped = pl::map_to_phased_logic(n);
        const std::size_t gates = mapped.pl.num_gates();
        const std::size_t edges = mapped.pl.num_edges();
        struct disarm_on_exit {
            ~disarm_on_exit() { fault::injector::instance().clear(); }
        } disarm;
        fault::point_config always;
        always.probability = 1.0;
        fault::injector::instance().arm("ee.search", always);
        try {
            apply_early_evaluation(mapped.pl);
            ADD_FAILURE() << "an armed ee.search point must stop the search";
        } catch (const fault::injected_fault& e) {
            EXPECT_EQ(e.point(), "ee.search");
            EXPECT_NE(std::string(e.what()).find("(site 0)"), std::string::npos)
                << e.what();
        }
        EXPECT_EQ(mapped.pl.num_gates(), gates);
        EXPECT_EQ(mapped.pl.num_edges(), edges);
    }
}

TEST(EeTransform, SupportsEvaluatedCountIsPinned) {
    // The branch-and-bound derives only the supports that can still win:
    // 252 of 5,477 on the LUT8 netlist and 638 of 1,474 on b05.  The count
    // is a pure function of the netlist, so it is pinned exactly (a change
    // to the bound or the support order moves it) and checked against the
    // registry counter.
    struct pinned {
        std::string label;
        nl::netlist netlist;
        std::size_t supports_evaluated;
    };
    const std::vector<pinned> cases = {
        {"lut8-datapath seed=3",
         wl::generate(wl::scenario_params(wl::scenario::lut8_datapath, 120, 3)),
         252},
        {"b05", bench::build_benchmark("b05"), 638},
    };
    obs::counter& counter =
        obs::registry::global().get_counter("ee.supports_evaluated");
    for (const pinned& c : cases) {
        pl::map_result mapped = pl::map_to_phased_logic(c.netlist);
        std::size_t unpruned = 0;
        for (pl::gate_id g = 0; g < mapped.pl.num_gates(); ++g) {
            const pl::pl_gate& gate = mapped.pl.gate(g);
            if (gate.kind != pl::gate_kind::compute || gate.data_in.size() < 2) continue;
            unpruned += bf::enumerate_support_subsets(
                            (1u << gate.function.num_vars()) - 1, 3)
                            .size();
        }
        const std::uint64_t before = counter.value();
        const ee_stats stats = apply_early_evaluation(mapped.pl);
        EXPECT_EQ(stats.supports_evaluated, c.supports_evaluated) << c.label;
        EXPECT_EQ(counter.value() - before, stats.supports_evaluated) << c.label;
        EXPECT_LT(stats.supports_evaluated, unpruned) << c.label;
    }
}

TEST(EeTransform, IdempotencePerMasterIsEnforced) {
    pl::map_result mapped = pl::map_to_phased_logic(ripple_adder());
    const ee_stats first = apply_early_evaluation(mapped.pl);
    ASSERT_GT(first.triggers_added, 0u);
    // Re-attaching a trigger to an already-paired master must throw.
    EXPECT_THROW(mapped.pl.attach_trigger(first.applied.front().master,
                                          first.applied.front().candidate.function,
                                          first.applied.front().candidate.support),
                 std::logic_error);
}

}  // namespace
}  // namespace plee::ee
