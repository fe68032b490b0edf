// Tests for the trigger-function search — the paper's core algorithm.
// Includes an exact reproduction of the running example of Section 3
// (Tables 1 and 2): the full-adder carry-out master with trigger ab + a'b'
// at 50% coverage over support {a, b}.

#include "ee/trigger_search.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <optional>
#include <string>
#include <vector>

#include "bool/splitmix64.hpp"
#include "bool/support.hpp"
#include "bool/truth_table.hpp"
#include "plogic/pl_mapper.hpp"
#include "workload/workload.hpp"

namespace plee::ee {
namespace {

/// The paper's master: carry-out c(a+b) + ab with a=var0, b=var1, c=var2.
bf::truth_table carry_master() {
    const bf::truth_table a = bf::truth_table::variable(3, 0);
    const bf::truth_table b = bf::truth_table::variable(3, 1);
    const bf::truth_table c = bf::truth_table::variable(3, 2);
    return (c & (a | b)) | (a & b);
}

TEST(TriggerSearch, PaperTable1TriggerForSupportAB) {
    // Exact derivation over S = {a, b}: trigger = ab + a'b' (XNOR), exactly
    // the paper's Table 1 "Trigger" column.
    const bf::truth_table trig = exact_trigger_function(carry_master(), 0b011);
    const bf::truth_table xnor2 =
        ~(bf::truth_table::variable(2, 0) ^ bf::truth_table::variable(2, 1));
    EXPECT_EQ(trig, xnor2);
}

TEST(TriggerSearch, PaperTable1CoverageIs50Percent) {
    // "an overall coverage of 4/8 = 50% is computed".
    const bf::truth_table master = carry_master();
    const bf::truth_table trig = exact_trigger_function(master, 0b011);
    EXPECT_EQ(covered_minterms(master, 0b011, trig), 4);
}

TEST(TriggerSearch, PaperTable2CubeListDerivationAgrees) {
    // The cube-list procedure of Table 2 finds f_trig = {00-, 11-} projected
    // to {a,b}: identical to the exact trigger for this master.
    const bf::truth_table master = carry_master();
    const bf::on_off_cover cover = bf::make_on_off_cover(master);
    const bf::truth_table trig = cube_list_trigger_function(master, cover, 0b011);
    EXPECT_EQ(trig, exact_trigger_function(master, 0b011));
    EXPECT_EQ(covered_minterms(master, 0b011, trig), 4);
}

TEST(TriggerSearch, CarryInOnlySupportsGiveNoEarlyWin) {
    // S = {c}: neither c=0 nor c=1 determines the carry (propagate cases
    // always exist), so the trigger is constant 0.
    const bf::truth_table trig = exact_trigger_function(carry_master(), 0b100);
    EXPECT_TRUE(trig.is_constant_zero());
}

TEST(TriggerSearch, SingleVariableSupportsOfCarry) {
    // S = {a}: a alone never fixes carry (b and c can push it either way);
    // same for {b}.
    EXPECT_TRUE(exact_trigger_function(carry_master(), 0b001).is_constant_zero());
    EXPECT_TRUE(exact_trigger_function(carry_master(), 0b010).is_constant_zero());
}

TEST(TriggerSearch, MixedSupportsOfCarry) {
    // S = {a, c}: a=1,c=1 forces carry=1; a=0,c=0 forces 0 — coverage 4/8.
    const bf::truth_table trig = exact_trigger_function(carry_master(), 0b101);
    EXPECT_EQ(covered_minterms(carry_master(), 0b101, trig), 4);
}

TEST(TriggerSearch, AndGateKillSignals) {
    // master = a AND b AND c: any 0 input kills the output; a single-var
    // support {a} triggers on a=0 (coverage 4/8).
    const bf::truth_table master = bf::truth_table::variable(3, 0) &
                                   bf::truth_table::variable(3, 1) &
                                   bf::truth_table::variable(3, 2);
    const bf::truth_table trig = exact_trigger_function(master, 0b001);
    EXPECT_EQ(trig, ~bf::truth_table::variable(1, 0));  // fires on a = 0
    EXPECT_EQ(covered_minterms(master, 0b001, trig), 4);
}

TEST(TriggerSearch, XorHasNoTrigger) {
    // Parity is never determined by a proper subset: all candidates dead.
    const bf::truth_table master = bf::truth_table::variable(3, 0) ^
                                   bf::truth_table::variable(3, 1) ^
                                   bf::truth_table::variable(3, 2);
    EXPECT_FALSE(find_best_trigger(master, {0, 0, 0}).has_value());
    for (std::uint32_t s : bf::enumerate_support_subsets(0b111, 3)) {
        const std::optional<trigger_candidate> c =
            evaluate_support(master, {0, 0, 0}, s);
        if (c) EXPECT_EQ(c->covered_minterms, 0);
    }
}

TEST(TriggerSearch, FourteenSupportSetsEvaluatedForLut4) {
    // A 4-input master with non-trivial triggers everywhere: OR4.  All 14
    // support sets yield a candidate (any 1 in the subset forces output 1).
    const bf::truth_table master = bf::truth_table::from_function(
        4, [](std::uint32_t m) { return m != 0; });
    const std::vector<int> arrivals = {3, 2, 1, 0};
    std::size_t candidates = 0;
    for (std::uint32_t s : bf::enumerate_support_subsets(0xf, 3)) {
        if (evaluate_support(master, arrivals, s)) ++candidates;
    }
    EXPECT_EQ(candidates, 14u);
    ASSERT_TRUE(find_best_trigger(master, arrivals).has_value());
}

TEST(TriggerSearch, UnboundedSearchDerivesEverySupport) {
    // Without the arrival gain and the Equation 1 weighting no support can
    // be skipped (every bound is 100, above any implementable cost), so the
    // in-place walk must derive exactly the supports the reference
    // enumeration lists, for every arity and size limit.
    search_options opts;
    opts.require_arrival_gain = false;
    opts.weight_by_arrival = false;
    for (int n = 2; n <= bf::k_max_vars; ++n) {
        const bf::truth_table master = bf::truth_table::from_function(
            n, [](std::uint32_t m) { return std::popcount(m) % 3 == 1; });
        const std::vector<int> arrivals(static_cast<std::size_t>(n), 0);
        for (int max_size = -1; max_size <= n + 1; ++max_size) {
            opts.max_support_size = max_size;
            std::size_t derived = 0;
            find_best_trigger(master, arrivals, opts, &derived);
            EXPECT_EQ(derived,
                      bf::enumerate_support_subsets((1u << n) - 1, max_size).size())
                << "n=" << n << " max_size=" << max_size;
        }
    }
}

TEST(TriggerSearch, EquationOneArrivalWeighting) {
    // Two supports with equal coverage: the one fed by faster-arriving
    // signals must win — "a large coverage ... may depend on slowly arriving
    // signals and thus not be as effective".
    const bf::truth_table master = carry_master();
    // Arrivals: a fast (depth 0), b fast (0), c slow (5).
    const std::optional<trigger_candidate> r = find_best_trigger(master, {0, 0, 5});
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->support, 0b011u);  // {a, b}: avoids the slow carry-in
    EXPECT_EQ(r->master_max_arrival, 5);
    EXPECT_EQ(r->trigger_max_arrival, 0);
}

TEST(TriggerSearch, RequireArrivalGainFiltersSlowTriggers) {
    // All inputs arrive simultaneously: no support subset can be faster, so
    // nothing is implementable under the default policy.
    const std::optional<trigger_candidate> r = find_best_trigger(carry_master(), {2, 2, 2});
    EXPECT_FALSE(r.has_value());

    search_options relaxed;
    relaxed.require_arrival_gain = false;
    const std::optional<trigger_candidate> r2 = find_best_trigger(carry_master(), {2, 2, 2}, relaxed);
    EXPECT_TRUE(r2.has_value());
}

TEST(TriggerSearch, CostThresholdFilters) {
    search_options opts;
    opts.cost_threshold = 1e9;  // nothing can clear this bar
    const std::optional<trigger_candidate> r = find_best_trigger(carry_master(), {0, 0, 5}, opts);
    EXPECT_FALSE(r.has_value());
}

TEST(TriggerSearch, Equation1CostFormula) {
    // cost = coverage% * (Mmax+1)/(Tmax+1) — the +1 smoothing documented in
    // the header (depths start at 0 for environment/register signals).
    EXPECT_DOUBLE_EQ(equation1_cost(50.0, 5, 0), 50.0 * 6.0 / 1.0);
    EXPECT_DOUBLE_EQ(equation1_cost(25.0, 3, 1), 25.0 * 4.0 / 2.0);
    EXPECT_DOUBLE_EQ(equation1_cost(100.0, 0, 0), 100.0);
}

TEST(TriggerSearch, FullCoverageCandidatesAreRejected) {
    // master = x0 (expressed over 2 vars): support {x0} determines the
    // output for every assignment — a vacuous-input artifact, not EE.
    const bf::truth_table master = bf::truth_table::variable(2, 0);
    const std::optional<trigger_candidate> r = find_best_trigger(master, {0, 5});
    EXPECT_FALSE(r.has_value());
}

TEST(TriggerSearch, CubeListCoverageNeverExceedsExact) {
    // The exact (cofactor) trigger is maximal for each support set; the
    // paper's cube-list derivation can only tie or lose (SOP-dependent).
    std::uint64_t state = 99;
    for (int trial = 0; trial < 40; ++trial) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const bf::truth_table master(4, state & 0xffff);
        if (master.support_size() < 2) continue;
        const bf::on_off_cover cover = bf::make_on_off_cover(master);
        for (std::uint32_t s :
             bf::enumerate_support_subsets(master.support_mask(), 3)) {
            const bf::truth_table exact = exact_trigger_function(master, s);
            const bf::truth_table cubes = cube_list_trigger_function(master, cover, s);
            EXPECT_LE(covered_minterms(master, s, cubes),
                      covered_minterms(master, s, exact));
            // And cube triggers are sound: implied by the exact trigger.
            EXPECT_TRUE((cubes & ~exact).is_constant_zero());
        }
    }
}

// ---------------------------------------------------------------------------
// Differential test of the branch-and-bound against an unpruned oracle.
// ---------------------------------------------------------------------------

/// Every candidate of the master, one `evaluate_support` call per support.
std::vector<trigger_candidate> every_candidate(const bf::truth_table& master,
                                               const std::vector<int>& arrivals,
                                               const search_options& opts,
                                               const bf::on_off_cover* cover) {
    std::vector<trigger_candidate> all;
    const std::uint32_t pins = (1u << master.num_vars()) - 1;
    for (std::uint32_t s : bf::enumerate_support_subsets(pins, opts.max_support_size)) {
        if (std::optional<trigger_candidate> c =
                evaluate_support(master, arrivals, s, opts, cover)) {
            all.push_back(*c);
        }
    }
    return all;
}

/// The oracle: a plain argmax over every candidate with the selection
/// filters and tie-break `find_best_trigger` documents, and no skipping.
std::optional<trigger_candidate> oracle_best(const std::vector<trigger_candidate>& all,
                                             const search_options& opts) {
    std::optional<trigger_candidate> best;
    for (const trigger_candidate& c : all) {
        if (opts.require_arrival_gain && c.trigger_max_arrival >= c.master_max_arrival) {
            continue;
        }
        if (c.cost <= opts.cost_threshold) continue;
        if (!best || c.cost > best->cost ||
            (c.cost == best->cost &&
             (c.covered_minterms > best->covered_minterms ||
              (c.covered_minterms == best->covered_minterms &&
               std::popcount(c.support) < std::popcount(best->support))))) {
            best = c;
        }
    }
    return best;
}

struct oracle_tally {
    std::size_t searches = 0;
    std::size_t bests = 0;
    std::size_t derived = 0;   ///< supports the branch-and-bound derived
    std::size_t supports = 0;  ///< supports an unpruned search derives
};

/// Checks `find_best_trigger` against the oracle for one master, arrival
/// vector, method and kernel family, under every combination of
/// `weight_by_arrival`, `require_arrival_gain` and `cost_threshold` 0/150.
void expect_matches_oracle(const bf::truth_table& master, const std::vector<int>& arrivals,
                           trigger_method method, bool scalar_kernels,
                           const bf::on_off_cover* cover, const std::string& where,
                           oracle_tally& tally) {
    for (const bool weight : {true, false}) {
        search_options base;
        base.method = method;
        base.use_scalar_kernels = scalar_kernels;
        base.weight_by_arrival = weight;
        const std::vector<trigger_candidate> all =
            every_candidate(master, arrivals, base, cover);
        const std::size_t supports =
            bf::enumerate_support_subsets((1u << master.num_vars()) - 1,
                                          base.max_support_size)
                .size();
        for (const bool gain : {true, false}) {
            for (const double threshold : {0.0, 150.0}) {
                search_options opts = base;
                opts.require_arrival_gain = gain;
                opts.cost_threshold = threshold;
                const std::optional<trigger_candidate> want = oracle_best(all, opts);
                const std::optional<trigger_candidate> got =
                    find_best_trigger(master, arrivals, opts, &tally.derived);
                ++tally.searches;
                tally.supports += supports;
                const auto context = [&] {
                    return where + " method=" + std::to_string(static_cast<int>(method)) +
                           " scalar=" + std::to_string(scalar_kernels) +
                           " weight=" + std::to_string(weight) +
                           " gain=" + std::to_string(gain) +
                           " threshold=" + std::to_string(threshold);
                };
                ASSERT_EQ(got.has_value(), want.has_value()) << context();
                if (!want) continue;
                ++tally.bests;
                ASSERT_EQ(got->support, want->support) << context();
                ASSERT_EQ(got->function, want->function) << context();
                ASSERT_EQ(got->covered_minterms, want->covered_minterms) << context();
                ASSERT_EQ(got->coverage_percent, want->coverage_percent) << context();
                ASSERT_EQ(got->master_max_arrival, want->master_max_arrival) << context();
                ASSERT_EQ(got->trigger_max_arrival, want->trigger_max_arrival)
                    << context();
                ASSERT_EQ(got->cost, want->cost) << context();
            }
        }
    }
}

TEST(TriggerSearch, PrunedSelectionMatchesExhaustiveOracle) {
    oracle_tally tally;

    // Every LUT4 master under arrival vectors with ties.  The exact word
    // kernels run on all 2^16 masters; the cube-list method and the scalar
    // kernels, whose searches cost far more, on fixed strides of them.
    const std::vector<std::vector<int>> lut4_arrivals = {
        {0, 0, 0, 0}, {3, 1, 2, 0}, {0, 0, 5, 5}, {1, 1, 1, 0}};
    for (std::uint32_t f = 0; f <= 0xffffu; ++f) {
        const bf::truth_table master(4, f);
        const bool cube = f % 16 == 7;
        const bool scalar = f % 64 == 13;
        std::optional<bf::on_off_cover> cover;
        if (cube) cover = bf::make_on_off_cover(master);
        for (const std::vector<int>& arrivals : lut4_arrivals) {
            const std::string where = "lut4 master=" + std::to_string(f);
            expect_matches_oracle(master, arrivals, trigger_method::exact, false, nullptr,
                                  where, tally);
            if (cube) {
                expect_matches_oracle(master, arrivals, trigger_method::cube_list, false,
                                      &*cover, where, tally);
            }
            if (scalar) {
                expect_matches_oracle(master, arrivals, trigger_method::exact, true,
                                      nullptr, where, tally);
                if (cube) {
                    expect_matches_oracle(master, arrivals, trigger_method::cube_list,
                                          true, &*cover, where, tally);
                }
            }
            if (HasFatalFailure()) return;
        }
    }

    // Random LUT5-LUT8 masters, arrivals drawn from 0-4 (ties are common)
    // plus the all-equal vector.
    std::uint64_t draw = 2020;
    for (int n = 5; n <= 8; ++n) {
        for (int trial = 0; trial < 120; ++trial) {
            bf::tt_words words{};
            for (int w = 0; w < bf::words_for(n); ++w) words[w] = bf::splitmix64(draw++);
            if (n == 5) words[0] &= 0xffffffffull;
            const bf::truth_table master(n, words);
            std::vector<int> arrivals(static_cast<std::size_t>(n));
            for (int& a : arrivals) a = static_cast<int>(bf::splitmix64(draw++) % 5);
            const std::string where =
                "lut" + std::to_string(n) + " trial=" + std::to_string(trial);
            for (const std::vector<int>& arr :
                 {arrivals, std::vector<int>(static_cast<std::size_t>(n), 2)}) {
                expect_matches_oracle(master, arr, trigger_method::exact, false, nullptr,
                                      where, tally);
                if (trial % 8 == 0) {
                    expect_matches_oracle(master, arr, trigger_method::exact, true,
                                          nullptr, where, tally);
                }
                if (n <= 6 && trial % 4 == 0) {
                    const bf::on_off_cover cover = bf::make_on_off_cover(master);
                    expect_matches_oracle(master, arr, trigger_method::cube_list, false,
                                          &cover, where, tally);
                }
                if (HasFatalFailure()) return;
            }
        }
    }

    // The masters of mapped wide-LUT netlists, under their real arrivals.
    for (const wl::scenario kind : {wl::scenario::lut6_dag, wl::scenario::lut8_datapath}) {
        const pl::map_result mapped =
            pl::map_to_phased_logic(wl::generate(wl::scenario_params(kind, 150, 5)));
        const std::vector<int> depth = mapped.pl.arrival_depth();
        for (pl::gate_id g = 0; g < mapped.pl.num_gates(); ++g) {
            const pl::pl_gate& gate = mapped.pl.gate(g);
            if (gate.kind != pl::gate_kind::compute || gate.data_in.size() < 2) continue;
            std::vector<int> arrivals;
            for (pl::edge_id e : gate.data_in) {
                arrivals.push_back(depth[mapped.pl.edge(e).from]);
            }
            const std::string where =
                std::string(wl::to_string(kind)) + " gate=" + std::to_string(g);
            expect_matches_oracle(gate.function, arrivals, trigger_method::exact, false,
                                  nullptr, where, tally);
            if (gate.function.num_vars() <= 6) {
                const bf::on_off_cover cover = bf::make_on_off_cover(gate.function);
                expect_matches_oracle(gate.function, arrivals, trigger_method::cube_list,
                                      false, &cover, where, tally);
            }
            if (HasFatalFailure()) return;
        }
    }

    // The sweep found winners, and the bound really skipped supports.
    EXPECT_GT(tally.bests, tally.searches / 4);
    EXPECT_LT(tally.derived, tally.supports);
}

// Property: a trigger firing on an assignment really determines the master.
class TriggerSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TriggerSoundness, TriggerImpliesConstantCofactor) {
    std::uint64_t state = GetParam();
    for (int trial = 0; trial < 20; ++trial) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const bf::truth_table master(4, state & 0xffff);
        if (master.support_size() < 2) continue;
        for (std::uint32_t s :
             bf::enumerate_support_subsets(master.support_mask(), 3)) {
            const bf::truth_table trig = exact_trigger_function(master, s);
            const std::vector<int> members = bf::support_members(s);
            for (std::uint32_t m = 0; m < master.num_minterms(); ++m) {
                std::uint32_t packed = 0;
                for (std::size_t i = 0; i < members.size(); ++i) {
                    if ((m >> members[i]) & 1u) packed |= 1u << i;
                }
                if (!trig.eval(packed)) continue;
                // All completions of this S-assignment agree with m's value.
                const std::uint32_t keep = s;
                for (std::uint32_t m2 = 0; m2 < master.num_minterms(); ++m2) {
                    if ((m2 & keep) == (m & keep)) {
                        EXPECT_EQ(master.eval(m2), master.eval(m));
                    }
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TriggerSoundness,
                         ::testing::Values(7u, 19u, 43u, 67u, 101u, 151u));

}  // namespace
}  // namespace plee::ee
