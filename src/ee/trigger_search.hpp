// trigger_search.hpp — generalized Early Evaluation trigger computation.
//
// This is the algorithmic core of the paper.  For a master PL gate computing
// f over up to four inputs, enumerate every proper support subset S of at
// most three inputs ("all 14 possible support sets" for a 4-input master) and
// derive the trigger function trig_S: trig_S(x_S) = 1 exactly when the
// assignment x_S already determines f's value — the master may then emit its
// output before the remaining inputs arrive, because their values are don't
// cares ("Each time the trigger function evaluates to '1', the master gate
// can go ahead and evaluate even if the input signal c has not arrived").
//
// Two derivations are provided:
//   * cube_list  — the paper's construction (Table 2): cubes of the f_ON and
//     f_OFF covers whose literals all lie inside S.  Its coverage depends on
//     the quality of the SOP cover.
//   * exact      — cofactor test per subset assignment; yields the maximal
//     trigger for S and is the default used in the experiments.
//
// Candidates are scored with Equation 1,
//     Cost = %Coverage * Mmax / Tmax,
// where Coverage is the fraction of master minterms (ON and OFF) the trigger
// covers, and Mmax/Tmax are the worst-case arrival depths (in PL gates from
// the primary inputs) of the master/trigger input signals.  Arrival depths
// start at 0 for signals straight from the environment or a register, so the
// implementation computes the ratio as (Mmax+1)/(Tmax+1), which is defined
// everywhere and preserves the paper's ordering ("weighted by the relative
// arrival times").

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "bool/cube_list.hpp"
#include "bool/truth_table.hpp"

namespace plee::ee {

enum class trigger_method : std::uint8_t {
    exact,      ///< cofactor-constancy per subset assignment (maximal coverage)
    cube_list,  ///< the paper's Table 2 procedure over f_ON / f_OFF covers
};

struct trigger_candidate {
    std::uint32_t support = 0;        ///< pin mask over the master's inputs
    bf::truth_table function{0};      ///< over the support pins (compressed arity)
    int covered_minterms = 0;         ///< master minterms (ON and OFF) determined
    double coverage_percent = 0.0;    ///< 100 * covered / 2^n
    int master_max_arrival = 0;       ///< Mmax
    int trigger_max_arrival = 0;      ///< Tmax
    double cost = 0.0;                ///< Equation 1 (with the +1 smoothing)
};

/// The exact trigger for support S: one output bit per assignment of the S
/// pins, set when the master cofactor under that assignment is constant.
/// The result's arity equals the number of pins in `support`.
///
/// Computed word-parallel: the conjunctive fold of the master (resp. its
/// complement) over the free variables marks the constant-1 (resp.
/// constant-0) cofactors in one shift/AND cascade, and shrinking the union
/// onto S yields the trigger — no per-minterm eval loop.
bf::truth_table exact_trigger_function(const bf::truth_table& master,
                                       std::uint32_t support);

/// The paper's cube-list trigger for support S: the union of ON- and
/// OFF-cover cubes confined to S, projected onto the S pins.  One
/// implementation, per support assignment: with the branch-and-bound, the
/// ON/OFF cover dominates a cube-list search and a word-parallel kernel
/// measured no faster.
bf::truth_table cube_list_trigger_function(const bf::truth_table& master,
                                           const bf::on_off_cover& cover,
                                           std::uint32_t support);

/// Master minterms determined by `trigger` (over `support`): every minterm
/// whose S-projection satisfies the trigger.  This is the paper's Coverage
/// numerator ("the percentage of minterms that are in common with the
/// trigger and master function (both 0 and 1-valued)").
int covered_minterms(const bf::truth_table& master, std::uint32_t support,
                     const bf::truth_table& trigger);

/// Equation 1 with the depth-zero smoothing documented above.
double equation1_cost(double coverage_percent, int master_max_arrival,
                      int trigger_max_arrival);

/// Scalar reference implementations of `exact_trigger_function` and
/// `covered_minterms`: per-minterm eval() loops, kept as the ground truth
/// the word-parallel versions are exhaustively cross-checked against (all
/// 2^16 LUT4 masters x all support sets) and as the baseline the speedup in
/// BENCH_trigger.json is measured from.  Semantically identical.
namespace scalar {
bf::truth_table exact_trigger_function(const bf::truth_table& master,
                                       std::uint32_t support);
int covered_minterms(const bf::truth_table& master, std::uint32_t support,
                     const bf::truth_table& trigger);
}  // namespace scalar

struct search_options {
    trigger_method method = trigger_method::exact;
    int max_support_size = 3;       ///< the paper's "3 or fewer variables"
    double cost_threshold = 0.0;    ///< implement only candidates with cost > threshold
    /// Require Tmax < Mmax: a trigger whose slowest input is as slow as the
    /// master's cannot produce an output any earlier.
    bool require_arrival_gain = true;
    /// Weight coverage by the Mmax/Tmax arrival ratio (Equation 1).  Turning
    /// this off selects by raw coverage only — the ablation the paper argues
    /// against ("a large coverage ... may depend on slowly arriving signals").
    bool weight_by_arrival = true;
    /// Route exact trigger derivation and coverage counting through the
    /// `scalar` reference kernels instead of the word-parallel ones (the
    /// cube-list derivation has one implementation).  For the cross-check
    /// tests and the baseline leg of bench_micro; results are identical
    /// either way.
    bool use_scalar_kernels = false;
};

/// Derives and scores the trigger for one support set, with the method and
/// kernels `options` selects and without the selection filters
/// (`require_arrival_gain`, `cost_threshold`, the best pick).  Returns nullopt when the support
/// yields no candidate at all: a constant-0 trigger, or full coverage (the
/// master never needed the other inputs — a synthesis artifact, not an
/// Early Evaluation opportunity).  For diagnostics, the Table 1/2
/// reproduction and tests that inspect every support; `find_best_trigger`
/// derives and scores each support it does not skip through this call.
/// `cover` is read only under `trigger_method::cube_list`: the master's
/// ON/OFF cover, for callers that evaluate many supports of one master;
/// null builds it here.
std::optional<trigger_candidate> evaluate_support(const bf::truth_table& master,
                                                  const std::vector<int>& pin_arrivals,
                                                  std::uint32_t support,
                                                  const search_options& options = {},
                                                  const bf::on_off_cover* cover = nullptr);

/// The best implementable candidate over every support subset of at most
/// `max_support_size` master inputs, or nullopt.  `pin_arrivals` holds the
/// arrival depth of each master input signal, pin-ordered.
///
/// Selection rule: a candidate is implementable when its cost exceeds
/// `cost_threshold` and, under `require_arrival_gain`, Tmax < Mmax.  The
/// best has the highest cost; ties go to more covered minterms, then to the
/// smaller support, then to the earlier support in
/// `bf::enumerate_support_subsets` order (by size, then by value), which
/// the search reads from a table built at compile time.
///
/// The search is a branch-and-bound.  Tmax comes from `pin_arrivals` before
/// any kernel runs, and a support is skipped without deriving its trigger
/// when `require_arrival_gain` rules it out, or when its upper bound
/// `equation1_cost(100, Mmax, Tmax)` (100 without `weight_by_arrival`) is
/// strictly below the running best's cost.  The skip is exact: an
/// implementable candidate covers under 100% (full coverage is rejected),
/// IEEE multiply and divide are monotone, so its cost is at most the bound
/// and it could neither beat nor tie the running best.  The result is the
/// one an unpruned argmax over `evaluate_support` gives.
///
/// `supports_evaluated`, when non-null, is increased by the number of
/// supports whose trigger was actually derived.
std::optional<trigger_candidate> find_best_trigger(const bf::truth_table& master,
                                                   const std::vector<int>& pin_arrivals,
                                                   const search_options& options = {},
                                                   std::size_t* supports_evaluated = nullptr);

}  // namespace plee::ee
