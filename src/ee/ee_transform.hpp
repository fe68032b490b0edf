// ee_transform.hpp — the Early Evaluation synthesis pass over a PL netlist.
//
// "EE circuitry was added to all PL gates where a speedup was possible"
// (Section 4): for every compute gate, run the trigger search weighted by the
// gate's input arrival depths; when an implementable candidate exists, attach
// a trigger gate (the paper's master/trigger EE pair, Figure 2).  The search
// (`find_best_trigger`) is a branch-and-bound that derives only the support
// sets that can still win; `ee_stats::supports_evaluated` counts them.  The added
// edges form single-token cycles by construction, so liveness and safety are
// preserved; the postcondition is tested against marked_graph::verify().
//
// Setting `search.cost_threshold` > 0 reproduces the paper's area/delay
// trade-off: "Thresholding the cost function allows for a tradeoff in area
// versus delay of a PL circuit."

#pragma once

#include <string>
#include <vector>

#include "ee/trigger_search.hpp"
#include "obs/flight_recorder.hpp"
#include "plogic/pl_netlist.hpp"
#include "rt/cancel.hpp"

namespace plee::ee {

struct ee_options {
    search_options search;
    /// Ignored: the pass is one serial loop.  Kept only because the
    /// repository benchmark's harness still assigns it; nothing else sets it.
    unsigned num_threads = 0;
    /// Cooperative cancellation: the search polls the token every 16
    /// masters and raises plee::job_timeout when it has expired, so a
    /// pathological search stops within 16 masters of extra work.  Not
    /// owned; null = never cancelled.
    cancel_token* cancel = nullptr;
    /// Job context for cancellation messages and fault-injection scoping
    /// (the job id, e.g. "b05").  Empty is fine for standalone passes.
    std::string context;
    /// Flight recorder: the search records an "ee.chunk" event every 16
    /// masters (the cancel poll's cadence), so a post-mortem shows how deep
    /// the trigger search got.  Not owned; null = off.
    obs::flight_recorder* recorder = nullptr;
};

/// One applied master/trigger pair, for reporting.
struct applied_trigger {
    pl::gate_id master = pl::k_invalid_gate;
    pl::gate_id trigger = pl::k_invalid_gate;
    trigger_candidate candidate;
};

struct ee_stats {
    std::size_t masters_considered = 0;
    /// Support sets whose trigger the search actually derived, summed over
    /// the masters; the branch-and-bound skips the rest (see
    /// `find_best_trigger`).
    std::size_t supports_evaluated = 0;
    std::size_t triggers_added = 0;
    std::vector<applied_trigger> applied;
};

/// Applies Early Evaluation in place, in one serial pass: search every
/// master in gate order, then attach the triggers in gate order.  Arrival
/// depths are computed once on the incoming netlist (the paper's static
/// arrival model).  A cancel or injected fault raised during the search
/// leaves the netlist unchanged.
ee_stats apply_early_evaluation(pl::pl_netlist& pl, const ee_options& options = {});

}  // namespace plee::ee
