#include "ee/ee_transform.hpp"

#include <optional>

#include "fault/injector.hpp"
#include "obs/registry.hpp"
#include "rt/errors.hpp"

namespace plee::ee {

namespace {

struct search_job {
    pl::gate_id master = pl::k_invalid_gate;
    std::vector<int> pin_arrivals;
};

}  // namespace

ee_stats apply_early_evaluation(pl::pl_netlist& pl, const ee_options& options) {
    ee_stats stats;
    const std::vector<int> arrival = pl.arrival_depth();

    // Snapshot the candidate masters first: attaching triggers appends gates
    // and edges, which must not perturb the iteration or the arrival model.
    std::vector<search_job> jobs;
    for (pl::gate_id g = 0; g < pl.num_gates(); ++g) {
        const pl::pl_gate& gate = pl.gate(g);
        if (gate.kind != pl::gate_kind::compute || gate.data_in.size() < 2) {
            continue;
        }
        search_job job;
        job.master = g;
        job.pin_arrivals.reserve(gate.data_in.size());
        for (pl::edge_id e : gate.data_in) {
            job.pin_arrivals.push_back(arrival[pl.edge(e).from]);
        }
        jobs.push_back(std::move(job));
    }
    stats.masters_considered = jobs.size();

    // Phase 1 — search, read-only over the netlist, in gate order.  Every
    // 16 masters (sites 0, 16, 32, ...) the pass polls the cancel token,
    // checks the ee.search fault point under the job's scope and records an
    // ee.chunk event, so a throw leaves the netlist untouched.
    fault::injector::scope scope(fault::injector::hash(options.context));
    constexpr std::size_t k_chunk = 16;
    std::vector<std::optional<trigger_candidate>> best(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (i % k_chunk == 0) {
            if (options.cancel != nullptr && options.cancel->expired()) {
                throw job_timeout("ee.search", options.context, i);
            }
            fault::injector::instance().check("ee.search", i);
            if (options.recorder != nullptr) {
                options.recorder->record("ee.chunk", i, jobs.size());
            }
        }
        best[i] = find_best_trigger(pl.gate(jobs[i].master).function,
                                    jobs[i].pin_arrivals, options.search,
                                    &stats.supports_evaluated);
    }

    // Phase 2 — mutate, in gate order.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (!best[i]) continue;
        const pl::gate_id trig =
            pl.attach_trigger(jobs[i].master, best[i]->function, best[i]->support);
        stats.applied.push_back({jobs[i].master, trig, *best[i]});
        ++stats.triggers_added;
    }

    // Process-wide pass accounting; one flush per transform, not per gate.
    static obs::counter& masters =
        obs::registry::global().get_counter("ee.masters_considered");
    static obs::counter& supports =
        obs::registry::global().get_counter("ee.supports_evaluated");
    static obs::counter& triggers =
        obs::registry::global().get_counter("ee.triggers_added");
    masters.add(stats.masters_considered);
    supports.add(stats.supports_evaluated);
    triggers.add(stats.triggers_added);
    return stats;
}

}  // namespace plee::ee
