// plee_fleet — command-line driver for the Phased Logic / Early Evaluation
// pipeline, over one circuit or a sharded batch of them (a single-circuit
// run is a fleet of one).
//
//   plee_fleet --circuits b05 --report                 one benchmark circuit
//   plee_fleet --circuits design.blif --dot pl.dot     one imported netlist
//   plee_fleet --circuits 8 --scenario datapath-like   synthetic fleet
//   plee_fleet --circuits itc99                        the full Table 3 suite
//   plee_fleet --circuits b05,b07,b10                  selected benchmarks
//
// Options:
//   --circuits X   fleet contents: a count (synthetic workloads), "itc99",
//                  or a comma-separated list of benchmark ids and BLIF
//                  files (recognised by a .blif suffix)       (default 8)
//   --scenario S   synthetic scenario preset: random-dag | datapath-like |
//                  control-fsm | wide-adder | lut6-dag | lut8-datapath |
//                  mixed                                      (default mixed)
//   --gates G      LUTs per synthetic netlist                 (default 150)
//   --seed S       generator + stimulus seed                  (default fixed)
//   --threads N    worker pool size, 0 = hardware_concurrency (default 0);
//                  at most one thread per job, each job runs serially
//                  (results are bit-identical at any count)
//   --vectors V    random vectors per measurement             (default 20)
//   --threshold X  EE cost threshold (Equation 1 units)       (default 0)
//   --method M     trigger derivation: exact | cube           (default exact)
//   --queue Q      simulator engine: sweep (the wave sweep; alias calendar)
//                  | heap (the event-loop oracle); results are bit-identical
//   --lanes L      stimulus lanes per engine pass: 1 | 64     (default 1)
//   --delays D     delay model: default | tie (all components 1.0 — the
//                  lane-divergence stressor: every EE race is a tie)
//   --no-check     skip the per-firing EE invariant check in the simulator
//   --json PATH    write the fleet result (summary + rows) as JSON
//
// Per-circuit artifacts (only when --circuits names exactly one circuit;
// the tool rebuilds that circuit's EE'd PL netlist after the fleet runs):
//   --report         marked-graph check (marked_graph::verify(); a
//                    violation exits 1) and per-trigger detail (support,
//                    coverage, cost)
//   --dot PATH       the PL netlist (post-EE) as Graphviz
//   --vcd PATH       a token waveform of the first (up to 10) vectors
//   --blif-out PATH  the synchronous netlist as BLIF
//
// Fault tolerance (see src/runner/README.md for the full semantics):
//   --job-deadline-ms MS   per-job wall-clock deadline (0 = none)
//   --inject SPEC          arm the deterministic fault injector, e.g.
//                          'seed=42;ee.search=0.5;sim.fire=1:delay=5' (points
//                          and fates in the usage text); an unknown point
//                          name is a usage error (exit 1).
//
// Telemetry (see src/obs/README.md and docs/schemas.md):
//   --metrics-out PATH     write the process metrics registry as Prometheus
//                          text exposition after the fleet completes
//   --trace-out PATH       write a JSONL telemetry stream: one record per
//                          job (stage spans; flight-recorder dump for non-ok
//                          jobs) plus one final registry-snapshot record
//   --no-telemetry         run with telemetry compiled in but unwired (the
//                          baseline arm of the overhead A/B)
//
// Every circuit runs the full synth -> PL-map -> EE -> simulate pipeline
// with golden-model verification.  Exit status: 0 = every job ok,
// 2 = fleet completed but some jobs failed/timed out (partial results) or
// the run was interrupted, 1 = fatal (bad arguments, unreadable or
// malformed BLIF, artifact write failure, a --report marked-graph
// violation, internal error).  Each job runs
// once: the pipeline is deterministic, so a failed job would fail again.
//
// SIGINT/SIGTERM: the first signal cancels the fleet cooperatively (queued
// jobs never start) and still flushes the partial results to every
// requested sink before exiting 2; a second signal hard-exits (130).

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_circuits/itc99.hpp"
#include "bool/support.hpp"
#include "ee/ee_transform.hpp"
#include "fault/injector.hpp"
#include "netlist/blif.hpp"
#include "obs/registry.hpp"
#include "obs/sink.hpp"
#include "plogic/pl_mapper.hpp"
#include "report/json.hpp"
#include "report/table.hpp"
#include "rt/atomic_write.hpp"
#include "rt/cancel.hpp"
#include "runner/runner.hpp"
#include "sim/measure.hpp"
#include "sim/vcd.hpp"
#include "workload/workload.hpp"

using namespace plee;

namespace {

void usage() {
    std::fprintf(
        stderr,
        "usage: plee_fleet [--circuits N|itc99|bXX,FILE.blif,...] "
        "[--scenario S|mixed]\n"
        "       [--gates G] [--seed S] [--threads N] [--vectors V]\n"
        "       [--threshold X] [--method exact|cube]\n"
        "       [--queue sweep|heap] [--lanes 1|64]\n"
        "       [--delays default|tie] [--no-check]\n"
        "       [--report] [--dot PATH] [--vcd PATH] [--blif-out PATH]\n"
        "       [--job-deadline-ms MS] [--inject SPEC] [--json PATH]\n"
        "       [--metrics-out PATH] [--trace-out PATH] [--no-telemetry]\n"
        "\n"
        "  --inject points: synth.map ee.search sim.fire\n"
        "  --inject fates:  PROB (throw) | PROB:delay=MS\n"
        "  --report/--dot/--vcd/--blif-out need exactly one circuit\n");
}

/// Bad command line: main prints the message and the usage text, exit 1.
struct usage_error : std::runtime_error {
    using std::runtime_error::runtime_error;
};

/// The one numeric-flag parser: all of `text` must be a number in [lo, hi].
/// Empty, partial ("1O0") and out-of-range values are usage errors naming
/// the flag.
template <typename T>
T parse_number(const std::string& flag, const char* text,
               T lo = std::numeric_limits<T>::lowest(),
               T hi = std::numeric_limits<T>::max()) {
    T value{};
    const char* end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec != std::errc{} || ptr != end || !(value >= lo && value <= hi)) {
        throw usage_error(flag + ": invalid value '" + text + "'");
    }
    return value;
}

struct cli_options {
    std::string circuits = "8";
    std::string scenario = "mixed";
    std::size_t gates = 150;
    bool seed_given = false;
    bool report = false;
    std::string json_path, metrics_path, trace_path, inject_spec;
    std::string dot_path, vcd_path, blif_out;
    runner::fleet_options fleet;

    bool per_circuit() const {
        return report || !dot_path.empty() || !vcd_path.empty() ||
               !blif_out.empty();
    }
};

cli_options parse(int argc, char** argv) {
    cli_options o;
    report::experiment_options& ex = o.fleet.experiment;
    ex.measure.num_vectors = 20;
    const std::pair<const char*, std::string*> text_options[] = {
        {"--circuits", &o.circuits},     {"--scenario", &o.scenario},
        {"--dot", &o.dot_path},          {"--vcd", &o.vcd_path},
        {"--blif-out", &o.blif_out},     {"--inject", &o.inject_spec},
        {"--json", &o.json_path},        {"--metrics-out", &o.metrics_path},
        {"--trace-out", &o.trace_path}};
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char* {
            if (i + 1 >= argc) throw usage_error(arg + ": missing value");
            return argv[++i];
        };
        const auto text = std::find_if(
            std::begin(text_options), std::end(text_options),
            [&](const auto& option) { return arg == option.first; });
        if (text != std::end(text_options)) {
            *text->second = value();
        } else if (arg == "--gates") {
            o.gates = parse_number<std::size_t>(arg, value(), 1);
        } else if (arg == "--seed") {
            ex.measure.seed = parse_number<std::uint64_t>(arg, value());
            o.seed_given = true;
        } else if (arg == "--threads") {
            o.fleet.num_threads = parse_number<unsigned>(arg, value());
        } else if (arg == "--vectors") {
            ex.measure.num_vectors = parse_number<std::size_t>(arg, value(), 1);
        } else if (arg == "--threshold") {
            ex.ee.search.cost_threshold = parse_number<double>(arg, value());
        } else if (arg == "--method") {
            const std::string v = value();
            if (v == "exact") {
                ex.ee.search.method = ee::trigger_method::exact;
            } else if (v == "cube") {
                ex.ee.search.method = ee::trigger_method::cube_list;
            } else {
                throw usage_error(arg + ": expected exact or cube, got '" + v +
                                  "'");
            }
        } else if (arg == "--queue") {
            ex.measure.sim.queue = sim::queue_kind_from_string(value());
        } else if (arg == "--lanes") {
            const char* v = value();
            ex.measure.lanes = parse_number<std::size_t>(arg, v);
            if (ex.measure.lanes != 1 && ex.measure.lanes != sim::k_lanes) {
                throw usage_error(arg + ": expected 1 or 64, got '" + v + "'");
            }
        } else if (arg == "--lane-policy") {
            throw usage_error("--lane-policy was removed: --lanes 64 always "
                              "runs the one-wave lane sweep");
        } else if (arg == "--delays") {
            const std::string v = value();
            // Every delay component equal: all EE races tie, so mixed efire
            // words (and thus lane splits) are as frequent as possible.
            if (v == "tie") {
                ex.measure.sim.delays = {1.0, 1.0, 1.0, 1.0, 1.0};
            } else if (v != "default") {
                throw usage_error(arg + ": expected default or tie, got '" + v +
                                  "'");
            }
        } else if (arg == "--no-check") {
            ex.measure.sim.check_early_value = false;
        } else if (arg == "--report") {
            o.report = true;
        } else if (arg == "--job-deadline-ms") {
            o.fleet.job_deadline_ms = parse_number<double>(arg, value(), 0.0);
        } else if (arg == "--no-telemetry") {
            o.fleet.telemetry = false;
        } else {
            throw usage_error("unknown option: " + arg);
        }
    }
    return o;
}

/// Fleet-wide interrupt: the first SIGINT/SIGTERM trips the cancel token
/// (one atomic store — async-signal-safe) and the main path finishes with
/// partial results + flushed sinks; a second signal hard-exits.
cancel_token g_interrupt;
std::atomic<int> g_signal_count{0};

extern "C" void on_signal(int) {
    if (g_signal_count.fetch_add(1, std::memory_order_relaxed) == 0) {
        g_interrupt.cancel();
    } else {
        ::_exit(130);
    }
}

bool interrupted() {
    return g_signal_count.load(std::memory_order_relaxed) > 0;
}

/// Every file the tool writes goes through the atomic-rename path, so a
/// failed write is an exception naming the path, never a silent "wrote".
void write_file(const std::string& path, const std::string& text) {
    atomic_write_text(path, text);
    std::printf("wrote %s\n", path.c_str());
}

/// The --trace-out JSONL stream: one "job" record per job, one trailing
/// "metrics" record with the registry snapshot.
std::string trace_jsonl(const runner::fleet_result& fleet) {
    std::string out;
    for (const runner::job_result& r : fleet.results) {
        report::json rec = report::json::object();
        rec.set("type", report::json::str("job"));
        rec.set("id", report::json::str(r.id));
        rec.set("status", report::json::str(runner::to_string(r.status)));
        rec.set("wall_ms", report::json::number(r.wall_ms));
        if (!r.error.empty()) rec.set("error", report::json::str(r.error));
        rec.set("spans", obs::spans_to_json(r.spans));
        if (!r.flight.empty()) {
            rec.set("flight_recorder", obs::flight_to_json(r.flight));
        }
        out += rec.dump_compact();
        out += '\n';
    }
    report::json rec = report::json::object();
    rec.set("type", report::json::str("metrics"));
    rec.set("metrics",
            obs::metrics_to_json(obs::registry::global().snapshot()));
    out += rec.dump_compact();
    out += '\n';
    return out;
}

std::vector<std::string> split_ids(const std::string& list) {
    std::vector<std::string> ids;
    std::istringstream in(list);
    for (std::string id; std::getline(in, id, ',');) {
        if (!id.empty()) ids.push_back(id);
    }
    return ids;
}

std::vector<runner::fleet_job> build_jobs(const cli_options& o) {
    std::vector<runner::fleet_job> jobs;
    const auto add = [&](const std::string& id, nl::netlist netlist) {
        jobs.push_back({id, id, std::move(netlist)});
    };
    const bool synthetic =
        o.circuits.find_first_not_of("0123456789") == std::string::npos;
    std::vector<std::string> ids;
    if (o.circuits == "itc99") {
        for (const bench::benchmark_info& info : bench::itc99_suite()) {
            ids.push_back(info.id);
        }
    } else if (!synthetic) {
        ids = split_ids(o.circuits);
    }
    const std::size_t count =
        synthetic ? parse_number<std::size_t>("--circuits", o.circuits.c_str(), 1)
                  : ids.size();
    if (o.per_circuit() && count != 1) {
        throw usage_error("--report/--dot/--vcd/--blif-out need exactly one "
                          "circuit");
    }
    // The generator seed defaults to a small fixed value; the large fixed
    // stimulus seed stays on the measurement side.
    const std::uint64_t gen_seed =
        o.seed_given ? o.fleet.experiment.measure.seed : 1;
    for (std::size_t i = 0; synthetic && i < count; ++i) {
        const wl::scenario kind =
            o.scenario == "mixed"
                ? wl::all_scenarios()[i % wl::all_scenarios().size()]
                : wl::scenario_from_string(o.scenario);
        add(std::string(wl::to_string(kind)) + "/" + std::to_string(i),
            wl::generate(wl::scenario_params(kind, o.gates, gen_seed + i)));
    }
    for (const std::string& id : ids) {
        if (!id.ends_with(".blif")) {
            add(id, bench::build_benchmark(id));
            continue;
        }
        std::ifstream in(id);
        if (!in) throw std::runtime_error("cannot open " + id);
        add(id, nl::from_blif(in));  // malformed input: typed blif_error
    }
    return jobs;
}

/// Writes the per-circuit artifacts of a fleet of one.  The pipeline is
/// deterministic, so re-running its map and EE stages with the fleet's
/// options rebuilds exactly the netlist the row measured; the trigger count
/// is checked against the row to keep that contract honest.
void write_artifacts(const cli_options& o, const runner::fleet_job& job,
                     const report::experiment_row& row) {
    if (!o.blif_out.empty()) {
        const std::string model = job.id.ends_with(".blif") ? "imported" : job.id;
        write_file(o.blif_out, nl::to_blif(job.netlist, model));
    }
    if (!o.report && o.dot_path.empty() && o.vcd_path.empty()) return;
    const report::experiment_options& ex = o.fleet.experiment;
    pl::map_result mapped = pl::map_to_phased_logic(job.netlist, ex.map);
    ee::ee_options eo = ex.ee;
    eo.cancel = &g_interrupt;
    const ee::ee_stats stats = ee::apply_early_evaluation(mapped.pl, eo);
    if (mapped.pl.num_trigger_gates() != row.ee_gates) {
        throw std::logic_error(
            "rebuilt netlist has " +
            std::to_string(mapped.pl.num_trigger_gates()) +
            " trigger gates, the fleet row " + std::to_string(row.ee_gates));
    }
    if (o.report) {
        // The pipeline leaves the marked-graph check to the simulator; the
        // report runs the dense oracle on the netlist it rebuilt.
        const pl::mg_report health = mapped.pl.verify();
        if (!health.ok()) {
            throw std::runtime_error("marked graph: " + health.violation);
        }
        std::printf("marked graph: well-formed live safe\n");
        report::text_table t({"master", "support pins", "trigger", "coverage",
                              "Mmax", "Tmax", "cost"});
        for (const ee::applied_trigger& at : stats.applied) {
            std::string pins;
            for (int p : bf::support_members(at.candidate.support)) {
                if (!pins.empty()) pins += ",";
                pins += std::to_string(p);
            }
            const std::string& name = mapped.pl.gate(at.master).name;
            t.add_row({name.empty() ? "g" + std::to_string(at.master) : name,
                       pins, at.candidate.function.to_string(),
                       report::fmt(at.candidate.coverage_percent, 0) + "%",
                       std::to_string(at.candidate.master_max_arrival),
                       std::to_string(at.candidate.trigger_max_arrival),
                       report::fmt(at.candidate.cost, 1)});
        }
        std::printf("%s", t.to_string().c_str());
    }
    if (!o.dot_path.empty()) {
        write_file(o.dot_path, mapped.pl.to_dot("plee_fleet"));
    }
    if (!o.vcd_path.empty()) {
        // Lane tokens carry no single trace value, so the waveform comes
        // from a short dedicated scalar run that keeps the file readable.
        sim::sim_options sopts = ex.measure.sim;
        sopts.collect_trace = true;
        sim::pl_simulator tracer(mapped.pl, sopts);
        tracer.run(sim::random_vectors(
            std::min<std::size_t>(ex.measure.num_vectors, 10),
            mapped.pl.sources().size(), ex.measure.seed));
        write_file(o.vcd_path, sim::to_vcd(mapped.pl, tracer.trace()));
    }
}

}  // namespace

int main(int argc, char** argv) {
    try {
        cli_options o;
        try {
            // Unknown queue kinds, injection points and malformed inject
            // specs are usage errors, not silently-inert configuration.
            o = parse(argc, argv);
            if (!o.inject_spec.empty()) {
                fault::injector::instance().configure(o.inject_spec);
            }
        } catch (const std::invalid_argument& e) {
            throw usage_error(e.what());
        }
        const std::vector<runner::fleet_job> jobs = build_jobs(o);
        std::signal(SIGINT, on_signal);
        std::signal(SIGTERM, on_signal);
        o.fleet.fleet_cancel = &g_interrupt;
        const runner::fleet_result fleet = runner::run_fleet(jobs, o.fleet);

        report::text_table t({"Circuit", "Status", "PL Gates", "EE Gates",
                              "Delay (ns)", "Delay EE (ns)", "% Delay Decr.",
                              "Wall (ms)"});
        for (const runner::job_result& r : fleet.results) {
            t.add_row({r.id, runner::to_string(r.status),
                       std::to_string(r.row.pl_gates),
                       std::to_string(r.row.ee_gates),
                       report::fmt(r.row.delay_no_ee, 1),
                       report::fmt(r.row.delay_ee, 1),
                       report::fmt(r.row.delay_decrease_pct, 0) + "%",
                       report::fmt(r.wall_ms, 1)});
            if (!r.error.empty()) {
                std::fprintf(stderr, "plee_fleet: %s: %s\n", r.id.c_str(),
                             r.error.c_str());
            }
        }
        std::printf("%s\n", t.to_string().c_str());
        std::printf("fleet: %zu netlists, %u threads, %.0f ms wall, %.2f "
                    "netlists/s, %.0f sweeps/s\n",
                    fleet.results.size(), fleet.threads, fleet.wall_ms,
                    fleet.netlists_per_s(), fleet.sweeps_per_s());
        std::printf("status: %zu ok, %zu failed, %zu timed out, %zu budget "
                    "exhausted\n",
                    fleet.jobs_ok, fleet.jobs_failed, fleet.jobs_timed_out,
                    fleet.jobs_budget_exhausted);
        const sim::measure_options& measure = o.fleet.experiment.measure;
        std::printf("simulator (%s queue, %zu lanes): %llu events in %.0f ms "
                    "of summed shard time = %.0f events/s per core, %.0f "
                    "vectors/s\n",
                    sim::to_string(measure.sim.queue), measure.lanes,
                    static_cast<unsigned long long>(fleet.total_sim_events),
                    fleet.total_sim_wall_ms, fleet.sim_events_per_s(),
                    fleet.vectors_per_s());

        if (!fleet.delay_hist_no_ee.empty() && !fleet.delay_hist_ee.empty()) {
            // The paper's comparison as a distribution, not a mean: fleet-wide
            // per-vector completion-time percentiles, ns (recorded in ps).
            const obs::hist_snapshot& h0 = fleet.delay_hist_no_ee;
            const obs::hist_snapshot& h1 = fleet.delay_hist_ee;
            std::printf("delay p50/p90/p99/max (ns): plain %.1f/%.1f/%.1f/%.1f"
                        " -> ee %.1f/%.1f/%.1f/%.1f\n",
                        h0.value_at_percentile(50) / 1e3,
                        h0.value_at_percentile(90) / 1e3,
                        h0.value_at_percentile(99) / 1e3, h0.max / 1e3,
                        h1.value_at_percentile(50) / 1e3,
                        h1.value_at_percentile(90) / 1e3,
                        h1.value_at_percentile(99) / 1e3, h1.max / 1e3);
        }

        // The sinks describe the fleet run, so they flush before the
        // artifact rebuild can add its own EE search to the registry.
        if (!o.json_path.empty()) {
            report::json root = runner::to_json(fleet);
            root.set("bench", report::json::str("plee_fleet"));
            write_file(o.json_path, root.dump());
        }
        if (!o.metrics_path.empty()) {
            write_file(o.metrics_path,
                       obs::to_prometheus(obs::registry::global().snapshot()));
        }
        if (!o.trace_path.empty()) write_file(o.trace_path, trace_jsonl(fleet));
        if (interrupted()) {
            std::fprintf(stderr,
                         "plee_fleet: interrupted — partial results and all "
                         "sinks flushed\n");
            return 2;
        }
        if (!fleet.all_ok()) return 2;
        if (o.per_circuit()) {
            write_artifacts(o, jobs.front(), fleet.results.front().row);
        }
        return 0;
    } catch (const usage_error& e) {
        std::fprintf(stderr, "plee_fleet: %s\n", e.what());
        usage();
        return 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "plee_fleet: %s\n", e.what());
        return interrupted() ? 2 : 1;
    }
}
