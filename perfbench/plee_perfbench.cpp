// plee_perfbench.cpp — the repository benchmark harness.
//
// Runs one named workload through the real pipeline (runner::run_fleet ->
// report::run_ee_experiment -> PL map -> EE -> measure -> golden check) and
// prints one JSON report on stdout: end-to-end metrics from untraced fleet
// passes, per-layer metrics from a separate traced run, an environment stamp
// and the correctness verdict.  perfbench/run.py builds this program and
// turns the report into the benchmark's result line; see perfbench/README.md.
//
//   plee_perfbench --workload itc99-seq|wide-lut|lut4-lanes --seed N
//                  --seconds S [--trace 0|1] [--revision TEXT]
//
// Every fleet pass is a fresh run_fleet with default options on one worker
// thread, so each pass pays the cold trigger memo exactly like one
// plee_fleet invocation.  Each circuit's row (gates, delays, simulator and EE
// counters) must be bit-identical across passes and between the fleet passes
// and the traced run; any difference, failed job or golden mismatch counts as
// a failed circuit-job and makes the program exit 1.
//
// The harness reads counters that later changes may delete (the trigger
// memo counters, the lane-run counters) through requires-guarded access, so
// it keeps compiling; such metrics then report as absent.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_circuits/itc99.hpp"
#include "bool/splitmix64.hpp"
#include "ee/ee_transform.hpp"
#include "netlist/sync_sim.hpp"
#include "plogic/pl_mapper.hpp"
#include "report/experiment.hpp"
#include "report/json.hpp"
#include "runner/runner.hpp"
#include "rt/wall_timer.hpp"
#include "sim/measure.hpp"
#include "sim/stimulus.hpp"
#include "workload/workload.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace plee;
using json = report::json;

/// Version of this program's report shape.
constexpr int k_schema_version = 1;

/// Table 3's "% delay decrease" column (the paper's ITC99 results), the
/// reference for report.paper_delay_gap_pct.  Same figures as k_paper in
/// bench/bench_table3_itc99.cpp.
struct paper_delay {
    const char* id;
    double delay_decrease_pct;
};
constexpr paper_delay k_paper_delay[] = {
    {"b01", 12}, {"b02", 0},  {"b03", -2}, {"b04", -1}, {"b05", 10},
    {"b06", -3}, {"b07", 23}, {"b08", 21}, {"b09", 2},  {"b10", 6},
    {"b11", 30}, {"b12", 9},  {"b13", 9},  {"b14", 38}, {"b15", 45},
};

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct workload_spec {
    const char* name;
    std::size_t lanes;
    std::size_t vectors;
};

constexpr workload_spec k_workloads[] = {
    // The paper's experiment: ITC99 b01-b15, sequential waves, 100 vectors.
    {"itc99-seq", 1, 100},
    // Wide-arity synthetic masters: the trigger search dominates.
    {"wide-lut", 1, 10},
    // LUT4 presets through the 64-lane engine and lane golden model.
    {"lut4-lanes", sim::k_lanes, 640},
};

constexpr std::size_t k_wide_circuits = 15;
constexpr std::size_t k_wide_gates = 150;
constexpr std::size_t k_lut4_circuits = 24;
constexpr std::size_t k_lut4_gates = 400;

const workload_spec* find_workload(const std::string& name) {
    for (const workload_spec& w : k_workloads) {
        if (name == w.name) return &w;
    }
    return nullptr;
}

/// The workload's jobs, built from the seed.  This is the set-up step.
std::vector<runner::fleet_job> build_jobs(const workload_spec& spec,
                                          std::uint64_t seed) {
    std::vector<runner::fleet_job> jobs;
    // Circuit i's generator seed mixes the workload seed first, so nearby
    // workload seeds share no circuits.
    const std::uint64_t base = bf::splitmix64(seed);
    const auto synthetic = [&](const std::vector<wl::scenario>& kinds,
                               std::size_t count, std::size_t gates) {
        for (std::size_t i = 0; i < count; ++i) {
            const wl::scenario kind = kinds[i % kinds.size()];
            runner::fleet_job job;
            job.id = std::string(wl::to_string(kind)) + "/" + std::to_string(i);
            job.description = job.id;
            job.netlist = wl::generate(
                wl::scenario_params(kind, gates, bf::splitmix64(base + i)));
            jobs.push_back(std::move(job));
        }
    };
    const std::string name = spec.name;
    if (name == "itc99-seq") {
        for (const bench::benchmark_info& info : bench::itc99_suite()) {
            runner::fleet_job job;
            job.id = info.id;
            job.description = info.description;
            job.netlist = bench::build_benchmark(info.id);
            jobs.push_back(std::move(job));
        }
    } else if (name == "wide-lut") {
        synthetic({wl::scenario::lut6_dag, wl::scenario::lut8_datapath},
                  k_wide_circuits, k_wide_gates);
    } else {
        synthetic({wl::scenario::random_dag, wl::scenario::datapath_like,
                   wl::scenario::control_fsm, wl::scenario::wide_adder},
                  k_lut4_circuits, k_lut4_gates);
    }
    return jobs;
}

/// The measurement settings every pass (fleet and traced) uses.
sim::measure_options measure_settings(const workload_spec& spec,
                                      std::uint64_t seed) {
    sim::measure_options m;
    m.num_vectors = spec.vectors;
    m.lanes = spec.lanes;
    m.seed = bf::splitmix64(~seed);
    return m;
}

runner::fleet_options fleet_settings(const workload_spec& spec,
                                     std::uint64_t seed, bool telemetry) {
    runner::fleet_options o;
    o.num_threads = 1;
    o.telemetry = telemetry;
    o.experiment.measure = measure_settings(spec, seed);
    return o;
}

// ---------------------------------------------------------------------------
// Guarded access to counters that later changes may delete.
// ---------------------------------------------------------------------------

template <class Stats>
std::optional<std::uint64_t> memo_hits(const Stats& s) {
    if constexpr (requires { s.cache_hits; }) return s.cache_hits;
    return std::nullopt;
}
template <class Stats>
std::optional<std::uint64_t> memo_misses(const Stats& s) {
    if constexpr (requires { s.cache_misses; }) return s.cache_misses;
    return std::nullopt;
}
template <class Stats>
std::optional<std::uint64_t> lane_runs(const Stats& s) {
    if constexpr (requires { s.lane_runs; }) return s.lane_runs;
    return std::nullopt;
}
template <class Stats>
std::optional<std::uint64_t> lane_blocks(const Stats& s) {
    if constexpr (requires { s.lane_blocks; }) return s.lane_blocks;
    return std::nullopt;
}
template <class Stats>
std::optional<std::uint64_t> lane_forks(const Stats& s) {
    if constexpr (requires { s.lane_forks; }) return s.lane_forks;
    return std::nullopt;
}

/// Sum of an optional counter over many records: absent if any is absent.
struct opt_sum {
    std::optional<std::uint64_t> total = 0;
    void add(std::optional<std::uint64_t> v) {
        total = total && v ? std::optional<std::uint64_t>(*total + *v)
                           : std::nullopt;
    }
};

// ---------------------------------------------------------------------------
// Row fingerprints: what must repeat bit for bit.
// ---------------------------------------------------------------------------

struct sim_counts {
    std::uint64_t events = 0;
    std::uint64_t firings = 0;
    std::uint64_t ee_hits = 0;
    std::uint64_t ee_misses = 0;
    std::uint64_t ee_wins = 0;
    bool operator==(const sim_counts&) const = default;
};

sim_counts counts_of(const sim::sim_run_stats& s) {
    return {s.events, s.firings, s.ee_hits, s.ee_misses, s.ee_wins};
}

struct fingerprint {
    std::size_t pl_gates = 0;
    std::size_t ee_gates = 0;
    std::size_t masters = 0;
    std::size_t triggers = 0;
    double delay_no_ee = 0.0;
    double delay_ee = 0.0;
    sim_counts no_ee;
    sim_counts ee;
    bool operator==(const fingerprint&) const = default;
};

fingerprint fingerprint_of(const report::experiment_row& row) {
    return {row.pl_gates,
            row.ee_gates,
            row.ee_detail.masters_considered,
            row.ee_detail.triggers_added,
            row.delay_no_ee,
            row.delay_ee,
            counts_of(row.stats_no_ee),
            counts_of(row.stats_ee)};
}

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median of one field over a list of records.
template <class T>
double median_of(const std::vector<T>& records, double T::*field) {
    std::vector<double> v;
    v.reserve(records.size());
    for (const T& r : records) v.push_back(r.*field);
    return median(std::move(v));
}

/// Nearest-rank percentile (p in (0, 100]).
double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const std::size_t idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double ms_to_s(double ms) { return ms / 1e3; }

/// Peak resident memory of this process image, from /proc/self/status
/// (VmHWM; getrusage's ru_maxrss would also count the parent's image the
/// process was forked from).  0 when unavailable.
double peak_rss_mb() {
    std::FILE* status = std::fopen("/proc/self/status", "r");
    if (status == nullptr) return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof line, status) != nullptr) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            kib = std::strtod(line + 6, nullptr);
            break;
        }
    }
    std::fclose(status);
    return kib / 1024.0;
}

unsigned online_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
    return static_cast<unsigned>(CPU_COUNT(&set));
}

// ---------------------------------------------------------------------------
// The report.
// ---------------------------------------------------------------------------

class metric_table {
public:
    void put(const std::string& name, double value, const char* unit,
             std::size_t samples) {
        json m = json::object();
        m.set("value", json::number(value));
        m.set("unit", json::str(unit));
        m.set("samples", json::number(samples));
        metrics_.set(name, std::move(m));
    }
    void absent(const std::string& name, const char* unit) {
        json m = json::object();
        m.set("absent", json::boolean(true));
        m.set("unit", json::str(unit));
        metrics_.set(name, std::move(m));
    }
    void put_opt(const std::string& name, std::optional<double> value,
                 const char* unit, std::size_t samples) {
        if (value) {
            put(name, *value, unit, samples);
        } else {
            absent(name, unit);
        }
    }
    json take() { return std::move(metrics_); }

private:
    json metrics_ = json::object();
};

/// Correctness bookkeeping over every circuit-job the run attempts.
struct verdict {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> failures;  ///< first few, for the report

    void fail(const std::string& why) {
        ++failed;
        if (failures.size() < 16) failures.push_back(why);
    }
};

/// The first fleet pass's rows; every later row is compared against them.
using reference = std::vector<report::experiment_row>;

/// Checks one fleet pass: statuses, golden check (a mismatch fails the job)
/// and bit-identical rows.
void check_fleet(const runner::fleet_result& fleet,
                 const std::vector<runner::fleet_job>& jobs,
                 std::optional<reference>& ref, verdict& v,
                 const char* pass_kind) {
    if (!ref) {
        ref.emplace();
        for (const runner::job_result& r : fleet.results) ref->push_back(r.row);
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        ++v.attempted;
        const runner::job_result& r = fleet.results[i];
        if (r.status != runner::job_status::ok) {
            v.fail(std::string(pass_kind) + " " + jobs[i].id + ": " +
                   runner::to_string(r.status) + " " + r.error);
        } else if (!(fingerprint_of(r.row) == fingerprint_of((*ref)[i]))) {
            v.fail(std::string(pass_kind) + " " + jobs[i].id +
                   ": row differs from the first pass");
        }
    }
}

// ---------------------------------------------------------------------------
// The traced run: each layer's entry point timed from outside.
// ---------------------------------------------------------------------------

struct layer_totals {
    double map_ms = 0.0;
    double ee_ms = 0.0;
    double sim_ms = 0.0;
    double golden_ms = 0.0;
    double pass_ms = 0.0;

    std::size_t pl_gates = 0;
    std::size_t ack_edges = 0;
    std::size_t masters = 0;
    std::size_t triggers = 0;
    opt_sum memo_hits;
    opt_sum memo_misses;
    std::uint64_t events = 0;
    std::uint64_t firings = 0;
    std::uint64_t ee_hits = 0;
    std::uint64_t ee_misses = 0;
    std::uint64_t ee_wins = 0;
    std::size_t vectors = 0;
    opt_sum lane_runs;
    opt_sum lane_blocks;
    opt_sum lane_forks;
    std::uint64_t golden_checksum = 0;
};

/// Runs the golden synchronous model over the measurement's stimulus,
/// exactly as measure_average_delay's golden check does, and folds the
/// output values into a checksum.
std::uint64_t run_golden(const nl::netlist& netlist,
                         const sim::measure_options& m,
                         const std::vector<sim::stimulus_block>& blocks) {
    std::uint64_t sum = 0;
    if (m.lanes == 1) {
        nl::sync_simulator gold(netlist);
        std::vector<bool> inputs;
        for (std::size_t w = 0; w < m.num_vectors; ++w) {
            blocks[w / sim::k_lanes].extract(w % sim::k_lanes, inputs);
            gold.set_inputs(inputs);
            gold.eval();
            for (const nl::cell_id id : netlist.outputs()) {
                sum = sum * 3 + (gold.value_of(id) ? 1 : 0);
            }
            gold.latch();
        }
    } else {
        nl::sync_lane_simulator gold(netlist);
        std::vector<std::uint64_t> out(netlist.outputs().size());
        for (const sim::stimulus_block& block : blocks) {
            gold.reset();
            gold.set_inputs(block.words.data(), block.width);
            gold.eval();
            gold.output_values(out.data());
            for (const std::uint64_t word : out) {
                sum = bf::splitmix64(sum ^ (word & block.lane_mask()));
            }
        }
    }
    return sum;
}

template <class F>
auto timed(double& acc_ms, F&& f) {
    const wall_timer timer;
    auto result = f();
    acc_ms += timer.elapsed_ms();
    return result;
}

layer_totals traced_pass(const std::vector<runner::fleet_job>& jobs,
                         const sim::measure_options& m, const reference& ref,
                         verdict& v) {
    layer_totals t;
    const wall_timer pass_timer;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        ++v.attempted;
        const nl::netlist& netlist = jobs[i].netlist;
        try {
            pl::map_result plain =
                timed(t.map_ms, [&] { return pl::map_to_phased_logic(netlist); });
            pl::map_result with_ee =
                timed(t.map_ms, [&] { return pl::map_to_phased_logic(netlist); });
            ee::ee_options eo;
            eo.num_threads = 1;
            const ee::ee_stats es = timed(t.ee_ms, [&] {
                return ee::apply_early_evaluation(with_ee.pl, eo);
            });
            const sim::measure_result base = timed(t.sim_ms, [&] {
                return sim::measure_average_delay(plain.pl, nullptr, m);
            });
            const sim::measure_result early = timed(t.sim_ms, [&] {
                return sim::measure_average_delay(with_ee.pl, nullptr, m);
            });
            // The pipeline golden-checks each of its two measurements.
            const std::vector<sim::stimulus_block> stimulus = sim::make_stimulus(
                m.num_vectors, netlist.inputs().size(), m.seed);
            for (int run = 0; run < 2; ++run) {
                const std::uint64_t outputs = timed(t.golden_ms, [&] {
                    return run_golden(netlist, m, stimulus);
                });
                t.golden_checksum = bf::splitmix64(t.golden_checksum ^ outputs);
            }

            const fingerprint fp{plain.pl.num_pl_gates(),
                                 with_ee.pl.num_trigger_gates(),
                                 es.masters_considered,
                                 es.triggers_added,
                                 base.avg_delay,
                                 early.avg_delay,
                                 counts_of(base.stats),
                                 counts_of(early.stats)};
            if (!(fp == fingerprint_of(ref[i]))) {
                v.fail("traced " + jobs[i].id +
                       ": row differs from the fleet passes");
            }
            t.pl_gates += fp.pl_gates;
            t.ack_edges += plain.pl.num_ack_edges();
            t.masters += es.masters_considered;
            t.triggers += es.triggers_added;
            t.memo_hits.add(memo_hits(es));
            t.memo_misses.add(memo_misses(es));
            for (const sim::measure_result* r : {&base, &early}) {
                t.events += r->stats.events;
                t.firings += r->stats.firings;
                t.ee_hits += r->stats.ee_hits;
                t.ee_misses += r->stats.ee_misses;
                t.ee_wins += r->stats.ee_wins;
                t.vectors += r->delays.size();
                t.lane_runs.add(lane_runs(r->stats));
                t.lane_blocks.add(lane_blocks(r->stats));
                t.lane_forks.add(lane_forks(r->stats));
            }
        } catch (const std::exception& e) {
            v.fail("traced " + jobs[i].id + ": " + e.what());
        }
    }
    t.pass_ms = pass_timer.elapsed_ms();
    return t;
}

/// Per-pass sums of the program's own stage spans (telemetry-on passes).
struct span_sums {
    double map_ms = 0.0;
    double ee_ms = 0.0;
    double sim_ms = 0.0;
    double golden_ms = 0.0;
};

span_sums sum_spans(const runner::fleet_result& fleet) {
    span_sums s;
    for (const runner::job_result& r : fleet.results) {
        for (const obs::span_record& span : r.spans) {
            if (span.name.rfind("map_to_pl.", 0) == 0) s.map_ms += span.dur_ms;
            if (span.name == "ee.search") s.ee_ms += span.dur_ms;
            if (span.name == "sim.run") s.sim_ms += span.dur_ms;
            if (span.name == "sim.golden") s.golden_ms += span.dur_ms;
        }
    }
    return s;
}

// ---------------------------------------------------------------------------
// Command line and run modes.
// ---------------------------------------------------------------------------

struct cli {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string revision = "unknown";
};

[[noreturn]] void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s --workload itc99-seq|wide-lut|lut4-lanes "
                 "--seed N --seconds S [--trace 0|1] [--revision TEXT]\n",
                 argv0);
    std::exit(2);
}

cli parse(int argc, char** argv) {
    cli c;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) usage(argv[0]);
        const char* value = argv[++i];
        if (arg == "--workload") {
            c.workload = value;
        } else if (arg == "--seed") {
            c.seed = std::strtoull(value, nullptr, 10);
        } else if (arg == "--seconds") {
            c.seconds = std::strtod(value, nullptr);
        } else if (arg == "--trace") {
            c.trace = std::strcmp(value, "1") == 0;
        } else if (arg == "--revision") {
            c.revision = value;
        } else {
            usage(argv[0]);
        }
    }
    if (find_workload(c.workload) == nullptr || !(c.seconds > 0.0)) {
        usage(argv[0]);
    }
    return c;
}

/// The set-up step, timed: builds the workload's jobs and appends the build
/// time (ms) to `setup_ms`.  Every pass builds afresh, so set-up samples span
/// the whole run like the pass timings do.
std::vector<runner::fleet_job> timed_build(const workload_spec& spec,
                                           std::uint64_t seed,
                                           std::vector<double>& setup_ms) {
    const wall_timer timer;
    std::vector<runner::fleet_job> jobs = build_jobs(spec, seed);
    setup_ms.push_back(timer.elapsed_ms());
    return jobs;
}

json environment(const cli& c) {
    const std::string build_type = PERFBENCH_BUILD_TYPE;
    json env = json::object();
    env.set("nproc", json::number(static_cast<std::int64_t>(online_cpus())));
    env.set("hardware_concurrency",
            json::number(static_cast<std::int64_t>(
                std::thread::hardware_concurrency())));
    env.set("compiler", json::str(PERFBENCH_COMPILER));
    env.set("build_type", json::str(build_type));
    env.set("release_build", json::boolean(build_type == "Release"));
    if (build_type != "Release") {
        env.set("warning",
                json::str("non-Release build: timings are not comparable"));
    }
    env.set("revision", json::str(c.revision));
    return env;
}

/// End-to-end run: untraced, telemetry-off fleet passes.
void end_to_end(const workload_spec& spec, const cli& c, verdict& v,
                metric_table& mt, json& report) {
    const runner::fleet_options opts = fleet_settings(spec, c.seed, false);
    // The first pass is the reference every later pass must reproduce; it is
    // timed too (the median absorbs its cold start).
    std::optional<reference> ref;

    std::vector<double> setup_ms;
    std::vector<double> pass_s;
    std::vector<double> job_ms;
    std::vector<runner::fleet_job> jobs;
    const wall_timer budget;
    // At least 100 job samples, so p90 has ten beyond it.
    while (pass_s.size() < 3 || job_ms.size() < 100 ||
           budget.elapsed_ms() < c.seconds * 1e3) {
        jobs = timed_build(spec, c.seed, setup_ms);
        const wall_timer timer;
        const runner::fleet_result fleet = runner::run_fleet(jobs, opts);
        pass_s.push_back(ms_to_s(timer.elapsed_ms()));
        for (const runner::job_result& r : fleet.results) {
            job_ms.push_back(r.wall_ms);
        }
        check_fleet(fleet, jobs, ref, v, "pass");
    }

    // Simulated quality over the circuits that produced a row (all of them
    // unless a job failed, which the verdict already records).
    double log_ratio = 0.0;
    double area = 0.0;
    std::size_t measured = 0;
    for (const report::experiment_row& row : *ref) {
        if (row.delay_no_ee <= 0.0 || row.delay_ee <= 0.0) continue;
        log_ratio += std::log(row.delay_ee / row.delay_no_ee);
        area += row.area_increase_pct;
        ++measured;
    }
    const double n = static_cast<double>(std::max<std::size_t>(measured, 1));

    mt.put("setup_s", ms_to_s(median(setup_ms)), "s", setup_ms.size());
    mt.put("wall_s", median(pass_s), "s", pass_s.size());
    mt.put("job_ms_p50", percentile(job_ms, 50), "ms", job_ms.size());
    mt.put("job_ms_p90", percentile(job_ms, 90), "ms", job_ms.size());
    mt.put("peak_rss_mb", peak_rss_mb(), "MB", 1);
    mt.put("ee_delay_ratio", std::exp(log_ratio / n), "ratio", measured);
    mt.put("ee_area_pct", area / n, "%", measured);
    report.set("passes", json::number(pass_s.size()));
    report.set("circuits", json::number(jobs.size()));
}

/// Traced run: per-layer metrics.  Interleaves telemetry-off fleet passes,
/// telemetry-on fleet passes and outside-timed traced passes until the time
/// budget is spent.
void traced(const workload_spec& spec, const cli& c, verdict& v,
            metric_table& mt, json& report) {
    const runner::fleet_options off = fleet_settings(spec, c.seed, false);
    const runner::fleet_options on = fleet_settings(spec, c.seed, true);
    sim::measure_options m = measure_settings(spec, c.seed);
    m.telemetry = false;  // as in the telemetry-off fleet passes
    std::optional<reference> ref;  // set by the first fleet pass

    std::vector<double> setup_ms, off_ms, on_ms, runner_overhead_ms;
    std::vector<runner::fleet_job> jobs;
    std::vector<span_sums> spans;
    std::vector<layer_totals> layers;
    const wall_timer budget;
    while (layers.empty() || budget.elapsed_ms() < c.seconds * 1e3) {
        jobs = timed_build(spec, c.seed, setup_ms);
        {
            const wall_timer timer;
            const runner::fleet_result fleet = runner::run_fleet(jobs, off);
            off_ms.push_back(timer.elapsed_ms());
            double job_sum = 0.0;
            for (const runner::job_result& r : fleet.results) job_sum += r.wall_ms;
            runner_overhead_ms.push_back(off_ms.back() - job_sum);
            check_fleet(fleet, jobs, ref, v, "pass");
        }
        {
            const wall_timer timer;
            const runner::fleet_result fleet = runner::run_fleet(jobs, on);
            on_ms.push_back(timer.elapsed_ms());
            spans.push_back(sum_spans(fleet));
            check_fleet(fleet, jobs, ref, v, "telemetry pass");
        }
        layers.push_back(traced_pass(jobs, m, *ref, v));
        if (layers.back().golden_checksum != layers.front().golden_checksum) {
            v.fail("traced: golden outputs differ between traced passes");
        }
    }

    const std::size_t passes = layers.size();
    const auto layer_med = [&](double layer_totals::*f) {
        return median_of(layers, f);
    };
    const auto span_med = [&](double span_sums::*f) {
        return median_of(spans, f);
    };
    const layer_totals& t = layers.front();  // counts repeat exactly
    const double map_ms = layer_med(&layer_totals::map_ms);
    const double ee_ms = layer_med(&layer_totals::ee_ms);
    const double sim_ms = layer_med(&layer_totals::sim_ms);
    const double golden_ms = layer_med(&layer_totals::golden_ms);
    const double pass_ms = layer_med(&layer_totals::pass_ms);
    const double off_med = median(off_ms);
    const double on_med = median(on_ms);
    const double master_firings = static_cast<double>(t.ee_hits + t.ee_misses);
    const auto ratio = [](double num, double den) {
        return den > 0.0 ? std::optional<double>(num / den) : std::nullopt;
    };
    const auto as_double = [](const opt_sum& s) {
        return s.total ? std::optional<double>(static_cast<double>(*s.total))
                       : std::nullopt;
    };

    // Set-up layers: bench_circuits on ITC99, workload on the synthetic ones.
    const bool itc99 = std::string(spec.name) == "itc99-seq";
    mt.put_opt("workload.generate_ms",
               itc99 ? std::nullopt : std::optional(median(setup_ms)), "ms",
               setup_ms.size());
    mt.put_opt("bench_circuits.build_ms",
               itc99 ? std::optional(median(setup_ms)) : std::nullopt, "ms",
               setup_ms.size());

    mt.put("plogic.map_ms", map_ms, "ms", passes);
    // Both mapping calls map the same netlist.
    mt.put_opt("plogic.map_us_per_gate",
               ratio(1e3 * map_ms, 2.0 * static_cast<double>(t.pl_gates)), "us",
               passes);
    mt.put("plogic.pl_gates", static_cast<double>(t.pl_gates), "count", 1);
    mt.put("plogic.ack_edges", static_cast<double>(t.ack_edges), "count", 1);

    mt.put("ee.search_ms", ee_ms, "ms", passes);
    mt.put_opt("ee.us_per_master", ratio(1e3 * ee_ms, static_cast<double>(t.masters)),
               "us", passes);
    mt.put("ee.masters", static_cast<double>(t.masters), "count", 1);
    mt.put("ee.triggers", static_cast<double>(t.triggers), "count", 1);
    mt.put_opt("ee.trigger_yield",
               ratio(static_cast<double>(t.triggers), static_cast<double>(t.masters)),
               "ratio", 1);
    mt.put_opt("ee.memo_hits", as_double(t.memo_hits), "count", 1);
    mt.put_opt("ee.memo_misses", as_double(t.memo_misses), "count", 1);

    mt.put("sim.run_ms", sim_ms, "ms", passes);
    mt.put("sim.events", static_cast<double>(t.events), "count", 1);
    mt.put("sim.firings", static_cast<double>(t.firings), "count", 1);
    mt.put_opt("sim.ns_per_event", ratio(1e6 * sim_ms, static_cast<double>(t.events)),
               "ns", passes);
    mt.put_opt("sim.vectors_per_s", ratio(1e3 * static_cast<double>(t.vectors), sim_ms),
               "1/s", passes);
    // Lane passes per block exist only where the 64-lane engine ran.
    const std::optional<double> blocks = as_double(t.lane_blocks);
    const std::optional<double> runs = as_double(t.lane_runs);
    mt.put_opt("sim.lane_passes_per_block",
               blocks && runs ? ratio(*runs, *blocks) : std::nullopt, "ratio", 1);
    mt.put_opt("sim.ee_hit_rate", ratio(static_cast<double>(t.ee_hits), master_firings),
               "ratio", 1);
    mt.put_opt("sim.ee_win_rate", ratio(static_cast<double>(t.ee_wins), master_firings),
               "ratio", 1);

    mt.put("netlist.golden_ms", golden_ms, "ms", passes);
    mt.put("runner.overhead_ms", median(runner_overhead_ms), "ms",
           runner_overhead_ms.size());
    mt.put("obs.telemetry_overhead_pct", 100.0 * (on_med - off_med) / off_med, "%",
           std::min(on_ms.size(), off_ms.size()));
    mt.put("trace.overhead_pct", 100.0 * (pass_ms - off_med) / off_med, "%",
           passes);
    mt.put("obs.spans_map_ms", span_med(&span_sums::map_ms), "ms", spans.size());
    mt.put("obs.spans_ee_ms", span_med(&span_sums::ee_ms), "ms", spans.size());
    mt.put("obs.spans_sim_ms", span_med(&span_sums::sim_ms), "ms", spans.size());
    mt.put("obs.spans_golden_ms", span_med(&span_sums::golden_ms), "ms",
           spans.size());

    if (itc99) {
        // Suite mean % delay decrease minus the paper's Table 3 mean, over
        // the re-created circuits: a comparison, not a validated error.
        double ours = 0.0;
        double paper = 0.0;
        std::size_t n = 0;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            for (const paper_delay& p : k_paper_delay) {
                if (jobs[i].id != p.id) continue;
                ours += (*ref)[i].delay_decrease_pct;
                paper += p.delay_decrease_pct;
                ++n;
            }
        }
        mt.put("report.paper_delay_gap_pct",
               (ours - paper) / static_cast<double>(n), "%", n);
        report.set("paper_delay_gap_note",
                   json::str("suite mean % delay decrease on re-created ITC99 "
                             "circuits minus the paper's Table 3 mean; a "
                             "comparison, not a validated error"));
    } else {
        mt.absent("report.paper_delay_gap_pct", "%");
    }

    // Outside-timed layer totals next to the program's own spans, and each
    // layer's share of the traced pass (stage calls do not nest, so every
    // layer total is also its self time; the remainder is the harness's).
    json cross = json::object();
    const auto row = [](double outside, double inside) {
        json r = json::object();
        r.set("outside_ms", json::number(outside));
        r.set("spans_ms", json::number(inside));
        return r;
    };
    cross.set("plogic", row(map_ms, span_med(&span_sums::map_ms)));
    cross.set("ee", row(ee_ms, span_med(&span_sums::ee_ms)));
    cross.set("sim", row(sim_ms, span_med(&span_sums::sim_ms)));
    cross.set("netlist", row(golden_ms, span_med(&span_sums::golden_ms)));
    report.set("layers_vs_spans", std::move(cross));

    json share = json::object();
    const std::pair<const char*, double> layer_ms[] = {
        {"plogic", map_ms}, {"ee", ee_ms}, {"sim", sim_ms}, {"netlist", golden_ms}};
    const char* largest = "";
    double largest_ms = -1.0;
    double attributed = 0.0;
    for (const auto& [name, ms] : layer_ms) {
        share.set(name, json::number(100.0 * ms / pass_ms));
        attributed += ms;
        if (ms > largest_ms) {
            largest_ms = ms;
            largest = name;
        }
    }
    share.set("harness_self", json::number(100.0 * (pass_ms - attributed) / pass_ms));
    report.set("traced_share_pct", std::move(share));
    report.set("largest_layer", json::str(largest));
    if (const std::optional<double> forks = as_double(t.lane_forks)) {
        report.set("sim.lane_forks", json::number(*forks));
    }
    report.set("passes", json::number(passes));
    report.set("circuits", json::number(jobs.size()));
}

}  // namespace

int main(int argc, char** argv) {
    const cli c = parse(argc, argv);
    const workload_spec& spec = *find_workload(c.workload);

    json report = json::object();
    report.set("schema_version", json::number(k_schema_version));
    report.set("workload", json::str(spec.name));
    report.set("seed", json::number(static_cast<std::int64_t>(c.seed)));
    report.set("trace", json::boolean(c.trace));
    report.set("seconds", json::number(c.seconds));
    report.set("lanes", json::number(spec.lanes));
    report.set("vectors", json::number(spec.vectors));
    report.set("threads", json::number(1));
    report.set("env", environment(c));

    verdict v;
    metric_table mt;
    try {
        if (c.trace) {
            traced(spec, c, v, mt, report);
        } else {
            end_to_end(spec, c, v, mt, report);
        }
    } catch (const std::exception& e) {
        v.fail(std::string("harness: ") + e.what());
    }

    mt.put("failed_share",
           v.attempted == 0 ? 1.0
                            : static_cast<double>(v.failed) /
                                  static_cast<double>(v.attempted),
           "ratio", v.attempted);
    const bool correct = v.failed == 0 && v.attempted > 0;
    report.set("correct", json::boolean(correct));
    report.set("attempted", json::number(v.attempted));
    report.set("failed", json::number(v.failed));
    json failures = json::array();
    for (const std::string& f : v.failures) failures.push(json::str(f));
    report.set("failures", std::move(failures));
    report.set("metrics", mt.take());
    std::printf("%s\n", report.dump_compact().c_str());
    return correct ? 0 : 1;
}
