// Tests for the deterministic fault-injection harness and the fleet
// runner's recovery paths driven through it: spec parsing, stateless
// decision determinism, thread-count-invariant fleet outcomes under
// injection, and deadline-driven cancellation.

#include "fault/injector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "report/experiment.hpp"
#include "runner/runner.hpp"
#include "workload/workload.hpp"

namespace plee {
namespace {

/// The injector is process-wide state; every test leaves it disarmed so the
/// rest of the suite runs on the inert fast path.
class FaultInjection : public ::testing::Test {
protected:
    void TearDown() override { fault::injector::instance().clear(); }
};

report::experiment_options tiny_options() {
    report::experiment_options opts;
    opts.measure.num_vectors = 4;
    return opts;
}

runner::fleet_job tiny_job(const std::string& id, std::uint64_t seed) {
    runner::fleet_job job;
    job.id = id;
    job.description = id;
    job.netlist =
        wl::generate(wl::scenario_params(wl::scenario::random_dag, 30, seed));
    return job;
}

TEST_F(FaultInjection, InertWhenUnconfigured) {
    fault::injector& inj = fault::injector::instance();
    inj.clear();
    EXPECT_FALSE(inj.enabled());
    EXPECT_NO_THROW(inj.check("sim.fire", 0));
    EXPECT_NO_THROW(inj.check("ee.search", 12345));
}

TEST_F(FaultInjection, SpecParsing) {
    fault::injector& inj = fault::injector::instance();
    inj.configure("seed=42;ee.search=0.5;sim.fire=1:delay=5");
    EXPECT_TRUE(inj.enabled());

    // Unknown points, malformed entries and out-of-range probabilities are
    // rejected...
    EXPECT_THROW(inj.configure("bogus.point=1"), std::invalid_argument);
    EXPECT_THROW(inj.configure("ee.search"), std::invalid_argument);
    EXPECT_THROW(inj.configure("ee.search=1.5"), std::invalid_argument);
    EXPECT_THROW(inj.configure("ee.search=x"), std::invalid_argument);
    EXPECT_THROW(inj.configure("ee.search=1:frobnicate"),
                 std::invalid_argument);
    EXPECT_THROW(inj.configure("sim.fire=1:delay=-2"), std::invalid_argument);
    // Every number parses whole: empty, partial and out-of-range values
    // are rejected rather than read up to the first bad character.
    for (const char* bad :
         {"seed=4x2", "seed=", "seed=-1", "seed=18446744073709551616",
          "ee.search=0.5x", "ee.search=", "ee.search=nan",
          "sim.fire=1:delay=5ms", "sim.fire=1:delay=", "sim.fire=1:delay=inf"}) {
        EXPECT_THROW(inj.configure(bad), std::invalid_argument) << bad;
    }
    inj.configure("seed=18446744073709551615;ee.search=0.25;sim.fire=1:delay=0.5");
    EXPECT_TRUE(inj.enabled());
    // ...and a malformed tail arms nothing: the previous config survives.
    EXPECT_THROW(inj.configure("ee.search=1;bogus.point=1"),
                 std::invalid_argument);
    EXPECT_TRUE(inj.enabled());

    EXPECT_THROW(inj.arm("bogus.point", {}), std::invalid_argument);

    inj.configure("");
    EXPECT_FALSE(inj.enabled());
}

TEST_F(FaultInjection, RetiredCachePointsAndTornFateAreRejected) {
    // The trigger-memo points and the ':torn' fate are gone with the memo,
    // and the ':transient' / ':permanent' fates with the runner's retry
    // loop.  A stale spec must fail loudly (plee_fleet turns this into a
    // usage error), not arm nothing silently.
    fault::injector& inj = fault::injector::instance();
    for (const char* point : {"cache.lookup", "cache.save", "cache.load"}) {
        EXPECT_FALSE(fault::injector::known_point(point)) << point;
    }
    inj.configure("seed=3;ee.search=0.5");
    try {
        inj.configure("cache.save=1:torn");
        FAIL() << "stale cache.save spec was accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("unknown point 'cache.save'"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(inj.configure("ee.search=1:torn"), std::invalid_argument);
    for (const char* retired :
         {"synth.map=0.4:transient", "synth.map=0.4:permanent"}) {
        EXPECT_THROW(inj.configure(retired), std::invalid_argument) << retired;
    }
    // The rejected specs armed nothing: the previous config survives.
    EXPECT_TRUE(inj.enabled());
}

TEST_F(FaultInjection, DecisionsAreStatelessScopedAndSeeded) {
    fault::injector& inj = fault::injector::instance();
    inj.configure("seed=1;synth.map=0.5");

    // Certainty at the extremes.
    fault::point_config always;
    always.probability = 1.0;
    inj.arm("ee.search", always);
    EXPECT_THROW(inj.check("ee.search", 7), fault::injected_fault);
    fault::point_config never;
    never.probability = 0.0;
    inj.arm("ee.search", never);
    EXPECT_NO_THROW(inj.check("ee.search", 7));

    // p = 0.5 decisions are a pure function of (seed, point, scope, site):
    // the same sweep replays identically, and a different scope or seed
    // produces a different (still deterministic) pattern.
    const auto sweep = [&]() {
        std::vector<bool> fired;
        for (std::uint64_t site = 0; site < 64; ++site) {
            try {
                inj.check("synth.map", site);
                fired.push_back(false);
            } catch (const fault::injected_fault& e) {
                EXPECT_EQ(e.point(), "synth.map");
                fired.push_back(true);
            }
        }
        return fired;
    };
    const std::vector<bool> base = sweep();
    EXPECT_NE(std::count(base.begin(), base.end(), true), 0);
    EXPECT_NE(std::count(base.begin(), base.end(), false), 0);
    EXPECT_EQ(sweep(), base);

    {
        fault::injector::scope scope(fault::injector::hash("job#1"));
        const std::vector<bool> scoped = sweep();
        EXPECT_NE(scoped, base);
        EXPECT_EQ(sweep(), scoped);
    }
    // Scope restored on destruction.
    EXPECT_EQ(sweep(), base);

    inj.set_seed(2);
    EXPECT_NE(sweep(), base);
}

// Acceptance (a): arm a throwing fault at p = 0.4; which k of the N jobs
// fail is a deterministic property of the spec, not of scheduling — every
// thread count yields the same k failures, and the survivors' rows are
// bit-identical to a clean serial pipeline (a non-firing check has no
// effect on results).
TEST_F(FaultInjection, FleetOutcomesUnderInjectionAreThreadCountInvariant) {
    std::vector<runner::fleet_job> jobs;
    std::vector<report::experiment_row> clean;
    for (std::uint64_t i = 0; i < 6; ++i) {
        jobs.push_back(tiny_job("w" + std::to_string(i), 100 + i));
        clean.push_back(report::run_ee_experiment(
            jobs.back().id, jobs.back().netlist, tiny_options()));
    }

    fault::injector::instance().configure("seed=9;synth.map=0.4");
    std::vector<runner::job_status> statuses;
    for (unsigned threads : {1u, 2u, 5u}) {
        runner::fleet_options opts;
        opts.num_threads = threads;
        opts.experiment = tiny_options();
        const runner::fleet_result fleet = runner::run_fleet(jobs, opts);
        ASSERT_EQ(fleet.results.size(), jobs.size());
        if (threads == 1) {
            for (const runner::job_result& r : fleet.results) {
                statuses.push_back(r.status);
            }
            // The seed must exercise both paths for the test to mean much.
            ASSERT_GT(fleet.jobs_failed, 0u);
            ASSERT_GT(fleet.jobs_ok, 0u);
        }
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const runner::job_result& r = fleet.results[i];
            EXPECT_EQ(r.status, statuses[i])
                << jobs[i].id << " threads=" << threads;
            if (r.status == runner::job_status::ok) {
                EXPECT_EQ(r.row.pl_gates, clean[i].pl_gates) << jobs[i].id;
                EXPECT_EQ(r.row.ee_gates, clean[i].ee_gates) << jobs[i].id;
                EXPECT_EQ(r.row.delay_no_ee, clean[i].delay_no_ee)
                    << jobs[i].id;
                EXPECT_EQ(r.row.delay_ee, clean[i].delay_ee) << jobs[i].id;
            } else {
                EXPECT_NE(r.error.find("injected fault at synth.map"),
                          std::string::npos)
                    << r.error;
            }
        }
    }
}

// Acceptance (b): a job made pathologically slow by delay injection lands in
// timed_out, and the cooperative cancellation bounds its wall time to well
// under twice the deadline.
TEST_F(FaultInjection, DeadlineCancelsSlowJobWithinTwiceTheDeadline) {
    // Every cancel-check interval sleeps 5 ms, so the measurement alone
    // wants several times the deadline — expiry is guaranteed mid-measure,
    // far from any completes-just-in-time knife edge.
    const double deadline_ms = 150.0;
    fault::injector::instance().configure("sim.fire=1:delay=5");

    runner::fleet_job slow = tiny_job("slow", 8);
    slow.netlist =
        wl::generate(wl::scenario_params(wl::scenario::datapath_like, 150, 8));

    runner::fleet_options opts;
    opts.num_threads = 1;
    opts.experiment = tiny_options();
    opts.experiment.measure.num_vectors = 50;
    opts.job_deadline_ms = deadline_ms;
    const runner::fleet_result fleet = runner::run_fleet({slow}, opts);

    ASSERT_EQ(fleet.results.size(), 1u);
    const runner::job_result& timed = fleet.results[0];
    EXPECT_EQ(timed.status, runner::job_status::timed_out);
    EXPECT_NE(timed.error.find("deadline exceeded"), std::string::npos)
        << timed.error;
    EXPECT_LT(timed.wall_ms, 2.0 * deadline_ms);
    EXPECT_EQ(fleet.jobs_timed_out, 1u);
}

}  // namespace
}  // namespace plee
