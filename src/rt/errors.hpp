// errors.hpp — the typed failure taxonomy shared by the whole pipeline.
//
// The fleet runner turns a batch of netlists into a batch of results; for
// that to degrade gracefully one job's failure must be (a) catchable without
// discarding every other job and (b) distinguishable: an exhausted event
// budget, a simulator deadlock, a blown deadline and a malformed input call
// for different reports.  Every deliberate throw in the pipeline therefore
// derives from plee::plee_error, and the subclass type says what went wrong
// (job_timeout here, the sim:: errors, nl::blif_error, the injector's
// injected_fault).  The pipeline is deterministic, so re-running a failed
// job repeats its failure: the runner runs each job once.

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace plee {

/// Base of every deliberate pipeline throw.
class plee_error : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Cooperative deadline/cancellation expiry: a cancel_token tripped while the
/// job was mid-pipeline.  `where` names the check site ("sim.events",
/// "ee.search"), `context` the job ("b05" = job id), and `progress` how far
/// the stage got (events processed, chunks searched) — the partial-work
/// snapshot a fleet log needs to tell a near-miss from a hang.
class job_timeout : public plee_error {
public:
    job_timeout(const std::string& where, const std::string& context,
                std::uint64_t progress)
        : plee_error(where + "[" + context + "]: deadline exceeded after " +
                     std::to_string(progress) + " work units"),
          progress_(progress) {}

    std::uint64_t progress() const { return progress_; }

private:
    std::uint64_t progress_;
};

}  // namespace plee
