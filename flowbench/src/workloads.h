// flowbench/src/workloads.h
//
// The four layout-to-coverage flows the benchmark times.  Each workload
// generates its inputs from the seed in setup(), then runs whole flow
// iterations -- LIFT, LVS, the .flt hand-off, the campaign runner(s) and
// the reports -- through the library's public functions only, with a span
// around each call.  check() compares an iteration's outputs with the
// committed references outside the timed region.

#pragma once

#include "refs.h"
#include "tracer.h"

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace flowbench {

/// Numbers of one iteration.  Counters are deterministic and must repeat
/// bit for bit across iterations of one seed; values (times, steals) need
/// not.
struct Sample {
    std::map<std::string, double> counters;
    std::map<std::string, double> values;
};

/// Outcome of checking one iteration (or a one-off check).
struct Check {
    std::size_t attempted = 0;  ///< faults handed to the campaigns
    std::size_t failed = 0;     ///< failed + quarantined + mismatches
    std::vector<std::string> problems;
    /// Known defects that lose no checked data, reported once per run.
    std::set<std::string> notes;

    void fail(std::string what) {
        ++failed;
        problems.push_back(std::move(what));
    }
};

struct Context {
    unsigned threads = 1;
    std::string workdir;         ///< working directory for result stores
    const Refs* refs = nullptr;  ///< committed references (null: none)
    /// Reference-generation mode: no seed permutation or sampling, so the
    /// run covers the canonical, complete fault list.
    bool canonical = false;
    /// Self-check: corrupt the references the workload derives itself.
    bool inject_bad_refs = false;
};

class Workload {
public:
    virtual ~Workload() = default;

    /// Generate every input from the seed.  Timed as set-up, and called
    /// several times; each call replaces the previous inputs.
    virtual void setup() = 0;
    /// Untimed preparation of checks that need the program itself.
    virtual void prepare_checks(Check&) {}
    /// One flow iteration (timed).  Iteration 0 is the warm-up.
    virtual void run_flow(Tracer& tr, int iteration) = 0;
    /// Iterations with equal variants run identical inputs, so their
    /// deterministic counters must match bit for bit.
    virtual int variant(int) const { return 0; }
    /// Check the last iteration's outputs and record its counters (untimed).
    virtual void check(Check& c, Sample& s) = 0;
    /// Standalone layer timings for the traced run (untimed).
    virtual void probe(Sample& s) = 0;
    /// Export the last iteration's outputs as references (canonical mode).
    virtual void export_refs(Refs& out) const = 0;
};

const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const Context& ctx);

} // namespace flowbench
