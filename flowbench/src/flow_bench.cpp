// flow_bench -- layout-in to report-out benchmark of the CAT flow.
//
//   flow_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              --refs <dir> --workdir <dir> [--trace-out <file>]
//              [--inject-bad-refs]
//   flow_bench --write-refs <dir> --workdir <dir>
//
// One run sets the workload up several times (set-up time is the median),
// runs one untimed warm-up iteration, then closed-loop iterations for the
// requested seconds, checking every iteration's outputs against the
// committed references.  --trace 0 reports the end-to-end metrics; --trace 1
// splits the time between an untraced and a traced phase and reports the
// per-layer metrics, writing the traced spans as a Chrome trace.  The last
// line of standard output is one JSON object: correct, attempted, failed
// and metrics.  The exit status is 0 only when every check passed.
//
// See flowbench/README.md for the workloads and the metric map.

#include "refs.h"
#include "tracer.h"
#include "workloads.h"

#include "obs/obs.h"

#include <sys/resource.h>
#include <sys/sysinfo.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#ifndef FLOWBENCH_COMPILER
#define FLOWBENCH_COMPILER "unknown"
#endif
#ifndef FLOWBENCH_BUILD_TYPE
#define FLOWBENCH_BUILD_TYPE "unknown"
#endif

using namespace flowbench;
namespace fs = std::filesystem;

namespace {

struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    int trace = 0;
    std::string refs;
    std::string workdir;
    std::string trace_out;
    std::string write_refs;
    bool inject_bad_refs = false;
};

Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
            return argv[++i];
        };
        if (a == "--workload") o.workload = next();
        else if (a == "--seed") o.seed = std::stoull(next());
        else if (a == "--seconds") o.seconds = std::stod(next());
        else if (a == "--trace") o.trace = std::stoi(next());
        else if (a == "--refs") o.refs = next();
        else if (a == "--workdir") o.workdir = next();
        else if (a == "--trace-out") o.trace_out = next();
        else if (a == "--write-refs") o.write_refs = next();
        else if (a == "--inject-bad-refs") o.inject_bad_refs = true;
        else throw std::invalid_argument("unknown argument " + a);
    }
    if (o.trace != 0 && o.trace != 1)
        throw std::invalid_argument("--trace must be 0 or 1");
    if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
    return o;
}

// ---------------------------------------------------------------------------
// Host and process measurements.

double cpu_seconds() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        const auto b = s.find_first_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b);
    }
#endif
    return "unknown";
}

std::string load_average() {
    struct sysinfo si{};
    if (sysinfo(&si) != 0) return "unknown";
    char buf[64];
    const double scale = static_cast<double>(1u << SI_LOAD_SHIFT);
    std::snprintf(buf, sizeof buf, "%.2f %.2f %.2f", si.loads[0] / scale,
                  si.loads[1] / scale, si.loads[2] / scale);
    return buf;
}

unsigned default_threads() {
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    return std::min(hw, 4u);
}

// ---------------------------------------------------------------------------
// Statistics.

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest order statistic that still has >= 10 samples beyond it; the
/// maximum when there are fewer than 11 samples.
double order_tail(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return v[(n > 10 ? n - 10 : n) - 1];
}

/// The tail of iteration walls: the run, in iteration order, is cut into
/// consecutive blocks of at least kTailBlock iterations (one block when
/// there are fewer), each block's order_tail is taken, and the median over
/// the blocks is reported.  A single order statistic high in a run of
/// thousands of short iterations reads the host's rarest stalls; a block
/// median keeps the tail at the same rank in every workload and lets a slow
/// stretch of the host move one block, not the result.
constexpr std::size_t kTailBlock = 100;

struct Tail {
    double value = 0.0;
    double percentile = 100.0;  // of one block
    std::size_t blocks = 1;
    std::size_t block_size = 0;  // iterations in the smallest block
};

Tail tail(const std::vector<double>& v) {
    Tail t;
    if (v.empty()) return t;
    const std::size_t n = v.size();
    t.blocks = std::max<std::size_t>(1, n / kTailBlock);
    t.block_size = n;
    std::vector<double> per_block;
    for (std::size_t b = 0; b < t.blocks; ++b) {
        const auto lo = v.begin() + static_cast<std::ptrdiff_t>(b * n / t.blocks);
        const auto hi = v.begin() + static_cast<std::ptrdiff_t>((b + 1) * n / t.blocks);
        per_block.push_back(order_tail(std::vector<double>(lo, hi)));
        t.block_size = std::min<std::size_t>(t.block_size, hi - lo);
    }
    t.value = median(per_block);
    const std::size_t m = t.block_size;
    t.percentile = 100.0 * static_cast<double>(m > 10 ? m - 10 : m) /
                   static_cast<double>(m);
    return t;
}

std::string num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

// ---------------------------------------------------------------------------
// Metric catalogue: name -> unit, in report order.

struct MetricDef {
    const char* name;
    const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"flow_s", "s"},      {"flow_tail_s", "s"},     {"cpu_s", "s"},
    {"setup_s", "s"},     {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"extract.s", "s"},
    {"extract.fragments", "count"},
    {"extract.nets", "count"},
    {"lift.s", "s"},
    {"lift.self_s", "s"},
    {"lift.sites", "count"},
    {"lift.faults", "count"},
    {"lift.flt_io_s", "s"},
    {"layout.revise_s", "s"},
    {"netlist.lvs_s", "s"},
    {"spice.nominal_s", "s"},
    {"spice.nr_iters", "count"},
    {"spice.steps_integrated", "count"},
    {"spice.steps_interpolated", "count"},
    {"spice.bypass_solves", "count"},
    {"spice.device_skips", "count"},
    {"spice.matrix_size", "count"},
    {"spice.sparse_refactors", "count"},
    {"spice.symbolic_hits", "count"},
    {"spice.ordering_s", "s"},
    {"spice.numeric_s", "s"},
    {"spice.factor_s", "s"},
    {"spice.solve_s", "s"},
    {"anafault.campaign_s", "s"},
    {"anafault.fault_p50_s", "s"},
    {"anafault.fault_p90_s", "s"},
    {"anafault.early_aborts", "count"},
    {"anafault.steps_saved", "count"},
    {"anafault.retries", "count"},
    {"anafault.report_s", "s"},
    {"anafault.dc_s", "s"},
    {"anafault.ac_s", "s"},
    {"anafault.freq_points_saved", "count"},
    {"anafault.warm_starts", "count"},
    {"anafault.carried", "count"},
    {"anafault.resimulated", "count"},
    {"batch.scheduled", "count"},
    {"batch.collapsed", "count"},
    {"batch.steals", "count"},
    {"batch.busy_s", "s"},
    {"batch.idle_frac", "ratio"},
    {"batch.store_bytes", "bytes"},
    {"batch.store_load_s", "s"},
    {"obs.trace_overhead", "ratio"},
    {"flow.unattributed_s", "s"},
    {"flow.fail_ratio", "ratio"},
};

/// Span name -> the per-layer metric holding its exclusive seconds.
const std::map<std::string, std::string>& span_metric() {
    static const std::map<std::string, std::string> m = {
        {"flow.iteration", "flow.unattributed_s"},
        {"layout.revise", "layout.revise_s"},
        {"lift", "lift.s"},
        {"netlist.lvs", "netlist.lvs_s"},
        {"lift.flt_io", "lift.flt_io_s"},
        {"anafault.dc", "anafault.dc_s"},
        {"anafault.ac", "anafault.ac_s"},
        {"anafault.campaign", "anafault.campaign_s"},
        {"anafault.report", "anafault.report_s"},
    };
    return m;
}

// ---------------------------------------------------------------------------
// Iterations.

struct Iteration {
    double wall = 0.0;
    double cpu = 0.0;
    int id = 0;
    int root = -1;  ///< root span id (traced iterations only)
    Sample sample;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

Iteration run_iteration(Workload& w, Tracer& tr, int id, Check& c) {
    tr.set_iteration(id);
    if (tr.on()) catlift::obs::Registry::global().reset();
    Iteration it;
    it.id = id;
    const double cpu0 = cpu_seconds();
    const auto t0 = std::chrono::steady_clock::now();
    {
        Span root(tr, "flow.iteration");
        it.root = root.id();
        w.run_flow(tr, id);
    }
    it.wall = seconds_since(t0);
    it.cpu = cpu_seconds() - cpu0;
    if (tr.on()) {
        using catlift::obs::Phase;
        using catlift::obs::phase_histogram;
        it.sample.values["spice.factor_s"] =
            phase_histogram(Phase::Factor).snapshot().sum +
            phase_histogram(Phase::Refactor).snapshot().sum;
        it.sample.values["spice.solve_s"] =
            phase_histogram(Phase::Solve).snapshot().sum;
    }
    w.check(c, it.sample);
    return it;
}

/// Times Workload::setup().  Three set-ups open the run; after each
/// iteration more follow until set-up has taken a twentieth of the run so
/// far, so the median samples the whole run instead of its first moments.
class SetupClock {
public:
    explicit SetupClock(Workload& w) : w_(w) {}

    void once() {
        const auto t0 = std::chrono::steady_clock::now();
        w_.setup();
        times_.push_back(seconds_since(t0));
        total_ += times_.back();
    }
    void after_iteration() {
        while (total_ < 0.05 * seconds_since(start_)) once();
    }
    const std::vector<double>& times() const { return times_; }

private:
    Workload& w_;
    std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();
    std::vector<double> times_;
    double total_ = 0.0;
};

/// Closed loop: iterations until `seconds` have elapsed (at least `min_n`).
std::vector<Iteration> run_loop(Workload& w, Tracer& tr, double seconds,
                                std::size_t min_n, int& next_id, Check& c,
                                SetupClock& setups) {
    std::vector<Iteration> out;
    const auto t0 = std::chrono::steady_clock::now();
    while (out.size() < min_n || seconds_since(t0) < seconds) {
        out.push_back(run_iteration(w, tr, next_id++, c));
        setups.after_iteration();
    }
    return out;
}

std::vector<double> walls(const std::vector<Iteration>& v) {
    std::vector<double> out;
    for (const auto& it : v) out.push_back(it.wall);
    return out;
}

/// Deterministic counters that differ between two iterations of one seed.
std::vector<std::string> counter_diffs(const Sample& a, const Sample& b) {
    std::vector<std::string> out;
    std::map<std::string, std::pair<double, double>> all;
    for (const auto& [k, v] : a.counters) all[k].first = v;
    for (const auto& [k, v] : b.counters) all[k].second = v;
    for (const auto& [k, p] : all)
        if (!a.counters.count(k) || !b.counters.count(k) || p.first != p.second)
            out.push_back(k + " " + num(p.first) + " vs " + num(p.second));
    return out;
}

void print_host(const Options& o, unsigned threads, const std::string& load0,
                const std::string& load1) {
    std::printf("host {\"nproc\": %ld, \"cpu_model\": \"%s\", "
                "\"load_avg_start\": \"%s\", \"load_avg_end\": \"%s\", "
                "\"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"campaign_threads\": %u, \"processes\": 1}\n",
                sysconf(_SC_NPROCESSORS_ONLN), cpu_model().c_str(),
                load0.c_str(), load1.c_str(), FLOWBENCH_COMPILER,
                FLOWBENCH_BUILD_TYPE, threads);
    std::printf("run {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
                "\"trace\": %d}\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace);
}

void print_result(bool correct, const Check& c,
                  const std::vector<std::pair<std::string, std::string>>& m,
                  const std::map<std::string, double>& values) {
    std::string js = "{\"correct\": ";
    js += correct ? "true" : "false";
    js += ", \"attempted\": " + std::to_string(c.attempted);
    js += ", \"failed\": " + std::to_string(c.failed);
    js += ", \"metrics\": {";
    for (std::size_t i = 0; i < m.size(); ++i) {
        if (i) js += ", ";
        js += "\"" + m[i].first + "\": {\"value\": " +
              num(values.at(m[i].first)) + ", \"unit\": \"" + m[i].second +
              "\"}";
    }
    js += "}}";
    std::printf("%s\n", js.c_str());
}

int write_references(const Options& o, unsigned threads) {
    fs::create_directories(o.write_refs);
    Context ctx;
    ctx.threads = threads;
    ctx.workdir = o.workdir.empty() ? o.write_refs : o.workdir;
    ctx.canonical = true;
    fs::create_directories(ctx.workdir);
    Refs out;
    for (const std::string name : {"vco_flow", "chain_flow", "ota_methods"}) {
        auto w = make_workload(name, 0, ctx);
        Tracer off(false);
        w->setup();
        w->run_flow(off, 0);
        w->export_refs(out);
        std::printf("%s: references taken\n", name.c_str());
    }
    write_hashes(o.write_refs, out.flt_hash);
    for (const auto& [table, t] : out.verdicts) {
        write_verdicts(o.write_refs, table, t);
        std::size_t detected = 0;
        for (const auto& [id, v] : t) detected += v.state == 'D';
        std::printf("  %-10s %zu faults, %zu detected\n", table.c_str(),
                    t.size(), detected);
    }
    fs::remove(fs::path(ctx.workdir) / "vco_flow.store");
    return 0;
}

int run(const Options& o) {
    const unsigned threads = default_threads();
    if (!o.write_refs.empty()) return write_references(o, threads);
    if (o.workload.empty()) throw std::invalid_argument("--workload is required");
    if (o.refs.empty() || o.workdir.empty())
        throw std::invalid_argument("--refs and --workdir are required");

    const std::string load0 = load_average();
    Refs refs = load_refs(o.refs);
    if (o.inject_bad_refs) {
        // Self-check: a wrong .flt hash here, and one wrong verdict, which
        // each workload picks among the faults it runs.
        for (auto& [name, h] : refs.flt_hash) h ^= 1;
    }
    fs::create_directories(o.workdir);

    Context ctx;
    ctx.threads = threads;
    ctx.workdir = o.workdir;
    ctx.refs = &refs;
    ctx.inject_bad_refs = o.inject_bad_refs;
    auto w = make_workload(o.workload, o.seed, ctx);

    SetupClock setups(*w);
    for (int i = 0; i < 3; ++i) setups.once();

    Check check;
    w->prepare_checks(check);
    Tracer off(false);
    int next_id = 0;
    const Iteration warm = run_iteration(*w, off, next_id++, check);

    std::vector<Iteration> untraced, traced;
    Tracer tracer(true);
    Sample probes;
    if (o.trace == 0) {
        untraced = run_loop(*w, off, o.seconds, 3, next_id, check, setups);
    } else {
        untraced = run_loop(*w, off, 0.5 * o.seconds, 2, next_id, check, setups);
        catlift::obs::enable_metrics(true);
        traced = run_loop(*w, tracer, 0.5 * o.seconds, 2, next_id, check, setups);
        catlift::obs::enable_metrics(false);
        w->probe(probes);
    }

    // Exact-repeat check: iterations of one variant ran identical inputs,
    // so every deterministic counter must equal that of the variant's first
    // iteration bit for bit.
    std::size_t repeat_mismatches = 0;
    std::map<int, const Sample*> first;
    first[w->variant(warm.id)] = &warm.sample;
    for (const auto* set : {&untraced, &traced})
        for (const Iteration& it : *set) {
            const auto [f, fresh] = first.emplace(w->variant(it.id), &it.sample);
            if (fresh) continue;
            for (const std::string& d : counter_diffs(*f->second, it.sample)) {
                ++repeat_mismatches;
                std::printf("repeat-mismatch iteration %d: %s\n", it.id, d.c_str());
            }
        }

    // The first counters of every variant, for cross-process comparison.
    for (const auto& [variant, sample] : first) {
        std::string line = "counters " + std::to_string(variant) + " {";
        for (const auto& [k, v] : sample->counters)
            line += (line.back() == '{' ? "\"" : ", \"") + k + "\": " + num(v);
        std::printf("%s}\n", line.c_str());
    }

    const std::string load1 = load_average();
    print_host(o, threads, load0, load1);
    std::printf("setup %zu runs, iterations: warm-up 1, untraced %zu, traced %zu\n",
                setups.times().size(), untraced.size(), traced.size());

    const double fail_ratio =
        check.attempted ? static_cast<double>(check.failed) /
                              static_cast<double>(check.attempted)
                        : 1.0;
    std::printf("checks: %zu faults attempted, %zu failed or mismatched, "
                "fail_ratio %.6g, repeat mismatches %zu\n",
                check.attempted, check.failed, fail_ratio, repeat_mismatches);
    const std::size_t shown = std::min<std::size_t>(check.problems.size(), 20);
    for (std::size_t i = 0; i < shown; ++i)
        std::printf("  problem: %s\n", check.problems[i].c_str());
    for (const std::string& n : check.notes)
        std::printf("  note: %s\n", n.c_str());

    std::map<std::string, double> values;
    std::vector<std::pair<std::string, std::string>> listed;
    if (o.trace == 0) {
        const Tail t = tail(walls(untraced));
        std::vector<double> cpus;
        for (const auto& it : untraced) cpus.push_back(it.cpu);
        values["flow_s"] = median(walls(untraced));
        values["flow_tail_s"] = t.value;
        values["cpu_s"] = median(cpus);
        values["setup_s"] = median(setups.times());
        values["peak_rss_mb"] = peak_rss_mb();
        std::printf("flow_tail_s is the median over %zu blocks of >= %zu "
                    "iterations (of %zu) of each block's p%.1f (%zu beyond it)\n",
                    t.blocks, t.block_size, untraced.size(), t.percentile,
                    t.block_size > 10 ? std::size_t{10} : std::size_t{0});
        for (const auto& d : kEndToEnd) listed.emplace_back(d.name, d.unit);
    } else {
        // Per-layer numbers come from the traced iteration of median wall.
        std::vector<std::size_t> order(traced.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
            return traced[a].wall < traced[b].wall;
        });
        const Iteration& mid = traced[order[(order.size() - 1) / 2]];
        for (const auto& d : kPerLayer) values[d.name] = 0.0;
        double layer_sum = 0.0;
        for (const auto& [span, secs] : tracer.self_times(mid.root)) {
            const auto it = span_metric().find(span);
            if (it == span_metric().end())
                throw std::logic_error("span without a metric: " + span);
            values[it->second] = secs;
            layer_sum += secs;
        }
        for (const auto& [k, v] : mid.sample.counters) values[k] = v;
        for (const auto& [k, v] : mid.sample.values) values[k] = v;
        for (const auto& [k, v] : probes.values) values[k] = v;
        values["lift.self_s"] = values["lift.s"] - values["extract.s"];
        values["obs.trace_overhead"] = median(walls(traced)) / median(walls(untraced));
        values["flow.fail_ratio"] = fail_ratio;
        std::printf("attribution: traced iteration %.6f s, exclusive layers + "
                    "unattributed %.6f s\n",
                    mid.wall, layer_sum);
        const std::string trace_path =
            o.trace_out.empty()
                ? (fs::path(o.workdir) / ("trace_" + o.workload + ".json")).string()
                : o.trace_out;
        std::ofstream tf(trace_path);
        tracer.write_chrome_trace(tf);
        std::printf("trace: %s (%zu spans)\n", trace_path.c_str(),
                    tracer.spans().size());
        for (const auto& d : kPerLayer) listed.emplace_back(d.name, d.unit);
    }
    for (const auto& [name, unit] : listed)
        std::printf("metric %-28s %.9g %s\n", name.c_str(), values.at(name),
                    unit.c_str());

    const bool correct = check.failed == 0 && repeat_mismatches == 0;
    std::fflush(stdout);
    print_result(correct, check, listed, values);
    return correct ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
    try {
        return run(parse(argc, argv));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "flow_bench: %s\n", e.what());
        return 2;
    }
}
