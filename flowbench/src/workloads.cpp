#include "workloads.h"

#include "anafault/ac_campaign.h"
#include "anafault/campaign.h"
#include "anafault/dc_campaign.h"
#include "anafault/incremental.h"
#include "anafault/report.h"
#include "batch/result_store.h"
#include "circuits/ota.h"
#include "circuits/vco.h"
#include "core/cat.h"
#include "extract/extractor.h"
#include "layout/cellgen.h"
#include "layout/revise.h"
#include "lift/extract_faults.h"
#include "lift/fault.h"
#include "netlist/compare.h"
#include "spice/engine.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <functional>
#include <set>
#include <stdexcept>

namespace flowbench {

using namespace catlift;
namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// Seeded, platform-independent randomness.

std::uint64_t splitmix64(std::uint64_t& s) {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/// Fisher-Yates permutation of 0..n-1 driven by `seed`.
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed) {
    std::vector<std::size_t> p(n);
    for (std::size_t i = 0; i < n; ++i) p[i] = i;
    std::uint64_t s = seed;
    for (std::size_t i = n; i > 1; --i)
        std::swap(p[i - 1], p[splitmix64(s) % i]);
    return p;
}

/// Seed of iteration `i` of a run: every iteration draws its own fault
/// order, so a run's median covers many orders instead of one.
std::uint64_t iteration_seed(std::uint64_t seed, int i) {
    std::uint64_t s = seed ^ (0xa0761d6478bd642full * static_cast<std::uint64_t>(i + 1));
    return splitmix64(s);
}

lift::FaultList select(const lift::FaultList& fl,
                       const std::vector<std::size_t>& order) {
    lift::FaultList out;
    out.circuit = fl.circuit;
    out.faults.reserve(order.size());
    for (std::size_t i : order) out.faults.push_back(fl.faults.at(i));
    return out;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

double median_seconds(int reps, const std::function<void()>& f) {
    std::vector<double> t;
    for (int i = 0; i < reps; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        f();
        t.push_back(seconds_since(t0));
    }
    std::sort(t.begin(), t.end());
    return t[t.size() / 2];
}

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// ---------------------------------------------------------------------------
// Verdicts.

Verdict tran_verdict(const batch::FaultSimResult& r) {
    Verdict v;
    if (r.quarantined) v.state = 'Q';
    else if (!r.simulated) v.state = 'F';
    else if (r.detect_time) {
        v.state = 'D';
        v.has_at = true;
        v.at = *r.detect_time;
    } else v.state = 'U';
    return v;
}

Verdict ac_verdict(const anafault::AcFaultResult& r) {
    Verdict v;
    if (r.quarantined) v.state = 'Q';
    else if (!r.simulated) v.state = 'F';
    else if (r.detected) {
        v.state = 'D';
        if (r.detect_freq) {
            v.has_at = true;
            v.at = *r.detect_freq;
        }
    } else v.state = 'U';
    return v;
}

Verdict dc_verdict(const anafault::DcFaultResult& r) {
    Verdict v;
    if (r.quarantined) v.state = 'Q';
    else if (!r.converged) v.state = 'F';
    else v.state = r.detected ? 'D' : 'U';
    return v;
}

/// Count a verdict as failed (F/Q) or mismatching the reference table.
void check_verdict(Check& c, const std::string& table, int id,
                   const Verdict& got, const VerdictTable& ref) {
    if (got.state == 'F' || got.state == 'Q')
        c.fail(table + " fault " + std::to_string(id) + " retired " +
               to_text(got));
    else if (!ref.count(id))
        c.fail(table + " fault " + std::to_string(id) + " has no reference");
    else if (!(ref.at(id) == got))
        c.fail(table + " fault " + std::to_string(id) + ": got " +
               to_text(got) + ", reference " + to_text(ref.at(id)));
}

const VerdictTable* table_of(const Context& ctx, const std::string& name) {
    if (!ctx.refs) return nullptr;
    const auto it = ctx.refs->verdicts.find(name);
    return it == ctx.refs->verdicts.end() ? nullptr : &it->second;
}

/// The opposite verdict: the self-check's one wrong reference.
Verdict flipped(const Verdict& v) {
    return v.state == 'D' ? Verdict{'U', false, 0.0} : Verdict{'D', true, 0.0};
}

/// Copy of a reference table; under the self-check the verdict of `bad_id`
/// (a fault the workload is sure to run) is flipped.
VerdictTable reference(const Context& ctx, const std::string& name,
                       int bad_id) {
    const VerdictTable* t = table_of(ctx, name);
    VerdictTable out = t ? *t : VerdictTable{};
    if (ctx.inject_bad_refs && out.count(bad_id))
        out[bad_id] = flipped(out[bad_id]);
    return out;
}

// ---------------------------------------------------------------------------
// Flow steps shared by the workloads, one span each.

lift::LiftResult step_lift(Tracer& tr, const layout::Layout& lo,
                           const lift::LiftOptions& opt) {
    Span s(tr, "lift");
    return lift::extract_faults(
        lo, layout::Technology::single_poly_double_metal(), opt);
}

netlist::CompareResult step_lvs(Tracer& tr, const netlist::Circuit& golden,
                                const netlist::Circuit& extracted) {
    Span s(tr, "netlist.lvs");
    return netlist::compare_netlists(golden, extracted, 1e-2);
}

/// The liftc -> anafaultc boundary: the fault list crosses as .flt text.
struct Handoff {
    std::string text;
    lift::FaultList list;
};

Handoff step_handoff(Tracer& tr, const lift::FaultList& fl) {
    Span s(tr, "lift.flt_io");
    Handoff h;
    h.text = lift::write_faultlist(fl);
    h.list = lift::read_faultlist_text(h.text);
    return h;
}

std::string step_report(Tracer& tr, const anafault::CampaignResult& res,
                        const lift::FaultList& fl) {
    Span s(tr, "anafault.report");
    return anafault::campaign_table(res) + anafault::campaign_summary(res) +
           anafault::coverage_plot_ascii(res) +
           anafault::class_breakdown(res, fl);
}

template <typename F>
auto timed_campaign(Tracer& tr, const char* span, double& wall, F&& f) {
    Span s(tr, span);
    const auto t0 = std::chrono::steady_clock::now();
    auto r = f();
    wall = seconds_since(t0);
    return r;
}

// ---------------------------------------------------------------------------
// Checks and counters shared by the workloads.

void check_lvs(Check& c, const netlist::CompareResult& lvs) {
    if (!lvs.equivalent)
        c.fail("LVS mismatch: " +
               (lvs.diffs.empty() ? std::string("?") : lvs.diffs.front()));
}

/// The hand-off must round-trip, and the serialized list must hash to the
/// committed reference when one exists for this layout.
void check_handoff(Check& c, const Context& ctx, const Handoff& h,
                   const std::string& layout_name) {
    // Fault records must round-trip exactly.  The header is compared on
    // its own: the reader keeps only the first word of the circuit name,
    // a known defect that drops no fault data, reported as a note.
    const std::string back = lift::write_faultlist(h.list);
    const auto body = [](const std::string& t) {
        return t.substr(std::min(t.find('\n'), t.size()));
    };
    if (body(back) != body(h.text))
        c.fail(".flt hand-off does not round-trip its fault records");
    else if (back != h.text)
        c.notes.insert(".flt header does not round-trip: '" +
                       h.text.substr(0, h.text.find('\n')) + "' reads back as '" +
                       back.substr(0, back.find('\n')) + "'");
    if (layout_name.empty()) return;
    if (!ctx.refs || !ctx.refs->flt_hash.count(layout_name))
        c.fail("no .flt hash reference for " + layout_name);
    else if (fnv1a64(h.text) != ctx.refs->flt_hash.at(layout_name))
        c.fail(".flt hash of " + layout_name + " differs from reference");
}

void lift_counters(Sample& s, const lift::LiftResult& r) {
    s.counters["extract.fragments"] =
        static_cast<double>(r.extraction.fragments.size());
    s.counters["extract.nets"] =
        static_cast<double>(r.extraction.net_names.size());
    s.counters["lift.sites"] = static_cast<double>(
        r.stats.bridge_sites + r.stats.open_sites + r.stats.cut_sites);
    s.counters["lift.faults"] = static_cast<double>(r.faults.size());
}

/// Kernel and scheduler counters of a transient campaign; results carried
/// from a baseline store are excluded (their cost was paid elsewhere).
void tran_counters(Sample& s, const anafault::CampaignResult& res,
                   double campaign_wall, unsigned threads) {
    double nr = 0, msize = 0, busy = 0;
    std::vector<double> per_fault;
    for (const auto& r : res.results) {
        if (r.carried) continue;
        nr += static_cast<double>(r.nr_iterations);
        msize = std::max(msize, static_cast<double>(r.matrix_size));
        busy += r.sim_seconds;
        if (r.sim_seconds > 0) per_fault.push_back(r.sim_seconds);
    }
    const batch::BatchStats& b = res.batch;
    auto& k = s.counters;
    k["spice.nr_iters"] = nr;
    k["spice.matrix_size"] = msize;
    k["spice.steps_integrated"] = static_cast<double>(b.steps_integrated);
    k["spice.steps_interpolated"] =
        static_cast<double>(b.steps_interpolated);
    k["spice.bypass_solves"] = static_cast<double>(b.bypass_solves);
    k["spice.device_skips"] = static_cast<double>(b.device_stamp_skips);
    k["spice.sparse_refactors"] = static_cast<double>(b.sparse_refactors);
    k["spice.symbolic_hits"] = static_cast<double>(b.symbolic_cache_hits);
    k["anafault.early_aborts"] = static_cast<double>(b.early_aborts);
    k["anafault.steps_saved"] = static_cast<double>(b.steps_saved);
    k["anafault.retries"] = static_cast<double>(b.retries);
    k["batch.scheduled"] = static_cast<double>(b.scheduled);
    k["batch.collapsed"] = static_cast<double>(b.collapsed);
    auto& v = s.values;
    v["spice.ordering_s"] = b.ordering_seconds;
    v["spice.numeric_s"] = b.numeric_seconds;
    v["anafault.fault_p50_s"] = quantile(per_fault, 0.5);
    v["anafault.fault_p90_s"] = quantile(per_fault, 0.9);
    v["batch.steals"] = static_cast<double>(b.steals);
    v["batch.busy_s"] = busy;
    const double fault_wall = campaign_wall - res.nominal_seconds;
    v["batch.idle_frac"] =
        fault_wall > 0 ? 1.0 - busy / (threads * fault_wall) : 0.0;
}

double file_bytes(const std::string& path) {
    std::error_code ec;
    const auto n = fs::file_size(path, ec);
    return ec ? 0.0 : static_cast<double>(n);
}

void probe_extract(Sample& s, const layout::Layout& lo,
                   const lift::LiftOptions& opt) {
    const auto tech = layout::Technology::single_poly_double_metal();
    s.values["extract.s"] = median_seconds(3, [&] {
        (void)extract::extract(lo, tech, opt.extract_opt);
    });
}

void probe_nominal(Sample& s, const netlist::Circuit& ckt,
                   const spice::SimOptions& opt) {
    s.values["spice.nominal_s"] = median_seconds(3, [&] {
        spice::Simulator sim(ckt, opt);
        (void)sim.tran();
    });
}

// ---------------------------------------------------------------------------
// vco_flow: the paper's 26-T VCO, the campaign writing a result store.

class VcoFlow final : public Workload {
public:
    VcoFlow(std::uint64_t seed, const Context& ctx)
        : seed_(seed), ctx_(ctx),
          store_((fs::path(ctx.workdir) / "vco_flow.store").string()) {}

    void setup() override { e_ = core::make_vco_experiment(ctx_.threads); }

    void run_flow(Tracer& tr, int iteration) override {
        lift_ = step_lift(tr, e_.layout, e_.config.lift);
        lvs_ = step_lvs(tr, e_.device_netlist, lift_.extraction.circuit);
        ho_ = step_handoff(tr, lift_.faults);
        faults_ = ctx_.canonical
                      ? ho_.list
                      : select(ho_.list, permutation(ho_.list.size(),
                                                     iteration_seed(
                                                         seed_, iteration)));
        anafault::CampaignOptions opt = e_.config.campaign;
        opt.result_store = store_;
        opt.store_durability = batch::Durability::Flush;
        camp_ = timed_campaign(tr, "anafault.campaign", wall_, [&] {
            return anafault::run_campaign(e_.sim_circuit, faults_, opt);
        });
        report_ = step_report(tr, camp_, faults_);
    }

    void prepare_checks(Check&) override { ref_ = reference(ctx_, "vco", 1); }

    void check(Check& c, Sample& s) override {
        check_lvs(c, lvs_);
        check_handoff(c, ctx_, ho_, "vco");
        c.attempted += faults_.size();
        for (const auto& r : camp_.results)
            check_verdict(c, "vco", r.fault_id, tran_verdict(r), ref_);
        if (report_.empty()) c.fail("empty campaign report");
        lift_counters(s, lift_);
        tran_counters(s, camp_, wall_, ctx_.threads);
        s.counters["batch.store_bytes"] = file_bytes(store_);
        fs::remove(store_);
    }

    void probe(Sample& s) override {
        probe_extract(s, e_.layout, e_.config.lift);
        probe_nominal(s, e_.sim_circuit, e_.config.campaign.sim);
    }

    void export_refs(Refs& out) const override {
        out.flt_hash["vco"] = fnv1a64(ho_.text);
        for (const auto& r : camp_.results)
            out.verdicts["vco"][r.fault_id] = tran_verdict(r);
    }

private:
    std::uint64_t seed_;
    Context ctx_;
    std::string store_;
    core::VcoExperiment e_;
    VerdictTable ref_;
    lift::LiftResult lift_;
    netlist::CompareResult lvs_;
    Handoff ho_;
    lift::FaultList faults_;
    anafault::CampaignResult camp_;
    double wall_ = 0.0;
    std::string report_;
};

// ---------------------------------------------------------------------------
// chain_flow: a 256-stage inverter chain; the campaign runs a seed-chosen
// sample of the extracted faults on the sparse kernel.

constexpr int kChainStages = 256;
constexpr std::size_t kChainSample = 64;

class ChainFlow final : public Workload {
public:
    ChainFlow(std::uint64_t seed, const Context& ctx)
        : seed_(seed), ctx_(ctx) {}

    void setup() override {
        device_ = circuits::build_inverter_chain(kChainStages, false);
        layout_ = layout::generate_cell_layout(device_);
        sim_ = circuits::build_inverter_chain(kChainStages, true);
        opt_ = anafault::CampaignOptions{};
        opt_.threads = ctx_.threads;
        std::string last_stage = "c";  // the chain's output node
        last_stage += std::to_string(kChainStages);
        opt_.detection.observed = {last_stage};
        if (!ctx_.canonical) {
            const VerdictTable* ref = table_of(ctx_, "chain256");
            if (!ref || ref->empty())
                throw std::runtime_error(
                    "chain_flow needs the chain256 reference table");
            sample_ = stratified_sample(*ref, seed_);
        }
    }

    void run_flow(Tracer& tr, int) override {
        lift_ = step_lift(tr, layout_, lift_opt_);
        lvs_ = step_lvs(tr, device_, lift_.extraction.circuit);
        ho_ = step_handoff(tr, lift_.faults);
        faults_ = ho_.list;
        if (!ctx_.canonical)
            std::erase_if(faults_.faults, [&](const lift::Fault& f) {
                return !sample_.count(f.id);
            });
        camp_ = timed_campaign(tr, "anafault.campaign", wall_, [&] {
            return anafault::run_campaign(sim_, faults_, opt_);
        });
        report_ = step_report(tr, camp_, faults_);
    }

    void prepare_checks(Check&) override {
        ref_ = reference(ctx_, "chain256", *sample_.begin());
    }

    void check(Check& c, Sample& s) override {
        check_lvs(c, lvs_);
        check_handoff(c, ctx_, ho_, "chain256");
        c.attempted += faults_.size();
        for (const auto& r : camp_.results)
            check_verdict(c, "chain256", r.fault_id, tran_verdict(r), ref_);
        if (report_.empty()) c.fail("empty campaign report");
        lift_counters(s, lift_);
        tran_counters(s, camp_, wall_, ctx_.threads);
    }

    void probe(Sample& s) override {
        probe_extract(s, layout_, lift_opt_);
        probe_nominal(s, sim_, opt_.sim);
    }

    void export_refs(Refs& out) const override {
        out.flt_hash["chain256"] = fnv1a64(ho_.text);
        for (const auto& r : camp_.results)
            out.verdicts["chain256"][r.fault_id] = tran_verdict(r);
    }

private:
    /// Seed-chosen fault ids, stratified so that every seed's sample has
    /// the same cost profile: the reference's detected faults are split
    /// into equal strata by detection time and its undetected faults by
    /// rank, in proportion to their counts, and one fault is drawn from
    /// each stratum.  Which faults run varies with the seed; how many
    /// detect early, late or never does not.
    static std::set<int> stratified_sample(const VerdictTable& ref,
                                           std::uint64_t seed) {
        std::vector<std::pair<double, int>> detected;
        std::vector<int> undetected;
        for (const auto& [id, v] : ref) {
            if (v.state == 'D') detected.emplace_back(v.at, id);
            else undetected.push_back(id);
        }
        std::sort(detected.begin(), detected.end());
        std::vector<int> by_time;
        for (const auto& d : detected) by_time.push_back(d.second);
        const std::size_t k = std::min(kChainSample, ref.size());
        const std::size_t kd =
            (k * by_time.size() + ref.size() / 2) / ref.size();
        std::set<int> out;
        std::uint64_t s = seed;
        auto draw = [&](const std::vector<int>& ids, std::size_t m) {
            m = std::min(m, ids.size());
            for (std::size_t j = 0; j < m; ++j) {
                const std::size_t lo = j * ids.size() / m;
                const std::size_t hi = (j + 1) * ids.size() / m;
                out.insert(ids[lo + splitmix64(s) % (hi - lo)]);
            }
        };
        draw(by_time, kd);
        draw(undetected, k - kd);
        return out;
    }

    std::uint64_t seed_;
    Context ctx_;
    netlist::Circuit device_, sim_;
    layout::Layout layout_;
    lift::LiftOptions lift_opt_;
    anafault::CampaignOptions opt_;
    std::set<int> sample_;
    VerdictTable ref_;
    lift::LiftResult lift_;
    netlist::CompareResult lvs_;
    Handoff ho_;
    lift::FaultList faults_;
    anafault::CampaignResult camp_;
    double wall_ = 0.0;
    std::string report_;
};

// ---------------------------------------------------------------------------
// vco_revision: a seed-generated, LVS-clean layout revision campaigned
// incrementally against the baseline store built in set-up.

/// Draw `count` revisions from the four RevisionSpec edit classes, one
/// edit of each.  Draws that do not extract LVS-clean are discarded and
/// redrawn (deterministically).
std::vector<layout::RevisionSpec> draw_revisions(
    std::uint64_t seed, const core::VcoExperiment& e, std::size_t count) {
    std::set<std::string> tracks;
    std::map<std::string, int> cuts;
    for (const auto& sh : e.layout.shapes) {
        if (sh.layer == layout::Layer::Metal2 &&
            sh.owner.rfind("route:", 0) == 0)
            tracks.insert(sh.owner.substr(6));
        const auto colon = sh.owner.find(':');
        if (sh.layer == layout::Layer::Contact && !sh.owner.empty() &&
            sh.owner[0] == 'M' && colon != std::string::npos &&
            colon + 2 == sh.owner.size())
            ++cuts[sh.owner];
    }
    std::vector<std::string> track_v(tracks.begin(), tracks.end()), single,
        redundant;
    for (const auto& [owner, n] : cuts)
        (n == 1 ? single : redundant).push_back(owner);
    if (track_v.empty() || single.empty() || redundant.empty())
        throw std::runtime_error("vco layout lacks revision targets");

    std::uint64_t s = seed ^ 0x5eed5eed5eedull;
    auto pick = [&](const std::vector<std::string>& v) {
        return v[splitmix64(s) % v.size()];
    };
    std::vector<layout::RevisionSpec> out;
    for (std::size_t attempt = 0; out.size() < count; ++attempt) {
        if (attempt == 8 * count)
            throw std::runtime_error("too few LVS-clean revisions drawn");
        layout::RevisionSpec spec;
        spec.widen_tracks = {
            {pick(track_v),
             static_cast<geom::Coord>(1000 + 500 * (splitmix64(s) % 4))}};
        const geom::Coord dx =
            static_cast<geom::Coord>(200 + 100 * (splitmix64(s) % 2));
        spec.shift_contacts = {
            {pick(single), (splitmix64(s) % 2) ? dx : -dx}};
        spec.make_redundant = {pick(single)};
        spec.make_single = {pick(redundant)};
        try {
            const layout::Layout rev = layout::revise_layout(e.layout, spec);
            const auto ext = extract::extract(rev, e.config.tech,
                                              e.config.lift.extract_opt);
            if (netlist::compare_netlists(e.device_netlist, ext.circuit, 1e-2)
                    .equivalent)
                out.push_back(spec);
        } catch (const std::exception&) {
            // An edit the geometry rejects: draw again.
        }
    }
    return out;
}

/// Revisions per seed; iteration i runs revision i mod kRevisionPool, so a
/// run's median covers many revisions instead of one seed's single draw.
/// A revision's cost is bimodal (whether a resimulated fault runs to the
/// end or aborts early); with 16 revisions the share of slow ones still
/// moved the median by 16% from seed to seed.
constexpr std::size_t kRevisionPool = 64;

class VcoRevision final : public Workload {
public:
    VcoRevision(std::uint64_t seed, const Context& ctx)
        : seed_(seed), ctx_(ctx),
          base_store_((fs::path(ctx.workdir) / "rev_base.store").string()),
          merged_store_(
              (fs::path(ctx.workdir) / "rev_merged.store").string()) {}

    void setup() override {
        e_ = core::make_vco_experiment(ctx_.threads);
        base_ = lift::extract_faults(e_.layout, e_.config.tech,
                                     e_.config.lift);
        fs::remove(base_store_);
        anafault::CampaignOptions opt = e_.config.campaign;
        opt.result_store = base_store_;
        (void)anafault::run_campaign(e_.sim_circuit, base_.faults, opt);
        specs_ = draw_revisions(seed_, e_, kRevisionPool);
    }

    void prepare_checks(Check& c) override {
        // The baseline list is the canonical VCO list: pin its hash too.
        Handoff h;
        h.text = lift::write_faultlist(base_.faults);
        h.list = lift::read_faultlist_text(h.text);
        check_handoff(c, ctx_, h, "vco");
        // Reference: one cold campaign over every distinct fault of every
        // revision in the pool.  A verdict depends only on the circuit and
        // the injected mutation, i.e. on the fault's electrical signature.
        lift::FaultList all;
        std::set<std::string> seen;
        std::string first_sig;
        for (const auto& spec : specs_) {
            const auto rev = lift::extract_faults(
                layout::revise_layout(e_.layout, spec), e_.config.tech,
                e_.config.lift);
            for (lift::Fault f : rev.faults.faults) {
                const std::string sig = lift::electrical_signature(f);
                if (first_sig.empty()) first_sig = sig;
                if (!seen.insert(sig).second) continue;
                f.id = static_cast<int>(all.faults.size()) + 1;
                all.faults.push_back(std::move(f));
            }
        }
        const auto cold = anafault::run_campaign(e_.sim_circuit, all,
                                                 e_.config.campaign);
        cold_.clear();
        for (std::size_t i = 0; i < cold.results.size(); ++i) {
            const Verdict v = tran_verdict(cold.results[i]);
            if (v.state == 'F' || v.state == 'Q')
                c.fail("cold revision fault " + all.faults[i].describe() +
                       " retired " + to_text(v));
            cold_[lift::electrical_signature(all.faults[i])] = v;
        }
        if (ctx_.inject_bad_refs) {
            Verdict& v = cold_[first_sig];
            v = flipped(v);
        }
    }

    void run_flow(Tracer& tr, int iteration) override {
        const layout::RevisionSpec& spec =
            specs_[static_cast<std::size_t>(variant(iteration))];
        {
            Span s(tr, "layout.revise");
            revised_ = layout::revise_layout(e_.layout, spec);
        }
        lift_ = step_lift(tr, revised_, e_.config.lift);
        lvs_ = step_lvs(tr, e_.device_netlist, lift_.extraction.circuit);
        ho_ = step_handoff(tr, lift_.faults);
        anafault::IncrementalOptions iopt;
        iopt.campaign = e_.config.campaign;
        iopt.campaign.result_store = merged_store_;
        iopt.baseline_store = base_store_;
        inc_ = timed_campaign(tr, "anafault.campaign", wall_, [&] {
            return anafault::run_incremental_campaign(
                e_.sim_circuit, base_.faults, ho_.list, iopt);
        });
        report_ = step_report(tr, inc_.campaign, ho_.list);
    }

    int variant(int iteration) const override {
        return iteration % static_cast<int>(kRevisionPool);
    }

    void check(Check& c, Sample& s) override {
        check_lvs(c, lvs_);
        check_handoff(c, ctx_, ho_, "");
        c.attempted += ho_.list.size();
        // Re-key the signature-keyed cold verdicts by this list's ids.
        VerdictTable cold;
        for (const auto& f : ho_.list.faults) {
            const auto it = cold_.find(lift::electrical_signature(f));
            if (it != cold_.end()) cold[f.id] = it->second;
        }
        for (const auto& r : inc_.campaign.results)
            check_verdict(c, "vco_revision(cold)", r.fault_id,
                          tran_verdict(r), cold);
        if (inc_.inc.carried + inc_.inc.resimulated != ho_.list.size())
            c.fail("carried + resimulated != revision fault count");
        if (report_.empty()) c.fail("empty campaign report");
        lift_counters(s, lift_);
        tran_counters(s, inc_.campaign, wall_, ctx_.threads);
        s.counters["anafault.carried"] =
            static_cast<double>(inc_.inc.carried);
        s.counters["anafault.resimulated"] =
            static_cast<double>(inc_.inc.resimulated);
        s.counters["batch.store_bytes"] = file_bytes(merged_store_);
        fs::remove(merged_store_);
    }

    void probe(Sample& s) override {
        probe_extract(s, revised_, e_.config.lift);
        probe_nominal(s, e_.sim_circuit, e_.config.campaign.sim);
        s.values["batch.store_load_s"] = median_seconds(5, [&] {
            (void)batch::load_store(base_store_);
        });
    }

    void export_refs(Refs&) const override {}

private:
    std::uint64_t seed_;
    Context ctx_;
    std::string base_store_, merged_store_;
    core::VcoExperiment e_;
    lift::LiftResult base_;
    std::vector<layout::RevisionSpec> specs_;
    std::map<std::string, Verdict> cold_;  ///< by electrical signature
    layout::Layout revised_;
    lift::LiftResult lift_;
    netlist::CompareResult lvs_;
    Handoff ho_;
    anafault::IncrementalResult inc_;
    double wall_ = 0.0;
    std::string report_;
};

// ---------------------------------------------------------------------------
// ota_methods: one OTA fault list through the DC screen, the AC sweep and
// the transient campaign.

class OtaMethods final : public Workload {
public:
    OtaMethods(std::uint64_t seed, const Context& ctx)
        : seed_(seed), ctx_(ctx) {}

    void setup() override {
        circuits::OtaOptions dev_opt;
        dev_opt.with_sources = false;
        device_ = circuits::build_ota(dev_opt);
        layout_ = layout::generate_cell_layout(device_);
        lift_opt_ = lift::LiftOptions{};
        lift_opt_.net_blocks = circuits::ota_net_blocks();

        dc_ckt_ = circuits::build_ota();
        dc_ckt_.device("VDD").source = netlist::SourceSpec::make_dc(5.0);
        dc_ckt_.device("VIN").source = netlist::SourceSpec::make_dc(2.5);
        ac_ckt_ = dc_ckt_;
        ac_ckt_.device("VIN").source.ac_mag = 1.0;
        tran_ckt_ = circuits::build_ota();

        dopt_ = anafault::DcScreenOptions{};
        dopt_.threads = ctx_.threads;
        dopt_.observed = {circuits::kOtaOutput};
        dopt_.v_tol = 0.5;
        aopt_ = anafault::AcCampaignOptions{};
        aopt_.threads = ctx_.threads;
        aopt_.observed = {circuits::kOtaOutput};
        aopt_.sweep.fstart = 1e3;
        aopt_.sweep.fstop = 1e9;
        topt_ = anafault::CampaignOptions{};
        topt_.threads = ctx_.threads;
        topt_.detection.observed = {circuits::kOtaOutput};
        topt_.detection.v_tol = 0.4;
    }

    void run_flow(Tracer& tr, int iteration) override {
        lift_ = step_lift(tr, layout_, lift_opt_);
        lvs_ = step_lvs(tr, device_, lift_.extraction.circuit);
        ho_ = step_handoff(tr, lift_.faults);
        faults_ = ctx_.canonical
                      ? ho_.list
                      : select(ho_.list, permutation(ho_.list.size(),
                                                     iteration_seed(
                                                         seed_, iteration)));
        double unused = 0.0;
        dc_ = timed_campaign(tr, "anafault.dc", unused, [&] {
            return anafault::run_dc_screen(dc_ckt_, faults_, dopt_);
        });
        ac_ = timed_campaign(tr, "anafault.ac", unused, [&] {
            return anafault::run_ac_campaign(ac_ckt_, faults_, aopt_);
        });
        tran_ = timed_campaign(tr, "anafault.campaign", wall_, [&] {
            return anafault::run_campaign(tran_ckt_, faults_, topt_);
        });
        report_ = step_report(tr, tran_, faults_);
    }

    void prepare_checks(Check&) override {
        dref_ = reference(ctx_, "ota_dc", 0);
        aref_ = reference(ctx_, "ota_ac", 0);
        tref_ = reference(ctx_, "ota_tran", 1);
    }

    void check(Check& c, Sample& s) override {
        check_lvs(c, lvs_);
        check_handoff(c, ctx_, ho_, "ota");
        c.attempted += 3 * faults_.size();
        for (const auto& r : dc_.results)
            check_verdict(c, "ota_dc", r.fault_id, dc_verdict(r), dref_);
        for (const auto& r : ac_.results)
            check_verdict(c, "ota_ac", r.fault_id, ac_verdict(r), aref_);
        for (const auto& r : tran_.results)
            check_verdict(c, "ota_tran", r.fault_id, tran_verdict(r), tref_);
        if (report_.empty()) c.fail("empty campaign report");
        lift_counters(s, lift_);
        tran_counters(s, tran_, wall_, ctx_.threads);
        auto& k = s.counters;
        k["anafault.freq_points_saved"] =
            static_cast<double>(ac_.batch.freq_points_saved);
        k["anafault.warm_starts"] =
            static_cast<double>(dc_.batch.warm_start_solves);
        k["anafault.retries"] +=
            static_cast<double>(dc_.batch.retries + ac_.batch.retries);
        k["batch.scheduled"] +=
            static_cast<double>(dc_.batch.scheduled + ac_.batch.scheduled);
        k["batch.collapsed"] +=
            static_cast<double>(dc_.batch.collapsed + ac_.batch.collapsed);
    }

    void probe(Sample& s) override {
        probe_extract(s, layout_, lift_opt_);
        probe_nominal(s, tran_ckt_, topt_.sim);
    }

    void export_refs(Refs& out) const override {
        out.flt_hash["ota"] = fnv1a64(ho_.text);
        for (const auto& r : dc_.results)
            out.verdicts["ota_dc"][r.fault_id] = dc_verdict(r);
        for (const auto& r : ac_.results)
            out.verdicts["ota_ac"][r.fault_id] = ac_verdict(r);
        for (const auto& r : tran_.results)
            out.verdicts["ota_tran"][r.fault_id] = tran_verdict(r);
    }

private:
    std::uint64_t seed_;
    Context ctx_;
    netlist::Circuit device_, dc_ckt_, ac_ckt_, tran_ckt_;
    layout::Layout layout_;
    lift::LiftOptions lift_opt_;
    anafault::DcScreenOptions dopt_;
    anafault::AcCampaignOptions aopt_;
    anafault::CampaignOptions topt_;
    VerdictTable dref_, aref_, tref_;
    lift::LiftResult lift_;
    netlist::CompareResult lvs_;
    Handoff ho_;
    lift::FaultList faults_;
    anafault::DcScreenResult dc_;
    anafault::AcCampaignResult ac_;
    anafault::CampaignResult tran_;
    double wall_ = 0.0;
    std::string report_;
};

} // namespace

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names = {
        "vco_flow", "chain_flow", "vco_revision", "ota_methods"};
    return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const Context& ctx) {
    if (name == "vco_flow") return std::make_unique<VcoFlow>(seed, ctx);
    if (name == "chain_flow") return std::make_unique<ChainFlow>(seed, ctx);
    if (name == "vco_revision")
        return std::make_unique<VcoRevision>(seed, ctx);
    if (name == "ota_methods")
        return std::make_unique<OtaMethods>(seed, ctx);
    throw std::invalid_argument("unknown workload: " + name);
}

} // namespace flowbench
