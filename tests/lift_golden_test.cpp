// Golden pins for LIFT: the fault list, every LiftStats counter and the
// extraction's shape are recorded per layout and must be reproduced
// exactly.  They are the identity check for any rewrite of the fault
// extractor or the circuit extractor: a faster engine must write the same
// .flt bytes, count the same sites and extract the same netlist.
//
// On a mismatch the failure message prints the recomputed pin row in the
// table's own syntax.  Only paste it over the old row when the change is
// meant to alter LIFT's output, and say so in the change log.

#include "batch/result_store.h"
#include "circuits/ota.h"
#include "circuits/vco.h"
#include "layout/cellgen.h"
#include "lift/extract_faults.h"
#include "netlist/writer.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

using namespace catlift;

namespace {

struct Pin {
    const char* name;
    std::uint64_t flt_hash;      ///< FNV-1a of write_faultlist
    std::uint64_t prob_hash;     ///< FNV-1a of every probability as %a
    std::size_t bridge_sites, open_sites, cut_sites;
    std::size_t redundant_opens, dangling_opens, dropped;
    const char* dropped_probability;  ///< hex-float (%a)
    std::size_t fragments, nets, cuts, mosfets;
    std::uint64_t netlist_hash;  ///< FNV-1a of write_spice(extracted)
};

std::string hexfloat(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

lift::LiftResult run_lift(const std::string& name) {
    const auto tech = layout::Technology::single_poly_double_metal();
    lift::LiftOptions opt;
    if (name == "vco") {
        circuits::VcoOptions o;
        o.with_sources = false;
        const auto lo = layout::generate_cell_layout(
            circuits::build_vco(o), layout::vco_cellgen_options());
        opt.net_blocks = circuits::vco_net_blocks();
        return lift::extract_faults(lo, tech, opt);
    }
    if (name == "ota") {
        circuits::OtaOptions o;
        o.with_sources = false;
        const auto lo = layout::generate_cell_layout(circuits::build_ota(o));
        opt.net_blocks = circuits::ota_net_blocks();
        return lift::extract_faults(lo, tech, opt);
    }
    // "chainN": no net blocks, so shorts take the shared-device fallback.
    const int stages = std::stoi(name.substr(5));
    const auto lo = layout::generate_cell_layout(
        circuits::build_inverter_chain(stages, false));
    return lift::extract_faults(lo, tech, opt);
}

/// `dropped_hex` owns the hex-float text the returned pin points at.
Pin measure(const char* name, const lift::LiftResult& r,
            const std::string& dropped_hex) {
    std::uint64_t ph = batch::fnv1a(std::string{});
    for (const lift::Fault& f : r.faults.faults)
        ph = batch::fnv1a(hexfloat(f.probability) + ";", ph);
    const lift::LiftStats& s = r.stats;
    const extract::Extraction& ex = r.extraction;
    return Pin{name,
               batch::fnv1a(lift::write_faultlist(r.faults)),
               ph,
               s.bridge_sites,
               s.open_sites,
               s.cut_sites,
               s.redundant_opens,
               s.dangling_opens,
               s.dropped,
               dropped_hex.c_str(),
               ex.fragments.size(),
               ex.net_names.size(),
               ex.cuts.size(),
               ex.mosfets.size(),
               batch::fnv1a(netlist::write_spice(ex.circuit))};
}

std::string row(const Pin& p) {
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"%s\", 0x%016" PRIx64 "ull, 0x%016" PRIx64
                  "ull, %zu, %zu, %zu, %zu, %zu, %zu, \"%s\", %zu, %zu, "
                  "%zu, %zu, 0x%016" PRIx64 "ull}",
                  p.name, p.flt_hash, p.prob_hash, p.bridge_sites,
                  p.open_sites, p.cut_sites, p.redundant_opens,
                  p.dangling_opens, p.dropped, p.dropped_probability,
                  p.fragments, p.nets, p.cuts, p.mosfets, p.netlist_hash);
    return buf;
}

// Recorded with the quadratic LIFT that the near-linear one replaced.
const Pin kPins[] = {
    {"vco", 0x30e8f39559f85073ull, 0xb2194b317b2ff5deull, 888, 207, 130, 0, 4,
     142, "0x1.142c40e09052bp-21", 420, 15, 130, 26, 0x52b0d07221c0ee11ull},
    {"ota", 0x9ef54ee6ee3da28eull, 0x102c008e91336d34ull, 231, 64, 36, 0, 9, 42,
     "0x1.5470c6c84aa3dp-23", 122, 7, 36, 7, 0xc941d56b8a478f0aull},
    {"chain4", 0x6301c2267321ff7eull, 0xafff72fae1c961d9ull, 264, 67, 39, 0, 9,
     43, "0x1.77b3e96409adcp-23", 133, 7, 39, 8, 0x984fa86bfbb82937ull},
    {"chain16", 0x070194bbda85d631ull, 0x0f02a580c4ba1c4full, 1084, 247, 147, 0,
     9, 171, "0x1.4ee22851ba19cp-21", 505, 19, 147, 32, 0xde46a59138fb8d50ull},
    {"chain64", 0x1001279be6544370ull, 0xb08cc40346909574ull, 4444, 967, 579, 0,
     9, 603, "0x1.1e212136d1332p-19", 1993, 67, 579, 128, 0x0cf855224eca5f3dull},
};

class LiftGolden : public ::testing::TestWithParam<Pin> {};

TEST_P(LiftGolden, ReproducesRecordedPin) {
    const Pin& want = GetParam();
    const lift::LiftResult r = run_lift(want.name);
    // Whole rows are compared so that a mismatch prints the recomputed row
    // once, in the table's syntax, next to the recorded one.
    const std::string dropped_hex = hexfloat(r.stats.dropped_probability);
    EXPECT_EQ(row(measure(want.name, r, dropped_hex)), row(want));
}

INSTANTIATE_TEST_SUITE_P(Layouts, LiftGolden, ::testing::ValuesIn(kPins),
                         [](const ::testing::TestParamInfo<Pin>& i) {
                             return std::string(i.param.name);
                         });

} // namespace
