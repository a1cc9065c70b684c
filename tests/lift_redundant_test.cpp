// LIFT open analysis on hand-built micro-layouts: spans and cut clusters
// bypassed by a redundant path, and split nodes whose isolated side holds
// several terminals; and the shared-device test that classifies shorts when
// no net blocks are given.  Capacitors supply the terminals (their plates
// are plain metal1-over-poly rectangles), labels supply the ports.  Every
// layout has a control variant so each assertion is seen to flip.

#include "lift/extract_faults.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace catlift;
using namespace catlift::layout;
using geom::Rect;

namespace {

const Technology kTech = Technology::single_poly_double_metal();

/// A capacitor `name` whose poly bottom plate fills `plate` and whose
/// metal1 top plate is `top` (which may extend beyond the marker to reach
/// its wiring).
void add_cap(Layout& lo, const std::string& name, const Rect& plate,
             const Rect& top) {
    lo.add(Layer::Poly, plate, name + ":b");
    lo.add(Layer::Metal1, top, name + ":t");
    lo.add(Layer::CapMark, plate, name);
}

lift::LiftResult run(const Layout& lo) {
    lift::LiftOptions opt;
    opt.p_min = 0.0;  // keep every fault so presence is exact
    return lift::extract_faults(lo, kTech, opt);
}

/// The open faults on `net`, as "kind group_b" strings.
std::vector<std::string> opens_on(const lift::LiftResult& r,
                                  const std::string& net) {
    std::vector<std::string> out;
    for (const lift::Fault& f : r.faults.faults) {
        if (f.net != net) continue;
        std::string s = lift::to_string(f.kind);
        for (const lift::TerminalRef& t : f.group_b)
            s += " " + t.device + ":" + std::to_string(t.terminal);
        out.push_back(s);
    }
    std::sort(out.begin(), out.end());
    return out;
}

/// C1's top plate wired to a labelled pad by one or two parallel metal1
/// straps.  With both straps each strap and each pad span is bypassed.
Layout metal1_loop(bool both_straps) {
    Layout lo;
    lo.name = "metal1_loop";
    add_cap(lo, "C1", Rect::um(0, 0, 10, 10), Rect::um(1, 1, 9, 9));
    lo.add(Layer::Metal1, Rect::um(9, 2, 30, 4), "strap");
    if (both_straps) lo.add(Layer::Metal1, Rect::um(9, 6, 30, 8), "strap");
    lo.add(Layer::Metal1, Rect::um(30, 0, 34, 10), "pad");
    lo.add_label(Layer::Metal1, {geom::from_um(32), geom::from_um(5)}, "a");
    return lo;
}

/// C1's top plate joined to a labelled metal2 track by vias.  `second_at`
/// places a second via along the track: far away it is a parallel junction
/// of its own, within 6 um it clusters with the first; negative means none.
Layout via_junction(double second_at) {
    Layout lo;
    lo.name = "via_junction";
    add_cap(lo, "C1", Rect::um(0, 0, 10, 10), Rect::um(0, 1, 30, 9));
    lo.add(Layer::Metal2, Rect::um(12, 3, 30, 7), "track");
    lo.add(Layer::Via, Rect::um(13, 4, 15, 6), "v");
    if (second_at >= 0)
        lo.add(Layer::Via, Rect::um(second_at, 4, second_at + 2, 6), "v");
    lo.add_label(Layer::Metal2, {geom::from_um(20), geom::from_um(5)}, "a");
    return lo;
}

/// A labelled metal1 line feeding the top plates of C1 and C2.  With
/// `bypass`, a metal2 track ties the port end to the far end of the line
/// through vias, so no cut of the line isolates anything.
Layout split_node(bool bypass) {
    Layout lo;
    lo.name = "split_node";
    lo.add(Layer::Metal1, Rect::um(0, 0, 60, 2), "line");
    add_cap(lo, "C1", Rect::um(30, -12, 40, -2), Rect::um(31, -11, 39, 0));
    add_cap(lo, "C2", Rect::um(45, -12, 55, -2), Rect::um(46, -11, 54, 0));
    lo.add_label(Layer::Metal1, {geom::from_um(5), geom::from_um(1)}, "a");
    if (bypass) {
        lo.add(Layer::Metal2, Rect::um(2, 0, 60, 2), "bypass");
        lo.add(Layer::Via, Rect::um(3, 0.5, 4, 1.5), "v");
        lo.add(Layer::Via, Rect::um(58, 0.5, 59, 1.5), "v");
    }
    return lo;
}

/// C1's top plate on a metal1 rail labelled "a", and a second, separate
/// metal1 rail 2 um away labelled `second`.  No device touches the second
/// rail.
Layout facing_rails(const std::string& second) {
    Layout lo;
    lo.name = "facing_rails";
    add_cap(lo, "C1", Rect::um(0, 0, 10, 10), Rect::um(1, 1, 9, 9));
    lo.add(Layer::Metal1, Rect::um(9, 2, 40, 4), "rail");
    lo.add(Layer::Metal1, Rect::um(12, 6, 40, 8), "rail");
    lo.add_label(Layer::Metal1, {geom::from_um(30), geom::from_um(3)}, "a");
    lo.add_label(Layer::Metal1, {geom::from_um(30), geom::from_um(7)}, second);
    return lo;
}

/// The shorts of a result, as "kind net_a net_b" strings.
std::vector<std::string> shorts(const lift::LiftResult& r) {
    std::vector<std::string> out;
    for (const lift::Fault& f : r.faults.faults)
        if (f.kind == lift::FaultKind::LocalShort ||
            f.kind == lift::FaultKind::GlobalShort)
            out.push_back(std::string(lift::to_string(f.kind)) + " " +
                          f.net_a + " " + f.net_b);
    return out;
}

} // namespace

TEST(LiftShortKind, SameLabelConductorsShareTheDevice) {
    const auto r = run(facing_rails("a"));
    // Two nets, both named "a": C1 touches that name, so the bridge is
    // local, as a bridge within one net name always was.
    ASSERT_EQ(r.extraction.net_names.size(), 3u);
    EXPECT_GE(r.stats.bridge_sites, 1u);
    EXPECT_EQ(shorts(r), std::vector<std::string>{"local_short a a"});
}

TEST(LiftShortKind, DistinctLabelWithoutSharedDeviceIsGlobal) {
    const auto r = run(facing_rails("b"));
    EXPECT_GE(r.stats.bridge_sites, 1u);
    EXPECT_EQ(shorts(r), std::vector<std::string>{"global_short a b"});
}

TEST(LiftRedundant, ParallelStrapsBypassEveryMetal1Span) {
    const auto r = run(metal1_loop(true));
    // Two strap spans and the pad's two spans between the straps' ends
    // and the label: each has the other strap as a bypass.
    EXPECT_EQ(r.stats.open_sites, 4u);
    EXPECT_EQ(r.stats.redundant_opens, 4u);
    EXPECT_EQ(r.stats.dangling_opens, 0u);
    EXPECT_TRUE(opens_on(r, "a").empty());
}

TEST(LiftRedundant, SingleStrapOpensIsolateTheCapacitor) {
    const auto r = run(metal1_loop(false));
    EXPECT_EQ(r.stats.open_sites, 2u);
    EXPECT_EQ(r.stats.redundant_opens, 0u);
    EXPECT_EQ(r.stats.dangling_opens, 0u);
    EXPECT_EQ(opens_on(r, "a"),
              std::vector<std::string>{"line_open C1:1"});
}

TEST(LiftRedundant, DistantSecondViaMakesBothClustersRedundant) {
    const auto r = run(via_junction(26));
    const auto& ex = r.extraction;
    ASSERT_EQ(ex.cuts.size(), 2u);  // 11 um apart: two clusters
    EXPECT_EQ(ex.cuts[0].frag_a, ex.cuts[1].frag_a);
    EXPECT_EQ(ex.cuts[0].frag_b, ex.cuts[1].frag_b);
    EXPECT_EQ(r.stats.cut_sites, 2u);
    // Both via clusters, plus the track spans either side of the label.
    EXPECT_EQ(r.stats.open_sites, 2u);
    EXPECT_EQ(r.stats.redundant_opens, 4u);
    EXPECT_EQ(r.stats.dangling_opens, 0u);
    EXPECT_TRUE(opens_on(r, "a").empty());
}

TEST(LiftRedundant, NearbySecondViaClustersAndStaysAnOpen) {
    const auto r = run(via_junction(18));
    ASSERT_EQ(r.extraction.cuts.size(), 1u);  // 3 um apart: one cluster
    EXPECT_EQ(r.extraction.cuts[0].cuts.size(), 2u);
    EXPECT_EQ(r.stats.cut_sites, 1u);
    EXPECT_EQ(r.stats.redundant_opens, 0u);
    EXPECT_EQ(opens_on(r, "a"),
              std::vector<std::string>{"line_open C1:1"});
}

TEST(LiftRedundant, SingleViaJunctionIsAnOpen) {
    const auto r = run(via_junction(-1));
    EXPECT_EQ(r.stats.cut_sites, 1u);
    EXPECT_EQ(r.stats.open_sites, 1u);
    EXPECT_EQ(r.stats.redundant_opens, 0u);
    EXPECT_EQ(r.stats.dangling_opens, 0u);
    EXPECT_EQ(opens_on(r, "a"),
              std::vector<std::string>{"line_open C1:1"});
}

TEST(LiftRedundant, SplitNodeSideBCarriesBothPlates) {
    const auto r = run(split_node(false));
    EXPECT_EQ(r.stats.open_sites, 2u);
    EXPECT_EQ(r.stats.redundant_opens, 0u);
    EXPECT_EQ(r.stats.dangling_opens, 0u);
    // Cut next to the label: both plates leave.  Cut between the plates:
    // only C2 leaves.
    EXPECT_EQ(opens_on(r, "a"),
              (std::vector<std::string>{"line_open C2:1",
                                        "split_node C1:1 C2:1"}));
}

TEST(LiftRedundant, BypassedSplitNodeIsRedundant) {
    const auto r = run(split_node(true));
    // Both via clusters, the four line spans (either side of the label
    // and of each plate) and the bypass track itself.
    EXPECT_EQ(r.stats.cut_sites, 2u);
    EXPECT_EQ(r.stats.open_sites, 5u);
    EXPECT_EQ(r.stats.redundant_opens, 7u);
    EXPECT_EQ(r.stats.dangling_opens, 0u);
    EXPECT_TRUE(opens_on(r, "a").empty());
}

TEST(LiftRedundant, StubBeyondTheLabelIsDangling) {
    Layout lo = metal1_loop(false);
    // A stub leaving the pad above the label and ending on nothing.
    lo.add(Layer::Metal1, Rect::um(34, 8, 50, 10), "stub");
    const auto r = run(lo);
    // The strap span, and the pad spans below and above the label; only
    // the one that cuts the stub off has nothing on its far side.
    EXPECT_EQ(r.stats.open_sites, 3u);
    EXPECT_EQ(r.stats.redundant_opens, 0u);
    EXPECT_EQ(r.stats.dangling_opens, 1u);
    EXPECT_EQ(opens_on(r, "a"),
              std::vector<std::string>{"line_open C1:1"});
}
