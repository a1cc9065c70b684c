#include "extract/extractor.h"

#include "circuits/vco.h"
#include "geom/region.h"
#include "geom/spatial_index.h"

#include <algorithm>
#include <map>
#include <set>

namespace catlift::extract {

using geom::Rect;
using layout::Layer;
using layout::Layout;
using layout::Technology;

namespace {

/// Disjoint-set over fragment indices.
class UnionFind {
public:
    explicit UnionFind(std::size_t n) : parent_(n) {
        for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
    }
    std::size_t find(std::size_t x) {
        while (parent_[x] != x) {
            parent_[x] = parent_[parent_[x]];
            x = parent_[x];
        }
        return x;
    }
    void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

private:
    std::vector<std::size_t> parent_;
};

/// A recognised gate region: poly over diffusion.
struct GateRegion {
    Rect rect;
    std::size_t poly_shape;
    std::size_t chan_shape;  ///< the diffusion shape the channel came from
    bool is_nmos;
    std::string owner;       ///< provenance of the channel diffusion
};

/// Grid pitch of the extraction's spatial indices: a few typical device
/// pitches, so a lookup window touches a handful of cells.
constexpr geom::Coord kIndexCell = 20 * 1000;

std::string owner_device(const std::string& owner) {
    const auto colon = owner.find(':');
    return colon == std::string::npos ? owner : owner.substr(0, colon);
}

char owner_terminal(const std::string& owner) {
    const auto colon = owner.find(':');
    return (colon == std::string::npos || colon + 1 >= owner.size())
               ? '?'
               : owner[colon + 1];
}

} // namespace

ExtractOptions::ExtractOptions()
    : nmos_card(circuits::standard_nmos()), pmos_card(circuits::standard_pmos()) {}

int Extraction::net_id(const std::string& name) const {
    for (std::size_t i = 0; i < net_names.size(); ++i)
        if (net_names[i] == name) return static_cast<int>(i);
    throw Error("Extraction: no net named " + name);
}

std::vector<std::size_t> Extraction::net_fragments(int net) const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < fragments.size(); ++i)
        if (fragments[i].net == net) out.push_back(i);
    return out;
}

Extraction extract(const Layout& lo, const Technology& tech,
                   const ExtractOptions& opt) {
    Extraction ex;

    // Every geometric lookup below goes through a spatial index.  Queries
    // return candidate ids in ascending order, and that order matters: it
    // fixes the gate order (and so the MX# names), each cut's
    // representative fragments and the source/drain choice.

    // ---- 1. Gate regions -------------------------------------------------
    std::vector<GateRegion> gates;
    geom::SpatialIndex poly_idx(kIndexCell);
    for (std::size_t pi : lo.on_layer(Layer::Poly))
        poly_idx.insert(pi, lo.shapes[pi].rect);
    for (Layer diff : {Layer::NDiff, Layer::PDiff}) {
        for (std::size_t di : lo.on_layer(diff)) {
            for (std::size_t pi : poly_idx.query(lo.shapes[di].rect)) {
                const auto ov =
                    geom::intersection(lo.shapes[di].rect, lo.shapes[pi].rect);
                if (!ov || ov->empty()) continue;
                gates.push_back(GateRegion{*ov, pi, di, diff == Layer::NDiff,
                                           lo.shapes[di].owner});
            }
        }
    }

    // ---- 2. Fragmentation -------------------------------------------------
    geom::SpatialIndex gate_idx(kIndexCell);
    for (std::size_t gi = 0; gi < gates.size(); ++gi)
        gate_idx.insert(gi, gates[gi].rect);
    for (std::size_t si = 0; si < lo.shapes.size(); ++si) {
        const layout::Shape& s = lo.shapes[si];
        if (!layout::is_conducting(s.layer)) continue;
        if (s.layer == Layer::NDiff || s.layer == Layer::PDiff) {
            // Clip the gate areas out of the diffusion.
            std::vector<Rect> parts{s.rect};
            for (std::size_t gi : gate_idx.query(s.rect)) {
                const GateRegion& g = gates[gi];
                if (!g.rect.overlaps(s.rect)) continue;
                std::vector<Rect> next;
                for (const Rect& p : parts) {
                    auto cut = geom::subtract(p, g.rect);
                    next.insert(next.end(), cut.begin(), cut.end());
                }
                parts = std::move(next);
            }
            for (const Rect& p : parts)
                ex.fragments.push_back(Fragment{s.layer, p, si, s.owner, -1});
        } else {
            ex.fragments.push_back(Fragment{s.layer, s.rect, si, s.owner, -1});
        }
    }

    // ---- 3. Connectivity ---------------------------------------------------
    UnionFind uf(ex.fragments.size());
    std::vector<geom::SpatialIndex> frag_idx(layout::kLayerCount,
                                             geom::SpatialIndex(kIndexCell));
    for (std::size_t i = 0; i < ex.fragments.size(); ++i)
        frag_idx[static_cast<std::size_t>(ex.fragments[i].layer)].insert(
            i, ex.fragments[i].rect);
    // Ascending ids of the fragments on `layers` whose rects touch `r`.
    auto near = [&](const Rect& r, std::initializer_list<Layer> layers) {
        std::vector<std::size_t> out;
        for (Layer l : layers) {
            const auto ids = frag_idx[static_cast<std::size_t>(l)].query(r);
            out.insert(out.end(), ids.begin(), ids.end());
        }
        if (layers.size() > 1) std::sort(out.begin(), out.end());
        return out;
    };

    // Same-layer touching fragments.
    for (std::size_t i = 0; i < ex.fragments.size(); ++i) {
        const Fragment& fi = ex.fragments[i];
        for (std::size_t j : near(fi.rect, {fi.layer})) {
            if (j <= i || !fi.rect.touches(ex.fragments[j].rect)) continue;
            uf.unite(i, j);
            ex.touches.emplace_back(i, j);
        }
    }

    // Cut stitches (and cluster bookkeeping).
    struct RawCut {
        std::size_t shape;
        Layer layer;
        std::size_t upper;  // metal1 (contact) / metal2 (via) fragment
        std::size_t lower;  // poly-or-diff (contact) / metal1 (via) fragment
    };
    std::vector<RawCut> raw_cuts;
    auto frag_on = [&](const Rect& r, std::initializer_list<Layer> layers)
        -> std::vector<std::size_t> {
        std::vector<std::size_t> out;
        for (std::size_t i : near(r, layers))
            if (ex.fragments[i].rect.overlaps(r)) out.push_back(i);
        return out;
    };
    for (std::size_t si = 0; si < lo.shapes.size(); ++si) {
        const layout::Shape& s = lo.shapes[si];
        if (s.layer == Layer::Contact) {
            const auto uppers = frag_on(s.rect, {Layer::Metal1});
            const auto lowers =
                frag_on(s.rect, {Layer::Poly, Layer::NDiff, Layer::PDiff});
            require(!uppers.empty() && !lowers.empty(),
                    "extract: contact not joining metal1 to poly/diffusion "
                    "(owner " + s.owner + ")");
            // A contact bridging both poly and diffusion is a layout bug.
            std::set<Layer> lower_layers;
            for (std::size_t f : lowers)
                lower_layers.insert(ex.fragments[f].layer);
            require(!(lower_layers.count(Layer::Poly) &&
                      (lower_layers.count(Layer::NDiff) ||
                       lower_layers.count(Layer::PDiff))),
                    "extract: contact bridges poly and diffusion (owner " +
                        s.owner + ")");
            for (std::size_t u : uppers)
                for (std::size_t l : lowers) uf.unite(u, l);
            raw_cuts.push_back(RawCut{si, Layer::Contact, uppers.front(),
                                      lowers.front()});
        } else if (s.layer == Layer::Via) {
            const auto uppers = frag_on(s.rect, {Layer::Metal2});
            const auto lowers = frag_on(s.rect, {Layer::Metal1});
            require(!uppers.empty() && !lowers.empty(),
                    "extract: via not joining metal1 to metal2 (owner " +
                        s.owner + ")");
            for (std::size_t u : uppers)
                for (std::size_t l : lowers) uf.unite(u, l);
            raw_cuts.push_back(
                RawCut{si, Layer::Via, uppers.front(), lowers.front()});
        }
    }

    // ---- 4. Net numbering + labels -----------------------------------------
    std::map<std::size_t, int> root_to_net;
    for (std::size_t i = 0; i < ex.fragments.size(); ++i) {
        const std::size_t r = uf.find(i);
        auto [it, inserted] =
            root_to_net.emplace(r, static_cast<int>(root_to_net.size()));
        ex.fragments[i].net = it->second;
        (void)inserted;
    }
    ex.net_names.assign(root_to_net.size(), "");
    for (const layout::Label& lb : lo.labels) {
        bool hit = false;
        for (std::size_t i :
             near(Rect(lb.at.x, lb.at.y, lb.at.x, lb.at.y), {lb.layer})) {
            const Fragment& f = ex.fragments[i];
            if (!f.rect.contains(lb.at)) continue;
            std::string& name =
                ex.net_names[static_cast<std::size_t>(f.net)];
            require(name.empty() || name == lb.text,
                    "extract: conflicting labels '" + name + "' and '" +
                        lb.text + "' on one net");
            name = lb.text;
            hit = true;
            break;
        }
        require(hit, "extract: label '" + lb.text + "' touches no conductor");
    }
    {
        int anon = 0;
        std::set<std::string> used(ex.net_names.begin(), ex.net_names.end());
        for (std::string& n : ex.net_names) {
            if (!n.empty()) continue;
            do {
                n = "n$" + std::to_string(anon++);
            } while (used.count(n));
            used.insert(n);
        }
    }

    // ---- 5. Cut clusters -----------------------------------------------------
    // Redundant cuts implementing the same junction are grouped: same cut
    // layer, same joined layers, and within one defect diameter of each
    // other.  A cluster can only be opened by a defect spanning its whole
    // bounding box.
    {
        constexpr geom::Coord kClusterDist = 6 * 1000;  // 6 um
        UnionFind cuf(raw_cuts.size());
        geom::SpatialIndex cut_idx(kIndexCell);
        for (std::size_t i = 0; i < raw_cuts.size(); ++i)
            cut_idx.insert(i, lo.shapes[raw_cuts[i].shape].rect);
        for (std::size_t i = 0; i < raw_cuts.size(); ++i) {
            const Rect& ri = lo.shapes[raw_cuts[i].shape].rect;
            for (std::size_t j : cut_idx.neighbours(ri, kClusterDist)) {
                if (j <= i) continue;
                const RawCut& a = raw_cuts[i];
                const RawCut& b = raw_cuts[j];
                if (a.layer != b.layer) continue;
                if (ex.fragments[a.upper].net != ex.fragments[b.upper].net ||
                    ex.fragments[a.lower].net != ex.fragments[b.lower].net)
                    continue;
                if (ex.fragments[a.lower].layer != ex.fragments[b.lower].layer)
                    continue;
                if (geom::separation(lo.shapes[a.shape].rect,
                                     lo.shapes[b.shape].rect) <= kClusterDist)
                    cuf.unite(i, j);
            }
        }
        std::map<std::size_t, std::size_t> root_to_cluster;
        for (std::size_t i = 0; i < raw_cuts.size(); ++i) {
            const RawCut& rc = raw_cuts[i];
            const std::size_t root = cuf.find(i);
            auto [it, inserted] = root_to_cluster.emplace(root, ex.cuts.size());
            if (inserted) {
                CutCluster cc;
                cc.layer = rc.layer;
                cc.frag_a = rc.upper;
                cc.frag_b = rc.lower;
                cc.bbox = lo.shapes[rc.shape].rect;
                cc.owner = lo.shapes[rc.shape].owner;
                cc.cuts.push_back(rc.shape);
                ex.cuts.push_back(std::move(cc));
            } else {
                CutCluster& cc = ex.cuts[it->second];
                cc.cuts.push_back(rc.shape);
                cc.bbox = cc.bbox.united(lo.shapes[rc.shape].rect);
            }
        }
    }

    // ---- 6. Device recognition ------------------------------------------------
    // Poly shape -> its (first) fragment; absent shapes map past the end.
    const std::size_t no_frag = ex.fragments.size();
    std::vector<std::size_t> poly_frag(lo.shapes.size(), no_frag);
    for (std::size_t i = 0; i < ex.fragments.size(); ++i) {
        const Fragment& f = ex.fragments[i];
        if (f.layer == Layer::Poly && poly_frag[f.shape] == no_frag)
            poly_frag[f.shape] = i;
    }
    int anon_dev = 0;
    for (const GateRegion& g : gates) {
        ExtractedMos m;
        m.is_nmos = g.is_nmos;
        m.gate = g.rect;
        const std::string dev = owner_device(g.owner);
        m.name = !dev.empty() ? dev : ("MX" + std::to_string(anon_dev++));

        // Gate fragment: the poly fragment of the gate strip.
        require(poly_frag[g.poly_shape] != no_frag,
                "extract: gate fragment missing for " + m.name);
        m.frag_gate = poly_frag[g.poly_shape];
        m.net_gate = ex.fragments[m.frag_gate].net;

        // Source/drain: diffusion fragments sharing a full edge with the
        // channel.  Left/right if the diffusion abuts in x, else top/bottom.
        const Layer diff = g.is_nmos ? Layer::NDiff : Layer::PDiff;
        std::vector<std::size_t> left, right, below, above;
        for (std::size_t i : near(g.rect, {diff})) {
            const Fragment& f = ex.fragments[i];
            if (f.rect.overlaps(g.rect)) continue;  // residual sliver
            if (f.rect.hi.x == g.rect.lo.x && geom::y_overlap(f.rect, g.rect) > 0)
                left.push_back(i);
            else if (f.rect.lo.x == g.rect.hi.x &&
                     geom::y_overlap(f.rect, g.rect) > 0)
                right.push_back(i);
            else if (f.rect.hi.y == g.rect.lo.y &&
                     geom::x_overlap(f.rect, g.rect) > 0)
                below.push_back(i);
            else if (f.rect.lo.y == g.rect.hi.y &&
                     geom::x_overlap(f.rect, g.rect) > 0)
                above.push_back(i);
        }
        bool horizontal;  // current flow along x (gate splits left/right)
        std::size_t fa, fb;
        if (!left.empty() && !right.empty()) {
            horizontal = true;
            fa = left.front();
            fb = right.front();
        } else if (!below.empty() && !above.empty()) {
            horizontal = false;
            fa = below.front();
            fb = above.front();
        } else {
            throw Error("extract: gate of " + m.name +
                        " lacks source/drain diffusion on opposite sides");
        }
        m.l = geom::to_um(horizontal ? g.rect.width() : g.rect.height()) * 1e-6;
        m.w = geom::to_um(horizontal ? g.rect.height() : g.rect.width()) * 1e-6;

        // Assign source/drain by provenance when available.
        const Fragment& A = ex.fragments[fa];
        if (owner_terminal(A.owner) == 's') {
            m.frag_source = fa;
            m.frag_drain = fb;
        } else if (owner_terminal(A.owner) == 'd') {
            m.frag_source = fb;
            m.frag_drain = fa;
        } else {
            m.frag_drain = fa;
            m.frag_source = fb;
        }
        m.net_source = ex.fragments[m.frag_source].net;
        m.net_drain = ex.fragments[m.frag_drain].net;
        ex.mosfets.push_back(std::move(m));
    }

    // ---- 7. Capacitor recognition ------------------------------------------
    for (std::size_t si : lo.on_layer(Layer::CapMark)) {
        const layout::Shape& mark = lo.shapes[si];
        ExtractedCap cap;
        cap.name = owner_device(mark.owner);
        if (cap.name.empty()) cap.name = "CX" + std::to_string(anon_dev++);
        // The plates are whatever metal1 / poly conductors overlap the
        // recognition box; the electrode fragment with the largest marker
        // overlap defines each plate's net, and the capacitance integrates
        // the union of all metal1-over-poly overlap inside the marker.
        double best_top = 0.0, best_bot = 0.0;
        std::vector<std::size_t> tops, bots;
        for (std::size_t i : near(mark.rect, {Layer::Metal1, Layer::Poly})) {
            const Fragment& f = ex.fragments[i];
            auto ov = geom::intersection(f.rect, mark.rect);
            if (!ov || ov->empty()) continue;
            if (f.layer == Layer::Metal1) {
                tops.push_back(i);
                if (ov->area() > best_top) {
                    best_top = ov->area();
                    cap.frag_top = i;
                    cap.net_top = f.net;
                }
            } else if (f.layer == Layer::Poly) {
                bots.push_back(i);
                if (ov->area() > best_bot) {
                    best_bot = ov->area();
                    cap.frag_bottom = i;
                    cap.net_bottom = f.net;
                }
            }
        }
        require(best_top > 0 && best_bot > 0,
                "extract: capacitor marker without both plates: " + cap.name);
        geom::Region overlap;
        for (std::size_t ti : tops) {
            if (ex.fragments[ti].net != cap.net_top) continue;
            for (std::size_t bi : bots) {
                if (ex.fragments[bi].net != cap.net_bottom) continue;
                auto o1 = geom::intersection(ex.fragments[ti].rect,
                                             ex.fragments[bi].rect);
                if (!o1) continue;
                auto o2 = geom::intersection(*o1, mark.rect);
                if (o2 && !o2->empty()) overlap.add(*o2);
            }
        }
        require(!overlap.empty(),
                "extract: capacitor plates do not overlap inside marker");
        const double area_m2 = geom::to_um2(overlap.union_area()) * 1e-12;
        cap.value = area_m2 * tech.cap_per_area;
        ex.caps.push_back(std::move(cap));
    }

    // ---- 8. Netlist construction ---------------------------------------------
    ex.circuit.title = "extracted from " + lo.name;
    {
        netlist::MosModel nm = opt.nmos_card;
        nm.name = opt.nmos_model;
        netlist::MosModel pm = opt.pmos_card;
        pm.name = opt.pmos_model;
        pm.is_nmos = false;
        nm.is_nmos = true;
        ex.circuit.add_model(nm);
        ex.circuit.add_model(pm);
    }
    for (const ExtractedMos& m : ex.mosfets) {
        ex.circuit.add_mosfet(
            m.name, ex.net_name(m.net_drain), ex.net_name(m.net_gate),
            ex.net_name(m.net_source),
            m.is_nmos ? opt.nmos_bulk : opt.pmos_bulk,
            m.is_nmos ? opt.nmos_model : opt.pmos_model, m.w, m.l);
    }
    for (const ExtractedCap& c : ex.caps) {
        ex.circuit.add_capacitor(c.name, ex.net_name(c.net_bottom),
                                 ex.net_name(c.net_top), c.value);
    }
    return ex;
}

netlist::CompareResult lvs(const Layout& lo, const Technology& tech,
                           const netlist::Circuit& schematic,
                           const ExtractOptions& opt) {
    Extraction ex = extract(lo, tech, opt);
    // Strip off-chip sources from the golden schematic.
    netlist::Circuit golden;
    golden.title = schematic.title;
    golden.models = schematic.models;
    for (const netlist::Device& d : schematic.devices) {
        if (d.kind == netlist::DeviceKind::VSource ||
            d.kind == netlist::DeviceKind::ISource)
            continue;
        golden.add(d);
    }
    return netlist::compare_netlists(golden, ex.circuit, 1e-2);
}

} // namespace catlift::extract
