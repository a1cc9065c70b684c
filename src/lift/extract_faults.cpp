#include "lift/extract_faults.h"

#include "geom/spatial_index.h"

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <span>

namespace catlift::lift {

using defects::FailureMode;
using defects::Mechanism;
using extract::CutCluster;
using extract::Extraction;
using extract::Fragment;
using geom::Coord;
using geom::Rect;
using layout::Layer;

namespace {

/// One edge of a net's connectivity graph.
struct NetEdge {
    std::size_t a, b;   ///< fragment indices
    int cluster = -1;   ///< cut cluster index, -1 for same-layer touch

    std::size_t other(std::size_t v) const { return v == a ? b : a; }
};

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// Per-fragment lists in one buffer: list i is items[start[i], start[i+1]).
struct FlatLists {
    std::vector<std::size_t> start, items;

    /// `emit(add)` calls add(list, item) once per entry, the same way each
    /// time it is called; entries keep their emission order in a list.
    template <typename Emit>
    void build(std::size_t n, Emit emit) {
        start.assign(n + 1, 0);
        emit([&](std::size_t i, std::size_t) { ++start[i + 1]; });
        for (std::size_t i = 0; i < n; ++i) start[i + 1] += start[i];
        items.resize(start[n]);
        std::vector<std::size_t> fill(start.begin(), start.end() - 1);
        emit([&](std::size_t i, std::size_t v) { items[fill[i]++] = v; });
    }
    std::span<const std::size_t> operator[](std::size_t i) const {
        return {items.data() + start[i], start[i + 1] - start[i]};
    }
};

/// Everything the open/split analysis needs about the extracted circuit,
/// with the articulation/bridge structure of every net from one DFS pass.
///
/// The DFS runs over the whole fragment graph (edges never cross nets, so
/// each DFS tree lies in one net) and numbers fragments in visit order:
/// the subtree of `v` is the order range [disc[v], end[v]).  Removing a
/// fragment `f` leaves, within its tree, one component per child `c` with
/// low[c] >= disc[f] (that child's subtree) plus one "rest" component
/// holding everything else; removing a tree edge to `c` splits the tree
/// iff low[c] > disc[parent].  Terminal and port counts of any such
/// component are differences of prefix sums over the visit order.
struct NetGraph {
    /// Same-layer touch edges in ascending (a, b) order, then one edge per
    /// cut cluster in cluster order -- the order attachments are listed in.
    std::vector<NetEdge> edges;
    std::size_t n_touch = 0;
    FlatLists adj;  ///< fragment -> incident edge ids, ascending
    /// Every anchored device terminal in ascending order; the analysis
    /// handles terminals by their rank in this list.
    std::vector<TerminalRef> terms;
    std::vector<std::array<std::size_t, 3>> mos_term;  ///< d, g, s ranks
    std::vector<std::array<std::size_t, 2>> cap_term;  ///< bottom, top
    FlatLists anchors;  ///< fragment -> terminal ranks
    FlatLists mos_on, caps_on, labels_on;  ///< fragment -> device/label ids
    std::vector<char> is_port;  ///< first conductor under some label

    std::vector<std::size_t> disc, end, low, parent_edge, root, order;
    FlatLists children;  ///< DFS tree children, in visit order
    std::vector<std::size_t> term_prefix, port_prefix;  ///< over `order`
    /// Terminal ranks by the visit order of their fragments: position t's
    /// are by_order[term_prefix[t] .. term_prefix[t + 1]).
    std::vector<std::size_t> by_order;
    /// Terminal/port totals of the children subtrees that removing the
    /// fragment separates from the rest of its tree.
    std::vector<std::size_t> sep_terms, sep_ports;

    /// `by_layer` indexes the fragments of each layer.
    NetGraph(const Extraction& e, const layout::Layout& lo,
             std::vector<geom::SpatialIndex>& by_layer) {
        const std::size_t n = e.fragments.size();
        // Touching fragments share a net; the extraction lists the pairs
        // in ascending order.
        for (const auto& [a, b] : e.touches) edges.push_back(NetEdge{a, b, -1});
        n_touch = edges.size();
        for (std::size_t c = 0; c < e.cuts.size(); ++c)
            edges.push_back(
                NetEdge{e.cuts[c].frag_a, e.cuts[c].frag_b, static_cast<int>(c)});

        adj.build(n, [&](auto add) {
            for (std::size_t id = 0; id < edges.size(); ++id) {
                add(edges[id].a, id);
                add(edges[id].b, id);
            }
        });

        // Terminal anchors.  Device names are unique (the extracted
        // netlist rejects duplicates), so every terminal has one rank.
        for (const auto& m : e.mosfets)
            for (int t = 0; t < 3; ++t) terms.push_back({m.name, t});
        for (const auto& c : e.caps)
            for (int t = 0; t < 2; ++t) terms.push_back({c.name, t});
        std::sort(terms.begin(), terms.end());
        auto rank = [&](const std::string& dev, int t) {
            return static_cast<std::size_t>(
                std::lower_bound(terms.begin(), terms.end(),
                                 TerminalRef{dev, t}) -
                terms.begin());
        };
        for (const auto& m : e.mosfets)
            mos_term.push_back(
                {rank(m.name, 0), rank(m.name, 1), rank(m.name, 2)});
        for (const auto& c : e.caps)
            cap_term.push_back({rank(c.name, 0), rank(c.name, 1)});
        // Drain, gate and source are three distinct fragments, as are the
        // two plates, so each device is listed once per fragment.
        mos_on.build(n, [&](auto add) {
            for (std::size_t k = 0; k < e.mosfets.size(); ++k) {
                const auto& m = e.mosfets[k];
                for (std::size_t f : {m.frag_drain, m.frag_gate, m.frag_source})
                    add(f, k);
            }
        });
        caps_on.build(n, [&](auto add) {
            for (std::size_t k = 0; k < e.caps.size(); ++k)
                for (std::size_t f : {e.caps[k].frag_bottom, e.caps[k].frag_top})
                    add(f, k);
        });
        anchors.build(n, [&](auto add) {
            for (std::size_t k = 0; k < e.mosfets.size(); ++k) {
                const auto& m = e.mosfets[k];
                add(m.frag_drain, mos_term[k][0]);
                add(m.frag_gate, mos_term[k][1]);
                add(m.frag_source, mos_term[k][2]);
            }
            for (std::size_t k = 0; k < e.caps.size(); ++k) {
                add(e.caps[k].frag_bottom, cap_term[k][0]);
                add(e.caps[k].frag_top, cap_term[k][1]);
            }
        });
        // Port anchors (labels): a label marks the first fragment under
        // it as a port; every fragment under it lists it.
        is_port.assign(n, 0);
        std::vector<std::pair<std::size_t, std::size_t>> under;  // frag, label
        for (std::size_t k = 0; k < lo.labels.size(); ++k) {
            const layout::Label& lb = lo.labels[k];
            bool first = true;
            const Rect at(lb.at.x, lb.at.y, lb.at.x, lb.at.y);
            for (std::size_t i :
                 by_layer[static_cast<std::size_t>(lb.layer)].query(at)) {
                if (!e.fragments[i].rect.contains(lb.at)) continue;
                if (first) is_port[i] = 1;
                first = false;
                under.emplace_back(i, k);
            }
        }
        labels_on.build(n, [&](auto add) {
            for (const auto& [i, k] : under) add(i, k);
        });
        dfs();
    }

    /// Iterative Tarjan DFS keyed by edge id, so that parallel edges (two
    /// cut clusters joining the same pair of fragments) count as a cycle.
    void dfs() {
        const std::size_t n = is_port.size();
        disc.assign(n, kNone);
        end.assign(n, 0);
        low.assign(n, 0);
        parent_edge.assign(n, kNone);
        root.assign(n, 0);
        order.clear();
        order.reserve(n);
        std::vector<std::pair<std::size_t, std::size_t>> stack;  // v, next adj
        for (std::size_t s = 0; s < n; ++s) {
            if (disc[s] != kNone) continue;
            auto visit = [&](std::size_t v) {
                disc[v] = low[v] = order.size();
                order.push_back(v);
                root[v] = s;
                stack.emplace_back(v, adj.start[v]);
            };
            visit(s);
            while (!stack.empty()) {
                const std::size_t v = stack.back().first;
                std::size_t& it = stack.back().second;
                if (it < adj.start[v + 1]) {
                    const std::size_t id = adj.items[it++];
                    if (id == parent_edge[v]) continue;
                    const std::size_t w = edges[id].other(v);
                    if (disc[w] == kNone) {
                        parent_edge[w] = id;
                        visit(w);
                    } else {
                        low[v] = std::min(low[v], disc[w]);
                    }
                    continue;
                }
                end[v] = order.size();
                stack.pop_back();
                if (!stack.empty()) {
                    const std::size_t p = stack.back().first;
                    low[p] = std::min(low[p], low[v]);
                }
            }
        }

        children.build(n, [&](auto add) {
            for (std::size_t v : order)
                if (parent_edge[v] != kNone) add(parent(v), v);
        });

        term_prefix.assign(n + 1, 0);
        port_prefix.assign(n + 1, 0);
        by_order.clear();
        for (std::size_t t = 0; t < n; ++t) {
            const auto at = anchors[order[t]];
            term_prefix[t + 1] = term_prefix[t] + at.size();
            port_prefix[t + 1] = port_prefix[t] + (is_port[order[t]] ? 1 : 0);
            by_order.insert(by_order.end(), at.begin(), at.end());
        }
        sep_terms.assign(n, 0);
        sep_ports.assign(n, 0);
        for (std::size_t v = 0; v < n; ++v) {
            if (parent_edge[v] == kNone) continue;
            const std::size_t p = parent(v);
            if (low[v] < disc[p]) continue;
            sep_terms[p] += terms_of(v);
            sep_ports[p] += ports_of(v);
        }
    }

    std::size_t parent(std::size_t v) const {
        return edges[parent_edge[v]].other(v);
    }
    std::size_t terms_of(std::size_t v) const {  ///< subtree of v
        return term_prefix[end[v]] - term_prefix[disc[v]];
    }
    std::size_t ports_of(std::size_t v) const {
        return port_prefix[end[v]] - port_prefix[disc[v]];
    }
    bool separates(std::size_t child, std::size_t f) const {
        return low[child] >= disc[f];
    }

    /// With fragment `f` removed, the component holding `x` (x != f, same
    /// tree): the separated child subtree of f holding x, or kNone for
    /// the rest of the tree.
    std::size_t component(std::size_t f, std::size_t x) const {
        if (disc[x] <= disc[f] || disc[x] >= end[f]) return kNone;
        // The last child of f visited before x roots x's subtree.
        const auto kids = children[f];
        const std::size_t c =
            *(std::upper_bound(kids.begin(), kids.end(), disc[x],
                               [&](std::size_t d, std::size_t v) {
                                   return d < disc[v];
                               }) -
              1);
        return separates(c, f) ? c : kNone;
    }

    /// Terminal and port counts of a component of the net without `f`.
    std::size_t comp_terms(std::size_t f, std::size_t c) const {
        if (c != kNone) return terms_of(c);
        return terms_of(root[f]) - anchors[f].size() - sep_terms[f];
    }
    std::size_t comp_ports(std::size_t f, std::size_t c) const {
        if (c != kNone) return ports_of(c);
        return ports_of(root[f]) - (is_port[f] ? 1 : 0) - sep_ports[f];
    }

    /// Append the terminals anchored in visit-order range [lo, hi): one
    /// slice of `by_order`, so the cost is the terminals appended.
    void append_range(std::size_t lo, std::size_t hi,
                      std::vector<std::size_t>& out) const {
        out.insert(out.end(), by_order.begin() + term_prefix[lo],
                   by_order.begin() + term_prefix[hi]);
    }
    /// Append the terminals of a component of the net without `f`.  The
    /// rest of the tree is its range minus f and f's separated subtrees,
    /// all of which follow f in the visit order.
    void append_comp(std::size_t f, std::size_t c,
                     std::vector<std::size_t>& out) const {
        if (c != kNone) {
            append_range(disc[c], end[c], out);
            return;
        }
        append_range(disc[root[f]], disc[f], out);
        std::size_t t = disc[f] + 1;
        for (std::size_t ch : children[f]) {
            if (!separates(ch, f)) continue;
            append_range(t, disc[ch], out);
            t = end[ch];
        }
        append_range(t, end[root[f]], out);
    }

    /// Terminal ranks -> the sorted, duplicate-free terminal list.
    std::vector<TerminalRef> terminals(std::vector<std::size_t>& ranks) const {
        std::sort(ranks.begin(), ranks.end());
        ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
        std::vector<TerminalRef> out;
        out.reserve(ranks.size());
        for (std::size_t r : ranks) out.push_back(terms[r]);
        return out;
    }
};

/// Attachment of something to a fragment, projected on its long axis.
struct Attachment {
    Coord lo, hi;  ///< interval along the long axis
    enum class Kind { Frag, Terminal, Port } kind;
    std::size_t frag = 0;   // Kind::Frag: the attached fragment
    std::size_t term = 0;   // Kind::Terminal: rank in NetGraph::terms
};

/// Merge-key for faults with identical electrical signature.  The
/// mechanism is deliberately NOT part of the key: a metal1 bridge and a
/// metal2 bridge between the same two nets are one electrical fault for
/// AnaFAULT; the merged fault carries the mechanism contributing the most
/// probability as its label.
std::string fault_key(const Fault& f) {
    std::string k = std::string(to_string(f.kind)) + "|";
    switch (f.kind) {
        case FaultKind::LocalShort:
        case FaultKind::GlobalShort: {
            const auto& lo = std::min(f.net_a, f.net_b);
            const auto& hi = std::max(f.net_a, f.net_b);
            k += lo + ">" + hi;
            break;
        }
        case FaultKind::LineOpen:
        case FaultKind::SplitNode: {
            k += f.net + "[";
            for (const TerminalRef& t : f.group_b)
                k += t.device + ":" + std::to_string(t.terminal) + ",";
            k += "]";
            break;
        }
        case FaultKind::StuckOpen:
            k += f.victim.device + ":" + std::to_string(f.victim.terminal);
            break;
    }
    return k;
}

} // namespace

LiftResult extract_faults(const layout::Layout& lo,
                          const layout::Technology& tech,
                          const LiftOptions& opt) {
    LiftResult res;
    res.extraction = extract::extract(lo, tech, opt.extract_opt);
    const Extraction& ex = res.extraction;
    const defects::DefectModel& model = opt.model;
    const defects::DefectStatistics& stats = model.stats();
    const auto xmax = static_cast<Coord>(model.max_defect());

    // Per-layer fragment indices, shared by the net graph and the bridges.
    std::vector<std::vector<std::size_t>> on_layer(layout::kLayerCount);
    std::vector<geom::SpatialIndex> by_layer(
        layout::kLayerCount, geom::SpatialIndex(std::max<Coord>(xmax, 1000)));
    for (std::size_t i = 0; i < ex.fragments.size(); ++i) {
        const auto l = static_cast<std::size_t>(ex.fragments[i].layer);
        on_layer[l].push_back(i);
        by_layer[l].insert(i, ex.fragments[i].rect);
    }
    NetGraph graph(ex, lo, by_layer);
    struct Merged {
        Fault fault;  ///< the accumulated fault
        /// Per-mechanism contributions; the dominant one becomes the
        /// fault's mechanism label.
        std::map<std::string, double> by_mech;
    };
    std::map<std::string, Merged> merged;  // key -> accumulated fault

    auto accumulate = [&](Fault f) {
        auto [it, fresh] = merged.try_emplace(fault_key(f));
        it->second.by_mech[f.mechanism] += f.probability;
        if (fresh)
            it->second.fault = std::move(f);
        else
            it->second.fault.probability += f.probability;
    };

    // Classify an open by the terminals it isolates: one MOS terminal is a
    // transistor stuck-open regardless of whether the failing site was a
    // contact cluster or a line span.
    std::set<std::string> mos_names;
    for (const auto& m : ex.mosfets) mos_names.insert(m.name);
    auto classify_open = [&](Fault& f) {
        if (f.group_b.size() == 1) {
            const TerminalRef& t = f.group_b[0];
            if (mos_names.count(t.device)) {
                f.kind = FaultKind::StuckOpen;
                f.victim = t;
                return;
            }
            f.kind = FaultKind::LineOpen;
        } else {
            f.kind = FaultKind::SplitNode;
        }
    };

    // Net pairs sharing a device (ordered names, a <= b): the fallback
    // locality test for shorts when no net blocks are given.  Two separate
    // conductors can carry the same label, so (a, a) is listed for every
    // net a device touches.
    std::set<std::pair<std::string, std::string>> device_pairs;
    if (opt.net_blocks.empty()) {
        for (const auto& d : ex.circuit.devices)
            for (const std::string& a : d.nodes)
                for (const std::string& b : d.nodes)
                    if (a <= b) device_pairs.emplace(a, b);
    }

    // Classification helper for shorts (a <= b).
    auto short_kind = [&](const std::string& a, const std::string& b) {
        if (!opt.net_blocks.empty()) {
            auto ba = opt.net_blocks.find(a);
            auto bb = opt.net_blocks.find(b);
            const std::string block_a =
                ba == opt.net_blocks.end() ? "?" : ba->second;
            const std::string block_b =
                bb == opt.net_blocks.end() ? "?" : bb->second;
            if (block_a == "supply" || block_b == "supply")
                return FaultKind::GlobalShort;
            return block_a == block_b ? FaultKind::LocalShort
                                      : FaultKind::GlobalShort;
        }
        // Fallback: a bridge is local iff the nets share a device.
        return device_pairs.count({a, b}) ? FaultKind::LocalShort
                                          : FaultKind::GlobalShort;
    };

    // ---- Bridges -------------------------------------------------------
    for (int li = 0; li < static_cast<int>(layout::kLayerCount); ++li) {
        const Layer layer = static_cast<Layer>(li);
        const Mechanism* mech = stats.find(layer, FailureMode::Short);
        if (!mech) continue;
        const auto l = static_cast<std::size_t>(li);
        for (std::size_t i : on_layer[l]) {
            const Fragment& fa = ex.fragments[i];
            for (std::size_t j : by_layer[l].neighbours(fa.rect, xmax)) {
                if (j <= i) continue;
                const Fragment& fb = ex.fragments[j];
                if (fb.net == fa.net) continue;
                const geom::Point gaps = geom::axis_gaps(fa.rect, fb.rect);
                if (gaps.x > 0 && gaps.y > 0) continue;  // diagonal
                const Coord spacing = std::max(gaps.x, gaps.y);
                if (spacing <= 0 || spacing >= xmax) continue;
                const Coord facing = gaps.x > 0
                                         ? geom::y_overlap(fa.rect, fb.rect)
                                         : geom::x_overlap(fa.rect, fb.rect);
                if (facing <= 0) continue;
                ++res.stats.bridge_sites;
                Fault f;
                f.mechanism = mech->name;
                f.net_a = ex.net_name(fa.net);
                f.net_b = ex.net_name(fb.net);
                if (f.net_a > f.net_b) std::swap(f.net_a, f.net_b);
                f.kind = short_kind(f.net_a, f.net_b);
                f.probability = model.bridge_probability(
                    *mech, static_cast<double>(facing),
                    static_cast<double>(spacing));
                accumulate(std::move(f));
            }
        }
    }

    // ---- Line opens / split nodes ---------------------------------------
    for (std::size_t fi = 0; fi < ex.fragments.size(); ++fi) {
        const Fragment& f = ex.fragments[fi];
        const Mechanism* mech = stats.find(f.layer, FailureMode::Open);
        if (!mech) continue;

        // Long axis of the fragment.
        const bool along_x = f.rect.width() >= f.rect.height();
        const Coord width = along_x ? f.rect.height() : f.rect.width();
        auto project = [&](const Rect& r) -> std::pair<Coord, Coord> {
            if (along_x)
                return {std::max(r.lo.x, f.rect.lo.x),
                        std::min(r.hi.x, f.rect.hi.x)};
            return {std::max(r.lo.y, f.rect.lo.y),
                    std::min(r.hi.y, f.rect.hi.y)};
        };

        // Collect attachments.
        std::vector<Attachment> att;
        for (std::size_t id : graph.adj[fi]) {
            const NetEdge& ed = graph.edges[id];
            const std::size_t other = ed.other(fi);
            const Rect& where =
                ed.cluster >= 0
                    ? ex.cuts[static_cast<std::size_t>(ed.cluster)].bbox
                    : ex.fragments[other].rect;
            auto [lo_p, hi_p] = project(where);
            if (lo_p > hi_p) std::swap(lo_p, hi_p);
            att.push_back({lo_p, hi_p, Attachment::Kind::Frag, other, 0});
        }
        // Device terminals anchored on this fragment (at the gate position).
        for (std::size_t k : graph.mos_on[fi]) {
            const auto& m = ex.mosfets[k];
            auto [lo_p, hi_p] = project(m.gate);
            int term = m.frag_gate == fi ? 1 : (m.frag_drain == fi ? 0 : 2);
            att.push_back({lo_p, hi_p, Attachment::Kind::Terminal, 0,
                           graph.mos_term[k][static_cast<std::size_t>(term)]});
        }
        for (std::size_t k : graph.caps_on[fi]) {
            const auto& c = ex.caps[k];
            // The plate is the anchor: use the whole fragment extent so
            // the plate body never ends up "cut off" from itself.
            att.push_back({project(f.rect).first, project(f.rect).second,
                           Attachment::Kind::Terminal, 0,
                           graph.cap_term[k][c.frag_bottom == fi ? 0 : 1]});
        }
        // Ports.
        if (graph.is_port[fi]) {
            for (std::size_t k : graph.labels_on[fi]) {
                const layout::Label& lb = lo.labels[k];
                const Coord p = along_x ? lb.at.x : lb.at.y;
                att.push_back({p, p, Attachment::Kind::Port, 0, 0});
            }
        }
        if (att.size() < 2) continue;
        std::sort(att.begin(), att.end(),
                  [](const Attachment& a, const Attachment& b) {
                      return a.lo < b.lo || (a.lo == b.lo && a.hi < b.hi);
                  });

        // Components of the net without this fragment that the attachments
        // reach, with the first and last attachment reaching each.  A span
        // between attachments i and i+1 is bypassed iff some component
        // reaches both sides (first <= i < last); otherwise side A holds
        // exactly the components with last <= i.
        const std::size_t n_att = att.size();
        std::vector<std::pair<std::size_t, std::size_t>> reach;  // comp, k
        for (std::size_t k = 0; k < n_att; ++k)
            if (att[k].kind == Attachment::Kind::Frag)
                reach.emplace_back(graph.component(fi, att[k].frag), k);
        std::sort(reach.begin(), reach.end());
        struct Reached {
            std::size_t comp, first, last;
        };
        std::vector<Reached> comps;
        std::vector<std::size_t> comp_of(n_att);  // Frag attachment -> comps
        for (const auto& [c, k] : reach) {
            if (comps.empty() || comps.back().comp != c)
                comps.push_back({c, k, k});
            else
                comps.back().last = k;
            comp_of[k] = comps.size() - 1;
        }
        // Per attachment index i: spans straddled, and side A's terminal
        // and port totals (direct ones plus components closed by i).
        std::vector<long> straddle(n_att, 0);
        std::vector<std::size_t> terms_a(n_att, 0), ports_a(n_att, 0);
        for (const Reached& r : comps) {
            ++straddle[r.first];
            --straddle[r.last];
            terms_a[r.last] += graph.comp_terms(fi, r.comp);
            ports_a[r.last] += graph.comp_ports(fi, r.comp);
        }
        for (std::size_t k = 0; k < n_att; ++k) {
            terms_a[k] += att[k].kind == Attachment::Kind::Terminal ? 1 : 0;
            ports_a[k] += att[k].kind == Attachment::Kind::Port ? 1 : 0;
            if (k > 0) {
                straddle[k] += straddle[k - 1];
                terms_a[k] += terms_a[k - 1];
                ports_a[k] += ports_a[k - 1];
            }
        }
        const std::size_t terms_all = terms_a[n_att - 1];
        const std::size_t ports_all = ports_a[n_att - 1];

        // Examine each free span between consecutive attachments.
        Coord covered_hi = att.front().hi;
        for (std::size_t i = 0; i + 1 < n_att; ++i) {
            covered_hi = std::max(covered_hi, att[i].hi);
            const Coord gap = att[i + 1].lo - covered_hi;
            if (gap <= 0) continue;
            ++res.stats.open_sites;

            // A component attached on both sides bypasses the cut.
            if (straddle[i] > 0) {
                ++res.stats.redundant_opens;
                continue;
            }
            std::size_t term_a = terms_a[i], term_b = terms_all - terms_a[i];
            bool port_a = ports_a[i] > 0, port_b = ports_all > ports_a[i];
            if ((term_a == 0 && !port_a) || (term_b == 0 && !port_b)) {
                ++res.stats.dangling_opens;
                continue;
            }
            // Side B: the side away from the ports (sources/observation
            // points keep the original node name).
            bool b_is_low = false;  // side B is attachments 0..i
            if ((port_b && !port_a) || (port_a == port_b && term_b > term_a)) {
                b_is_low = true;
                term_b = term_a;
            }
            if (term_b == 0) {
                ++res.stats.dangling_opens;
                continue;
            }
            // Side B's terminals: its direct ones, and each component once
            // (at its first attachment on the high side, its last on the
            // low side).
            std::vector<std::size_t> group_b;
            const std::size_t k0 = b_is_low ? 0 : i + 1;
            const std::size_t k1 = b_is_low ? i + 1 : n_att;
            for (std::size_t k = k0; k < k1; ++k) {
                if (att[k].kind == Attachment::Kind::Terminal)
                    group_b.push_back(att[k].term);
                if (att[k].kind != Attachment::Kind::Frag) continue;
                const Reached& r = comps[comp_of[k]];
                if (k == (b_is_low ? r.last : r.first))
                    graph.append_comp(fi, r.comp, group_b);
            }

            Fault flt;
            flt.mechanism = mech->name;
            flt.net = ex.net_name(f.net);
            flt.group_b = graph.terminals(group_b);
            classify_open(flt);
            flt.probability = model.open_probability(
                *mech, static_cast<double>(gap), static_cast<double>(width));
            accumulate(std::move(flt));
        }
    }

    // ---- Cut-cluster opens -----------------------------------------------
    for (std::size_t ci = 0; ci < ex.cuts.size(); ++ci) {
        const CutCluster& cc = ex.cuts[ci];
        std::optional<Layer> lower;
        if (cc.layer == Layer::Contact)
            lower = ex.fragments[cc.frag_b].layer;
        const Mechanism* mech =
            stats.find(cc.layer, FailureMode::Open, lower);
        if (!mech) continue;
        ++res.stats.cut_sites;

        // Only a bridge of the net graph -- a DFS tree edge whose child
        // subtree has no other way up -- splits the net.
        const std::size_t id = graph.n_touch + ci;
        const std::size_t child =
            graph.parent_edge[cc.frag_a] == id ? cc.frag_a : cc.frag_b;
        if (graph.parent_edge[child] != id ||
            graph.low[child] <= graph.disc[graph.parent(child)]) {
            ++res.stats.redundant_opens;
            continue;  // another path keeps the net together
        }
        const std::size_t top = graph.root[child];
        const std::size_t sub_terms = graph.terms_of(child);
        const std::size_t sub_ports = graph.ports_of(child);
        const std::size_t rest_terms = graph.terms_of(top) - sub_terms;
        const std::size_t rest_ports = graph.ports_of(top) - sub_ports;
        const bool a_is_sub = child == cc.frag_a;
        std::size_t term_a = a_is_sub ? sub_terms : rest_terms;
        std::size_t term_b = a_is_sub ? rest_terms : sub_terms;
        bool port_a = (a_is_sub ? sub_ports : rest_ports) > 0;
        bool port_b = (a_is_sub ? rest_ports : sub_ports) > 0;
        if ((term_a == 0 && !port_a) || (term_b == 0 && !port_b)) {
            ++res.stats.dangling_opens;
            continue;
        }
        bool b_is_sub = !a_is_sub;
        if ((port_b && !port_a) || (port_a == port_b && term_b > term_a)) {
            b_is_sub = a_is_sub;
            term_b = term_a;
        }
        if (term_b == 0) {
            ++res.stats.dangling_opens;
            continue;
        }
        std::vector<std::size_t> group_b;
        if (b_is_sub) {
            graph.append_range(graph.disc[child], graph.end[child], group_b);
        } else {
            graph.append_range(graph.disc[top], graph.disc[child], group_b);
            graph.append_range(graph.end[child], graph.end[top], group_b);
        }

        Fault flt;
        flt.mechanism = mech->name;
        flt.net = ex.net_name(ex.fragments[cc.frag_a].net);
        flt.group_b = graph.terminals(group_b);
        classify_open(flt);
        flt.probability = model.cut_probability(
            *mech, static_cast<double>(cc.bbox.width()),
            static_cast<double>(cc.bbox.height()));
        accumulate(std::move(flt));
    }

    // ---- Threshold, label, rank -------------------------------------------
    res.faults.circuit = lo.name;
    for (auto& [key, m] : merged) {
        Fault& f = m.fault;
        if (f.probability < opt.p_min) {
            ++res.stats.dropped;
            res.stats.dropped_probability += f.probability;
            continue;
        }
        // Label with the mechanism contributing the most probability.
        f.mechanism =
            std::max_element(m.by_mech.begin(), m.by_mech.end(),
                             [](const auto& a, const auto& b) {
                                 return a.second < b.second;
                             })
                ->first;
        res.faults.faults.push_back(std::move(f));
    }
    res.faults.rank();
    return res;
}

} // namespace catlift::lift
