#include "lift/fault.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <sstream>

namespace catlift::lift {

const char* to_string(FaultKind k) {
    switch (k) {
        case FaultKind::LocalShort: return "local_short";
        case FaultKind::GlobalShort: return "global_short";
        case FaultKind::LineOpen: return "line_open";
        case FaultKind::SplitNode: return "split_node";
        case FaultKind::StuckOpen: return "stuck_open";
    }
    return "?";
}

FaultKind fault_kind_from_string(const std::string& s) {
    for (FaultKind k : {FaultKind::LocalShort, FaultKind::GlobalShort,
                        FaultKind::LineOpen, FaultKind::SplitNode,
                        FaultKind::StuckOpen})
        if (s == to_string(k)) return k;
    throw Error("unknown fault kind: " + s);
}

std::string Fault::describe() const {
    std::ostringstream os;
    os << '#' << id << ' ';
    switch (kind) {
        case FaultKind::LocalShort:
        case FaultKind::GlobalShort:
            os << "BRI " << mechanism << ' ' << net_a << "->" << net_b;
            break;
        case FaultKind::LineOpen:
        case FaultKind::SplitNode:
            os << "OPEN " << mechanism << ' ' << net << " [";
            for (std::size_t i = 0; i < group_b.size(); ++i) {
                if (i) os << ',';
                os << group_b[i].device << ':' << group_b[i].terminal;
            }
            os << ']';
            break;
        case FaultKind::StuckOpen:
            os << "SOP " << mechanism << ' ' << victim.device << ':'
               << victim.terminal;
            break;
    }
    return os.str();
}

void FaultList::rank() {
    std::stable_sort(faults.begin(), faults.end(),
                     [](const Fault& a, const Fault& b) {
                         return a.probability > b.probability;
                     });
    int id = 1;
    for (Fault& f : faults) f.id = id++;
}

double FaultList::total_probability() const {
    return std::accumulate(
        faults.begin(), faults.end(), 0.0,
        [](double s, const Fault& f) { return s + f.probability; });
}

std::size_t FaultList::count(FaultKind k) const {
    return static_cast<std::size_t>(
        std::count_if(faults.begin(), faults.end(),
                      [&](const Fault& f) { return f.kind == k; }));
}

std::size_t FaultList::shorts() const {
    return count(FaultKind::LocalShort) + count(FaultKind::GlobalShort);
}

std::size_t FaultList::opens() const {
    return count(FaultKind::LineOpen) + count(FaultKind::SplitNode) +
           count(FaultKind::StuckOpen);
}

// ---------------------------------------------------------------------------
// Diff

std::string electrical_signature(const Fault& f) {
    std::string k = std::string(to_string(f.kind)) + "|";
    switch (f.kind) {
        case FaultKind::LocalShort:
        case FaultKind::GlobalShort:
            k += std::min(f.net_a, f.net_b) + ">" + std::max(f.net_a, f.net_b);
            break;
        case FaultKind::LineOpen:
        case FaultKind::SplitNode:
            k += f.net + "[";
            for (const TerminalRef& t : f.group_b)
                k += t.device + ":" + std::to_string(t.terminal) + ",";
            k += "]";
            break;
        case FaultKind::StuckOpen:
            k += f.victim.device + ":" + std::to_string(f.victim.terminal);
            break;
    }
    return k;
}

FaultListDiff diff_faultlists(const FaultList& a, const FaultList& b,
                              double rel_tol) {
    FaultListDiff d;
    std::map<std::string, const Fault*> bk;
    for (const Fault& f : b.faults) bk[electrical_signature(f)] = &f;
    std::map<std::string, const Fault*> ak;
    for (const Fault& f : a.faults) ak[electrical_signature(f)] = &f;

    for (const Fault& f : a.faults) {
        auto it = bk.find(electrical_signature(f));
        if (it == bk.end()) {
            d.only_a.push_back(f);
        } else {
            const double pa = f.probability, pb = it->second->probability;
            const double ref = std::max(std::abs(pa), std::abs(pb));
            if (ref > 0 && std::abs(pa - pb) / ref > rel_tol)
                d.probability_changed.emplace_back(f, *it->second);
            else
                d.carried.emplace_back(f, *it->second);
        }
    }
    for (const Fault& f : b.faults)
        if (!ak.count(electrical_signature(f))) d.only_b.push_back(f);
    return d;
}

// ---------------------------------------------------------------------------
// Text IO

void write_faultlist(std::ostream& os, const FaultList& fl) {
    os << "faultlist " << (fl.circuit.empty() ? "unnamed" : fl.circuit)
       << "\n";
    for (const Fault& f : fl.faults) {
        os << "fault " << f.id << ' ' << to_string(f.kind) << ' '
           << f.mechanism << ' ' << f.probability << ' ';
        switch (f.kind) {
            case FaultKind::LocalShort:
            case FaultKind::GlobalShort:
                os << "short " << f.net_a << ' ' << f.net_b;
                break;
            case FaultKind::LineOpen:
            case FaultKind::SplitNode:
                os << "open " << f.net;
                for (const TerminalRef& t : f.group_b)
                    os << ' ' << t.device << ':' << t.terminal;
                break;
            case FaultKind::StuckOpen:
                os << "stuck " << f.victim.device << ':' << f.victim.terminal;
                break;
        }
        os << "\n";
    }
    os << "end\n";
}

std::string write_faultlist(const FaultList& fl) {
    std::ostringstream os;
    write_faultlist(os, fl);
    return os.str();
}

namespace {

TerminalRef parse_terminal(const std::string& tok, int line_no) {
    const auto colon = tok.rfind(':');
    require(colon != std::string::npos && colon + 1 < tok.size(),
            "faultlist line " + std::to_string(line_no) +
                ": bad terminal ref '" + tok + "'");
    TerminalRef t;
    t.device = tok.substr(0, colon);
    t.terminal = std::stoi(tok.substr(colon + 1));
    return t;
}

} // namespace

FaultList read_faultlist(std::istream& is) {
    FaultList fl;
    std::string line;
    int line_no = 0;
    bool saw_header = false, saw_end = false;
    while (std::getline(is, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#') continue;
        std::istringstream ls(line);
        std::string kw;
        ls >> kw;
        if (kw == "faultlist") {
            // The circuit name is the rest of the line (it may hold spaces).
            std::getline(ls >> std::ws, fl.circuit);
            fl.circuit.erase(fl.circuit.find_last_not_of(" \t\r") + 1);
            saw_header = true;
        } else if (kw == "fault") {
            Fault f;
            std::string kind, variant;
            require(static_cast<bool>(ls >> f.id >> kind >> f.mechanism >>
                                      f.probability >> variant),
                    "faultlist line " + std::to_string(line_no) +
                        ": malformed fault card");
            f.kind = fault_kind_from_string(kind);
            if (variant == "short") {
                require(static_cast<bool>(ls >> f.net_a >> f.net_b),
                        "faultlist: short needs two nets");
            } else if (variant == "open") {
                require(static_cast<bool>(ls >> f.net),
                        "faultlist: open needs a net");
                std::string tok;
                while (ls >> tok) f.group_b.push_back(parse_terminal(tok, line_no));
                require(!f.group_b.empty(),
                        "faultlist: open needs at least one terminal");
            } else if (variant == "stuck") {
                std::string tok;
                require(static_cast<bool>(ls >> tok),
                        "faultlist: stuck needs a terminal");
                f.victim = parse_terminal(tok, line_no);
            } else {
                throw Error("faultlist line " + std::to_string(line_no) +
                            ": unknown variant " + variant);
            }
            fl.faults.push_back(std::move(f));
        } else if (kw == "end") {
            saw_end = true;
            break;
        } else {
            throw Error("faultlist line " + std::to_string(line_no) +
                        ": unknown keyword " + kw);
        }
    }
    require(saw_header && saw_end, "faultlist stream missing header or end");
    return fl;
}

FaultList read_faultlist_text(const std::string& text) {
    std::istringstream is(text);
    return read_faultlist(is);
}

} // namespace catlift::lift
