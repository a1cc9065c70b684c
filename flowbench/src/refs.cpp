#include "refs.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace flowbench {

namespace fs = std::filesystem;

std::string to_text(const Verdict& v) {
    std::string s(1, v.state);
    if (v.has_at) {
        char buf[64];
        std::snprintf(buf, sizeof buf, " %a", v.at);
        s += buf;
    }
    return s;
}

std::uint64_t fnv1a64(const std::string& s) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

namespace {

std::ifstream open_or_throw(const fs::path& p) {
    std::ifstream in(p);
    if (!in) throw std::runtime_error("cannot read " + p.string());
    return in;
}

VerdictTable read_verdicts(const fs::path& p) {
    std::ifstream in = open_or_throw(p);
    VerdictTable t;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream ls(line);
        int id = 0;
        std::string state, at;
        if (!(ls >> id >> state))
            throw std::runtime_error("bad verdict line in " + p.string() +
                                     ": " + line);
        ls >> at;  // optional detect coordinate
        if (state.size() != 1 || state.find_first_of("DUFQ") != 0)
            throw std::runtime_error("bad verdict state in " + p.string() +
                                     ": " + line);
        Verdict v;
        v.state = state[0];
        if (!at.empty()) {
            char* end = nullptr;
            v.at = std::strtod(at.c_str(), &end);
            if (end == at.c_str() || *end != '\0')
                throw std::runtime_error("bad detect value in " +
                                         p.string() + ": " + line);
            v.has_at = true;
        }
        t[id] = v;
    }
    return t;
}

} // namespace

Refs load_refs(const std::string& dir) {
    Refs r;
    const fs::path d(dir);
    {
        std::ifstream in = open_or_throw(d / "flt_hashes.txt");
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#') continue;
            std::istringstream ls(line);
            std::string name, hex;
            ls >> name >> hex;
            if (name.empty() || hex.empty())
                throw std::runtime_error("bad hash line: " + line);
            r.flt_hash[name] = std::stoull(hex, nullptr, 16);
        }
    }
    for (const auto& entry : fs::directory_iterator(d)) {
        const std::string fn = entry.path().filename().string();
        const std::string pre = "verdicts_", suf = ".txt";
        if (fn.rfind(pre, 0) != 0 || fn.size() <= pre.size() + suf.size())
            continue;
        const std::string table =
            fn.substr(pre.size(), fn.size() - pre.size() - suf.size());
        r.verdicts[table] = read_verdicts(entry.path());
    }
    return r;
}

void write_verdicts(const std::string& dir, const std::string& table,
                    const VerdictTable& t) {
    std::ofstream out(fs::path(dir) / ("verdicts_" + table + ".txt"));
    out << "# flowbench reference verdicts: " << table << " (" << t.size()
        << " faults)\n"
        << "# <fault id> <D detected at hex-float | U undetected | F failed"
           " | Q quarantined>\n";
    for (const auto& [id, v] : t) out << id << ' ' << to_text(v) << '\n';
    if (!out) throw std::runtime_error("cannot write verdicts_" + table);
}

void write_hashes(const std::string& dir,
                  const std::map<std::string, std::uint64_t>& h) {
    std::ofstream out(fs::path(dir) / "flt_hashes.txt");
    out << "# flowbench reference: FNV-1a 64 of each layout's serialized"
           " .flt (lift::write_faultlist)\n";
    for (const auto& [name, v] : h) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(v));
        out << name << ' ' << buf << '\n';
    }
    if (!out) throw std::runtime_error("cannot write flt_hashes.txt");
}

} // namespace flowbench
