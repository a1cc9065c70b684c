// flowbench/src/refs.h
//
// Committed reference outputs the benchmark checks every iteration
// against: the FNV-1a hash of each layout's serialized .flt fault list and
// per-fault verdict tables (detect instants as hex floats, so a check is
// bit-exact).  Files live in flowbench/refs/ and are regenerated with
// `flow_bench --write-refs <dir>`.

#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace flowbench {

/// One fault's verdict: 'D' detected (at `at`), 'U' undetected, 'F' failed,
/// 'Q' quarantined.  `at` is the analysis' own detection coordinate (time
/// for transient, frequency for AC); DC verdicts carry none.
struct Verdict {
    char state = '?';
    bool has_at = false;
    double at = 0.0;

    friend bool operator==(const Verdict& a, const Verdict& b) {
        return a.state == b.state && a.has_at == b.has_at &&
               (!a.has_at || a.at == b.at);
    }
};

std::string to_text(const Verdict& v);

using VerdictTable = std::map<int, Verdict>;

struct Refs {
    std::map<std::string, std::uint64_t> flt_hash;      ///< layout -> hash
    std::map<std::string, VerdictTable> verdicts;       ///< table -> verdicts
};

/// 64-bit FNV-1a of a byte string.
std::uint64_t fnv1a64(const std::string& s);

/// Load every reference file under `dir`.  Throws std::runtime_error when
/// the directory or a file in it cannot be read or parsed.
Refs load_refs(const std::string& dir);

/// Write one verdict table as refs/verdicts_<table>.txt.
void write_verdicts(const std::string& dir, const std::string& table,
                    const VerdictTable& t);
/// Write refs/flt_hashes.txt.
void write_hashes(const std::string& dir,
                  const std::map<std::string, std::uint64_t>& h);

} // namespace flowbench
