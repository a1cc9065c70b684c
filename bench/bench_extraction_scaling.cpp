// Scaling: the LIFT pipeline over growing layouts.  The paper's VCO is
// one macro; a production fault extractor must stay near-linear in layout
// size.  Inverter chains scale the generator, the extractor and the fault
// enumeration together.

#include "circuits/vco.h"
#include "extract/extractor.h"
#include "layout/cellgen.h"
#include "lift/extract_faults.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <ctime>
#include <map>
#include <vector>

using namespace catlift;

namespace {

/// Timing rounds.  Each round times every chain once, so a change in host
/// load hits all sizes alike and the 256/64 ratio stays comparable; the
/// median over rounds drops the rounds a neighbour disturbed.
constexpr int kRounds = 11;

/// CPU time of this thread in milliseconds: LIFT is single-threaded, and
/// time spent descheduled on a shared host is not LIFT's.
double thread_cpu_ms() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) * 1e-6;
}

template <typename Fn>
double cpu_ms(Fn&& fn) {
    const double t0 = thread_cpu_ms();
    fn();
    return thread_cpu_ms() - t0;
}

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

void print_scaling() {
    const auto tech = layout::Technology::single_poly_double_metal();
    const std::vector<int> sizes{4, 8, 16, 32, 64, 128, 256};
    std::vector<layout::Layout> layouts;
    for (int n : sizes)
        layouts.push_back(layout::generate_cell_layout(
            circuits::build_inverter_chain(n, false)));

    std::vector<lift::LiftResult> res(sizes.size());
    std::vector<std::vector<double>> ext(sizes.size()), full(sizes.size());
    for (int r = 0; r < kRounds; ++r) {
        for (std::size_t k = 0; k < sizes.size(); ++k) {
            ext[k].push_back(cpu_ms([&] {
                benchmark::DoNotOptimize(extract::extract(layouts[k], tech));
            }));
            full[k].push_back(cpu_ms([&] {
                res[k] = lift::extract_faults(layouts[k], tech,
                                              lift::LiftOptions{});
            }));
        }
    }

    std::printf("== LIFT scaling over inverter-chain layouts ==\n");
    std::printf("   (thread CPU time, median of %d interleaved rounds)\n\n",
                kRounds);
    std::printf("  %-8s %-8s %-8s %-10s %-8s %-13s %-15s %s\n", "stages",
                "shapes", "nets", "sites", "faults", "extract [ms]",
                "lift self [ms]", "lift [ms]");
    std::map<int, std::array<double, 3>> t;  // stages -> extract, self, lift
    for (std::size_t k = 0; k < sizes.size(); ++k) {
        const double ext_ms = median(ext[k]), lift_ms = median(full[k]);
        const lift::LiftResult& rk = res[k];
        t[sizes[k]] = {ext_ms, lift_ms - ext_ms, lift_ms};
        std::printf("  %-8d %-8zu %-8zu %-10zu %-8zu %-13.2f %-15.2f %.2f\n",
                    sizes[k], layouts[k].size(),
                    rk.extraction.net_names.size(),
                    rk.stats.bridge_sites + rk.stats.open_sites +
                        rk.stats.cut_sites,
                    rk.faults.size(), ext_ms, lift_ms - ext_ms, lift_ms);
    }
    // 4x the stages: 4.0 is linear, 16.0 quadratic.
    std::printf("\n  256/64 time ratio: extract %.2f, lift self %.2f, "
                "lift %.2f\n\n",
                t[256][0] / t[64][0], t[256][1] / t[64][1],
                t[256][2] / t[64][2]);
}

void BM_LiftChain(benchmark::State& state) {
    const auto ckt =
        circuits::build_inverter_chain(static_cast<int>(state.range(0)),
                                       false);
    const auto lo = layout::generate_cell_layout(ckt);
    const auto tech = layout::Technology::single_poly_double_metal();
    for (auto _ : state)
        benchmark::DoNotOptimize(
            lift::extract_faults(lo, tech, lift::LiftOptions{}));
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LiftChain)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

} // namespace

int main(int argc, char** argv) {
    print_scaling();
    ::benchmark::Initialize(&argc, argv);
    ::benchmark::RunSpecifiedBenchmarks();
    return 0;
}
