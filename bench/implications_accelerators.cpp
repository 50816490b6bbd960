/**
 * @file
 * §VII implications — first-order accelerator estimates per workload:
 * the paper's recommended programmable SIMD + special-function-unit
 * design against a SIMD-only variant (shows why SFUs matter for the
 * erf/atan/exp-heavy workloads) and a GPU-like design (wide but
 * serial-overhead-bound on short NUTS evaluations).
 */
#include "common.hpp"
#include "archsim/accelerator.hpp"
#include "support/table.hpp"

#include <cstdio>

using namespace bayes;
using archsim::AcceleratorSpec;

int
main()
{
    const auto cpu = archsim::Platform::skylake();
    const auto specs = {AcceleratorSpec::simdSfu(),
                        AcceleratorSpec::simdOnly(),
                        AcceleratorSpec::gpuLike()};

    Table table({"workload", "special op %", "CPU us/eval",
                 "SIMD+SFU x", "SIMD-only x", "GPU-like x", "bound"});
    for (const auto& name : workloads::suiteNames()) {
        const auto wl = workloads::makeWorkload(name);
        const auto profile = archsim::profileWorkload(
            *wl, 1, archsim::TapeKind::Reference);
        const auto& chain = profile.chains[0];

        // Reference CPU per-eval time from the core model (no misses:
        // single chain, warm caches).
        const auto cost =
            archsim::evalCost(chain, archsim::EvalMemStats{}, cpu);
        const double cpuSeconds = cost.cycles / (cpu.turboGhz * 1e9);
        const double specialFrac = 100.0
            * static_cast<double>(
                  chain.opCounts[static_cast<int>(ad::OpClass::Special)])
            / static_cast<double>(chain.tapeNodes);

        double speedups[3];
        bool bwBound = false;
        int i = 0;
        for (const auto& spec : specs) {
            const auto est =
                archsim::estimateAccelerator(chain, spec, cpuSeconds);
            speedups[i++] = est.speedupVsCpu;
            if (spec.name == "SIMD+SFU")
                bwBound = est.bandwidthBound;
        }
        table.row()
            .cell(name)
            .cell(specialFrac, 1)
            .cell(cpuSeconds * 1e6, 1)
            .cell(speedups[0], 1)
            .cell(speedups[1], 1)
            .cell(speedups[2], 1)
            .cell(bwBound ? "DRAM" : "compute");
        std::fprintf(stderr, "[bench] %s estimated\n", name.c_str());
    }
    printSection("Implications (§VII) — accelerator speedup estimates "
                 "per gradient evaluation",
                 table);
    return 0;
}
