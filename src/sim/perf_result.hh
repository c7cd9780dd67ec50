/**
 * @file
 * Performance-simulation output: everything GPUJoule's Eq. 4 needs,
 * plus locality/congestion diagnostics used by the analysis sections.
 */

#ifndef MMGPU_SIM_PERF_RESULT_HH
#define MMGPU_SIM_PERF_RESULT_HH

#include <array>

#include "common/units.hh"
#include "isa/instruction.hh"
#include "isa/opcode.hh"
#include "mem/mem_system.hh"
#include "noc/interconnect.hh"

namespace mmgpu::sim
{

/** Result of simulating one workload on one configuration. */
struct PerfResult
{
    /** Configuration name the run used. */
    std::string configName;

    /** Workload name. */
    std::string workloadName;

    /** End-to-end execution time (all launches + gaps), in cycles. */
    double execCycles = 0.0;

    /** End-to-end execution time in seconds. */
    Seconds execSeconds = 0.0;

    /** Warp-level instruction counts per opcode (compute + memory). */
    std::array<Count, isa::numOpcodes> instrs{};

    /** Memory transaction counters (EPT inputs). */
    mem::MemCounters mem;

    /** Inter-GPM traffic (link-energy inputs). */
    noc::LinkTraffic link;

    /** Aggregate SM issue-busy cycles across all SMs and launches. */
    double smBusyCycles = 0.0;

    /** Aggregate SM active-but-stalled cycles (EPStall input). */
    double smStallCycles = 0.0;

    /** Aggregate SM active-window cycles. */
    double smOccupiedCycles = 0.0;

    // ---- diagnostics ----

    Count l1Accesses = 0;
    Count l1SectorHits = 0;
    Count l2Accesses = 0;
    Count l2SectorHits = 0;

    /** Queueing cycles summed over all DRAM channels. */
    double dramQueueing = 0.0;

    /** Queueing cycles summed over all inter-GPM links. */
    double linkQueueing = 0.0;

    /** Busy cycles summed over all inter-GPM links. */
    double linkBusy = 0.0;

    /** Busy cycles summed over all DRAM channels. */
    double dramBusy = 0.0;

    bool operator==(const PerfResult &) const = default;

    /** The field list (common/fields.hh). */
    template <typename Self, typename Visit>
    static void
    fields(Self &self, Visit &&v)
    {
        auto &[configName, workloadName, execCycles, execSeconds, instrs,
               mem, link, smBusyCycles, smStallCycles, smOccupiedCycles,
               l1Accesses, l1SectorHits, l2Accesses, l2SectorHits,
               dramQueueing, linkQueueing, linkBusy, dramBusy] = self;
        v("configName", configName);
        v("workloadName", workloadName);
        v("execCycles", execCycles);
        v("execSeconds", execSeconds);
        v("instrs", instrs);
        v("mem", mem);
        v("link", link);
        v("smBusyCycles", smBusyCycles);
        v("smStallCycles", smStallCycles);
        v("smOccupiedCycles", smOccupiedCycles);
        v("l1Accesses", l1Accesses);
        v("l1SectorHits", l1SectorHits);
        v("l2Accesses", l2Accesses);
        v("l2SectorHits", l2SectorHits);
        v("dramQueueing", dramQueueing);
        v("linkQueueing", linkQueueing);
        v("linkBusy", linkBusy);
        v("dramBusy", dramBusy);
    }

    /** Total warp-level instructions executed. */
    Count
    totalWarpInstrs() const
    {
        Count total = 0;
        for (Count c : instrs)
            total += c;
        return total;
    }

    /** Fraction of DRAM sectors served by a remote GPM. */
    double
    remoteFraction() const
    {
        Count total = mem.remoteSectors + mem.localSectors;
        return total ? static_cast<double>(mem.remoteSectors) / total
                     : 0.0;
    }

    /** Aggregate IPC in warp instructions per cycle. */
    double
    ipc() const
    {
        return execCycles > 0.0 ? totalWarpInstrs() / execCycles : 0.0;
    }
};

} // namespace mmgpu::sim

#endif // MMGPU_SIM_PERF_RESULT_HH
