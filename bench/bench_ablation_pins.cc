/**
 * @file
 * Ablation: the paper's closing §V-D suggestion that "at extreme
 * scales, architects may be forced to turn to extreme measures such
 * as reallocation of costly on-chip pin-outs to re-balance local
 * DRAM bandwidth versus inter-GPM bandwidth if the ratio of local to
 * remote memory access happens to skew towards the latter."
 *
 * This bench performs that experiment on the 32-GPM on-board design:
 * holding the total per-GPM pin (bandwidth) budget fixed at
 * 256 + 128 = 384 GB/s, it shifts bandwidth from the local HBM stack
 * to the inter-GPM links and reports where the EDPSE optimum falls —
 * once for the full suite and once for the remote-heavy (irregular)
 * workloads the paper's sentence is really about.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "trace/workloads.hh"

using namespace mmgpu;

namespace
{

sim::GpuConfig
pinConfig(double shift_gbps)
{
    auto config = sim::multiGpmConfig(32, sim::BwSetting::Bw1x,
                                      noc::Topology::Ring,
                                      sim::IntegrationDomain::OnBoard);
    config.memory.dramBytesPerCycle = 256.0 - shift_gbps;
    config.interGpmBytesPerCycle = 128.0 + shift_gbps;
    return config;
}

} // namespace

int
main()
{
    setInformEnabled(false);
    bench::banner("Pin reallocation: DRAM vs inter-GPM bandwidth",
                  "Section V-D closing remark (rebalance local vs "
                  "remote bandwidth at extreme scales)");

    harness::ScalingRunner runner = bench::makeRunner();
    const auto &all = trace::scalingWorkloads();

    // The remote-heavy subset: workloads with irregular gathers.
    std::vector<trace::KernelProfile> irregular;
    for (const auto &profile : all) {
        for (const auto &load : profile.loads) {
            if (load.pattern == trace::AccessPattern::Random ||
                load.irregular >= 0.08) {
                irregular.push_back(profile);
                break;
            }
        }
    }

    TextTable table("32-GPM on-board ring, fixed 384 GB/s pin budget "
                    "per GPM");
    table.header({"DRAM : inter-GPM", "EDPSE (all)",
                  "EDPSE (irregular)", "speedup (all)"});
    CsvWriter csv({"shift_gbps", "edpse_all", "edpse_irregular",
                   "speedup_all"});

    double best_all = 0.0, base_all = 0.0;
    double best_irr = 0.0, base_irr = 0.0;
    double best_all_shift = 0.0, best_irr_shift = 0.0;
    for (double shift : {0.0, 32.0, 64.0, 96.0, 128.0}) {
        auto config = pinConfig(shift);
        auto points_all = harness::scalingStudy(runner, config, all);
        auto points_irr =
            harness::scalingStudy(runner, config, irregular);
        double edpse_all = harness::meanOf(
            points_all, &harness::ScalingPoint::edpse);
        double edpse_irr = harness::meanOf(
            points_irr, &harness::ScalingPoint::edpse);
        double speed_all = harness::meanOf(
            points_all, &harness::ScalingPoint::speedup);

        if (shift == 0.0) {
            base_all = edpse_all;
            base_irr = edpse_irr;
        }
        if (edpse_all > best_all) {
            best_all = edpse_all;
            best_all_shift = shift;
        }
        if (edpse_irr > best_irr) {
            best_irr = edpse_irr;
            best_irr_shift = shift;
        }

        char label[40];
        std::snprintf(label, sizeof(label), "%.0f : %.0f GB/s",
                      256.0 - shift, 128.0 + shift);
        table.addRow({label, TextTable::pct(edpse_all),
                      TextTable::pct(edpse_irr),
                      TextTable::num(speed_all, 2)});
        csv.addRow({TextTable::num(shift, 0),
                    TextTable::num(edpse_all, 1),
                    TextTable::num(edpse_irr, 1),
                    TextTable::num(speed_all, 2)});
    }
    table.print(std::cout);

    std::printf("\nEDPSE optimum (all workloads): shift %.0f GB/s of "
                "pins to the links (%.1f%% -> %.1f%%)\n",
                best_all_shift, base_all, best_all);
    std::printf("EDPSE optimum (irregular subset): shift %.0f GB/s "
                "(%.1f%% -> %.1f%%) — the skew the paper predicts\n",
                best_irr_shift, base_irr, best_irr);
    bench::writeCsv("ablation_pins", csv);

    // The paper's prediction: remote-heavy workloads want the
    // reallocation at least as much as the average does.
    return best_irr_shift >= best_all_shift ? 0 : 1;
}
