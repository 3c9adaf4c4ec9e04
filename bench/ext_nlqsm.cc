/**
 * @file
 * NLQ-SM extension (paper section 3.2; not evaluated in the paper
 * because its infrastructure ran no shared-memory programs): inter-
 * thread ordering via re-execution of loads in flight during coherence
 * invalidations, with the banked-SSBF invalidation update
 * (SSBF[line] = SSNRENAME + 1).
 *
 * We inject a synthetic invalidation stream (an "other core" silently
 * rewriting workload lines at a configurable interval) and report how
 * many loads NLQ-SM marks versus how many SVW lets skip. Injected
 * writes are value-identical (silent) so the golden model still holds.
 * The injector rides along as the sweep cell's per-cycle hook.
 */

#include "bench_common.hh"

using namespace svw;
using namespace svw::bench;
using namespace svw::harness;

int
main(int argc, char **argv)
{
    const BenchArgs args = parseArgs(argc, argv);
    const auto suite = selectSuite(args, workloads::fig8Names());
    const Cycle intervals[] = {200, 1000, 5000};
    const SweepSpec spec = extNlqsmSpec(suite, args.insts);
    const SweepResults res = runBenchSweep(spec, args);
    const bool sweepFailed = reportFailures(res) != 0;

    FigureTable tbl("NLQ-SM extension: marked%% / re-executed%% under an "
                    "injected invalidation stream (NLQ+SVW+UPD)",
                    {"mark@200", "rex@200", "mark@1k", "rex@1k",
                     "mark@5k", "rex@5k"});

    for (const auto &w : res.shardGroups()) {
        if (!res.groupOk(w))
            continue;
        std::vector<double> row;
        for (Cycle interval : intervals) {
            const RunResult &r =
                res.result(w, "inv@" + std::to_string(interval));
            row.push_back(r.markedRate);
            row.push_back(r.rexRate);
        }
        tbl.addRow(w, row);
    }
    tbl.addAverageRow();
    tbl.print(std::cout);
    return sweepFailed ? 1 : 0;
}
