/**
 * @file
 * Host-side simulator throughput tracker.
 *
 * Unlike the figure benches (which reproduce the paper's *simulated*
 * results), this binary measures how fast the simulator itself runs:
 * simulated instructions retired per host second (Minsts/s), the budget
 * that bounds every sweep in bench/. It times the out-of-order core on a
 * representative config matrix — the conventional baseline, NLQ and SSQ
 * with SVW (the hot rex/SVW paths), and RLE on the 4-wide machine — over
 * a small workload subset, and emits BENCH_hotloop.json so the perf
 * trajectory is machine-readable across PRs.
 *
 * The matrix runs as a sweep (harness/sweep.hh): each (workload,
 * config) cell is one timing cell with `reps` repetitions, the golden
 * check off, and the workload program shared across the workload's four
 * configs via the executor's program cache. The timed region per rep is
 * the whole cell (runOne: params/Core construction + run + stat
 * extraction) — slightly wider than the pre-PR4 core.run()-only clock,
 * so cross-PR comparisons straddling PR 4 read the new numbers as
 * conservative. `--threads=N` times the cells
 * on N worker threads — per-cell `seconds` then includes host
 * contention, while the `total_wall_seconds` field records the
 * wall-clock win of parallel sweeping; simulated `cycles` are identical
 * for any thread count.
 *
 * Flags (in addition to the bench_common set):
 *   --out=FILE   JSON output path (default BENCH_hotloop.json)
 *   --reps=N     timing repetitions per cell; best-of-N is reported
 */

#include <algorithm>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench_common.hh"

using namespace svw;
using namespace svw::bench;
using namespace svw::harness;

int
main(int argc, char **argv)
{
    std::string outPath = "BENCH_hotloop.json";
    unsigned reps = 3;

    // Pre-filter our private flags; bench_common rejects unknown ones.
    std::vector<char *> passDown;
    passDown.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a.rfind("--out=", 0) == 0)
            outPath = a.substr(6);
        else if (a.rfind("--reps=", 0) == 0)
            reps = std::max(1u, parseFlagUnsigned(a.substr(7), "--reps"));
        else
            passDown.push_back(argv[i]);
    }
    const BenchArgs args =
        parseArgs(static_cast<int>(passDown.size()), passDown.data());

    // Workload subset: dense forwarding (gzip), pointer-chasing misses
    // (mcf), control + silent stores (crafty), RLE redundancy (perl.d).
    const std::vector<std::string> suite =
        selectSuite(args, {"gzip", "mcf", "crafty", "perl.d"});

    // Config matrix: the structures this bench guards (ROB, LQ/SQ
    // searches, completion queue, committed-memory reads) are hot in all
    // of these; SSQ/NLQ add the rex + SVW paths, RLE the 4-wide machine.
    std::vector<ExperimentConfig> configs(4);
    configs[0].opt = OptMode::Baseline;
    configs[1].opt = OptMode::Nlq;
    configs[1].svw = SvwMode::Upd;
    configs[2].opt = OptMode::Ssq;
    configs[2].svw = SvwMode::Upd;
    configs[3].machine = Machine::FourWide;
    configs[3].opt = OptMode::Rle;
    configs[3].svw = SvwMode::Upd;

    SweepSpec spec("perf_hotloop");
    for (const auto &w : suite) {
        for (const auto &cfg : configs) {
            SweepCell c;
            c.group = w;
            c.label = configLabel(cfg);
            c.workload = w;
            c.targetInsts = args.insts;
            c.config = cfg;
            c.goldenCheck = false;  // timing loop only
            c.timingReps = reps;
            // Wall time is this bench's product: a cached cell would
            // report zero seconds and poison the trajectory. The
            // engine refuses timingReps>1 cells anyway; this covers
            // --reps=1.
            c.neverCache = true;
            spec.add(c);
        }
    }

    // Synth family: seeded generator workloads with behaviors the
    // curated subset undersamples — hashjoin's store-heavy bucket
    // writes and chase's serial long-latency misses stress the
    // completion wheel and SQ/SSQ search differently from gzip/mcf.
    // Two configs keep the addition cheap: the conventional baseline
    // and SSQ+SVW (the hot rex path). Skipped when --bench/--workload
    // restricts the suite (the restriction already names the cells)
    // and when --families already pulls in the synth rows (duplicate
    // cell names would collide).
    if (args.only.empty() && args.families == Families::Paper) {
        const std::vector<std::string> synthSuite = {
            "synth:mix:1", "synth:hashjoin:3", "synth:chase:7"};
        for (const auto &w : synthSuite) {
            for (const ExperimentConfig *cfg : {&configs[0], &configs[2]}) {
                SweepCell c;
                c.group = w;
                c.label = configLabel(*cfg);
                c.workload = w;
                c.targetInsts = args.insts;
                c.config = *cfg;
                c.goldenCheck = false;
                c.timingReps = reps;
                c.neverCache = true;
                spec.add(c);
            }
        }
    }

    // Stream per-cell progress as outcomes arrive (spec order without
    // --threads, completion order with): a multi-minute full sweep must
    // not look hung.
    SweepOptions opts = sweepOptions(args);
    // The timed matrix is never profiled — clock reads at every stage
    // boundary would tax the very seconds this bench publishes.
    // --profile instead runs a separate one-rep attribution pass after
    // the timing sweeps (see below), so the trajectory stays
    // comparable whether or not attribution was requested.
    opts.profile = false;
    // Every cell above is neverCache, so a --cache-dir would have no
    // effect; say so rather than silently idling an advertised flag.
    if (!opts.cacheDir.empty()) {
        std::fprintf(stderr,
                     "warning: perf_hotloop ignores --cache-dir:"
                     " throughput cells are always simulated fresh\n");
        opts.cacheDir.clear();
    }
    opts.onCellDone = [](std::size_t, const CellOutcome &o) {
        if (!o.ok)
            return;
        const double minsts = o.seconds > 0.0
            ? double(o.result.insts) / o.seconds / 1e6 : 0.0;
        std::printf("%-8s %-24s %8.3f Minsts/s (%.3fs, %llu insts)\n",
                    o.result.workload.c_str(), o.result.config.c_str(),
                    minsts, o.seconds,
                    static_cast<unsigned long long>(o.result.insts));
        std::fflush(stdout);
    };

    const double wall0 = hostSeconds();
    const SweepResults res = runSweep(spec, opts);
    const double totalWall = hostSeconds() - wall0;
    const bool sweepFailed = reportFailures(res) != 0;

    // The matrix in its figure-sweep shape — golden check on, one
    // timing rep — for the thread-scaling curve below.
    SweepSpec scaling("hotloop_thread_scaling");
    for (const auto &w : suite) {
        for (const auto &cfg : configs) {
            SweepCell c;
            c.group = w;
            c.label = configLabel(cfg);
            c.workload = w;
            c.targetInsts = args.insts;
            c.config = cfg;
            c.goldenCheck = true;
            scaling.add(c);
        }
    }

    // Thread scaling: the figure-shaped matrix timed at
    // --threads=1/2/4, interleaved per rep so host drift
    // hits every width equally; best-of-reps per width. Simulated
    // results are byte-identical at every width (CI gates the figures
    // on that) — this records the honest host wall-clock curve. On a
    // single-CPU container the widths all time ~the same (threads
    // interleave on one core); wall wins need a multi-core host.
    const std::vector<unsigned> threadWidths = {1, 2, 4};
    std::vector<double> threadWall(threadWidths.size(), 0.0);
    {
        SweepOptions tOpts = opts;
        tOpts.onCellDone = nullptr;
        for (unsigned r = 0; r < reps; ++r) {
            for (std::size_t k = 0; k < threadWidths.size(); ++k) {
                tOpts.threads = threadWidths[k];
                const double t = hostSeconds();
                (void)runSweep(scaling, tOpts);
                const double w = hostSeconds() - t;
                if (r == 0 || w < threadWall[k])
                    threadWall[k] = w;
            }
        }
    }
    std::printf("thread scaling (best of %u):", reps);
    for (std::size_t k = 0; k < threadWidths.size(); ++k)
        std::printf(" threads=%u %.3fs%s", threadWidths[k], threadWall[k],
                    k + 1 < threadWidths.size() ? "," : "");
    std::printf(" (speedup vs threads=1: ");
    for (std::size_t k = 0; k < threadWidths.size(); ++k)
        std::printf("%.2fx%s",
                    threadWall[k] > 0.0 ? threadWall[0] / threadWall[k]
                                        : 0.0,
                    k + 1 < threadWidths.size() ? ", " : ")\n");

    double totalInsts = 0.0, totalSecs = 0.0;
    std::size_t nCells = 0;
    for (std::size_t i = 0; i < spec.size(); ++i) {
        const CellOutcome &o = res.outcome(i);
        if (!o.ran || !o.ok)
            continue;
        totalInsts += double(o.result.insts);
        totalSecs += o.seconds;
        ++nCells;
    }
    const double aggregate =
        totalSecs > 0.0 ? totalInsts / totalSecs / 1e6 : 0.0;
    std::printf("aggregate: %.3f Minsts/s over %zu cells "
                "(%.3fs wall at --threads=%u)\n",
                aggregate, nCells, totalWall, args.threads);

    // Attribution pass (--profile): one *profiled* rep per cell in a
    // separate sweep, after all the timing above. Per-stage host-ns
    // attribution lands here as a JSON stanza (wheel_advance nests in
    // complete, lsu_search in issue — the folded-stack file written by
    // bench_common's --profile=F keeps the same shape); "harness" is
    // the cell wall outside the tick loop (program build, core
    // construction, stat extraction).
    std::string profStanza;
    if (args.profile) {
        SweepSpec pspec("perf_hotloop_profile");
        for (std::size_t i = 0; i < spec.size(); ++i) {
            SweepCell c = spec.cell(i);
            c.timingReps = 1;
            pspec.add(c);
        }
        SweepOptions pOpts = opts;
        pOpts.onCellDone = nullptr;
        pOpts.profile = true;
        const SweepResults pres = runSweep(pspec, pOpts);
        std::ostringstream os;
        std::uint64_t agg[prof::NumStages] = {};
        std::uint64_t aggCell = 0;
        os << ",\n  \"profile\": {\n    \"unit\": \"host_ns\",\n"
           << "    \"note\": \"separate 1-rep profiled pass; the timed"
              " cells above never carry the profiler's clock-read"
              " overhead\",\n"
           << "    \"cells\": [\n";
        bool pFirst = true;
        for (std::size_t i = 0; i < pspec.size(); ++i) {
            const CellOutcome &o = pres.outcome(i);
            if (!o.ran || !o.ok || !o.result.profTicks)
                continue;
            std::uint64_t top = 0;
            for (unsigned s = 0; s < prof::NumStages; ++s) {
                agg[s] += o.result.profStageNs[s];
                if (prof::stageParent(static_cast<prof::Stage>(s)) ==
                    prof::NumStages)
                    top += o.result.profStageNs[s];
            }
            aggCell += o.result.profCellNs;
            if (!pFirst)
                os << ",\n";
            pFirst = false;
            os << "      {\"cell\": \"" << pspec.cell(i).name() << "\"";
            for (unsigned s = 0; s < prof::NumStages; ++s)
                os << ", \""
                   << prof::stageName(static_cast<prof::Stage>(s))
                   << "\": " << o.result.profStageNs[s];
            os << ", \"harness\": "
               << (o.result.profCellNs > top ? o.result.profCellNs - top
                                             : 0)
               << ", \"ticks\": " << o.result.profTicks << "}";
        }
        os << "\n    ],\n    \"aggregate\": {";
        std::uint64_t aggTop = 0;
        for (unsigned s = 0; s < prof::NumStages; ++s) {
            os << "\"" << prof::stageName(static_cast<prof::Stage>(s))
               << "\": " << agg[s] << ", ";
            if (prof::stageParent(static_cast<prof::Stage>(s)) ==
                prof::NumStages)
                aggTop += agg[s];
        }
        os << "\"harness\": "
           << (aggCell > aggTop ? aggCell - aggTop : 0)
           << ", \"cell_total\": " << aggCell << "}\n  }";
        profStanza = os.str();
    }

    std::ofstream js(outPath);
    js << "{\n  \"bench\": \"hotloop\",\n"
       << "  \"unit\": \"Minsts_per_host_second\",\n"
       << "  \"insts_per_run\": " << args.insts << ",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"threads\": " << args.threads << ",\n"
       << "  \"total_wall_seconds\": " << totalWall << ",\n"
       << "  \"dyninst_hot_bytes\": " << sizeof(DynInst) << ",\n"
       << "  \"dyninst_cold_bytes\": " << sizeof(DynInstCold) << ",\n"
       << "  \"aggregate_minsts_per_sec\": " << aggregate << ",\n"
       << "  \"cells\": [\n";
    bool first = true;
    for (std::size_t i = 0; i < spec.size(); ++i) {
        const CellOutcome &o = res.outcome(i);
        if (!o.ran || !o.ok)
            continue;
        const double minsts = o.seconds > 0.0
            ? double(o.result.insts) / o.seconds / 1e6 : 0.0;
        const double mcycles = o.seconds > 0.0
            ? double(o.result.cycles) / o.seconds / 1e6 : 0.0;
        if (!first)
            js << ",\n";
        first = false;
        js << "    {\"workload\": \"" << o.result.workload << "\", "
           << "\"config\": \"" << o.result.config << "\", "
           << "\"insts\": " << o.result.insts << ", "
           << "\"cycles\": " << o.result.cycles << ", "
           << "\"seconds\": " << o.seconds << ", "
           << "\"host_wall_seconds\": " << o.hostWallSeconds << ", "
           << "\"minsts_per_sec\": " << minsts << ", "
           << "\"mcycles_per_sec\": " << mcycles << "}";
    }
    js << "\n  ],\n";
    js << "  \"thread_scaling\": {\n"
       << "    \"note\": \"wall seconds for the hotloop matrix (golden"
          " check on) at --threads=N, best of "
       << reps << " interleaved reps; byte-identical simulated results"
          " at every width. Single-CPU hosts show ~1.0x — wall wins"
          " require a multi-core host.\",\n"
       << "    \"host_cpus\": "
       << std::thread::hardware_concurrency() << ",\n";
    for (std::size_t k = 0; k < threadWidths.size(); ++k)
        js << "    \"threads" << threadWidths[k]
           << "_wall_seconds\": " << threadWall[k] << ",\n";
    js << "    \"speedup_threads4_over_threads1\": "
       << (threadWall.back() > 0.0 ? threadWall[0] / threadWall.back()
                                   : 0.0)
       << "\n  }"
       << profStanza << "\n}\n";
    std::printf("wrote %s\n", outPath.c_str());
    return sweepFailed ? 1 : 0;
}
