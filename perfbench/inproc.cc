/**
 * @file
 * The in-process workloads: cold_figures (cold fig5-fig8 sweeps through
 * SweepSession) and warm_rerun (the same sweeps served from a
 * populated disk cache, then from the memory front).
 */

#include <filesystem>
#include <stdexcept>

#include "common.hh"
#include "harness/session.hh"

namespace perfbench {

using namespace svw;
using namespace svw::harness;

namespace {

/** Seconds between host probes in an untraced window. */
constexpr double gaugeInterval = 0.25;

/** What one whole four-figure sweep produced. */
struct SweepRun
{
    std::vector<std::vector<std::string>> lines;  ///< [spec][cell]
    double seconds = 0;  ///< excludes the gauge's pauses
    double ttfc = -1;  ///< op start to first cell result line
    double pausedCpu = 0;  ///< CPU seconds the gauge's pauses took
    std::uint64_t cells = 0, hits = 0, simulated = 0, failures = 0,
                  insts = 0;
};

/** One whole sweep of @p specs, each spec through an incremental
 * SweepSession (start, step until finished, finish). A @p gauge may
 * probe the host between specs and between steps; its pauses are not
 * part of the sweep's time. */
SweepRun
sweepOnce(const std::vector<SweepSpec> &specs, const SweepOptions &opts,
          Tracer &t, std::uint32_t op, const char *opName,
          HostGauge *gauge = nullptr)
{
    SweepRun run;
    run.lines.resize(specs.size());
    Scope opSpan(t, opName, op);
    double paused = 0;
    const double cpu0 = gauge ? gauge->cpuS() : 0;
    auto pause = [&] {
        if (gauge)
            paused += gauge->pause();
    };
    const double t0 = nowS();
    for (std::size_t s = 0; s < specs.size(); ++s) {
        run.lines[s].assign(specs[s].size(), std::string());
        if (s)
            pause();
        SweepSession session(specs[s], opts);
        auto cb = [&run, &paused, s, t0](const CellEvent &ev) {
            if (ev.kind == CellEventKind::Started)
                return;
            if (run.ttfc < 0 && !ev.resultLine.empty())
                run.ttfc = nowS() - t0 - paused;
            if (ev.kind == CellEventKind::Done)
                ++run.simulated;
            if (!ev.outcome || !ev.outcome->ok) {
                ++run.failures;
                return;
            }
            if (ev.kind == CellEventKind::Done)
                run.insts += ev.outcome->result.insts;
            run.lines[s][ev.index] = ev.resultLine;
        };
        {
            Scope sp(t, "session.start", op);
            session.start(cb);
        }
        while (!session.finished()) {
            pause();
            Scope sp(t, "session.step", op);
            session.step();
        }
        {
            Scope sp(t, "session.finish", op);
            session.finish();
        }
        run.cells += session.cellsSelected();
        run.hits += session.cacheHits();
    }
    run.seconds = nowS() - t0 - paused;
    run.pausedCpu = gauge ? gauge->cpuS() - cpu0 : 0;
    return run;
}

/** Check @p run against the reference; @return true if every cell's
 * line is present and byte-identical. */
bool
matchesReference(const SweepRun &run,
                 const std::vector<std::vector<std::string>> &ref,
                 const std::vector<SweepSpec> &specs, const char *what,
                 Report &r)
{
    bool ok = run.failures == 0;
    if (!ok)
        r.error(std::string(what) + ": " + std::to_string(run.failures) +
                " cell(s) failed");
    for (std::size_t s = 0; s < specs.size(); ++s) {
        for (std::size_t c = 0; c < specs[s].size(); ++c) {
            if (run.lines[s][c].empty() || run.lines[s][c] != ref[s][c]) {
                r.error(std::string(what) + ": " + specs[s].name() + "/" +
                        specs[s].cell(c).name() +
                        " differs from the reference");
                ok = false;
            }
        }
    }
    return ok;
}

std::vector<std::vector<std::string>>
reference(const std::vector<SweepSpec> &specs, const Args &a, Report &r)
{
    std::vector<std::string> errors;
    auto ref = referenceLines(specs, 4, a.workDir, errors);
    for (const std::string &e : errors)
        r.error(e);
    return ref;
}

/** Per-op totals of a measured window. Time and CPU cover the
 * operations only, not the benchmark's own checks between them. */
struct Window
{
    std::uint32_t ops = 0, failedOps = 0;
    double seconds = 0, cpu = 0;
    std::uint64_t cells = 0, hits = 0, simulated = 0, insts = 0;
    std::vector<double> tracedMs, untracedMs;

    void add(const SweepRun &run, bool ok, bool traced)
    {
        ++ops;
        seconds += run.seconds;
        failedOps += ok ? 0 : 1;
        cells += run.cells;
        hits += run.hits;
        simulated += run.simulated;
        insts += run.insts;
        (traced ? tracedMs : untracedMs).push_back(run.seconds * 1e3);
    }
};

/** Metrics every in-process workload shares. */
void
reportCommon(const Window &w, const std::vector<double> &setups,
             const std::vector<double> &opMs,
             const std::vector<double> &ttfcMs, Report &r)
{
    r.attempted = w.ops;
    r.failed = w.failedOps;
    r.metric("setup_s", median(setups), "s");
    r.metric("op_ms_p50", median(opMs), "ms");
    r.metric("ttfc_ms_p50", median(ttfcMs), "ms");
    r.metric("ops_per_s", double(w.ops) / w.seconds, "1/s");
    r.metric("cpu_ms_per_op", w.cpu * 1e3 / double(w.ops), "ms");
    r.metric("peak_rss_mb", peakRssMb(), "MB");
    r.metric("failed_frac", double(w.failedOps) / double(w.ops), "ratio");
    r.metric("op_samples", double(opMs.size()), "count");
    for (const char *m :
         {"service.head_ms_p50", "service.stream_ms_p50", "service.parse_us",
          "service.cells_simulated", "service.mem_hits",
          "service.mem_evictions", "service.program_builds",
          "service.mem_cache_mb"})
        r.notApplicable(m, "no daemon in this workload (sweepd_mix only)");
}

/** Per-layer metrics of the traced run that need the window. */
void
reportLayers(const Window &w, const Replayer &rep, const Tracer &t,
             double opSeconds, Report &r)
{
    rep.report(r);
    reportSessionSpans(t, r);
    // Share of the measured ops' wall time that the window's simulated
    // cells cost, at the replay's per-cell cost.
    const double perCellSim =
        rep.cells() ? rep.simulateS() / double(rep.cells()) : 0;
    const double perCellGolden =
        rep.cells() ? rep.goldenS() / double(rep.cells()) : 0;
    r.metric("cpu.share", perCellSim * double(w.simulated) / opSeconds,
             "ratio");
    r.metric("func.share", perCellGolden * double(w.simulated) / opSeconds,
             "ratio");
    r.metric("harness.cells_simulated", double(w.simulated), "count");
    r.metric("harness.cache_hit_ratio",
             w.cells ? double(w.hits) / double(w.cells) : 0, "ratio");
    r.metric("prog.programs_built", double(processProgramCache().builds()),
             "count");
    r.metric("trace.overhead_ms",
             median(w.tracedMs) - median(w.untracedMs), "ms");
}

void
replayAll(const std::vector<SweepSpec> &specs,
          const std::vector<std::vector<std::string>> &lines,
          Replayer &rep, std::uint32_t op, Report &r)
{
    std::vector<std::string> errors;
    for (std::size_t s = 0; s < specs.size(); ++s)
        rep.replay(specs[s], lines[s], op, errors);
    for (const std::string &e : errors)
        r.error(e);
    for (const SweepSpec &spec : specs)
        rep.profile(spec);
}

} // namespace

void
runColdFigures(const Args &a, Report &r, Tracer &t)
{
    const auto ref = reference(figureSpecs(a.seed, a.insts), a, r);

    // Set-up: build the specs and every program they sweep. The first
    // repetition fills the process ProgramCache the sessions use; the
    // others build into a private cache so each one really builds.
    std::vector<double> setups;
    std::vector<SweepSpec> specs;
    for (unsigned rep = 0; rep < a.setupReps; ++rep) {
        ProgramCache privateCache;
        ProgramCache &programs = rep == 0 ? processProgramCache()
                                          : privateCache;
        const double t0 = nowS();
        specs = figureSpecs(a.seed, a.insts);
        for (const SweepSpec &spec : specs)
            for (const SweepCell &cell : spec.cells())
                programs.get(cell.workload, cell.targetInsts);
        setups.push_back(nowS() - t0);
    }

    // Window: whole cold sweeps, default options (no result cache,
    // golden check on in every cell). A traced run alternates traced
    // and untraced sweeps so the tracing overhead is measured.
    Tracer off(false);
    Window w;
    std::vector<double> opMs, ttfcMs;
    std::vector<std::vector<std::string>> firstLines;
    const std::uint64_t runs0 = execCounters().cellRuns();
    HostGauge gauge(gaugeInterval);
    const double deadline = nowS() + a.seconds;
    while (w.ops < 2 || nowS() < deadline) {
        const bool traced = t.on() && w.ops % 2 == 0;
        const double c0 = cpuS();
        const SweepRun run =
            sweepOnce(specs, SweepOptions{}, traced ? t : off, w.ops + 1,
                      "op", t.on() ? nullptr : &gauge);
        w.cpu += cpuS() - c0 - run.pausedCpu;
        const bool ok = matchesReference(run, ref, specs, "cold sweep", r);
        w.add(run, ok, traced);
        opMs.push_back(run.seconds * 1e3);
        ttfcMs.push_back(run.ttfc * 1e3);
        if (firstLines.empty())
            firstLines = run.lines;
    }

    reportCommon(w, setups, opMs, ttfcMs, r);
    r.metric("sweep_s", median(opMs) / 1e3, "s");
    r.metric("minsts_per_cpu_s", double(w.insts) / 1e6 / w.cpu, "Minst/s");
    r.notApplicable("op_ms_p90", "a run holds a handful of whole cold "
                                 "sweeps, too few for a p90 with ten "
                                 "samples beyond it");
    r.notApplicable("mem_op_ms_p50", "no result cache in a cold sweep");
    r.notApplicable("warm_op_ms_p90", "sweepd_mix only");
    r.reconcile("cells_attempted", double(w.cells));
    r.reconcile("cache_hits", double(w.hits));
    r.reconcile("cells_simulated", double(w.simulated));
    r.reconcile("exec_cell_runs",
                double(execCounters().cellRuns() - runs0));
    if (!t.on())
        r.normalize(gauge);

    if (t.on()) {
        // Split each cell by replaying it through the public cell
        // functions; every replayed line must equal the session's.
        Replayer rep(t, a.workDir + "/replay-cache");
        replayAll(specs, firstLines, rep, w.ops + 1, r);
        reportLayers(w, rep, t, w.seconds, r);
    }
}

void
runWarmRerun(const Args &a, Report &r, Tracer &t)
{
    const auto ref = reference(figureSpecs(a.seed, a.insts), a, r);
    const std::string cacheDir = a.workDir + "/cache";
    SweepOptions opts;
    opts.cacheDir = cacheDir;
    MemoryResultCache &mem = processMemoryResultCache();

    // Set-up: build the specs, populate the disk cache (and with it
    // the memory front) with one cold sweep, then prime one
    // disk-served and one memory-served sweep. Every sweep is checked.
    Tracer off(false);
    std::vector<double> setups;
    std::vector<SweepSpec> specs;
    for (unsigned rep = 0; rep < a.setupReps; ++rep) {
        std::filesystem::remove_all(cacheDir);
        mem.clear();
        // Trace the last populating sweep: its steps are this
        // workload's only cold units.
        Tracer &st = rep + 1 == a.setupReps ? t : off;
        const double t0 = nowS();
        specs = figureSpecs(a.seed, a.insts);
        const SweepRun fill = sweepOnce(specs, opts, st, 0, "setup");
        matchesReference(fill, ref, specs, "cache population", r);
        mem.clear();
        matchesReference(sweepOnce(specs, opts, off, 0, "setup"), ref,
                         specs, "disk priming sweep", r);
        matchesReference(sweepOnce(specs, opts, off, 0, "setup"), ref,
                         specs, "memory priming sweep", r);
        setups.push_back(nowS() - t0);
    }

    // Window: each op is one whole sweep. The memory front is cleared
    // (untimed) before every disk-served sweep, and each disk-served
    // sweep is followed by one memory-served sweep.
    Window w;
    std::vector<double> diskMs, memMs, ttfcMs;
    std::vector<std::vector<std::string>> firstLines;
    const std::uint64_t runs0 = execCounters().cellRuns();
    HostGauge gauge(gaugeInterval);
    HostGauge *g = t.on() ? nullptr : &gauge;
    const double deadline = nowS() + a.seconds;
    while (w.ops < 4 || nowS() < deadline) {
        const bool traced = t.on() && (w.ops / 2) % 2 == 0;
        Tracer &tt = traced ? t : off;
        if (g)
            g->pause();
        mem.clear();
        double c0 = cpuS();
        const SweepRun disk = sweepOnce(specs, opts, tt, w.ops + 1, "op", g);
        w.cpu += cpuS() - c0 - disk.pausedCpu;
        w.add(disk, matchesReference(disk, ref, specs, "disk rerun", r),
              traced);
        diskMs.push_back(disk.seconds * 1e3);
        ttfcMs.push_back(disk.ttfc * 1e3);
        if (firstLines.empty())
            firstLines = disk.lines;

        c0 = cpuS();
        const SweepRun memRun =
            sweepOnce(specs, opts, tt, w.ops + 1, "op", g);
        w.cpu += cpuS() - c0 - memRun.pausedCpu;
        w.add(memRun,
              matchesReference(memRun, ref, specs, "memory rerun", r),
              traced);
        memMs.push_back(memRun.seconds * 1e3);
    }

    reportCommon(w, setups, diskMs, ttfcMs, r);
    r.metric("op_ms_p90", quantile(diskMs, 0.9), "ms");
    r.metric("mem_op_ms_p50", median(memMs), "ms");
    r.notApplicable("sweep_s", "cold_figures only: no sweep here "
                               "simulates");
    r.notApplicable("minsts_per_cpu_s", "a warm rerun simulates nothing");
    r.notApplicable("warm_op_ms_p90", "sweepd_mix only");
    r.reconcile("cells_attempted", double(w.cells));
    r.reconcile("cache_hits", double(w.hits));
    r.reconcile("cells_simulated", double(w.simulated));
    r.reconcile("exec_cell_runs",
                double(execCounters().cellRuns() - runs0));
    if (!t.on())
        r.normalize(gauge);

    if (t.on()) {
        Replayer rep(t, a.workDir + "/replay-cache");
        replayAll(specs, firstLines, rep, w.ops + 1, r);
        reportLayers(w, rep, t, w.seconds, r);
    }
}

} // namespace perfbench
