/**
 * @file
 * perfbench: the repo benchmark's measuring binary. run.py builds it
 * and runs it once per (workload, seed); see README.md.
 *
 *   perfbench --workload=cold_figures|warm_rerun|sweepd_mix --seed=N
 *             --seconds=S --trace=0|1 --work-dir=D [--sweepd=PATH]
 *             [--insts=N] [--setup-reps=N]
 *
 * The measured window issues operations (whole sweeps, or sweepd
 * requests) for --seconds; the operation in flight at the deadline
 * completes and counts. Inputs come from --seed alone.
 *
 * Prints one {"detail":...} JSON line: every metric with its unit,
 * the metrics that do not apply to the workload and why, the
 * reconciliation counters, correctness, and (traced) the per-span
 * totals. A traced run also writes <work-dir>/trace.json in Chrome
 * Trace Event format. Exit status: 0 when every output matched the
 * reference, 1 on any mismatch or failure, 2 on a usage error.
 */

#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hh"

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload=W --seed=N "
                 "--seconds=S --trace=0|1 --work-dir=D [--sweepd=PATH] "
                 "[--insts=N] [--setup-reps=N]\n",
                 why);
    std::exit(2);
}

std::uint64_t
number(const std::string &text, const char *flag)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos)
        usage((std::string("bad number for ") + flag).c_str());
    try {
        return std::stoull(text);
    } catch (const std::exception &) {
        usage((std::string("number out of range for ") + flag).c_str());
    }
}

std::string
buildJson()
{
    const std::string type = PERFBENCH_BUILD_TYPE;
    const std::string flags = PERFBENCH_CXX_FLAGS;
    // Only a plain Release build is comparable with other Release
    // figures; Debug, sanitizer or profiling flags change the program.
    const bool release = type == "Release" &&
        flags.find("-fsanitize") == std::string::npos &&
        flags.find("-pg") == std::string::npos &&
        flags.find("-O0") == std::string::npos;
    return std::string("{\"build_type\":\"") + type + "\",\"cxx_flags\":\"" +
        flags + "\",\"compiler\":\"" + PERFBENCH_COMPILER +
        "\",\"ipo\":" + (PERFBENCH_IPO ? "true" : "false") +
        ",\"release_build\":" + (release ? "true" : "false") + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Args a;
    bool haveSeconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::size_t eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const std::string val =
            eq == std::string::npos ? std::string() : arg.substr(eq + 1);
        if (key == "--workload")
            a.workload = val;
        else if (key == "--seed")
            a.seed = number(val, "--seed");
        else if (key == "--seconds")
            a.seconds = double(number(val, "--seconds")), haveSeconds = true;
        else if (key == "--trace")
            a.trace = number(val, "--trace") != 0;
        else if (key == "--work-dir")
            a.workDir = val;
        else if (key == "--sweepd")
            a.sweepd = val;
        else if (key == "--insts")
            a.insts = number(val, "--insts");
        else if (key == "--setup-reps")
            a.setupReps = static_cast<unsigned>(number(val, "--setup-reps"));
        else
            usage(("unknown argument " + arg).c_str());
    }
    if (a.workload != "cold_figures" && a.workload != "warm_rerun" &&
        a.workload != "sweepd_mix")
        usage(("unknown workload '" + a.workload + "'").c_str());
    if (!haveSeconds || a.seconds < 1 || a.workDir.empty() || a.insts == 0 ||
        a.setupReps == 0)
        usage("--seconds>=1, --work-dir, --insts>0 and --setup-reps>0 "
              "are required");
    if (a.workload == "sweepd_mix" && a.sweepd.empty())
        usage("sweepd_mix needs --sweepd");

    std::filesystem::remove_all(a.workDir);
    std::filesystem::create_directories(a.workDir);
    // Per-run warnings (a non-halting cell, say) stay on stderr; the
    // reference check catches any effect they have on results.
    perfbench::Tracer tracer(a.trace);
    perfbench::Report report;
    try {
        if (a.workload == "cold_figures")
            perfbench::runColdFigures(a, report, tracer);
        else if (a.workload == "warm_rerun")
            perfbench::runWarmRerun(a, report, tracer);
        else
            perfbench::runSweepdMix(a, report, tracer);
    } catch (const std::exception &e) {
        report.error(std::string("benchmark aborted: ") + e.what());
        if (report.attempted == 0)
            report.attempted = 1;
        report.failed = std::max<std::uint64_t>(report.failed, 1);
    }

    if (a.trace) {
        const std::string meta = "{\"workload\":\"" + a.workload +
            "\",\"seed\":" + std::to_string(a.seed) +
            ",\"build\":" + buildJson() + "}";
        if (!tracer.writeChrome(a.workDir + "/trace.json", meta))
            report.error("cannot write the trace file");
    }
    report.reconcile("spans", double(tracer.spans().size()));
    std::string detail = report.detailJson(
        a.workload, a.trace, a.trace ? tracer.summaryJson() : "");
    // Splice the build stamp into the detail object.
    detail.insert(detail.size() - 2, ",\"build\":" + buildJson());
    std::printf("%s\n", detail.c_str());
    return report.correct() ? 0 : 1;
}
