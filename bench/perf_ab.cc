/**
 * @file
 * Statistical perf-regression harness: Mann-Whitney verdicts over
 * per-rep host times, replacing single-snapshot mean comparison.
 *
 * --history=F keeps an append-only per-commit sample history
 * (BENCH_history.jsonl) over the perf_hotloop workloads × configs
 * (--cells selects a subset): --append records this commit's per-cell
 * rep times as one JSON line per cell; --check tests the same cells
 * against each cell's most recent prior entry with a two-sided
 * Mann-Whitney U test and exits 3 when any cell regressed
 * significantly (p < 0.05 AND median slower) — a statistical CI gate
 * instead of a mean diff against a lone snapshot.
 *
 * Other flags: --cells=w/CFG[,w/CFG...] | all (default: a 2-cell
 * smoke pair), --reps=N (default 12), --commit=SHA (history stamp),
 * --insts=N / --quick (bench_common sizing).
 */

#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <sstream>

#include "bench_common.hh"
#include "harness/perf_stats.hh"

using namespace svw;
using namespace svw::bench;
using namespace svw::harness;

namespace {

struct PerfCell
{
    std::string name;  ///< "workload/CONFIG-LABEL"
    std::string workload;
    ExperimentConfig config;
};

/** The perf_hotloop matrix: 4 workloads x 4 configs. */
std::vector<PerfCell>
fullMatrix()
{
    std::vector<ExperimentConfig> configs(4);
    configs[0].opt = OptMode::Baseline;
    configs[1].opt = OptMode::Nlq;
    configs[1].svw = SvwMode::Upd;
    configs[2].opt = OptMode::Ssq;
    configs[2].svw = SvwMode::Upd;
    configs[3].machine = Machine::FourWide;
    configs[3].opt = OptMode::Rle;
    configs[3].svw = SvwMode::Upd;

    std::vector<PerfCell> cells;
    for (const std::string w : {"gzip", "mcf", "crafty", "perl.d"}) {
        for (const auto &cfg : configs) {
            PerfCell c;
            c.workload = w;
            c.config = cfg;
            c.name = w + "/" + configLabel(cfg);
            cells.push_back(std::move(c));
        }
    }
    return cells;
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        const std::size_t comma = s.find(',', start);
        if (comma == std::string::npos) {
            out.push_back(s.substr(start));
            break;
        }
        out.push_back(s.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

/** One timed rep of @p cell; returns host seconds, records the run's
 * cycle count into @p cycles (byte-identity across reps). */
double
timedRep(const PerfCell &cell, const Program &prog, std::uint64_t insts,
         std::uint64_t &cycles)
{
    RunRequest req;
    req.workload = cell.workload;
    req.targetInsts = insts;
    req.config = cell.config;
    req.goldenCheck = false;  // timing loop only, like perf_hotloop
    const double t0 = hostSeconds();
    const RunResult res = runOne(req, prog);
    const double secs = hostSeconds() - t0;
    if (cycles == 0)
        cycles = res.cycles;
    else if (cycles != res.cycles)
        svw_fatal("cycle mismatch across reps in ", cell.name,
                  ": ", cycles, " vs ", res.cycles);
    return secs;
}

std::string
jsonSampleLine(const std::string &commit, const PerfCell &cell,
               std::uint64_t insts, const std::vector<double> &secs)
{
    std::ostringstream os;
    os << "{\"commit\":\"" << commit << "\",\"cell\":\"" << cell.name
       << "\",\"insts\":" << insts << ",\"unix_time\":"
       << static_cast<long long>(std::time(nullptr))
       << ",\"seconds\":[";
    for (std::size_t i = 0; i < secs.size(); ++i) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.6f", secs[i]);
        os << (i ? "," : "") << buf;
    }
    os << "]}";
    return os.str();
}

/**
 * Minimal extraction of `"cell":"NAME"` and `"seconds":[...]` from one
 * history line (we wrote the format; unknown keys are ignored).
 * @return false on a malformed line (skipped, like a corrupt cache
 * entry).
 */
bool
parseHistoryLine(const std::string &line, std::string &cell,
                 std::vector<double> &secs)
{
    const std::size_t ck = line.find("\"cell\":\"");
    if (ck == std::string::npos)
        return false;
    const std::size_t cs = ck + 8;
    const std::size_t ce = line.find('"', cs);
    if (ce == std::string::npos)
        return false;
    cell = line.substr(cs, ce - cs);

    const std::size_t sk = line.find("\"seconds\":[");
    if (sk == std::string::npos)
        return false;
    std::size_t p = sk + 11;
    secs.clear();
    while (p < line.size() && line[p] != ']') {
        char *end = nullptr;
        const double v = std::strtod(line.c_str() + p, &end);
        if (end == line.c_str() + p)
            return false;
        secs.push_back(v);
        p = static_cast<std::size_t>(end - line.c_str());
        if (p < line.size() && line[p] == ',')
            ++p;
    }
    return !secs.empty();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string historyPath;
    bool historyAppend = false, historyCheck = false;
    std::string cellsArg;
    std::string commit = "unknown";
    unsigned reps = 12;

    std::vector<char *> passDown;
    passDown.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a.rfind("--history=", 0) == 0)
            historyPath = a.substr(10);
        else if (a == "--append")
            historyAppend = true;
        else if (a == "--check")
            historyCheck = true;
        else if (a.rfind("--cells=", 0) == 0)
            cellsArg = a.substr(8);
        else if (a.rfind("--commit=", 0) == 0)
            commit = a.substr(9);
        else if (a.rfind("--reps=", 0) == 0)
            reps = std::max(2u, parseFlagUnsigned(a.substr(7), "--reps"));
        else
            passDown.push_back(argv[i]);
    }
    const BenchArgs args =
        parseArgs(static_cast<int>(passDown.size()), passDown.data());

    if (historyAppend == historyCheck || historyPath.empty()) {
        std::fprintf(stderr,
                     "error: need --history=F with --append or"
                     " --check\n");
        return 2;
    }

    // Cell selection: default is a 2-cell smoke pair, one baseline
    // cell and one on the 4-wide RLE machine.
    std::vector<PerfCell> cells;
    const std::vector<PerfCell> matrix = fullMatrix();
    if (cellsArg.empty()) {
        for (const PerfCell &c : matrix)
            if (c.name == "gzip/BASE" || c.name == "perl.d/RLE+SVW+UPD")
                cells.push_back(c);
    } else if (cellsArg == "all") {
        cells = matrix;
    } else {
        for (const std::string &name : splitCommas(cellsArg)) {
            bool found = false;
            for (const PerfCell &c : matrix) {
                if (c.name == name) {
                    cells.push_back(c);
                    found = true;
                    break;
                }
            }
            if (!found) {
                std::fprintf(stderr,
                             "error: --cells: unknown cell '%s'\n",
                             name.c_str());
                return 2;
            }
        }
    }

    // Share each workload's program across its cells.
    ProgramCache &progs = processProgramCache();
    std::map<std::string, std::vector<double>> fresh;
    for (const PerfCell &cell : cells) {
        const Program &prog = progs.get(cell.workload, args.insts);
        std::uint64_t cycles = 0;
        (void)timedRep(cell, prog, args.insts, cycles);  // warmup
        std::vector<double> secs;
        for (unsigned r = 0; r < reps; ++r)
            secs.push_back(timedRep(cell, prog, args.insts, cycles));
        fresh[cell.name] = std::move(secs);
    }

    if (historyAppend) {
        std::ofstream out(historyPath, std::ios::app);
        if (!out) {
            std::fprintf(stderr, "error: cannot open %s\n",
                         historyPath.c_str());
            return 2;
        }
        for (const PerfCell &cell : cells)
            out << jsonSampleLine(commit, cell, args.insts,
                                  fresh[cell.name])
                << "\n";
        std::printf("appended %zu cell samples to %s (commit %s)\n",
                    cells.size(), historyPath.c_str(), commit.c_str());
        return 0;
    }

    // --check: most recent prior entry per cell.
    std::map<std::string, std::vector<double>> prior;
    {
        std::ifstream in(historyPath);
        if (!in) {
            std::fprintf(stderr,
                         "perf_ab: no history at %s; nothing to check"
                         " against\n",
                         historyPath.c_str());
            return 0;
        }
        std::string line;
        while (std::getline(in, line)) {
            std::string cell;
            std::vector<double> secs;
            if (parseHistoryLine(line, cell, secs))
                prior[cell] = std::move(secs);  // last entry wins
        }
    }

    bool regressed = false;
    std::printf("%-24s %10s %10s %8s %8s  %s\n", "cell", "now (s)",
                "prior (s)", "shift%", "p", "verdict");
    for (const PerfCell &cell : cells) {
        const auto it = prior.find(cell.name);
        if (it == prior.end()) {
            std::printf("%-24s  (no prior sample)\n", cell.name.c_str());
            continue;
        }
        const std::vector<double> &now = fresh[cell.name];
        const MannWhitneyResult mw = mannWhitneyU(now, it->second);
        const double medNow = median(now), medPrior = median(it->second);
        const bool slower = mw.p < 0.05 && mw.medianShift > 0;
        if (slower)
            regressed = true;
        std::printf("%-24s %10.4f %10.4f %+7.1f%% %8.4f  %s\n",
                    cell.name.c_str(), medNow, medPrior,
                    medPrior > 0
                        ? 100.0 * (medNow - medPrior) / medPrior : 0.0,
                    mw.p,
                    slower ? "REGRESSION (significant)"
                           : mw.p < 0.05 ? "faster (significant)"
                                         : "no significant change");
    }
    return regressed ? 3 : 0;
}
