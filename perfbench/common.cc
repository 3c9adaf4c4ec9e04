#include "common.hh"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "cpu/core.hh"
#include "func/interp.hh"
#include "harness/figures.hh"
#include "harness/runner.hh"
#include "harness/serialize.hh"
#include "prog/synth.hh"
#include "stats/stats.hh"

namespace perfbench {

using namespace svw;
using namespace svw::harness;

// -- Clocks and summaries ------------------------------------------------

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuS()
{
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
peakRssMb(int pid)
{
    const std::string path = pid ? "/proc/" + std::to_string(pid) +
            "/status"
                                 : "/proc/self/status";
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
    return 0.0;
}

// -- Host speed -------------------------------------------------------------

namespace {

/** Median time (ms) of @p reps runs of the probe. */
double
probeHostMs(int reps)
{
    std::vector<std::uint64_t> table(std::size_t(1) << 17);
    std::vector<double> ms;
    std::uint64_t sink = 0;
    for (int rep = 0; rep < reps; ++rep) {
        const double t0 = nowS();
        std::uint64_t x = 0x2545f4914f6cdd1dull;
        for (int i = 0; i < 200'000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::uint64_t &v = table[x & (table.size() - 1)];
            if (v & 1)
                v += x;
            else
                v ^= x >> 3;
            sink += v;
        }
        ms.push_back((nowS() - t0) * 1e3);
    }
    // Keep the probe's result observable so it is not optimized away.
    volatile std::uint64_t keep = sink;
    (void)keep;
    return median(ms);
}

} // namespace

double
HostGauge::pause()
{
    const double t0 = nowS();
    if (t0 - last_ < intervalS_)
        return 0;
    const double c0 = perfbench::cpuS();
    // The first repetition warms the table; the median of three
    // ignores it and one disturbed repetition.
    ms_.push_back(probeHostMs(3));
    cpuS_ += perfbench::cpuS() - c0;
    last_ = nowS();
    return last_ - t0;
}

double
HostGauge::probeMs() const
{
    return ms_.empty() ? referenceProbeMs : median(ms_);
}

// -- Spans ----------------------------------------------------------------

std::uint32_t
Tracer::open(const char *name, std::uint32_t op)
{
    Span s;
    s.name = name;
    s.t0 = nowS();
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = stack_.empty() ? 0 : stack_.back();
    s.op = op;
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
}

void
Tracer::close(std::uint32_t id)
{
    spans_[id - 1].t1 = nowS();
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
}

std::uint32_t
Tracer::add(std::string name, double t0, double t1, std::uint32_t parent,
            std::uint32_t op, std::uint32_t lane)
{
    if (!on_)
        return 0;
    Span s;
    s.name = std::move(name);
    s.t0 = t0;
    s.t1 = t1;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = parent;
    s.op = op;
    s.lane = lane;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> d;
    for (const Span &s : spans_)
        if (s.name == name)
            d.push_back(s.t1 - s.t0);
    return d;
}

std::string
Tracer::summaryJson() const
{
    // Children of one parent never overlap (each lane records its
    // phases in sequence), so self time = duration - sum(children).
    std::vector<double> childSum(spans_.size() + 1, 0.0);
    for (const Span &s : spans_)
        if (s.parent)
            childSum[s.parent] += s.t1 - s.t0;
    struct Agg
    {
        std::uint64_t count = 0;
        double total = 0, self = 0;
    };
    std::map<std::string, Agg> agg;
    for (const Span &s : spans_) {
        Agg &a = agg[s.name];
        ++a.count;
        a.total += s.t1 - s.t0;
        a.self += s.t1 - s.t0 - childSum[s.id];
    }
    std::ostringstream o;
    o << "{";
    bool first = true;
    for (const auto &[name, a] : agg) {
        o << (first ? "" : ",") << "\"" << name << "\":{\"count\":"
          << a.count << ",\"total_ms\":" << a.total * 1e3
          << ",\"self_ms\":" << a.self * 1e3 << "}";
        first = false;
    }
    o << "}";
    return o.str();
}

bool
Tracer::writeChrome(const std::string &path,
                    const std::string &metadataJson) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    const double origin = spans_.empty() ? 0.0 : spans_.front().t0;
    out << "{\"displayTimeUnit\":\"ms\",\"metadata\":" << metadataJson
        << ",\"traceEvents\":[";
    char buf[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof(buf),
                      "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":"
                      "{\"id\":%u,\"parent\":%u,\"op\":%u}}",
                      i ? "," : "", jsonEscape(s.name).c_str(), s.lane,
                      (s.t0 - origin) * 1e6, (s.t1 - s.t0) * 1e6, s.id,
                      s.parent, s.op);
        out << buf;
    }
    out << "\n]}\n";
    return bool(out);
}

// -- Report ---------------------------------------------------------------

void
Report::metric(const std::string &name, double value, const char *unit)
{
    metrics_.push_back({name, {value, unit}});
}

void
Report::notApplicable(const std::string &name, const std::string &why)
{
    notApplicable_[name] = why;
}

void
Report::error(const std::string &what)
{
    // Keep and print the first few messages; count all of them.
    if (errors_.size() < 20) {
        errors_.push_back(what);
        std::fprintf(stderr, "perfbench: %s\n", what.c_str());
    }
    ++errorCount_;
}

void
Report::reconcile(const std::string &name, double value)
{
    reconcile_[name] = value;
}

void
Report::normalize(const HostGauge &gauge)
{
    static const char *const times[] = {
        "setup_s",        "op_ms_p50",      "op_ms_p90",
        "ttfc_ms_p50",    "sweep_s",        "mem_op_ms_p50",
        "warm_op_ms_p90", "cold_op_ms_p50", "cpu_ms_per_op"};
    static const char *const rates[] = {"ops_per_s", "minsts_per_cpu_s"};
    const double speed = gauge.speed();
    const std::size_t n = metrics_.size();
    for (std::size_t i = 0; i < n; ++i) {
        const std::string name = metrics_[i].first;
        const auto [value, unit] = metrics_[i].second;
        bool time = false, rate = false;
        for (const char *t : times)
            time = time || name == t;
        for (const char *t : rates)
            rate = rate || name == t;
        if (!time && !rate)
            continue;
        metrics_[i].second.first = time ? value * speed : value / speed;
        metric("raw." + name, value, unit.c_str());
    }
    metric("host.probe_ms", gauge.probeMs(), "ms");
    metric("host.speed", speed, "ratio");
    metric("host.probes", double(gauge.probes()), "count");
}

namespace {

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

} // namespace

std::string
Report::detailJson(const std::string &workload, bool trace,
                   const std::string &spansJson) const
{
    std::ostringstream o;
    o << "{\"detail\":{\"workload\":\"" << workload
      << "\",\"trace\":" << (trace ? 1 : 0) << ",\"correct\":"
      << (correct() ? "true" : "false") << ",\"attempted\":" << attempted
      << ",\"failed\":" << failed << ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const auto &[name, vu] = metrics_[i];
        o << (i ? "," : "") << "\"" << name << "\":{\"value\":"
          << num(vu.first) << ",\"unit\":\"" << vu.second << "\"}";
    }
    o << "},\"not_applicable\":{";
    bool first = true;
    for (const auto &[name, why] : notApplicable_) {
        o << (first ? "" : ",") << "\"" << name << "\":\""
          << jsonEscape(why) << "\"";
        first = false;
    }
    o << "},\"reconcile\":{";
    first = true;
    for (const auto &[name, v] : reconcile_) {
        o << (first ? "" : ",") << "\"" << name << "\":" << num(v);
        first = false;
    }
    o << "},\"errors\":" << errorCount_ << ",\"first_errors\":[";
    for (std::size_t i = 0; i < errors_.size(); ++i)
        o << (i ? "," : "") << "\"" << jsonEscape(errors_[i]) << "\"";
    o << "],\"spans\":" << (spansJson.empty() ? "{}" : spansJson)
      << "}}";
    return o.str();
}

// -- Workload inputs --------------------------------------------------------

const char *const figureNames[4] = {"fig5", "fig6", "fig7", "fig8"};

namespace {

std::vector<std::string>
figureRows(const std::string &figure, std::uint64_t synthSeed)
{
    const FigureDef *def = findFigure(figure);
    if (!def)
        throw std::runtime_error("unknown figure " + figure);
    std::vector<std::string> rows = def->paperSuite();
    for (const std::string &kind : synth::kindNames())
        rows.push_back("synth:" + kind + ":" + std::to_string(synthSeed));
    return rows;
}

} // namespace

std::vector<SweepSpec>
figureSpecs(std::uint64_t synthSeed, std::uint64_t insts)
{
    std::vector<SweepSpec> specs;
    for (const char *fig : figureNames)
        specs.push_back(
            findFigure(fig)->build(figureRows(fig, synthSeed), insts));
    return specs;
}

std::uint64_t
Rng::next()
{
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

// -- Reference ---------------------------------------------------------------

std::vector<std::vector<std::string>>
referenceLines(const std::vector<SweepSpec> &specs, unsigned workers,
               const std::string &workDir, std::vector<std::string> &errors)
{
    workers = std::max(1u, std::min<unsigned>(
                               workers, static_cast<unsigned>(specs.size())));
    std::fflush(stdout);
    std::fflush(stderr);
    std::vector<pid_t> kids;
    for (unsigned w = 0; w < workers; ++w) {
        const pid_t pid = ::fork();
        if (pid < 0)
            throw std::runtime_error("fork failed for the reference");
        if (pid == 0) {
            // Child: one record per cell — "<spec> <cell> <ok> <len>\n"
            // followed by the line (ok) or the failure text.
            const std::string path =
                workDir + "/ref-" + std::to_string(w) + ".txt";
            std::FILE *f = std::fopen(path.c_str(), "w");
            if (!f)
                ::_exit(3);
            for (std::size_t s = w; s < specs.size(); s += workers) {
                std::vector<std::pair<bool, std::string>> cells(
                    specs[s].size(), {false, "reference sweep threw"});
                try {
                    const SweepResults res = runSweep(specs[s]);
                    for (std::size_t c = 0; c < specs[s].size(); ++c) {
                        const CellOutcome &o = res.outcome(c);
                        cells[c] = o.ok ? std::make_pair(
                                              true, runResultToJson(o.result))
                                        : std::make_pair(false, o.error);
                    }
                } catch (const std::exception &e) {
                    for (auto &cell : cells)
                        cell.second = e.what();
                }
                for (std::size_t c = 0; c < cells.size(); ++c) {
                    std::fprintf(f, "%zu %zu %d %zu\n", s, c,
                                 cells[c].first ? 1 : 0,
                                 cells[c].second.size());
                    std::fwrite(cells[c].second.data(), 1,
                                cells[c].second.size(), f);
                }
            }
            ::_exit(std::fclose(f) == 0 ? 0 : 3);
        }
        kids.push_back(pid);
    }

    bool childFailed = false;
    for (pid_t pid : kids) {
        int status = 0;
        while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            childFailed = true;
    }
    if (childFailed)
        throw std::runtime_error("a reference worker process failed");

    std::vector<std::vector<std::string>> out(specs.size());
    for (std::size_t s = 0; s < specs.size(); ++s)
        out[s].resize(specs[s].size());
    for (unsigned w = 0; w < workers; ++w) {
        const std::string path =
            workDir + "/ref-" + std::to_string(w) + ".txt";
        std::ifstream in(path, std::ios::binary);
        std::size_t s = 0, c = 0, len = 0;
        int ok = 0;
        while (in >> s >> c >> ok >> len) {
            in.get();  // the header's newline
            std::string text(len, '\0');
            in.read(text.data(), static_cast<std::streamsize>(len));
            if (s >= out.size() || c >= out[s].size())
                throw std::runtime_error("corrupt reference record");
            if (ok)
                out[s][c] = std::move(text);
            else
                errors.push_back("reference failed " +
                                 specs[s].cell(c).name() + ": " + text);
        }
        std::remove(path.c_str());
    }
    return out;
}

// -- Layer replay ----------------------------------------------------------

Replayer::Replayer(Tracer &tracer, const std::string &diskDir)
    : tracer_(tracer), disk_(diskDir)
{
    mem_.setMaxBytes(0);  // the replay measures probes, not eviction
}

void
Replayer::replay(const SweepSpec &spec, const std::vector<std::string> &lines,
                 std::uint32_t op, std::vector<std::string> &errors)
{
    for (std::size_t i = 0; i < spec.size(); ++i) {
        const SweepCell &cell = spec.cell(i);
        Scope cellSpan(tracer_, "replay.cell", op);

        RunRequest req;
        req.workload = cell.workload;
        req.targetInsts = cell.targetInsts;
        req.config = cell.config;
        req.goldenCheck = cell.goldenCheck;
        req.hook = cell.hook;

        const std::uint64_t builds0 = programs_.builds();
        double t0 = nowS();
        const Program *prog = nullptr;
        {
            Scope s(tracer_, "prog.get", op);
            prog = &programs_.get(cell.workload, cell.targetInsts);
        }
        double t1 = nowS();
        if (programs_.builds() != builds0)
            buildS_ += t1 - t0;

        // runOne's cell body, one public call at a time.
        RunResult res;
        std::optional<stats::StatRegistry> reg;
        std::optional<Core> core;
        RunOutcome out;
        t0 = nowS();
        {
            Scope s(tracer_, "cpu.simulate", op);
            reg.emplace();
            core.emplace(buildParams(req.config), *prog, *reg);
            if (req.hook)
                core->perCycleHook = req.hook;
            const std::uint64_t maxCycles = 100 * req.targetInsts + 1'000'000;
            out = core->run(~std::uint64_t(0), maxCycles);
            res = extractRunResult(req, *reg, out);
        }
        t1 = nowS();
        simulateS_ += t1 - t0;

        if (req.goldenCheck) {
            Scope s(tracer_, "func.golden", op);
            t0 = nowS();
            try {
                Interp golden(*prog);
                golden.run(out.instructions);
                goldenCompare(req, *core, out, golden, res);
            } catch (const std::exception &e) {
                errors.push_back("replay golden check failed " +
                                 cell.name() + ": " + e.what());
            }
            goldenS_ += nowS() - t0;
        }
        t0 = nowS();
        {
            // Tearing the core down is part of the cpu layer's cost.
            Scope s(tracer_, "cpu.teardown", op);
            core.reset();
            reg.reset();
        }
        simulateS_ += nowS() - t0;

        std::string line;
        t0 = nowS();
        {
            Scope s(tracer_, "harness.serialize", op);
            line = runResultToJson(res);
            RunResult back;
            if (!runResultFromJson(line, back) ||
                runResultToJson(back) != line) {
                errors.push_back("serialize round trip differs: " +
                                 cell.name());
            }
        }
        serializeS_ += nowS() - t0;

        CellKey key;
        t0 = nowS();
        {
            Scope s(tracer_, "harness.key", op);
            key = cellKey(cell);
        }
        keyS_ += nowS() - t0;

        bool hit = true;
        if (cellCacheable(cell)) {
            RunResult probe;
            mem_.put(key, res);
            t0 = nowS();
            {
                Scope s(tracer_, "harness.mem_probe", op);
                hit = mem_.get(key, probe);
            }
            memProbeS_.push_back(nowS() - t0);
            disk_.put(key, res);
            t0 = nowS();
            {
                Scope s(tracer_, "harness.disk_probe", op);
                hit = disk_.get(key, probe) && hit;
            }
            diskProbeS_.push_back(nowS() - t0);
        }

        if (!hit)
            errors.push_back("replay cache probe missed: " + cell.name());
        if (i >= lines.size() || line != lines[i])
            errors.push_back("replayed line differs from the measured "
                             "line: " + spec.name() + "/" + cell.name());

        ++cells_;
        insts_ += res.insts;
        cycles_ += res.cycles;
        loads_ += res.loads;
        reexec_ += res.loadsReExecuted;
        marked_ += res.loadsMarked;
        filtered_ += res.loadsFilteredBySvw;
        eliminated_ += res.elimRate / 100.0 * double(res.loads);
    }
}

void
Replayer::profile(const SweepSpec &spec)
{
    for (const SweepCell &cell : spec.cells()) {
        RunRequest req;
        req.workload = cell.workload;
        req.targetInsts = cell.targetInsts;
        req.config = cell.config;
        req.goldenCheck = false;  // only the tick loop's stages matter
        req.hook = cell.hook;
        req.profile = true;
        const RunResult res =
            runOne(req, programs_.get(cell.workload, cell.targetInsts));
        for (unsigned s = 0; s < prof::NumStages; ++s)
            stageNs_[s] += res.profStageNs[s];
        prof::StageTimes st;
        for (unsigned s = 0; s < prof::NumStages; ++s)
            st.ns[s] = res.profStageNs[s];
        stageTotalNs_ += st.totalNs();
    }
}

void
Replayer::report(Report &r) const
{
    const std::uint64_t builds = programs_.builds();
    r.metric("prog.build_ms", builds ? buildS_ / double(builds) * 1e3 : 0,
             "ms");
    r.metric("cpu.simulate_s", simulateS_, "s");
    r.metric("cpu.minsts_per_s",
             simulateS_ > 0 ? double(insts_) / simulateS_ / 1e6 : 0,
             "Minst/s");
    for (unsigned s = 0; s < prof::NumStages; ++s) {
        const auto stage = static_cast<prof::Stage>(s);
        r.metric(std::string("cpu.stage.") + prof::stageName(stage) +
                     "_share",
                 stageTotalNs_ ? double(stageNs_[s]) / double(stageTotalNs_)
                               : 0,
                 "ratio");
    }
    r.metric("cpu.sim_insts", double(insts_), "count");
    r.metric("cpu.sim_cycles", double(cycles_), "count");
    r.metric("rex.reexec_per_kload",
             loads_ ? 1000.0 * double(reexec_) / double(loads_) : 0,
             "1/kload");
    r.metric("svw.filter_ratio",
             marked_ ? double(filtered_) / double(marked_) : 0, "ratio");
    r.metric("rle.elim_rate", loads_ ? eliminated_ / double(loads_) : 0,
             "ratio");
    r.metric("func.golden_s", goldenS_, "s");
    const double perCell = cells_ ? 1e6 / double(cells_) : 0;
    r.metric("harness.key_us_per_cell", keyS_ * perCell, "us");
    r.metric("harness.serialize_us_per_cell", serializeS_ * perCell, "us");
    r.metric("harness.mem_probe_us_p50", median(memProbeS_) * 1e6, "us");
    r.metric("harness.disk_probe_us_p50", median(diskProbeS_) * 1e6, "us");
    r.reconcile("replay.cells", double(cells_));
}

void
reportSessionSpans(const Tracer &t, Report &r)
{
    r.metric("harness.session_start_ms_p50",
             median(t.durations("session.start")) * 1e3, "ms");
    r.metric("harness.session_finish_ms_p50",
             median(t.durations("session.finish")) * 1e3, "ms");
    const std::vector<double> steps = t.durations("session.step");
    r.metric("harness.step_ms_p50", quantile(steps, 0.5) * 1e3, "ms");
    r.metric("harness.step_ms_p90", quantile(steps, 0.9) * 1e3, "ms");
    r.reconcile("session.steps", double(steps.size()));
}

} // namespace perfbench
