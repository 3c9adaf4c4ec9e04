/**
 * @file
 * Shared pieces of the repo benchmark (perfbench): clocks and
 * percentiles, the span recorder, the metric report, the workload
 * specs, the reference results every measured line is checked
 * against, and the per-cell layer replay used by traced runs.
 *
 * Everything here calls the simulator only through its public
 * headers; no probe lives inside src/.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness/executor.hh"
#include "harness/sweep.hh"

namespace perfbench {

/** Command-line arguments of the perfbench binary. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;  ///< length of the measured window
    bool trace = false;
    std::string sweepd;    ///< path of the sweepd binary
    std::string workDir;   ///< scratch directory inside the checkout
    std::uint64_t insts = 20'000;  ///< per-cell instructions (--quick)
    unsigned setupReps = 3;        ///< set-up repetitions for setup_s
};

// -- Clocks and summaries ------------------------------------------------

/** Monotonic wall seconds. */
double nowS();
/** CPU seconds of the calling thread (the in-process workloads run
 * every session on the main thread). */
double cpuS();
/** Linear-interpolated quantile, @p q in [0, 1]; 0 for no samples. */
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
/** VmHWM of @p pid (0 = this process) in MB; 0 if unreadable. */
double peakRssMb(int pid = 0);

// -- Host speed -------------------------------------------------------------

/** Probe time that defines reference host speed (HostGauge::speed). */
inline constexpr double referenceProbeMs = 2.0;

/**
 * Gauges host speed inside a measured window. The workloads call
 * pause() only between operations or between a session's steps,
 * when nothing else of the benchmark or the program runs (sweepd_mix
 * first lets every request in flight finish), so the probe competes
 * with no work. At most every intervalS it times a fixed probe —
 * hashed random reads and writes over a 1 MB table, sharing no code
 * with the simulator — on the calling thread; the time that takes is
 * kept out of every measured interval.
 */
class HostGauge
{
  public:
    explicit HostGauge(double intervalS) : intervalS_(intervalS) {}

    /** Probe if due. @return the wall seconds spent (0 if not due). */
    double pause();

    /** Median probe time so far; referenceProbeMs if none. */
    double probeMs() const;
    /** referenceProbeMs / probeMs(): above 1 on a fast host. */
    double speed() const { return referenceProbeMs / probeMs(); }
    std::size_t probes() const { return ms_.size(); }
    /** CPU seconds of this thread spent probing. */
    double cpuS() const { return cpuS_; }

  private:
    double intervalS_;
    double last_ = 0;
    double cpuS_ = 0;
    std::vector<double> ms_;
};

// -- Spans ----------------------------------------------------------------

/** One recorded span. Times are seconds on the nowS() clock. */
struct Span
{
    std::string name;
    double t0 = 0, t1 = 0;
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = root
    std::uint32_t op = 0;      ///< operation id shared by an op's spans
    std::uint32_t lane = 0;    ///< client slot (Chrome "tid")
};

/**
 * In-memory span recorder. open()/close() nest on a stack (in-process
 * calls); add() records a span whose interval the caller measured
 * (client-side request phases). Off, every call is a single branch.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}

    bool on() const { return on_; }

    std::uint32_t open(const char *name, std::uint32_t op);
    void close(std::uint32_t id);
    std::uint32_t add(std::string name, double t0, double t1,
                      std::uint32_t parent, std::uint32_t op,
                      std::uint32_t lane = 0);

    const std::vector<Span> &spans() const { return spans_; }

    /** Durations (seconds) of every span called @p name. */
    std::vector<double> durations(const std::string &name) const;

    /** Per-name count, total and self time (span minus children). */
    std::string summaryJson() const;

    /** Chrome Trace Event JSON (opens offline in Perfetto). */
    bool writeChrome(const std::string &path,
                     const std::string &metadataJson) const;

  private:
    bool on_;
    std::vector<Span> spans_;
    std::vector<std::uint32_t> stack_;
};

/** RAII span on a Tracer's stack. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name, std::uint32_t op)
        : t_(t), id_(t.on() ? t.open(name, op) : 0)
    {}
    ~Scope()
    {
        if (id_)
            t_.close(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &t_;
    std::uint32_t id_;
};

// -- Report ---------------------------------------------------------------

/** What one run measured and whether its outputs were right. */
class Report
{
  public:
    void metric(const std::string &name, double value, const char *unit);
    /** A documented metric (README.md) this workload cannot measure,
     * with the reason. */
    void notApplicable(const std::string &name, const std::string &why);
    /** A correctness failure (also counted by the caller as a failed
     * operation where it belongs to one). */
    void error(const std::string &what);
    /** Reconciliation counters the self-test cross-checks. */
    void reconcile(const std::string &name, double value);
    /** Express end-to-end times and rates at reference host speed,
     * keeping each measured value as raw.<name>, and record the
     * gauge. Per-layer metrics are never scaled. */
    void normalize(const HostGauge &gauge);

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    bool correct() const { return errors_.empty(); }
    std::string detailJson(const std::string &workload, bool trace,
                           const std::string &spansJson) const;

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics_;
    std::map<std::string, std::string> notApplicable_;
    std::map<std::string, double> reconcile_;
    std::vector<std::string> errors_;
    std::uint64_t errorCount_ = 0;
};

// -- Workload inputs --------------------------------------------------------

/** The four paper figures the workloads sweep. */
extern const char *const figureNames[4];

/** fig5-fig8 specs at @p insts per cell. Each figure's rows are its
 * paper suite plus synth:<kind>:<synthSeed> for every generator kind. */
std::vector<svw::harness::SweepSpec> figureSpecs(std::uint64_t synthSeed,
                                                 std::uint64_t insts);

/** Deterministic 64-bit generator (splitmix64). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : s_(seed) {}
    std::uint64_t next();
    std::uint64_t below(std::uint64_t n) { return next() % n; }

  private:
    std::uint64_t s_;
};

// -- Reference ---------------------------------------------------------------

/**
 * Reference result lines: a sequential runSweep (default options, no
 * cache) of every spec, run in up to @p workers forked children so the
 * check does not share this process's memory high-water mark.
 * out[s][c] is cell c of spec s as runResultToJson prints it, or
 * empty if the reference itself failed that cell (@p errors gets why).
 */
std::vector<std::vector<std::string>>
referenceLines(const std::vector<svw::harness::SweepSpec> &specs,
               unsigned workers, const std::string &workDir,
               std::vector<std::string> &errors);

// -- Layer replay ----------------------------------------------------------

/**
 * Replays cells one at a time through the public per-layer functions
 * — ProgramCache::get, Core construction + Core::run +
 * extractRunResult, Interp::run + goldenCompare, runResultToJson +
 * runResultFromJson, cellKey, MemoryResultCache::get and
 * ResultCache::get — timing each call as a span, and checks that
 * every replayed line is byte-identical to the line the measured run
 * produced. A second, profiled pass reads the stage profiler.
 */
class Replayer
{
  public:
    Replayer(Tracer &tracer, const std::string &diskDir);

    /** Replay every cell of @p spec; @p lines are the measured run's
     * lines (same indexing). Differences go to @p errors. */
    void replay(const svw::harness::SweepSpec &spec,
                       const std::vector<std::string> &lines,
                       std::uint32_t op, std::vector<std::string> &errors);

    /** Stage-profiled pass over @p spec (shares only; not timed). */
    void profile(const svw::harness::SweepSpec &spec);

    /** Add the replay's per-layer metrics (prog, cpu, model counters,
     * func, harness per-cell costs) to @p r. */
    void report(Report &r) const;

    double simulateS() const { return simulateS_; }
    double goldenS() const { return goldenS_; }
    std::uint64_t cells() const { return cells_; }

  private:
    Tracer &tracer_;
    svw::harness::ProgramCache programs_;
    svw::harness::MemoryResultCache mem_;
    svw::harness::ResultCache disk_;

    std::uint64_t cells_ = 0;
    double buildS_ = 0, simulateS_ = 0, goldenS_ = 0, serializeS_ = 0,
           keyS_ = 0;
    std::vector<double> memProbeS_, diskProbeS_;

    std::uint64_t insts_ = 0, cycles_ = 0, loads_ = 0, reexec_ = 0,
                  marked_ = 0, filtered_ = 0;
    double eliminated_ = 0;
    std::uint64_t stageNs_[svw::prof::NumStages] = {};
    std::uint64_t stageTotalNs_ = 0;
};

/** Session-layer span percentiles (session.start/step/finish) from
 * @p t into @p r. */
void reportSessionSpans(const Tracer &t, Report &r);

// -- Workloads -----------------------------------------------------------------

void runColdFigures(const Args &a, Report &r, Tracer &t);
void runWarmRerun(const Args &a, Report &r, Tracer &t);
void runSweepdMix(const Args &a, Report &r, Tracer &t);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
