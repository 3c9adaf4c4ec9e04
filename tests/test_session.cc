/**
 * @file
 * SweepSession engine-API tests (harness/session.hh): the blocking
 * path must match runSweep byte for byte, both incremental driving
 * styles (in-caller step() and threaded wakeFd draining) must converge
 * to the same merged results, cache-served cells must surface as
 * CachedHit events without re-simulating, abort() must discard pending
 * work only, and the LRU-bounded MemoryResultCache must evict oldest
 * first while never evicting the newest entry.
 */

#include <gtest/gtest.h>

#include <poll.h>

#include <algorithm>
#include <ctime>
#include <string>
#include <vector>

#include "harness/executor.hh"
#include "harness/figures.hh"
#include "harness/serialize.hh"
#include "harness/session.hh"
#include "harness/sweep.hh"

using namespace svw;
using namespace svw::harness;

namespace {

/** A small but non-trivial spec: two workloads, five configs each. */
SweepSpec
smallSpec(std::uint64_t insts)
{
    return fig5Spec({"gzip", "mcf"}, insts);
}

/** Serialize every successful outcome, in spec order. */
std::vector<std::string>
resultLines(const SweepResults &res)
{
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < res.spec().size(); ++i) {
        const CellOutcome &o = res.outcome(i);
        if (o.ok)
            lines.push_back(runResultToJson(o.result));
    }
    return lines;
}

/** Event-stream recorder shared by the tests. */
struct Recorder
{
    std::vector<CellEventKind> kinds;
    std::vector<std::size_t> indices;
    std::vector<std::string> lines;  ///< non-empty resultLine payloads

    SessionCallback callback()
    {
        return [this](const CellEvent &ev) {
            kinds.push_back(ev.kind);
            indices.push_back(ev.index);
            if (!ev.resultLine.empty())
                lines.push_back(ev.resultLine);
        };
    }

    std::size_t count(CellEventKind k) const
    {
        return static_cast<std::size_t>(
            std::count(kinds.begin(), kinds.end(), k));
    }
};

} // namespace

TEST(SweepSession, BlockingRunMatchesRunSweepAndStreamsEvents)
{
    const SweepSpec spec = smallSpec(3000);
    const SweepResults direct = runSweep(spec, SweepOptions{});

    Recorder rec;
    SweepSession session(spec, SweepOptions{});
    const SweepResults viaSession = session.run(rec.callback());

    EXPECT_EQ(resultLines(direct), resultLines(viaSession));
    EXPECT_EQ(rec.count(CellEventKind::Started), spec.size());
    EXPECT_EQ(rec.count(CellEventKind::Done), spec.size());
    EXPECT_EQ(rec.count(CellEventKind::CachedHit), 0u);
    // Every successful Done event carried the lossless result line.
    std::vector<std::string> expect = resultLines(direct);
    std::vector<std::string> got = rec.lines;
    std::sort(expect.begin(), expect.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(expect, got);
}

TEST(SweepSession, IncrementalInCallerMatchesBlocking)
{
    const SweepSpec spec = smallSpec(3200);
    const SweepResults direct = runSweep(spec, SweepOptions{});

    Recorder rec;
    SweepSession session(spec, SweepOptions{});
    session.start(rec.callback());
    EXPECT_TRUE(session.started());
    std::size_t steps = 0;
    while (session.step())
        ++steps;
    EXPECT_TRUE(session.finished());
    const SweepResults res = session.finish();

    EXPECT_GE(steps, 1u);
    EXPECT_EQ(resultLines(direct), resultLines(res));
    EXPECT_EQ(session.cellsDone(), spec.size());
    EXPECT_EQ(rec.count(CellEventKind::Done), spec.size());

    // Each cell's Started precedes its Done.
    for (std::size_t i = 0; i < rec.kinds.size(); ++i) {
        if (rec.kinds[i] != CellEventKind::Done)
            continue;
        bool startedBefore = false;
        for (std::size_t j = 0; j < i; ++j)
            if (rec.kinds[j] == CellEventKind::Started &&
                rec.indices[j] == rec.indices[i])
                startedBefore = true;
        EXPECT_TRUE(startedBefore) << "cell " << rec.indices[i];
    }
}

TEST(SweepSession, IncrementalThreadedDrainsViaWakeFd)
{
    const SweepSpec spec = smallSpec(3400);
    const SweepResults direct = runSweep(spec, SweepOptions{});

    SweepOptions opts;
    opts.threads = 2;
    Recorder rec;
    SweepSession session(spec, opts);
    session.start(rec.callback());
    const int wake = session.wakeFd();
    ASSERT_GE(wake, 0);

    while (!session.finished()) {
        pollfd p{wake, POLLIN, 0};
        ASSERT_GE(::poll(&p, 1, 30'000), 0);
        ASSERT_TRUE(p.revents & POLLIN) << "wakeFd timed out";
        session.step();
    }
    const SweepResults res = session.finish();
    EXPECT_EQ(resultLines(direct), resultLines(res));
    EXPECT_EQ(rec.count(CellEventKind::Done), spec.size());
}

/**
 * A threaded blocking run() is start/step/finish with the driving
 * thread asleep on wakeFd() between steps: it streams Started and Done
 * for every cell, matches the sequential results, and spends only a
 * small share of the process CPU (a spinning driver would take about
 * as much as the one worker).
 */
TEST(SweepSession, BlockingThreadedRunSleepsOnWakeFd)
{
    const SweepSpec spec = smallSpec(20'000);
    const SweepResults direct = runSweep(spec, SweepOptions{});

    auto cpuSeconds = [](clockid_t clock) {
        timespec ts{};
        ::clock_gettime(clock, &ts);
        return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
    };
    SweepOptions opts;
    opts.threads = 1;
    Recorder rec;
    SweepSession session(spec, opts);
    const double driver0 = cpuSeconds(CLOCK_THREAD_CPUTIME_ID);
    const double process0 = cpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
    const SweepResults res = session.run(rec.callback());
    const double driver = cpuSeconds(CLOCK_THREAD_CPUTIME_ID) - driver0;
    const double process = cpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - process0;

    EXPECT_EQ(resultLines(direct), resultLines(res));
    EXPECT_EQ(rec.count(CellEventKind::Started), spec.size());
    EXPECT_EQ(rec.count(CellEventKind::Done), spec.size());
    EXPECT_LT(driver, 0.25 * process)
        << "driver " << driver << "s of " << process << "s process CPU";
}

TEST(SweepSession, WarmMemoryCacheServesCachedHitsWithoutSimulating)
{
    processMemoryResultCache().clear();
    const SweepSpec spec = smallSpec(3600);
    SweepOptions opts;
    opts.memCache = true;

    const SweepResults cold = SweepSession(spec, opts).run();
    const std::uint64_t callsAfterCold = execCounters().cellRuns();

    Recorder rec;
    SweepSession warm(spec, opts);
    warm.start(rec.callback());
    EXPECT_TRUE(warm.finished());  // every cell probed out of memory
    const SweepResults res = warm.finish();

    EXPECT_EQ(execCounters().cellRuns(), callsAfterCold);
    EXPECT_EQ(rec.count(CellEventKind::CachedHit), spec.size());
    EXPECT_EQ(warm.cacheHits(), spec.size());
    EXPECT_EQ(resultLines(cold), resultLines(res));
    for (std::size_t i = 0; i < spec.size(); ++i)
        EXPECT_TRUE(res.outcome(i).cached);
}

TEST(SweepSession, AbortDiscardsPendingCellsOnly)
{
    const SweepSpec spec = smallSpec(3800);
    SweepSession session(spec, SweepOptions{});
    session.start();
    EXPECT_TRUE(session.step());  // run exactly one cell
    session.abort();
    EXPECT_TRUE(session.finished());
    const SweepResults res = session.finish();

    std::size_t ran = 0;
    for (std::size_t i = 0; i < spec.size(); ++i)
        if (res.outcome(i).ran)
            ++ran;
    EXPECT_EQ(ran, 1u);
    EXPECT_EQ(session.cellsDone(), 1u);
}

TEST(MemoryResultCacheLru, EvictsOldestFirstAndKeepsNewest)
{
    MemoryResultCache cache;
    RunResult r;
    r.workload = "w";

    auto key = [](const std::string &mat) {
        CellKey k;
        k.material = mat;
        k.hash = std::hash<std::string>{}(mat);
        return k;
    };

    cache.put(key("a"), r);
    cache.put(key("b"), r);
    cache.put(key("c"), r);
    EXPECT_EQ(cache.entries(), 3u);
    const std::size_t threeBytes = cache.bytes();

    // Refresh "a", then cap to roughly two entries: "b" (the least
    // recently used) must go; "a" and the newest insert survive.
    RunResult out;
    EXPECT_TRUE(cache.get(key("a"), out));
    cache.setMaxBytes(threeBytes - 1);
    EXPECT_LT(cache.entries(), 3u);
    EXPECT_TRUE(cache.get(key("a"), out));
    EXPECT_FALSE(cache.get(key("b"), out));
    EXPECT_GE(cache.evictions(), 1u);

    // A cap smaller than any single entry degrades to a cache of one:
    // the newest put must always be servable back.
    cache.setMaxBytes(1);
    cache.put(key("d"), r);
    EXPECT_EQ(cache.entries(), 1u);
    EXPECT_TRUE(cache.get(key("d"), out));

    // Hash collisions with different material never serve wrongly.
    CellKey collide = key("e");
    cache.put(collide, r);
    CellKey other = collide;
    other.material = "different";
    EXPECT_FALSE(cache.get(other, out));
}
