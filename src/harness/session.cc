/**
 * @file
 * SweepSession implementation: shard selection, cache probing, the
 * one execution path (in the caller, or on worker threads), and the
 * per-cell event stream. What *runs* a cell (runCell, the caches, the
 * counters) stays in executor.cc; the legacy runSweep entry point is
 * defined at the bottom of this file as a one-line wrapper over a
 * blocking session.
 */

#include "harness/session.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include "base/logging.hh"
#include "base/profile.hh"
#include "harness/serialize.hh"

namespace svw::harness {

namespace {

/** Cell indices selected by the shard, in spec order. */
std::deque<std::size_t>
selectCells(const SweepSpec &spec, const SweepOptions &opts)
{
    svw_assert(opts.shardCount >= 1, "sweep shard count must be >= 1");
    svw_assert(opts.shardIndex < opts.shardCount,
               "sweep shard index ", opts.shardIndex,
               " out of range for /", opts.shardCount);
    std::deque<std::size_t> sel;
    for (std::size_t i = 0; i < spec.size(); ++i) {
        const std::size_t g = spec.groupIndex(spec.cell(i).group);
        if (g % opts.shardCount == opts.shardIndex)
            sel.push_back(i);
    }
    // A split wider than the group count leaves trailing shards empty;
    // a silent empty report reads like success, so tell driver users
    // their split is misconfigured.
    if (sel.empty() && opts.shardCount > 1 && spec.size() > 0) {
        std::fprintf(stderr,
                     "warning: --shard=%u/%u selects no groups of sweep"
                     " '%s' (%zu groups; shards beyond the group count"
                     " are empty)\n",
                     opts.shardIndex, opts.shardCount,
                     spec.name().c_str(), spec.groups().size());
    }
    return sel;
}

/** Run cell @p idx in the calling thread, containing any throw: the
 * cell is recorded as failed with the exception text. */
CellOutcome
runCellContained(const SweepSpec &spec, std::size_t idx, bool profile)
{
    try {
        return runCell(spec.cell(idx), processProgramCache(), profile);
    } catch (const std::exception &e) {
        CellOutcome o;
        o.ran = true;
        o.error = e.what();
        return o;
    } catch (...) {
        CellOutcome o;
        o.ran = true;
        o.error = "unknown exception";
        return o;
    }
}

} // namespace

// ---------------------------------------------------------------------------
// SweepSession
// ---------------------------------------------------------------------------

SweepSession::SweepSession(SweepSpec spec, SweepOptions opts)
    : spec_(std::move(spec)), opts_(std::move(opts))
{
}

SweepSession::~SweepSession()
{
    // A session destroyed mid-flight (daemon error path) must not leak
    // worker threads touching freed state: stop new deals, let
    // in-flight cells finish, join, and discard their completions.
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
        pending_.clear();
    }
    joinWorkers();
    for (int fd : wakePipe_) {
        if (fd >= 0)
            ::close(fd);
    }
}

void
SweepSession::emit(CellEventKind kind, std::size_t idx,
                   const CellOutcome *o)
{
    if (!cb_)
        return;
    CellEvent ev;
    ev.kind = kind;
    ev.index = idx;
    ev.cell = &spec_.cell(idx);
    ev.outcome = o;
    if (o && o->ok && kind != CellEventKind::Started)
        ev.resultLine = runResultToJson(o->result);
    cb_(ev);
}

void
SweepSession::record(std::size_t idx, CellOutcome o, CellEventKind kind)
{
    outcomes_[idx] = std::move(o);
    const CellOutcome &out = outcomes_[idx];
    ++done_;
    if (!out.ok)
        ++failures_;
    if (kind == CellEventKind::CachedHit)
        ++cacheHits_;
    emit(kind, idx, &out);
}

void
SweepSession::probeAndQueue()
{
    std::deque<std::size_t> cells = selectCells(spec_, opts_);
    selected_ = cells.size();
    outcomes_.assign(spec_.size(), CellOutcome{});

    // Serve cache hits before any cell is dealt to a worker; remember
    // the probed keys so successful misses can be stored without
    // re-deriving them.
    // The in-memory front is probed before the disk store, so within
    // one process a warm hit never touches the filesystem; disk hits
    // and fresh results are promoted into it for the next sweep. A
    // daemon session can opt into the memory front alone (memCache)
    // with no cacheDir at all — warm repeats then simulate nothing
    // without ever touching disk.
    // A profiled sweep bypasses the caches entirely: a cached result
    // carries no attribution, and a profiled result's host timings
    // must never be served as a plain run's.
    if ((!opts_.cacheDir.empty() || opts_.memCache) && !opts_.profile) {
        if (!opts_.cacheDir.empty())
            cache_.emplace(opts_.cacheDir);
        MemoryResultCache &mem = processMemoryResultCache();
        std::deque<std::size_t> misses;
        for (std::size_t idx : cells) {
            const SweepCell &cell = spec_.cell(idx);
            if (!cellCacheable(cell)) {
                misses.push_back(idx);
                continue;
            }
            CellKey key = cellKey(cell);
            CellOutcome o;
            if (mem.get(key, o.result)) {
                o.ran = o.ok = o.cached = true;
                record(idx, std::move(o), CellEventKind::CachedHit);
            } else if (cache_ && cache_->get(key, o.result)) {
                mem.put(key, o.result);
                o.ran = o.ok = o.cached = true;
                record(idx, std::move(o), CellEventKind::CachedHit);
            } else {
                probed_.emplace_back(idx, std::move(key));
                misses.push_back(idx);
            }
        }
        cells = std::move(misses);
    }

    pending_ = std::move(cells);
    queued_ = pending_.size();
}

void
SweepSession::storeFreshResults()
{
    for (const auto &[idx, key] : probed_) {
        const CellOutcome &o = outcomes_[idx];
        if (o.ran && o.ok) {
            processMemoryResultCache().put(key, o.result);
            if (cache_)
                cache_->put(key, o.result);
        }
    }
    if (cache_ && opts_.cacheMaxMb > 0)
        cache_->trimToBytes(opts_.cacheMaxMb * 1024 * 1024);
    // Every profiled outcome lands in the process collector so the
    // binary's --profile= folded-stack file covers the whole sweep.
    if (opts_.profile) {
        for (std::size_t i = 0; i < outcomes_.size(); ++i) {
            const CellOutcome &o = outcomes_[i];
            if (!o.ran || !o.ok || !o.result.profTicks)
                continue;
            prof::StageTimes st;
            for (unsigned s = 0; s < prof::NumStages; ++s)
                st.ns[s] = o.result.profStageNs[s];
            st.ticks = o.result.profTicks;
            prof::collector().add(spec_.cell(i).name(), st,
                                  o.result.profCellNs);
        }
    }
}

SweepResults
SweepSession::run(const SessionCallback &cb)
{
    start(cb);
    while (step()) {
        // Threaded: sleep until a worker has something to drain.
        pollfd p{wakeFd(), POLLIN, 0};
        if (p.fd >= 0)
            ::poll(&p, 1, -1);  // EINTR just means step() once more
    }
    return finish();
}

void
SweepSession::start(SessionCallback cb)
{
    svw_assert(!started_, "SweepSession::start on a started session");
    cb_ = std::move(cb);
    started_ = true;
    probeAndQueue();
    if (opts_.threads >= 1 && !pending_.empty()) {
        svw_assert(::pipe(wakePipe_) == 0,
                   "SweepSession wake pipe: ", std::strerror(errno));
        // Non-blocking on both ends: the driver drains opportunistically
        // and a full pipe just means "already plenty readable".
        for (int fd : wakePipe_)
            ::fcntl(fd, F_SETFL,
                    ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
        const std::size_t n =
            std::min<std::size_t>(opts_.threads, pending_.size());
        workers_.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            workers_.emplace_back([this] { workerMain(); });
    }
}

bool
SweepSession::finished() const
{
    if (!started_)
        return false;
    std::lock_guard<std::mutex> lock(mutex_);
    return executed_ + discarded_ >= queued_;
}

/**
 * Worker thread: pull cells from pending_ and run them in this address
 * space, sharing the process ProgramCache (thread-safe build-once) and
 * bumping the executor's atomic counters. Everything a cell *writes*
 * is thread-private (its Core, StatRegistry and MemoryImage, and its
 * Completion); everything shared is immutable or internally
 * synchronized — so merged outcomes are byte-identical to the
 * in-caller run by construction.
 */
void
SweepSession::workerMain()
{
    for (;;) {
        std::size_t idx;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (stop_ || pending_.empty())
                return;
            idx = pending_.front();
            pending_.pop_front();
            // Started notification: queued (not fired) so events
            // always reach the callback on the driving thread.
            completed_.push_back(Completion{idx, {}, true});
        }
        wakeDriver();
        CellOutcome o = runCellContained(spec_, idx, opts_.profile);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            completed_.push_back(Completion{idx, std::move(o), false});
        }
        wakeDriver();
    }
}

void
SweepSession::wakeDriver()
{
    const char b = 1;
    // Best-effort: EAGAIN means the pipe is already saturated with
    // wake bytes, which is as awake as a driver can be.
    [[maybe_unused]] ssize_t r = ::write(wakePipe_[1], &b, 1);
}

void
SweepSession::drainCompletions()
{
    // Drain the wake bytes FIRST, then the queue until empty. A worker
    // pushes its completion before writing its byte, so a push that
    // happens after the queue looks empty leaves its byte unread and
    // wakeFd() readable — a spurious wakeup at worst, never a lost one.
    if (wakePipe_[0] >= 0) {
        char buf[256];
        while (::read(wakePipe_[0], buf, sizeof(buf)) > 0) {
        }
    }
    for (;;) {
        std::deque<Completion> ready;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ready.swap(completed_);
        }
        if (ready.empty())
            break;
        for (Completion &c : ready) {
            if (c.isStart) {
                emit(CellEventKind::Started, c.idx, nullptr);
                continue;
            }
            {
                std::lock_guard<std::mutex> lock(mutex_);
                ++executed_;
            }
            record(c.idx, std::move(c.outcome), CellEventKind::Done);
        }
    }
}

bool
SweepSession::step()
{
    svw_assert(started_ && !finishedCalled_,
               "SweepSession::step outside start()..finish()");
    if (!workers_.empty()) {
        drainCompletions();
        return !finished();
    }
    if (!pending_.empty()) {
        const std::size_t idx = pending_.front();
        pending_.pop_front();
        emit(CellEventKind::Started, idx, nullptr);
        CellOutcome o = runCellContained(spec_, idx, opts_.profile);
        ++executed_;
        record(idx, std::move(o), CellEventKind::Done);
    }
    return !finished();
}

void
SweepSession::abort()
{
    std::lock_guard<std::mutex> lock(mutex_);
    discarded_ += pending_.size();
    pending_.clear();
}

void
SweepSession::joinWorkers()
{
    for (std::thread &t : workers_) {
        if (t.joinable())
            t.join();
    }
    workers_.clear();
}

SweepResults
SweepSession::finish()
{
    svw_assert(started_ && !finishedCalled_,
               "SweepSession::finish outside start()..finish()");
    finishedCalled_ = true;
    // Workers exit once pending_ drains (or abort() cleared it); the
    // join bounds on the in-flight cells, whose completions are still
    // recorded — they cost the simulation time either way, so their
    // results should reach the caches.
    joinWorkers();
    drainCompletions();
    storeFreshResults();
    return SweepResults(std::move(spec_), std::move(outcomes_));
}

// ---------------------------------------------------------------------------
// Legacy entry point
// ---------------------------------------------------------------------------

SweepResults
runSweep(const SweepSpec &spec, const SweepOptions &opts)
{
    return SweepSession(spec, opts).run();
}

} // namespace svw::harness
