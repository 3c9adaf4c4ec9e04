/**
 * @file
 * Sweep executor primitives: execution options, the per-cell runner
 * (runCell), the process-wide ProgramCache and in-memory result-cache
 * front, and the legacy one-shot runSweep entry point. Orchestration —
 * shard selection, cache probing, dealing cells to the caller or to
 * worker threads, and the streaming per-cell event API — lives in
 * harness/session.hh (SweepSession); runSweep is a thin wrapper that
 * opens a session and runs it to completion.
 *
 * A sweep runs in the calling thread (threads=0) or across N worker
 * threads in one address space (--threads=N), with optional
 * cross-machine sharding (--shard=i/n), and merges per-cell results in
 * spec order. All workers share one ProgramCache (one decode per
 * (workload, insts) for the whole sweep) and the process-wide
 * in-memory ResultCache front. A cell that throws fails only itself
 * (recorded with the exception text); a cell that *crashes* takes the
 * process down — sweep_driver's shard processes are the isolation
 * boundary. Merged results are byte-identical across thread counts.
 *
 * Sharding partitions by *group* (figure row), not by cell, so every
 * row's baseline and variants land in the same shard and speedup
 * columns stay computable; the union of all shards is exactly the full
 * cell set.
 */

#ifndef SVW_HARNESS_EXECUTOR_HH
#define SVW_HARNESS_EXECUTOR_HH

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "harness/sweep.hh"
#include "prog/program.hh"

namespace svw::harness {

/** Default MemoryResultCache byte cap: generous for a batch binary's
 * handful of sweeps, finite for a daemon (--mem-cache-max-mb). */
inline constexpr std::uint64_t memoryResultCacheDefaultMaxBytes =
    512ull * 1024 * 1024;

/** How to execute a sweep. */
struct SweepOptions
{
    /**
     * Worker threads; 0 = run cells in the calling thread. When >= 1,
     * cells run on this many std::thread workers in one address space,
     * sharing the process ProgramCache and the in-memory ResultCache
     * front. Exceptions are contained per cell either way.
     */
    unsigned threads = 0;
    /**
     * When nonzero and a cacheDir is set: after the sweep's results
     * are stored, LRU-trim the cache directory to at most this many
     * megabytes (oldest access stamp first; in-flight temp files are
     * never touched). See ResultCache::trimToBytes.
     */
    std::uint64_t cacheMaxMb = 0;
    /** Cross-machine split: this invocation runs the groups whose
     * first-appearance index i satisfies i % shardCount == shardIndex. */
    unsigned shardIndex = 0;
    unsigned shardCount = 1;
    /**
     * Persistent result-cache directory (harness/sweep.hh ResultCache);
     * empty disables caching. Cacheable cells are looked up *before*
     * any cell is dealt — a hit is recorded as a completed
     * outcome (cached=true, zero timing) without running anything —
     * and successful misses are stored after the sweep, so a repeated
     * sweep only simulates changed cells.
     */
    std::string cacheDir;
    /**
     * Probe and populate the process-wide in-memory result-cache front
     * even with no cacheDir (sweepd: warm repeat requests must
     * simulate nothing without the daemon ever touching disk). With a
     * cacheDir set the memory front is always active; this flag adds
     * the disk-less mode.
     */
    bool memCache = false;
    /**
     * Attach the stage profiler (base/profile.hh) to every cell run:
     * per-stage host-ns attribution lands in each RunResult's prof_*
     * fields and, parent-side, in the process collector for folded
     * output. Host observation only — simulated cycles and metrics
     * are byte-identical — but the timer reads make host wall
     * measurements meaningless, so a profiled sweep bypasses the
     * result cache entirely (no probes, no stores).
     */
    bool profile = false;
};

/** Monotonic host wall-clock seconds (arbitrary origin). */
double hostSeconds();

/**
 * Executor-owned execution counters. Atomic because worker threads
 * bump them concurrently; one instance per process (execCounters()).
 */
class ExecCounters
{
  public:
    /** Cell executions (runCell invocations). */
    std::uint64_t cellRuns() const
    {
        return cellRuns_.load(std::memory_order_relaxed);
    }

    void addCellRuns(std::uint64_t n)
    {
        cellRuns_.fetch_add(n, std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> cellRuns_{0};
};

/** The calling process's executor counters. A fully warm-cache sweep
 * serves every cell from a cache, so it leaves cellRuns() unchanged. */
ExecCounters &execCounters();

/**
 * Per-process cache of built workload programs: each (workload,
 * targetInsts) program is constructed once and shared by reference
 * across every config cell that uses it ("batch configs per workload").
 *
 * Thread-safe: concurrent get()s for one key build the program exactly
 * once (the others block on its slot), and builds of *different*
 * programs proceed in parallel — the map mutex is held only for slot
 * lookup, never across a build. References stay valid for the cache's
 * lifetime (map nodes are stable under insertion).
 */
class ProgramCache
{
  public:
    /** Build-or-fetch; the reference stays valid for the cache's
     * lifetime. */
    const Program &get(const std::string &workload,
                       std::uint64_t targetInsts);

    std::size_t size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return slots_.size();
    }
    std::uint64_t builds() const
    {
        return builds_.load(std::memory_order_relaxed);
    }

  private:
    /** One program's build-once slot; the per-slot once_flag is what
     * lets distinct programs build concurrently. */
    struct Slot
    {
        std::once_flag once;
        std::optional<Program> program;
    };

    mutable std::mutex mutex_;  ///< guards slots_ (lookup/insert only)
    std::map<std::pair<std::string, std::uint64_t>, Slot> slots_;
    std::atomic<std::uint64_t> builds_{0};
};

/**
 * The process-wide workload-program cache used by every sweep:
 * consecutive sweeps in one process share one build of each
 * (workload, insts) program instead of rebuilding per runSweep call.
 * Callers owning their lifetime (tests) can still construct private
 * ProgramCaches.
 */
ProgramCache &processProgramCache();

/**
 * In-memory front of the persistent ResultCache (harness/sweep.hh):
 * a hash map keyed exactly like the on-disk store (CellKey hash,
 * verified against the full key material so a collision degrades to a
 * miss, never a wrong hit). runSweep probes it before the disk store,
 * so within one process a warm hit never touches the filesystem, and
 * every disk hit or fresh result is promoted so the *next* sweep in
 * this process (bench binaries run several; sweepd runs thousands) is
 * served from memory. Entries are valid independent of which
 * --cache-dir they came from: a cell's RunResult is a pure function
 * of its key material, which already embeds the code-version stamp.
 * Only consulted when a sweep runs with a cacheDir or opts into the
 * memory front (SweepOptions::memCache) — caching stays opt-in.
 * Thread-safe (one mutex; probes happen on the dealing thread, so
 * contention is nil).
 *
 * Bounded: the cache LRU-evicts once its estimated footprint exceeds
 * setMaxBytes (default memoryResultCacheDefaultMaxBytes — generous
 * for a batch binary, but a hard cap so a long-lived daemon serving
 * an unbounded stream of distinct cells cannot grow without limit).
 * get() refreshes recency; put() inserts at the front and evicts from
 * the tail. The newest entry is never evicted, so a just-stored
 * result can always be served back.
 */
class MemoryResultCache
{
  public:
    /** @return true and fill @p out on a verified hit (refreshes the
     * entry's LRU recency). */
    bool get(const CellKey &key, RunResult &out) const;

    /** Insert or overwrite @p key's entry, then LRU-evict down to the
     * byte cap. */
    void put(const CellKey &key, const RunResult &r);

    std::size_t entries() const;
    /** Estimated resident bytes of all entries. */
    std::size_t bytes() const;
    /** Served (verified) hits since process start / clear(). */
    std::uint64_t hits() const;
    /** Entries LRU-evicted since process start / clear(). */
    std::uint64_t evictions() const;
    /** Set the byte cap (--mem-cache-max-mb); 0 = unbounded. Evicts
     * immediately if the cache is already over the new cap. */
    void setMaxBytes(std::uint64_t maxBytes);
    std::uint64_t maxBytes() const;
    /** Drop everything (test isolation); keeps the configured cap. */
    void clear();

  private:
    struct Entry
    {
        std::string material;
        RunResult result;
        std::list<std::uint64_t>::iterator lru; ///< slot in lru_
        std::size_t bytes = 0;
    };

    std::size_t entryBytes(const Entry &e) const;
    void evictOverCapLocked();

    mutable std::mutex mutex_;
    std::unordered_map<std::uint64_t, Entry> entries_;
    /** Key hashes, most recently used first. */
    mutable std::list<std::uint64_t> lru_;
    std::size_t bytes_ = 0;
    std::uint64_t maxBytes_ = memoryResultCacheDefaultMaxBytes;
    mutable std::uint64_t hits_ = 0;
    std::uint64_t evictions_ = 0;
};

/** The process-wide in-memory result-cache front. */
MemoryResultCache &processMemoryResultCache();

/**
 * Execute one cell in the calling thread. Does not catch: a
 * golden-model mismatch or other fatal propagates to the caller
 * (SweepSession contains it per cell).
 */
CellOutcome runCell(const SweepCell &cell, ProgramCache &cache,
                    bool profile = false);

/** Execute the sweep per @p opts; outcomes merged in spec order. */
SweepResults runSweep(const SweepSpec &spec, const SweepOptions &opts = {});

} // namespace svw::harness

#endif // SVW_HARNESS_EXECUTOR_HH
