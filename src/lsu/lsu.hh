/**
 * @file
 * Load-store unit supporting the paper's three organizations, composably:
 *
 *  - Conventional (Figure 2a): associative SQ search for store-to-load
 *    forwarding; associative LQ search at store resolution for
 *    memory-ordering violations; one store issue per cycle (the LQ CAM
 *    port); under Figure 6's baseline the big associative SQ adds two
 *    cycles to every load.
 *  - NLQ (Figure 2b): the LQ CAM is removed (two stores may issue per
 *    cycle); loads that issue past older unresolved stores are marked
 *    for pre-commit re-execution.
 *  - SSQ (Figure 2c): the SQ splits into a non-associative RSQ (all
 *    stores; off the load path) and a small single-ported FSQ holding
 *    only predicted-forwarding stores; other loads use best-effort
 *    per-bank forwarding buffers. Every load is marked for re-execution.
 *
 * Values: a load takes its value from a forwarding structure or from the
 * committed memory image at issue time — so premature loads naturally
 * read stale values, which is what re-execution later detects.
 */

#ifndef SVW_LSU_LSU_HH
#define SVW_LSU_LSU_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "base/bounded_ring.hh"
#include "base/types.hh"
#include "cpu/dyninst.hh"
#include "cpu/iq.hh"
#include "func/memory_image.hh"
#include "stats/stats.hh"
#include "svw/svw.hh"

namespace svw {

/** LSU configuration knobs (see file comment). */
struct LsuParams
{
    unsigned lqEntries = 128;
    unsigned sqEntries = 64;
    bool nlq = false;
    bool ssq = false;
    unsigned fsqEntries = 16;
    unsigned fsqPorts = 1;
    unsigned fwdBufEntriesPerBank = 8;
    unsigned loadExtraLatency = 0;   ///< +2 under the associative-SQ baseline
    /** Value-aware LQ search: skip violations whose store wrote the
     * value the load already read (silent stores, section 2.2). */
    bool lqValueCheck = false;
    unsigned storeIssueWidth = 1;    ///< 2 once the LQ CAM is gone (NLQ)
    unsigned steeringEntries = 4096; ///< SSQ steering predictor bits
};

/** Outcome of attempting to execute a load this cycle. */
struct LoadExecResult
{
    enum class Status
    {
        Done,          ///< value obtained; see fields
        BlockedPartial,///< partial store overlap: retry later
        BlockedPort,   ///< structure port busy (FSQ): retry later
    };
    Status status = Status::Done;
    std::uint64_t value = 0;
    bool forwarded = false;      ///< value from an in-flight store
    bool bestEffort = false;     ///< value from a best-effort buffer
    SSN fwdSsn = 0;
    /** BlockedPartial: seq of the store that blocks the load. */
    InstSeqNum blocker = 0;
    bool sawAmbiguousOlderStore = false;
    bool cacheMiss = false;
};

/**
 * The load/store unit. Owns the LQ/SQ (as age-ordered rings of DynInst
 * pointers into the ROB ring, whose slots are stable for an entry's
 * lifetime; retire pops the head in O(1)), the SSQ structures, and the
 * steering predictor. Associative searches walk the pointers (or the
 * dense SQ mirror) directly; no per-entry ROB lookups.
 *
 * Every change to an SQ entry a load search reads — address resolve,
 * data capture, commit — is reported to the issue queue
 * (IssueQueue::wakeSq), which is how loads blocked on the SQ sleep
 * instead of retrying every cycle.
 */
class LoadStoreUnit
{
  public:
    LoadStoreUnit(const LsuParams &params, MemoryImage &committed,
                  SvwUnit &svwUnit, stats::StatRegistry &reg);

    const LsuParams &params() const { return prm; }

    /** Issue queue told about every SQ entry change (nullptr = none,
     * e.g. LSU-only unit tests). */
    void setSqWakeTarget(IssueQueue *iq) { sqWake = iq; }

    // --- dispatch ------------------------------------------------------
    bool lqFull() const { return lq.size() >= prm.lqEntries; }
    bool sqFull() const { return sq.size() >= prm.sqEntries; }
    /** FSQ allocation check for a steered store (SSQ). */
    bool fsqFullFor(const DynInst &store) const;

    void dispatchLoad(DynInst &load);
    void dispatchStore(DynInst &store);

    // --- execution -------------------------------------------------------
    /**
     * Execute a load whose address is in @p load.addr. Reads forwarding
     * structures / the committed image; does not model cache latency
     * (the core layers that on top).
     */
    LoadExecResult executeLoad(DynInst &load, Cycle now);

    /** A store's data became available (best-effort buffer insertion). */
    void storeDataReady(DynInst &store);

    /**
     * A store resolved its address (issued).
     * @return seq of the oldest younger load that already issued with an
     *         overlapping address (ordering violation; 0 = none).
     *         Always 0 when the LQ CAM is removed (NLQ).
     */
    InstSeqNum storeResolved(DynInst &store);

    /** Re-copy @p store's search-relevant fields into its mirror slot
     * (by-seq binary search; no-op if the store was already squashed)
     * and wake the loads waiting on it. The pipeline reaches this
     * through storeResolved/storeDataReady; tests that poke store
     * fields directly call it to resync. */
    void refreshSqMirror(const DynInst &store);

    // --- retirement / squash --------------------------------------------
    void commitLoad(const DynInst &load);
    /** Never inlined, so its code (and enterFwdBuf's call) stays the
     * same whatever the size of the LTO unit around it. */
    [[gnu::noinline]] void commitStore(const DynInst &store);
    void squashAfter(InstSeqNum keepSeq);

    // --- SSQ steering predictor ------------------------------------------
    bool loadSteeredToFsq(std::uint64_t pc) const;
    bool storeSteeredToFsq(std::uint64_t pc) const;
    /** Train after a re-execution failure (missed forwarding). */
    void trainSteering(std::uint64_t loadPc, std::uint64_t storePc);

    std::size_t lqSize() const { return lq.size(); }
    std::size_t sqSize() const { return sq.size(); }
    std::size_t fsqSize() const { return fsq.size(); }

    /** Youngest in-flight store (nullptr if none); SSN rollback. */
    DynInst *youngestStore() const
    {
        return sq.empty() ? nullptr : sq.back();
    }

    /** Seq of the youngest in-flight store (0 if none). */
    InstSeqNum youngestStoreSeq() const
    {
        return sq.empty() ? 0 : sq.back()->seq;
    }

  public:
    stats::Scalar forwards;
    stats::Scalar bestEffortHits;
    stats::Scalar partialBlocks;
    stats::Scalar lqSearches;
    stats::Scalar lqViolations;
    stats::Scalar fsqForwards;
    stats::Scalar fsqAllocStalls;
    stats::Scalar steeringTrainings;

  private:
    /** Dense hot-loop accumulators, bound to the Scalars above (see
     * stats::Scalar::bind). Cold-path increments (e.g. the core's
     * ++fsqAllocStalls) may still go through the Scalars directly. */
    struct HotCounters
    {
        std::uint64_t forwards = 0;
        std::uint64_t bestEffortHits = 0;
        std::uint64_t partialBlocks = 0;
        std::uint64_t lqSearches = 0;
        std::uint64_t lqViolations = 0;
        std::uint64_t fsqForwards = 0;
        std::uint64_t steeringTrainings = 0;
    };
    HotCounters hot;

    struct FwdBufEntry
    {
        Addr addr = 0;
        unsigned size = 0;
        std::uint64_t value = 0;
    };

    /**
     * Compact mirror of one SQ entry: everything the older-store
     * scans read (searchSq, searchSsq's ambiguity scan), packed so the
     * youngest-first scans walk a dense array instead of dereferencing
     * each store's two-cache-line DynInst out of the ROB ring.
     * Maintained strictly in lockstep with @c sq (same order, same
     * length): pushed at dispatch, refreshed from the DynInst when the
     * store's address and data resolve (storeResolved / storeDataReady
     * — the only points those fields change), popped with commit and
     * squash.
     */
    struct SqMirrorEntry
    {
        InstSeqNum seq = 0;
        Addr addr = 0;
        std::uint64_t data = 0;
        SSN ssn = 0;
        std::uint8_t size = 0;
        bool addrOk = false;
        bool dataOk = false;
    };

    /**
     * Enter committed @p store into its bank's forwarding buffer (see
     * commitStore). Flattened, so the deque's iterator and erase
     * internals are always inlined into it, and never inlined itself:
     * under LTO both choices otherwise move with the size of the whole
     * program.
     */
    [[gnu::flatten, gnu::noinline]] void enterFwdBuf(const DynInst &store);

    /** Block @p res on store @p storeSeq. lsu.partialBlocks counts
     * each (load, blocking store) episode once, however many times the
     * load retries into it. */
    void blockPartial(DynInst &load, InstSeqNum storeSeq,
                      LoadExecResult &res)
    {
        const auto tag = static_cast<std::uint32_t>(storeSeq);
        if (load.partialBlocker != tag) {
            load.partialBlocker = tag;
            ++hot.partialBlocks;
        }
        res.status = LoadExecResult::Status::BlockedPartial;
        res.blocker = storeSeq;
    }

    /** Extract the bytes of @p load covered by @p store (full cover). */
    static std::uint64_t extractForward(const DynInst &store,
                                        const DynInst &load);

    /** Same, over a mirror entry's address/data. */
    static std::uint64_t extractForward(Addr stAddr, std::uint64_t stData,
                                        const DynInst &load);

    /** Conventional/NLQ path: associative SQ search. */
    LoadExecResult searchSq(DynInst &load);
    /** SSQ path: FSQ search (steered) or best-effort buffer. */
    LoadExecResult searchSsq(DynInst &load, Cycle now);

    unsigned steeringIndex(std::uint64_t pc) const
    {
        return static_cast<unsigned>(pc) & (prm.steeringEntries - 1);
    }

    LsuParams prm;
    MemoryImage &committed;
    SvwUnit &svw;

    BoundedRing<DynInst *> lq;   ///< age-ordered in-flight loads
    BoundedRing<DynInst *> sq;   ///< age-ordered in-flight stores
    BoundedRing<SqMirrorEntry> sqm;  ///< dense search mirror of sq
    BoundedRing<DynInst *> fsq;  ///< subset of sq steered to the FSQ
    IssueQueue *sqWake = nullptr;  ///< see setSqWakeTarget

    std::vector<std::deque<FwdBufEntry>> fwdBufs;  ///< per cache bank
    std::vector<bool> loadFsqBits;
    std::vector<bool> storeFsqBits;

    Cycle fsqPortCycle = ~Cycle(0);
    unsigned fsqPortUsed = 0;
};

namespace nlq {

/**
 * Cain & Lipasti's intra-thread filter heuristic (NLQ-LS): re-execute
 * only loads that issued in the presence of older unresolved stores.
 */
bool shouldMarkLoad(bool nlqEnabled, const LoadExecResult &res);

} // namespace nlq

} // namespace svw

#endif // SVW_LSU_LSU_HH
