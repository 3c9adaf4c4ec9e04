/**
 * @file
 * Issue queue: holds dispatched, un-issued instructions; the scheduler
 * scans it oldest-first each cycle.
 *
 * Stable slots: an entry lives in its instruction's ROB ring slot
 * (ROB::slotOf). ROB slots never move while an instruction is in
 * flight, and walking the ring from the ROB head is age order, so the
 * scan runs in age order from the head (firstAwake/nextAwake wrap) and
 * no slot index ever shifts — nothing is compacted, and wake records
 * stay valid until their entry issues or is squashed. The IQ capacity bounds
 * the live count, not the slot range. Entries carry a raw DynInst
 * pointer into the same slot; the core prunes the IQ before popping
 * squashed ROB entries.
 *
 * Wakeup-driven scan (host-side only — issue decisions are bit-exact
 * with a full walk): an "awake" bitmap marks the slots the scan must
 * visit. A sleeping entry's wake condition is exact, so it leaves the
 * bitmap and is re-armed through one of three structures:
 *
 *  - sleepRetry = r (producer issued, value due at r): a time wheel
 *    sets the bit again at exactly cycle r (drainWakes).
 *  - sleepReg = p (producer un-issued, readyAt == notReady): a
 *    per-register waiter list, fired by the core's noteReadyAt — the
 *    only operation that ever moves a register out of notReady.
 *  - store-queue wait (a store-set wait on an unresolved store, or a
 *    load blocked by a partial overlap / not-yet-captured store data):
 *    a waiter list fired by the LSU whenever an SQ entry older than the
 *    waiter and not older than the blocking store changes (wakeSq) —
 *    address resolve, data capture, commit. The blocked outcome reads
 *    only those SQ entries and the waiter's fixed address, so nothing
 *    else can unblock it.
 *
 * Wake records carry {slot, seq} and are validated when they fire, so
 * records left stale by a squash or an issue are simply dropped; a
 * spurious wake only makes the scan re-screen and re-arm. Missed wakes
 * cannot happen: the conditions above are the only ways a sleeping
 * entry's screen can start passing.
 */

#ifndef SVW_CPU_IQ_HH
#define SVW_CPU_IQ_HH

#include <array>
#include <bit>
#include <map>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"
#include "cpu/dyninst.hh"

namespace svw {

/** Age-ordered issue queue over ROB ring slots. */
class IssueQueue
{
  public:
    /** Issue-resource class of an entry (which per-class cap gates it). */
    enum ClsGroup : std::uint8_t
    {
        ClsInt = 0,
        ClsBranch,
        ClsLoad,
        ClsStore,
    };

    /**
     * Gate bits: which renamed sources an entry must see ready before
     * it can issue. Stores and loads gate only on rs1 (the address
     * base; store data is captured after issue), ALU ops and branches
     * on whichever of rs1/rs2 the opcode really reads.
     */
    enum GateBit : std::uint8_t
    {
        GateRs1 = 1 << 0,
        GateRs2 = 1 << 1,
    };

    /**
     * One slot. Besides the instruction pointer the entry mirrors every
     * scan-relevant DynInst fact (class group, issue-gating renamed
     * sources at insert; sleep state after every failed wakeup check)
     * so the per-cycle scan — including the failed-issue path — runs
     * entirely over this compact array and touches the two-cache-line
     * DynInst only when an entry actually might issue.
     */
    struct Entry
    {
        InstSeqNum seq;
        DynInst *inst;
        Cycle sleepRetry;        ///< earliest possible issue cycle
        PhysRegIndex sleepReg;   ///< unissued-producer blocking register
        PhysRegIndex prs1;       ///< mirror of DynInst::prs1
        PhysRegIndex prs2;       ///< mirror of DynInst::prs2
        std::uint8_t clsGroup;   ///< issue-resource class
        std::uint8_t gates;      ///< GateBit mask of issue-gating sources
    };

    /** @p capacity live entries over @p ringSlots slots (the ROB ring
     * size, a power of two). */
    IssueQueue(unsigned capacity, std::size_t ringSlots)
        : cap(capacity), entries_(ringSlots),
          live_((ringSlots + 63) / 64), awake_((ringSlots + 63) / 64)
    {
        svw_assert(awake_.size() <= 64, "IQ slot range over 4096");
    }

    bool full() const { return live >= cap; }
    std::size_t size() const { return live; }
    unsigned capacity() const { return cap; }

    static std::uint8_t classGroup(const DynInst &inst)
    {
        switch (inst.cls()) {
          case InstClass::Load:
            return ClsLoad;
          case InstClass::Store:
            return ClsStore;
          case InstClass::Branch:
          case InstClass::Jump:
          case InstClass::JumpReg:
            return ClsBranch;
          default:
            return ClsInt;
        }
    }

    /** Issue-gating source mask (see GateBit). */
    static std::uint8_t gateMask(const DynInst &inst)
    {
        std::uint8_t g = 0;
        if (inst.readsRs1())
            g |= GateRs1;
        // Memory ops issue on the address base alone: a store's rs2 is
        // data, captured whenever it arrives after issue.
        if (inst.readsRs2() && !inst.isMem())
            g |= GateRs2;
        return g;
    }

    /** Insert @p inst into @p slot, its ROB ring slot (which must be
     * free: the previous occupant issued or was squashed). */
    void insert(DynInst *inst, std::size_t slot)
    {
        svw_assert(!occupied(slot), "IQ slot reused while live");
        entries_[slot] = Entry{inst->seq, inst, 0, invalidPhysReg,
                               inst->prs1, inst->prs2,
                               classGroup(*inst), gateMask(*inst)};
        ++live;
        live_[slot >> 6] |= bit(slot);
        setAwake(slot);
    }

    /** Whether @p idx holds a live (un-issued, un-squashed) entry. */
    bool occupied(std::size_t idx) const
    {
        return live_[idx >> 6] & bit(idx);
    }

    /** Slot @p idx; meaningful only while occupied(idx). */
    const Entry &slot(std::size_t idx) const { return entries_[idx]; }

    /** Mutable slot access (the scan refreshes the sleep mirror). */
    Entry &slotRef(std::size_t idx) { return entries_[idx]; }

    /** Free the (live) entry at slot @p idx after it issued. */
    void removeAt(std::size_t idx)
    {
        --live;
        live_[idx >> 6] &= ~bit(idx);
        clearAwake(idx);
    }

    static constexpr std::size_t npos = ~std::size_t(0);

    /**
     * Scan order. Age order runs from @p head (the ROB head slot) to the
     * ring's end and wraps to head - 1. firstAwake is the oldest awake
     * slot, nextAwake the next one after slot @p idx; npos when none.
     * Both read the current awake bitmap, not a snapshot: an issuing
     * instruction wakes its consumers (younger, so later in age order)
     * and the same scan visits them — exactly like the screened full
     * walk.
     */
    std::size_t firstAwake(std::size_t head) const
    {
        const std::size_t i = findAwake(head, entries_.size());
        return i != npos ? i : findAwake(0, head);
    }
    std::size_t nextAwake(std::size_t idx, std::size_t head) const
    {
        if (idx < head)
            return findAwake(idx + 1, head);
        const std::size_t i = findAwake(idx + 1, entries_.size());
        return i != npos ? i : findAwake(0, head);
    }

    /**
     * The scan recorded (or re-confirmed) a sleep in slot @p idx: drop
     * the awake bit and arm the exact wake — sleepReg goes on that
     * register's waiter list, otherwise sleepRetry (> @p now) goes on
     * the time wheel. Re-arming after a spurious wake may duplicate a
     * record; fires are validated and idempotent, so that is harmless.
     */
    void noteAsleep(std::size_t idx, Cycle now)
    {
        const Entry &e = entries_[idx];
        clearAwake(idx);
        const WakeRec rec{e.seq, static_cast<std::uint32_t>(idx)};
        if (e.sleepReg != invalidPhysReg) {
            if (regWaiters_.size() <= std::size_t(e.sleepReg))
                regWaiters_.resize(std::size_t(e.sleepReg) + 1);
            regWaiters_[e.sleepReg].push_back(rec);
        } else if (e.sleepRetry - now <= wheelMask) {
            const Cycle b = e.sleepRetry & wheelMask;
            wheel_[b].push_back(rec);
            wheelBusy_[b >> 6] |= std::uint64_t(1) << (b & 63);
        } else {
            wheelOverflow_.emplace(e.sleepRetry, rec);
        }
    }

    /**
     * Slot @p idx is blocked on the store queue by the store with seq
     * @p floor (older than the entry): drop the awake bit until wakeSq
     * reports a change to an SQ entry in [floor, entry seq).
     */
    void sleepOnSq(std::size_t idx, InstSeqNum floor)
    {
        clearAwake(idx);
        sqWaiters_.push_back(SqWaitRec{
            {entries_[idx].seq, static_cast<std::uint32_t>(idx)}, floor});
    }

    /** The SQ entry of store @p storeSeq changed: wake every waiter it
     * can unblock (floor <= storeSeq < waiter seq). */
    void wakeSq(InstSeqNum storeSeq)
    {
        for (std::size_t i = 0; i < sqWaiters_.size();) {
            const SqWaitRec &r = sqWaiters_[i];
            if (r.floor <= storeSeq && storeSeq < r.rec.seq) {
                wakeValidated(r.rec);
                sqWaiters_[i] = sqWaiters_.back();
                sqWaiters_.pop_back();
            } else {
                ++i;
            }
        }
    }

    /** Fire every wheel record due at cycle @p now. Must run once per
     * cycle (buckets alias every wheelMask+1 cycles). The occupancy
     * bitmap keeps the common no-wake cycle to two hot-word tests
     * instead of a scattered bucket load. */
    void drainWakes(Cycle now)
    {
        while (!wheelOverflow_.empty() &&
               wheelOverflow_.begin()->first <= now) {
            wakeValidated(wheelOverflow_.begin()->second);
            wheelOverflow_.erase(wheelOverflow_.begin());
        }
        const Cycle b = now & wheelMask;
        if (wheelBusy_[b >> 6] & (std::uint64_t(1) << (b & 63))) {
            wheelBusy_[b >> 6] &= ~(std::uint64_t(1) << (b & 63));
            auto &bucket = wheel_[b];
            for (const WakeRec &r : bucket)
                wakeValidated(r);
            bucket.clear();
        }
    }

    /** Register @p p left notReady (its producer issued): wake the
     * entries sleeping on it. */
    void wakeReg(PhysRegIndex p)
    {
        if (std::size_t(p) >= regWaiters_.size())
            return;
        auto &list = regWaiters_[p];
        if (!list.empty()) {
            for (const WakeRec &r : list)
                wakeValidated(r);
            list.clear();
        }
    }

    /**
     * Squash: free the @p n slots starting at @p first (wrapping) — the
     * ROB slots of the squashed suffix, all younger than @p keepSeq —
     * and drop the SQ waiters younger than @p keepSeq (no surviving
     * store could ever wake them). Must run before the ROB discards
     * the squashed instructions.
     */
    void squashAfter(InstSeqNum keepSeq, std::size_t first,
                     std::size_t n);

  private:
    /** A pending wake for slot @p idx; @p seq guards against the slot
     * having been freed (issue, squash) or re-used since. */
    struct WakeRec
    {
        InstSeqNum seq;
        std::uint32_t idx;
    };

    struct SqWaitRec
    {
        WakeRec rec;
        InstSeqNum floor;  ///< oldest store whose change can unblock
    };

    static std::uint64_t bit(std::size_t idx)
    {
        return std::uint64_t(1) << (idx & 63);
    }

    void setAwake(std::size_t idx)
    {
        awake_[idx >> 6] |= bit(idx);
        awakeWords_ |= std::uint64_t(1) << (idx >> 6);
    }

    void clearAwake(std::size_t idx)
    {
        if (!(awake_[idx >> 6] &= ~bit(idx)))
            awakeWords_ &= ~(std::uint64_t(1) << (idx >> 6));
    }

    /** First awake slot in [from, end), npos if none. Whole empty
     * words are skipped through awakeWords_, so an idle queue costs
     * one or two word tests whatever the slot range. */
    std::size_t findAwake(std::size_t from, std::size_t end) const
    {
        if (from >= end)
            return npos;
        std::size_t wi = from >> 6;
        std::uint64_t w = awake_[wi] & (~std::uint64_t(0) << (from & 63));
        if (!w) {
            const std::uint64_t later =
                wi + 1 < 64 ? awakeWords_ & (~std::uint64_t(0) << (wi + 1))
                            : 0;
            if (!later)
                return npos;
            wi = std::countr_zero(later);
            w = awake_[wi];
        }
        const std::size_t i = (wi << 6) + std::countr_zero(w);
        return i < end ? i : npos;
    }

    /** Set the awake bit iff the record still names a live entry. */
    void wakeValidated(const WakeRec &r)
    {
        if (occupied(r.idx) && entries_[r.idx].seq == r.seq)
            setAwake(r.idx);
    }

    static constexpr Cycle wheelMask = 255;  ///< wheel horizon - 1

    unsigned cap;
    std::size_t live = 0;
    std::vector<Entry> entries_;  ///< indexed by ROB ring slot
    /** One bit per slot: holds a live entry. */
    std::vector<std::uint64_t> live_;
    /** One bit per slot: the scan must visit it (always a subset of
     * live_). */
    std::vector<std::uint64_t> awake_;
    /** One bit per awake_ word: set iff that word is nonzero. */
    std::uint64_t awakeWords_ = 0;
    /** sleepRetry wakes, bucketed by due cycle & wheelMask. */
    std::vector<std::vector<WakeRec>> wheel_{wheelMask + 1};
    /** Occupancy bit per wheel bucket. */
    std::array<std::uint64_t, (wheelMask + 1) / 64> wheelBusy_{};
    std::multimap<Cycle, WakeRec> wheelOverflow_;
    /** sleepReg wakes, indexed by physical register (grown lazily). */
    std::vector<std::vector<WakeRec>> regWaiters_;
    /** Store-queue waits (sleepOnSq), fired by wakeSq. */
    std::vector<SqWaitRec> sqWaiters_;
};

} // namespace svw

#endif // SVW_CPU_IQ_HH
