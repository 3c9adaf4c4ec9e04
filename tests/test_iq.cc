/**
 * @file
 * Unit tests: the issue queue over ROB ring slots — capacity, age-order
 * scanning across the ring wrap, squash freeing slot ranges, and every
 * wake source (register, time wheel, store queue) dropping records that
 * no longer name their entry.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cpu/iq.hh"
#include "cpu/rob.hh"

using namespace svw;

namespace {

StaticInst aluInst{Opcode::Add, 1, 2, 3, 0};

DynInst
mkInst(InstSeqNum seq)
{
    DynInst d;
    d.seq = seq;
    d.setStatic(&aluInst);
    return d;
}

/** A ROB plus an IQ over its ring, as the core pairs them. */
struct IqFixture : ::testing::Test
{
    IqFixture() : rob(8), iq(8, rob.ringSlots()) {}

    /** Push seq into the ROB and insert it into the IQ. */
    std::size_t add(InstSeqNum seq)
    {
        DynInst &d = rob.push(mkInst(seq));
        const std::size_t slot = rob.slotOf(d);
        iq.insert(&d, slot);
        return slot;
    }

    /** Seqs of the awake entries, in scan order. */
    std::vector<InstSeqNum> scan() const
    {
        std::vector<InstSeqNum> seqs;
        const std::size_t head = rob.headSlot();
        for (std::size_t i = iq.firstAwake(head); i != IssueQueue::npos;
             i = iq.nextAwake(i, head)) {
            seqs.push_back(iq.slot(i).seq);
        }
        return seqs;
    }

    /** Squash everything younger than @p keepSeq, IQ before ROB (the
     * Core::squashAfter order). */
    void squashAfter(InstSeqNum keepSeq)
    {
        const std::size_t kept = rob.countUpTo(keepSeq);
        iq.squashAfter(keepSeq, rob.slotAt(kept), rob.size() - kept);
        while (rob.size() > kept)
            rob.popTail();
    }

    /** Put slot @p idx to sleep on physical register @p p. */
    void sleepOnReg(std::size_t idx, PhysRegIndex p)
    {
        iq.slotRef(idx).sleepReg = p;
        iq.noteAsleep(idx, 0);
    }

    ROB rob;
    IssueQueue iq;
};

} // namespace

TEST_F(IqFixture, InsertRemoveSquash)
{
    const std::size_t a = add(1);
    const std::size_t b = add(2);
    add(3);
    EXPECT_EQ(iq.size(), 3u);
    iq.removeAt(b);
    EXPECT_EQ(iq.size(), 2u);
    EXPECT_FALSE(iq.occupied(b));
    squashAfter(1);
    ASSERT_EQ(iq.size(), 1u);
    EXPECT_TRUE(iq.occupied(a));
    EXPECT_EQ(scan(), std::vector<InstSeqNum>({1}));
}

TEST_F(IqFixture, FullBoundsLiveEntriesNotSlots)
{
    IssueQueue small(2, rob.ringSlots());
    DynInst &a = rob.push(mkInst(1));
    DynInst &b = rob.push(mkInst(2));
    small.insert(&a, rob.slotOf(a));
    EXPECT_FALSE(small.full());
    small.insert(&b, rob.slotOf(b));
    EXPECT_TRUE(small.full());
    small.removeAt(rob.slotOf(a));
    EXPECT_FALSE(small.full());
}

TEST_F(IqFixture, ScanIsAgeOrderAcrossRingWrap)
{
    // Retire five entries so the head sits at slot 5, then fill: seqs
    // 6..13 occupy slots 5, 6, 7, 0, 1, 2, 3, 4.
    for (InstSeqNum s = 1; s <= 5; ++s)
        rob.push(mkInst(s));
    for (int i = 0; i < 5; ++i)
        rob.popHead();
    std::vector<std::size_t> slots;
    for (InstSeqNum s = 6; s <= 13; ++s)
        slots.push_back(add(s));
    EXPECT_EQ(rob.headSlot(), 5u);
    EXPECT_EQ(slots.front(), 5u);
    EXPECT_EQ(slots[3], 0u);
    EXPECT_EQ(scan(),
              std::vector<InstSeqNum>({6, 7, 8, 9, 10, 11, 12, 13}));

    // Sleepers leave the scan; the order of the rest is unchanged.
    sleepOnReg(slots[1], 40);   // seq 7, before the wrap
    sleepOnReg(slots[4], 41);   // seq 10, after it
    EXPECT_EQ(scan(), std::vector<InstSeqNum>({6, 8, 9, 11, 12, 13}));

    // A wake fired mid-scan for a younger slot past the wrap is visited
    // by that same scan; one for an already-passed (older) slot is not.
    std::vector<InstSeqNum> seen;
    const std::size_t head = rob.headSlot();
    for (std::size_t i = iq.firstAwake(head); i != IssueQueue::npos;
         i = iq.nextAwake(i, head)) {
        seen.push_back(iq.slot(i).seq);
        if (iq.slot(i).seq == 8) {
            iq.wakeReg(41);  // seq 10: younger, after the wrap
            iq.wakeReg(40);  // seq 7: older, already passed
        }
    }
    EXPECT_EQ(seen, std::vector<InstSeqNum>({6, 8, 9, 10, 11, 12, 13}));
    EXPECT_EQ(scan(),
              std::vector<InstSeqNum>({6, 7, 8, 9, 10, 11, 12, 13}));
}

TEST_F(IqFixture, SquashFreesSlotsAcrossRingWrap)
{
    for (InstSeqNum s = 1; s <= 6; ++s)
        rob.push(mkInst(s));
    for (int i = 0; i < 6; ++i)
        rob.popHead();
    // Seqs 7..12 in slots 6, 7, 0, 1, 2, 3.
    std::vector<std::size_t> slots;
    for (InstSeqNum s = 7; s <= 12; ++s)
        slots.push_back(add(s));
    iq.removeAt(slots[3]);  // seq 10 issued already
    ASSERT_EQ(iq.size(), 5u);

    // Keep 7 and 8: the squashed suffix 9..12 starts at slot 0.
    squashAfter(8);
    EXPECT_EQ(iq.size(), 2u);
    for (std::size_t i = 2; i < slots.size(); ++i)
        EXPECT_FALSE(iq.occupied(slots[i])) << "slot " << slots[i];
    EXPECT_EQ(scan(), std::vector<InstSeqNum>({7, 8}));

    // Keep 7: the squashed range is the single slot 7, at the ring end.
    squashAfter(7);
    EXPECT_EQ(iq.size(), 1u);
    EXPECT_EQ(scan(), std::vector<InstSeqNum>({7}));

    // Freed slots take new entries (the insert asserts the slot is free).
    EXPECT_EQ(add(20), 7u);
    EXPECT_EQ(add(21), 0u);
    EXPECT_EQ(scan(), std::vector<InstSeqNum>({7, 20, 21}));
}

TEST_F(IqFixture, StaleWakeRecordsAreDropped)
{
    // Register waiter, then the sleeper is squashed and its slot reused
    // by a new instruction that sleeps on something else.
    add(1);
    const std::size_t s2 = add(2);
    sleepOnReg(s2, 30);
    squashAfter(1);
    ASSERT_EQ(add(3), s2);
    sleepOnReg(s2, 31);
    iq.wakeReg(30);
    EXPECT_EQ(scan(), std::vector<InstSeqNum>({1}));
    iq.wakeReg(31);
    EXPECT_EQ(scan(), std::vector<InstSeqNum>({1, 3}));

    // Time-wheel record for an entry that issued before it fired.
    const std::size_t s4 = add(4);
    iq.slotRef(s4).sleepReg = invalidPhysReg;
    iq.slotRef(s4).sleepRetry = 5;
    iq.noteAsleep(s4, 0);
    iq.removeAt(s4);
    iq.drainWakes(5);
    EXPECT_FALSE(iq.occupied(s4));
    EXPECT_EQ(scan(), std::vector<InstSeqNum>({1, 3}));

    // Store-queue waiter squashed: the squash drops its record, so a
    // later change to its store cannot wake the slot's new occupant.
    const std::size_t s5 = add(5);
    iq.sleepOnSq(s5, 1);
    squashAfter(4);
    const std::size_t s6 = add(6);
    ASSERT_EQ(s6, s5);
    iq.sleepOnSq(s6, 2);
    iq.wakeSq(1);
    EXPECT_EQ(scan(), std::vector<InstSeqNum>({1, 3}));
}

TEST_F(IqFixture, StoreQueueWakeMatchesOnlyTheBlockingRange)
{
    add(10);
    const std::size_t load = add(20);
    // Blocked by store 12: changes to stores in [12, 20) can unblock it.
    iq.sleepOnSq(load, 12);
    EXPECT_EQ(scan(), std::vector<InstSeqNum>({10}));
    iq.wakeSq(11);  // older than the blocking store
    iq.wakeSq(20);  // not older than the load
    iq.wakeSq(25);
    EXPECT_EQ(scan(), std::vector<InstSeqNum>({10}));
    iq.wakeSq(15);  // between the blocker and the load
    EXPECT_EQ(scan(), std::vector<InstSeqNum>({10, 20}));

    // A record fires once: a second change to the same store does not
    // wake the load out of its next, unrelated sleep.
    iq.sleepOnSq(load, 12);
    iq.wakeSq(12);
    EXPECT_EQ(scan(), std::vector<InstSeqNum>({10, 20}));
    sleepOnReg(load, 50);
    iq.wakeSq(12);
    EXPECT_EQ(scan(), std::vector<InstSeqNum>({10}));
}
