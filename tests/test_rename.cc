/**
 * @file
 * Unit tests: physical register file, rename map, free list, reference
 * counting and generations (the substrate register integration relies
 * on), the speculative-definition journal, and the squash-recovery
 * checkpoint pool.
 */

#include <gtest/gtest.h>

#include "cpu/rename.hh"
#include "cpu/rob.hh"

using namespace svw;

TEST(Rename, InitialMapIsIdentity)
{
    RenameState rs(64);
    for (RegIndex a = 0; a < numArchRegs; ++a)
        EXPECT_EQ(rs.map(a), a);
    EXPECT_EQ(rs.freeRegs(), 64u - numArchRegs);
}

TEST(Rename, AllocTakesFromFreeList)
{
    RenameState rs(64);
    const auto before = rs.freeRegs();
    PhysRegIndex p = rs.alloc();
    EXPECT_GE(p, numArchRegs);
    EXPECT_EQ(rs.freeRegs(), before - 1);
    EXPECT_EQ(rs.regs().refCount(p), 1u);
    EXPECT_EQ(rs.regs().readyAt(p), notReady);
}

TEST(Rename, DerefFreesAtZero)
{
    RenameState rs(64);
    PhysRegIndex p = rs.alloc();
    const auto gen = rs.regs().generation(p);
    rs.addRef(p);
    rs.deref(p);
    EXPECT_EQ(rs.regs().refCount(p), 1u);
    EXPECT_EQ(rs.regs().generation(p), gen);  // still alive
    rs.deref(p);
    EXPECT_EQ(rs.regs().refCount(p), 0u);
    EXPECT_EQ(rs.regs().generation(p), gen + 1);  // recycled
}

TEST(Rename, FreedRegisterIsReallocated)
{
    RenameState rs(numArchRegs + 9);
    std::vector<PhysRegIndex> all;
    while (rs.hasFreeReg())
        all.push_back(rs.alloc());
    EXPECT_EQ(all.size(), 9u);
    rs.deref(all[4]);
    ASSERT_TRUE(rs.hasFreeReg());
    EXPECT_EQ(rs.alloc(), all[4]);
}

TEST(Rename, AllocOnEmptyFreeListPanics)
{
    RenameState rs(numArchRegs + 9);
    while (rs.hasFreeReg())
        rs.alloc();
    EXPECT_THROW(rs.alloc(), std::logic_error);
}

TEST(Rename, DoubleFreePanics)
{
    RenameState rs(64);
    PhysRegIndex p = rs.alloc();
    rs.deref(p);
    EXPECT_THROW(rs.deref(p), std::logic_error);
}

TEST(Rename, ValuesAndReadiness)
{
    RenameState rs(64);
    PhysRegIndex p = rs.alloc();
    EXPECT_FALSE(rs.regs().isReady(p, 1000));
    rs.regs().setValue(p, 0xabcd);
    rs.regs().setReadyAt(p, 50);
    EXPECT_FALSE(rs.regs().isReady(p, 49));
    EXPECT_TRUE(rs.regs().isReady(p, 50));
    EXPECT_EQ(rs.regs().value(p), 0xabcdu);
}

TEST(Rename, MapUpdate)
{
    RenameState rs(64);
    PhysRegIndex p = rs.alloc();
    rs.speculativeDef(5, p);
    EXPECT_EQ(rs.map(5), p);
}

TEST(Rename, TooFewRegsPanics)
{
    EXPECT_THROW(RenameState rs(numArchRegs), std::logic_error);
}

// ---------------------------------------------------------------------
// Definition journal and checkpoints
// ---------------------------------------------------------------------

TEST(RenameCkpt, UndoLastDefRestoresMapAndFrees)
{
    RenameState rs(64);
    const PhysRegIndex orig = rs.map(5);
    PhysRegIndex p = rs.alloc();
    rs.speculativeDef(5, p);
    EXPECT_EQ(rs.map(5), p);
    EXPECT_EQ(rs.journalPos(), 1u);
    rs.undoLastDef();
    EXPECT_EQ(rs.map(5), orig);
    EXPECT_EQ(rs.regs().refCount(p), 0u);  // released
    EXPECT_EQ(rs.journalPos(), 0u);
}

TEST(RenameCkpt, RestoreRewindsMapAndFreeListInWalkOrder)
{
    RenameState rs(64, 4);
    PhysRegIndex p1 = rs.alloc();
    rs.speculativeDef(3, p1);
    rs.takeCheckpoint(10, BPredCheckpoint{});
    const auto freeBefore = rs.freeRegs();

    // Two wrong-path definitions after the checkpoint.
    PhysRegIndex p2 = rs.alloc();
    rs.speculativeDef(4, p2);
    PhysRegIndex p3 = rs.alloc();
    rs.speculativeDef(5, p3);

    rs.discardCheckpointsAfter(10);
    const RenameCheckpoint *ck = rs.findCheckpoint(10);
    ASSERT_NE(ck, nullptr);
    rs.restoreCheckpoint(*ck);

    EXPECT_EQ(rs.map(3), p1);   // pre-checkpoint def survives
    EXPECT_EQ(rs.map(4), 4u);   // post-checkpoint defs undone
    EXPECT_EQ(rs.map(5), 5u);
    EXPECT_EQ(rs.freeRegs(), freeBefore);
    // Free-list order must equal the youngest-first walk's: p3 released
    // first, p2 on top — so allocation hands p2 back first.
    EXPECT_EQ(rs.alloc(), p2);
    EXPECT_EQ(rs.alloc(), p3);
}

TEST(RenameCkpt, RestoreDropsSharedReferenceWithoutFreeing)
{
    RenameState rs(64, 4);
    PhysRegIndex p = rs.alloc();
    rs.speculativeDef(3, p);
    rs.takeCheckpoint(20, BPredCheckpoint{});
    // An integration-style shared definition of the same register.
    rs.addRef(p);
    rs.speculativeDef(4, p);
    EXPECT_EQ(rs.regs().refCount(p), 2u);

    rs.discardCheckpointsAfter(20);
    const RenameCheckpoint *ck = rs.findCheckpoint(20);
    ASSERT_NE(ck, nullptr);
    const auto gen = rs.regs().generation(p);
    rs.restoreCheckpoint(*ck);
    EXPECT_EQ(rs.regs().refCount(p), 1u);       // still pinned by map(3)
    EXPECT_EQ(rs.regs().generation(p), gen);    // never recycled
    EXPECT_EQ(rs.map(3), p);
    EXPECT_EQ(rs.map(4), 4u);
}

TEST(RenameCkpt, PoolExhaustionDropsOldest)
{
    RenameState rs(64, 2);
    rs.takeCheckpoint(1, BPredCheckpoint{});
    rs.takeCheckpoint(2, BPredCheckpoint{});
    EXPECT_EQ(rs.checkpointsPooled(), 2u);
    rs.takeCheckpoint(3, BPredCheckpoint{});
    EXPECT_EQ(rs.checkpointsPooled(), 2u);  // oldest (seq 1) evicted

    // A squash keeping seq 1 pops 2 and 3 and finds nothing: the walk
    // fallback covers it.
    rs.discardCheckpointsAfter(1);
    EXPECT_EQ(rs.checkpointsPooled(), 0u);
    EXPECT_EQ(rs.findCheckpoint(1), nullptr);
}

TEST(RenameCkpt, DiscardPopsOnlyYoungerCheckpoints)
{
    RenameState rs(64, 4);
    rs.takeCheckpoint(5, BPredCheckpoint{});
    rs.takeCheckpoint(8, BPredCheckpoint{});
    rs.takeCheckpoint(11, BPredCheckpoint{});
    rs.discardCheckpointsAfter(8);
    EXPECT_EQ(rs.checkpointsPooled(), 2u);
    const RenameCheckpoint *ck = rs.findCheckpoint(8);
    ASSERT_NE(ck, nullptr);
    EXPECT_EQ(ck->seq, 8u);
    // Only the youngest survivor can match a squash point.
    EXPECT_EQ(rs.findCheckpoint(5), nullptr);
}

TEST(RenameCkpt, ZeroPoolNeverCheckpoints)
{
    RenameState rs(64, 0);
    EXPECT_EQ(rs.takeCheckpoint(1, BPredCheckpoint{}), 0u);
    EXPECT_EQ(rs.checkpointsPooled(), 0u);
    rs.discardCheckpointsAfter(0);
    EXPECT_EQ(rs.findCheckpoint(1), nullptr);
}

TEST(RenameCkpt, TagsNameDistinctPoolSlots)
{
    RenameState rs(64, 4);
    const auto t1 = rs.takeCheckpoint(1, BPredCheckpoint{});
    const auto t2 = rs.takeCheckpoint(2, BPredCheckpoint{});
    EXPECT_NE(t1, 0u);
    EXPECT_NE(t2, 0u);
    EXPECT_NE(t1, t2);
}

TEST(RenameCkpt, TagResolvesOwnSlotAndRejectsRewrites)
{
    RenameState rs(64, 2);
    const auto t1 = rs.takeCheckpoint(1, BPredCheckpoint{});
    const auto t2 = rs.takeCheckpoint(2, BPredCheckpoint{});
    const RenameCheckpoint *ck = rs.checkpointByTag(t1, 1);
    ASSERT_NE(ck, nullptr);
    EXPECT_EQ(ck->seq, 1u);
    EXPECT_EQ(rs.checkpointByTag(0, 1), nullptr);   // untagged branch
    EXPECT_EQ(rs.checkpointByTag(t1, 5), nullptr);  // wrong seq

    // Overflow rewrites the oldest slot for a younger branch; the old
    // tag must no longer resolve.
    const auto t3 = rs.takeCheckpoint(3, BPredCheckpoint{});
    EXPECT_EQ(t3, t1);  // slot reused
    EXPECT_EQ(rs.checkpointByTag(t1, 1), nullptr);
    ASSERT_NE(rs.checkpointByTag(t3, 3), nullptr);
    ASSERT_NE(rs.checkpointByTag(t2, 2), nullptr);
}

// ---------------------------------------------------------------------
// ROB and IQ
// ---------------------------------------------------------------------

namespace {

StaticInst nopInst{Opcode::Nop, 0, 0, 0, 0};

DynInst
mkInst(InstSeqNum seq)
{
    DynInst d;
    d.seq = seq;
    d.setStatic(&nopInst);
    return d;
}

} // namespace

TEST(Rob, FifoOrderAndCapacity)
{
    ROB rob(4);
    EXPECT_TRUE(rob.empty());
    for (InstSeqNum s = 1; s <= 4; ++s)
        rob.push(mkInst(s));
    EXPECT_TRUE(rob.full());
    EXPECT_EQ(rob.head().seq, 1u);
    EXPECT_EQ(rob.tail().seq, 4u);
    rob.popHead();
    EXPECT_EQ(rob.head().seq, 2u);
    EXPECT_FALSE(rob.full());
}

TEST(Rob, FindBySeqHandlesGaps)
{
    ROB rob(8);
    rob.push(mkInst(2));
    rob.push(mkInst(5));
    rob.push(mkInst(9));
    EXPECT_EQ(rob.findBySeq(5)->seq, 5u);
    EXPECT_EQ(rob.findBySeq(3), nullptr);
    EXPECT_EQ(rob.findBySeq(10), nullptr);
}

TEST(Rob, LowerBound)
{
    ROB rob(8);
    rob.push(mkInst(2));
    rob.push(mkInst(5));
    EXPECT_EQ(rob.lowerBound(1)->seq, 2u);
    EXPECT_EQ(rob.lowerBound(3)->seq, 5u);
    EXPECT_EQ(rob.lowerBound(6), nullptr);
}

TEST(Rob, ReferencesStableAcrossPush)
{
    ROB rob(64);
    DynInst &first = rob.push(mkInst(1));
    for (InstSeqNum s = 2; s < 50; ++s)
        rob.push(mkInst(s));
    EXPECT_EQ(first.seq, 1u);  // deque reference stability
}

// ---------------------------------------------------------------------
// Squash-hygiene journal markers (RLE checkpoint recovery) and the ROB
// cold-record arena.
// ---------------------------------------------------------------------

TEST(Rename, HygieneMarkersAreSkippedByWalkUndo)
{
    RenameState rs(64);
    const PhysRegIndex p1 = rs.alloc();
    rs.speculativeDef(1, p1);
    rs.journalSquashHygiene(42);
    const PhysRegIndex p2 = rs.alloc();
    rs.speculativeDef(2, p2);
    rs.journalSquashHygiene(43);

    rs.undoLastDef();  // discards marker 43, undoes the r2 definition
    EXPECT_EQ(rs.map(2), 2);
    EXPECT_EQ(rs.regs().refCount(p2), 0u);
    EXPECT_EQ(rs.map(1), p1) << "older definition must survive";

    rs.undoLastDef();  // discards marker 42, undoes the r1 definition
    EXPECT_EQ(rs.map(1), 1);
    EXPECT_EQ(rs.regs().refCount(p1), 0u);
}

TEST(Rename, CheckpointReplayFiresHygieneYoungestFirstInterleaved)
{
    RenameState rs(64, 4);
    const PhysRegIndex pKept = rs.alloc();
    rs.speculativeDef(1, pKept);
    rs.takeCheckpoint(100, BPredCheckpoint{});

    const PhysRegIndex p2 = rs.alloc();
    rs.speculativeDef(2, p2);
    rs.journalSquashHygiene(10);
    const PhysRegIndex p3 = rs.alloc();
    rs.speculativeDef(3, p3);
    rs.journalSquashHygiene(11);

    rs.discardCheckpointsAfter(100);
    const RenameCheckpoint *ck = rs.findCheckpoint(100);
    ASSERT_NE(ck, nullptr);

    std::vector<InstSeqNum> fired;
    rs.restoreCheckpoint(*ck, [&](InstSeqNum seq) {
        fired.push_back(seq);
        if (seq == 11) {
            // Marker 11 replays *before* the release of load 11's own
            // definition — exactly the walk's hygiene-then-undo order.
            EXPECT_EQ(rs.regs().refCount(p3), 1u);
        } else if (seq == 10) {
            // By marker 10, load 11's definition has been released.
            EXPECT_EQ(rs.regs().refCount(p3), 0u);
            EXPECT_EQ(rs.regs().refCount(p2), 1u);
        }
    });

    ASSERT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[0], 11u);
    EXPECT_EQ(fired[1], 10u);
    EXPECT_EQ(rs.map(1), pKept);
    EXPECT_EQ(rs.map(2), 2);
    EXPECT_EQ(rs.map(3), 3);
    EXPECT_EQ(rs.regs().refCount(p2), 0u);
    EXPECT_EQ(rs.regs().refCount(p3), 0u);
}

TEST(Rob, ColdRecordsTravelWithRingSlots)
{
    ROB rob(4);
    DynInstCold c1;
    c1.bpredSnap.ghist = 0xabcull;
    DynInst &r1 = rob.push(mkInst(1), c1);
    DynInstCold c2;
    c2.bpredSnap.ghist = 0xdefull;
    DynInst &r2 = rob.push(mkInst(2), c2);
    EXPECT_EQ(rob.cold(r1).bpredSnap.ghist, 0xabcull);
    EXPECT_EQ(rob.cold(r2).bpredSnap.ghist, 0xdefull);

    // Wrap the ring: cold records stay glued to their entries' slots.
    rob.popHead();
    rob.popHead();
    for (InstSeqNum s = 3; s <= 6; ++s) {
        DynInstCold c;
        c.bpredSnap.ghist = s * 100;
        rob.push(mkInst(s), c);
    }
    for (InstSeqNum s = 3; s <= 6; ++s) {
        DynInst *d = rob.findBySeq(s);
        ASSERT_NE(d, nullptr);
        EXPECT_EQ(rob.cold(*d).bpredSnap.ghist, s * 100);
    }
}
