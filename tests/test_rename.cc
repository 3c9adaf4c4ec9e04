/**
 * @file
 * Unit tests: physical register file, rename map, free list, reference
 * counting and generations (the substrate register integration relies
 * on), and the squash walk's definition undo.
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
// Squash-walk undo
// ---------------------------------------------------------------------

TEST(Rename, UndoDefRestoresMapAndFrees)
{
    RenameState rs(64);
    const PhysRegIndex orig = rs.map(5);
    PhysRegIndex p = rs.alloc();
    rs.speculativeDef(5, p);
    EXPECT_EQ(rs.map(5), p);
    const auto gen = rs.regs().generation(p);
    rs.undoDef(5, p, orig);
    EXPECT_EQ(rs.map(5), orig);
    EXPECT_EQ(rs.regs().refCount(p), 0u);  // released
    EXPECT_EQ(rs.regs().generation(p), gen + 1);
    EXPECT_EQ(rs.alloc(), p);  // back on top of the free list
}

TEST(Rename, UndoDefDropsSharedReferenceWithoutFreeing)
{
    RenameState rs(64);
    PhysRegIndex p = rs.alloc();
    rs.speculativeDef(3, p);
    // An integration-style shared definition of the same register.
    rs.addRef(p);
    rs.speculativeDef(4, p);
    EXPECT_EQ(rs.regs().refCount(p), 2u);

    const auto gen = rs.regs().generation(p);
    rs.undoDef(4, p, 4);
    EXPECT_EQ(rs.regs().refCount(p), 1u);       // still pinned by map(3)
    EXPECT_EQ(rs.regs().generation(p), gen);    // never recycled
    EXPECT_EQ(rs.map(3), p);
    EXPECT_EQ(rs.map(4), 4u);
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
// ROB cold-record arena
// ---------------------------------------------------------------------

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
