/**
 * @file
 * Unit tests: the load-store unit driven directly — SQ forwarding and
 * extraction, partial overlaps, ambiguity detection, LQ violation
 * search (value-blind and value-aware), FSQ search and port limits,
 * best-effort buffers, steering, queue management, and the SQ-change
 * wakes that let blocked loads sleep in the issue queue.
 */

#include <gtest/gtest.h>

#include "cpu/iq.hh"
#include "cpu/rob.hh"
#include "lsu/lsu.hh"

using namespace svw;

namespace {

struct LsuFixture : ::testing::Test
{
    LsuFixture() : rob(64) {}

    void build(LsuParams p = LsuParams{})
    {
        svwUnit = std::make_unique<SvwUnit>(SvwConfig{}, reg);
        lsu = std::make_unique<LoadStoreUnit>(p, mem, *svwUnit, reg);
    }

    DynInst &addStore(InstSeqNum seq, Addr addr, unsigned size,
                      std::uint64_t data, bool resolved = true,
                      SSN ssn = 0)
    {
        DynInst d;
        d.setStatic(&st8);
        d.seq = seq;
        d.pc = seq;  // unique PCs
        d.addr = addr;
        d.size = size;
        d.storeData = data;
        d.addrResolved = resolved;
        d.dataResolved = resolved;
        d.issued = resolved;
        d.ssn = ssn ? ssn : seq;
        DynInst &r = rob.push(std::move(d));
        lsu->dispatchStore(r);
        return r;
    }

    DynInst &addLoad(InstSeqNum seq, Addr addr, unsigned size)
    {
        DynInst d;
        d.setStatic(&ld8);
        d.seq = seq;
        d.pc = seq;
        d.addr = addr;
        d.size = size;
        DynInst &r = rob.push(std::move(d));
        lsu->dispatchLoad(r);
        return r;
    }

    StaticInst ld8{Opcode::Ld8, 1, 2, 0, 0};
    StaticInst st8{Opcode::St8, 0, 2, 3, 0};

    stats::StatRegistry reg;
    MemoryImage mem;
    ROB rob;
    std::unique_ptr<SvwUnit> svwUnit;
    std::unique_ptr<LoadStoreUnit> lsu;
};

} // namespace

TEST_F(LsuFixture, LoadReadsCommittedMemoryWithoutStores)
{
    build();
    mem.write(0x100, 8, 0x1234);
    DynInst &ld = addLoad(1, 0x100, 8);
    auto res = lsu->executeLoad(ld, 0);
    EXPECT_EQ(res.status, LoadExecResult::Status::Done);
    EXPECT_EQ(res.value, 0x1234u);
    EXPECT_FALSE(res.forwarded);
}

TEST_F(LsuFixture, FullCoverForwarding)
{
    build();
    addStore(1, 0x100, 8, 0xabcdef);
    DynInst &ld = addLoad(2, 0x100, 8);
    auto res = lsu->executeLoad(ld, 0);
    EXPECT_TRUE(res.forwarded);
    EXPECT_EQ(res.value, 0xabcdefu);
    EXPECT_EQ(res.fwdSsn, 1u);
    EXPECT_EQ(lsu->forwards.value(), 1u);
}

TEST_F(LsuFixture, SubsetForwardExtractsAndZeroExtends)
{
    build();
    addStore(1, 0x100, 8, 0x8877665544332211ull);
    DynInst &ld4 = addLoad(2, 0x104, 4);
    auto res = lsu->executeLoad(ld4, 0);
    EXPECT_TRUE(res.forwarded);
    EXPECT_EQ(res.value, 0x88776655u);
    DynInst &ld1 = addLoad(3, 0x103, 1);
    res = lsu->executeLoad(ld1, 0);
    EXPECT_EQ(res.value, 0x44u);
}

TEST_F(LsuFixture, YoungestMatchingStoreWins)
{
    build();
    addStore(1, 0x100, 8, 111);
    addStore(2, 0x100, 8, 222);
    DynInst &ld = addLoad(3, 0x100, 8);
    auto res = lsu->executeLoad(ld, 0);
    EXPECT_EQ(res.value, 222u);
    EXPECT_EQ(res.fwdSsn, 2u);
}

TEST_F(LsuFixture, YoungerStoreInvisibleToOlderLoad)
{
    build();
    mem.write(0x100, 8, 5);
    DynInst &ld = addLoad(1, 0x100, 8);
    addStore(2, 0x100, 8, 999);
    auto res = lsu->executeLoad(ld, 0);
    EXPECT_FALSE(res.forwarded);
    EXPECT_EQ(res.value, 5u);
}

TEST_F(LsuFixture, PartialOverlapBlocks)
{
    build();
    addStore(1, 0x104, 4, 0xdead);
    DynInst &ld = addLoad(2, 0x100, 8);  // store covers only half
    auto res = lsu->executeLoad(ld, 0);
    EXPECT_EQ(res.status, LoadExecResult::Status::BlockedPartial);
    EXPECT_EQ(lsu->partialBlocks.value(), 1u);
}

TEST_F(LsuFixture, MatchingStoreWithoutDataBlocks)
{
    build();
    DynInst &st = addStore(1, 0x100, 8, 0, true);
    st.dataResolved = false;  // address known, data still in flight
    lsu->refreshSqMirror(st);
    DynInst &ld = addLoad(2, 0x100, 8);
    auto res = lsu->executeLoad(ld, 0);
    EXPECT_EQ(res.status, LoadExecResult::Status::BlockedPartial);
}

TEST_F(LsuFixture, PartialBlocksCountEpisodesNotRetries)
{
    // lsu.partialBlocks counts (load, blocking store) pairs: however
    // often a load retries into the same blocker, that is one episode.
    build();
    DynInst &s1 = addStore(1, 0x100, 8, 0, true);
    s1.dataResolved = false;  // matching store, data still in flight
    lsu->refreshSqMirror(s1);
    DynInst &s2 = addStore(2, 0, 8, 0, /*resolved=*/false);
    DynInst &ld = addLoad(3, 0x100, 8);
    for (Cycle c = 0; c < 4; ++c) {
        auto res = lsu->executeLoad(ld, c);
        EXPECT_EQ(res.status, LoadExecResult::Status::BlockedPartial);
        EXPECT_EQ(res.blocker, 1u);
    }
    EXPECT_EQ(lsu->partialBlocks.value(), 1u);

    // The younger store resolves onto half the load: a new blocker, a
    // new episode.
    s2.addr = 0x104;
    s2.size = 4;
    s2.addrResolved = true;
    lsu->refreshSqMirror(s2);
    for (Cycle c = 4; c < 7; ++c)
        EXPECT_EQ(lsu->executeLoad(ld, c).blocker, 2u);
    EXPECT_EQ(lsu->partialBlocks.value(), 2u);

    // A second load blocked by the same store is its own episode.
    DynInst &ld2 = addLoad(4, 0x100, 8);
    lsu->executeLoad(ld2, 7);
    lsu->executeLoad(ld2, 8);
    EXPECT_EQ(lsu->partialBlocks.value(), 3u);
}

TEST_F(LsuFixture, SqChangesWakeBlockedLoads)
{
    build();
    IssueQueue iq(8, rob.ringSlots());
    lsu->setSqWakeTarget(&iq);
    auto awake = [&](const DynInst &ld) {
        const std::size_t head = rob.headSlot();
        for (std::size_t i = iq.firstAwake(head); i != IssueQueue::npos;
             i = iq.nextAwake(i, head)) {
            if (i == rob.slotOf(ld))
                return true;
        }
        return false;
    };
    auto blockAndSleep = [&](DynInst &ld, Cycle c) {
        auto res = lsu->executeLoad(ld, c);
        ASSERT_EQ(res.status, LoadExecResult::Status::BlockedPartial);
        iq.sleepOnSq(rob.slotOf(ld), res.blocker);
    };

    // Data capture: the blocking store's data arrives.
    DynInst &s1 = addStore(1, 0x100, 8, 0, true);
    s1.dataResolved = false;
    lsu->refreshSqMirror(s1);
    DynInst &l1 = addLoad(2, 0x100, 8);
    iq.insert(&l1, rob.slotOf(l1));
    blockAndSleep(l1, 0);
    EXPECT_FALSE(awake(l1));
    s1.storeData = 77;
    s1.dataResolved = true;
    lsu->storeDataReady(s1);
    EXPECT_TRUE(awake(l1));
    EXPECT_EQ(lsu->executeLoad(l1, 1).value, 77u);
    iq.removeAt(rob.slotOf(l1));

    // Commit: a partial overlap blocks until its store leaves the SQ.
    // Committing an older store than the blocker wakes nothing.
    DynInst &s3 = addStore(3, 0x204, 4, 0xab);
    DynInst &l4 = addLoad(4, 0x200, 8);
    iq.insert(&l4, rob.slotOf(l4));
    blockAndSleep(l4, 2);
    lsu->commitLoad(l1);
    lsu->commitStore(s1);
    EXPECT_FALSE(awake(l4));
    lsu->commitStore(s3);
    EXPECT_TRUE(awake(l4));
    EXPECT_EQ(lsu->executeLoad(l4, 3).status,
              LoadExecResult::Status::Done);
}

TEST_F(LsuFixture, AmbiguousOlderStoreReported)
{
    build();
    addStore(1, 0, 8, 0, /*resolved=*/false);
    mem.write(0x100, 8, 9);
    DynInst &ld = addLoad(2, 0x100, 8);
    auto res = lsu->executeLoad(ld, 0);
    EXPECT_EQ(res.status, LoadExecResult::Status::Done);
    EXPECT_TRUE(res.sawAmbiguousOlderStore);
    EXPECT_EQ(res.value, 9u);  // speculative read of committed state
}

TEST_F(LsuFixture, AmbiguityHiddenBehindYoungerForwarder)
{
    build();
    addStore(1, 0, 8, 0, /*resolved=*/false);  // older ambiguous
    addStore(2, 0x100, 8, 77);                 // younger, resolved
    DynInst &ld = addLoad(3, 0x100, 8);
    auto res = lsu->executeLoad(ld, 0);
    EXPECT_TRUE(res.forwarded);
    // The forwarder is younger than the ambiguity: the load is NOT
    // vulnerable to the unresolved store (natural-filter precision).
    EXPECT_FALSE(res.sawAmbiguousOlderStore);
}

TEST_F(LsuFixture, LqSearchFindsPrematureLoad)
{
    build();
    DynInst &st = addStore(1, 0x100, 8, 1, /*resolved=*/false);
    DynInst &ld = addLoad(2, 0x100, 8);
    auto res = lsu->executeLoad(ld, 0);
    ld.issued = true;
    ld.addrResolved = true;
    ld.loadValue = res.value;
    // The store now resolves to the same address: violation.
    st.addr = 0x100;
    st.size = 8;
    st.addrResolved = true;
    EXPECT_EQ(lsu->storeResolved(st), 2u);
    EXPECT_EQ(lsu->lqViolations.value(), 1u);
}

TEST_F(LsuFixture, LqSearchSkipsUnissuedAndNonOverlapping)
{
    build();
    DynInst &st = addStore(1, 0x100, 8, 1);
    addLoad(2, 0x100, 8);            // never issued
    DynInst &far = addLoad(3, 0x900, 8);
    far.issued = true;
    far.addrResolved = true;
    EXPECT_EQ(lsu->storeResolved(st), 0u);
}

TEST_F(LsuFixture, LqSearchSkipsForwardedFromYoungerStore)
{
    build();
    DynInst &st1 = addStore(1, 0x100, 8, 1, false);
    addStore(2, 0x100, 8, 2);
    DynInst &ld = addLoad(3, 0x100, 8);
    auto res = lsu->executeLoad(ld, 0);
    ld.issued = true;
    ld.addrResolved = true;
    ld.forwarded = res.forwarded;
    ld.fwdStoreSSN = res.fwdSsn;
    ASSERT_TRUE(res.forwarded);
    st1.addr = 0x100;
    st1.addrResolved = true;
    EXPECT_EQ(lsu->storeResolved(st1), 0u)
        << "load took its value from a younger store; no violation";
}

TEST_F(LsuFixture, ValueAwareLqSearchIgnoresSilentStores)
{
    LsuParams p;
    p.lqValueCheck = true;
    build(p);
    mem.write(0x100, 8, 42);
    DynInst &st = addStore(1, 0x100, 8, 42, /*resolved=*/false);
    DynInst &ld = addLoad(2, 0x100, 8);
    auto res = lsu->executeLoad(ld, 0);
    ld.issued = true;
    ld.addrResolved = true;
    ld.loadValue = res.value;  // 42 from memory
    st.addr = 0x100;
    st.addrResolved = true;
    st.dataResolved = true;
    st.storeData = 42;  // silent store
    EXPECT_EQ(lsu->storeResolved(st), 0u);
    st.storeData = 43;  // now a real conflict
    EXPECT_EQ(lsu->storeResolved(st), 2u);
}

TEST_F(LsuFixture, NlqDisablesLqSearch)
{
    LsuParams p;
    p.nlq = true;
    build(p);
    DynInst &st = addStore(1, 0x100, 8, 1, false);
    DynInst &ld = addLoad(2, 0x100, 8);
    lsu->executeLoad(ld, 0);
    ld.issued = true;
    ld.addrResolved = true;
    st.addr = 0x100;
    st.addrResolved = true;
    EXPECT_EQ(lsu->storeResolved(st), 0u);
    EXPECT_EQ(lsu->lqSearches.value(), 0u);
}

TEST_F(LsuFixture, QueueCapacityAndInOrderRelease)
{
    LsuParams p;
    p.lqEntries = 2;
    p.sqEntries = 2;
    build(p);
    addLoad(1, 0x100, 8);
    DynInst &l2 = addLoad(2, 0x108, 8);
    EXPECT_TRUE(lsu->lqFull());
    lsu->commitLoad(*rob.findBySeq(1));
    EXPECT_FALSE(lsu->lqFull());
    // Out-of-order commit is a bug.
    DynInst other = l2;
    other.seq = 99;
    EXPECT_THROW(lsu->commitLoad(other), std::logic_error);
}

TEST_F(LsuFixture, SquashDropsYoungEntries)
{
    build();
    addLoad(1, 0x100, 8);
    addStore(2, 0x200, 8, 1);
    addLoad(3, 0x108, 8);
    addStore(4, 0x208, 8, 2);
    lsu->squashAfter(2);
    EXPECT_EQ(lsu->lqSize(), 1u);
    EXPECT_EQ(lsu->sqSize(), 1u);
    EXPECT_EQ(lsu->youngestStoreSeq(), 2u);
}

// ---------------------------------------------------------------------
// SSQ structures
// ---------------------------------------------------------------------

namespace {

LsuParams
ssqParams()
{
    LsuParams p;
    p.ssq = true;
    p.fsqEntries = 2;
    return p;
}

} // namespace

TEST_F(LsuFixture, SsqUnsteeredLoadIgnoresInFlightStores)
{
    build(ssqParams());
    mem.write(0x100, 8, 5);
    addStore(1, 0x100, 8, 999);       // in flight, unsteered
    DynInst &ld = addLoad(2, 0x100, 8);
    auto res = lsu->executeLoad(ld, 0);
    EXPECT_FALSE(res.forwarded);
    EXPECT_EQ(res.value, 5u) << "stale read; re-execution must catch it";
    EXPECT_TRUE(res.sawAmbiguousOlderStore || true);
}

TEST_F(LsuFixture, SsqBestEffortServesCommittedStores)
{
    build(ssqParams());
    DynInst &st = addStore(1, 0x100, 8, 31);
    mem.write(0x100, 8, 31);   // commit applies the value...
    lsu->commitStore(st);      // ...and inserts the buffer entry
    DynInst &ld = addLoad(2, 0x100, 8);
    auto res = lsu->executeLoad(ld, 0);
    EXPECT_TRUE(res.bestEffort);
    EXPECT_EQ(res.value, 31u);
    EXPECT_EQ(lsu->bestEffortHits.value(), 1u);
}

TEST_F(LsuFixture, SsqBestEffortMasksSubwordStoreData)
{
    // The buffer entry must hold the bytes the store wrote, not the
    // raw source register: a 1-byte store of 0x14E writes 0x4E, and an
    // exact-match 1-byte load must read 0x4E zero-extended. (An SVW-
    // filtered load is never re-executed, so a wrong buffer value
    // would be architecturally visible — found by differential fuzz.)
    build(ssqParams());
    DynInst &st = addStore(1, 0x100, 1, 0x14E);
    mem.write(0x100, 1, 0x14E);
    lsu->commitStore(st);
    DynInst &ld = addLoad(2, 0x100, 1);
    auto res = lsu->executeLoad(ld, 0);
    EXPECT_TRUE(res.bestEffort);
    EXPECT_EQ(res.value, 0x4Eu);
}

TEST_F(LsuFixture, SsqBestEffortDropsEntriesStaleAfterOverlappingCommit)
{
    // A younger committed store partially overlapping an entry makes
    // that entry stale relative to committed memory; serving it would
    // hand an SVW-filtered load a value the cache no longer holds. The
    // overlapped entry must be invalidated, the load served from the
    // cache. (Also found by differential fuzz.)
    build(ssqParams());
    DynInst &st1 = addStore(1, 0x100, 8, 0x1111111111111111ull);
    mem.write(0x100, 8, 0x1111111111111111ull);
    lsu->commitStore(st1);
    DynInst &st2 = addStore(2, 0x101, 2, 0x2222);
    mem.write(0x101, 2, 0x2222);
    lsu->commitStore(st2);

    DynInst &ld = addLoad(3, 0x100, 8);
    auto res = lsu->executeLoad(ld, 0);
    EXPECT_FALSE(res.bestEffort) << "stale entry must not be served";
    EXPECT_EQ(res.value, mem.read(0x100, 8));

    // The overlapping store's own entry survives and is exact-match
    // servable.
    DynInst &ld2 = addLoad(4, 0x101, 2);
    res = lsu->executeLoad(ld2, 0);
    EXPECT_TRUE(res.bestEffort);
    EXPECT_EQ(res.value, 0x2222u);
}

TEST_F(LsuFixture, SteeringBitsRouteLoadsToFsq)
{
    build(ssqParams());
    lsu->trainSteering(/*loadPc=*/7, /*storePc=*/3);
    EXPECT_TRUE(lsu->loadSteeredToFsq(7));
    EXPECT_TRUE(lsu->storeSteeredToFsq(3));
    EXPECT_FALSE(lsu->loadSteeredToFsq(8));

    DynInst &st = addStore(3, 0x100, 8, 55);
    EXPECT_TRUE(st.fsqStore);
    EXPECT_EQ(lsu->fsqSize(), 1u);
    DynInst &ld = addLoad(7, 0x100, 8);
    EXPECT_TRUE(ld.fsqLoad);
    auto res = lsu->executeLoad(ld, 0);
    EXPECT_TRUE(res.forwarded);
    EXPECT_FALSE(res.bestEffort);
    EXPECT_EQ(res.value, 55u);
    EXPECT_EQ(lsu->fsqForwards.value(), 1u);
}

TEST_F(LsuFixture, FsqPortLimitsOneSearchPerCycle)
{
    build(ssqParams());
    lsu->trainSteering(7, 3);
    lsu->trainSteering(8, 3);
    addStore(3, 0x100, 8, 55);
    DynInst &l1 = addLoad(7, 0x100, 8);
    DynInst &l2 = addLoad(8, 0x100, 8);
    auto r1 = lsu->executeLoad(l1, 5);
    auto r2 = lsu->executeLoad(l2, 5);
    EXPECT_EQ(r1.status, LoadExecResult::Status::Done);
    EXPECT_EQ(r2.status, LoadExecResult::Status::BlockedPort);
    // Next cycle the second load gets the port.
    r2 = lsu->executeLoad(l2, 6);
    EXPECT_EQ(r2.status, LoadExecResult::Status::Done);
}

TEST_F(LsuFixture, FsqPartialBlockCountsOncePerEpisode)
{
    // A steered load keeps polling (each attempt claims the FSQ port),
    // but its partial block against one FSQ store is one episode.
    build(ssqParams());
    lsu->trainSteering(7, 3);
    addStore(3, 0x104, 4, 0xdead);
    DynInst &ld = addLoad(7, 0x100, 8);
    for (Cycle c = 10; c < 14; ++c) {
        auto res = lsu->executeLoad(ld, c);
        EXPECT_EQ(res.status, LoadExecResult::Status::BlockedPartial);
        EXPECT_EQ(res.blocker, 3u);
    }
    EXPECT_EQ(lsu->partialBlocks.value(), 1u);
}

TEST_F(LsuFixture, FsqCapacityGatesSteeredStores)
{
    build(ssqParams());
    lsu->trainSteering(7, 3);
    lsu->trainSteering(7, 4);
    DynInst probe;
    StaticInst st8b{Opcode::St8, 0, 2, 3, 0};
    probe.setStatic(&st8b);
    probe.pc = 3;
    EXPECT_FALSE(lsu->fsqFullFor(probe));
    addStore(3, 0x100, 8, 1);
    DynInst &s2 = addStore(4, 0x108, 8, 2);
    EXPECT_TRUE(s2.fsqStore);
    probe.pc = 4;
    EXPECT_TRUE(lsu->fsqFullFor(probe)) << "2-entry FSQ is full";
    probe.pc = 99;  // unsteered stores never stall on the FSQ
    EXPECT_FALSE(lsu->fsqFullFor(probe));
}

TEST_F(LsuFixture, FsqEntryFreedAtCommit)
{
    build(ssqParams());
    lsu->trainSteering(7, 3);
    DynInst &st = addStore(3, 0x100, 8, 1);
    EXPECT_EQ(lsu->fsqSize(), 1u);
    lsu->commitStore(st);
    EXPECT_EQ(lsu->fsqSize(), 0u);
}

TEST_F(LsuFixture, SteeredLoadWithoutFsqProducerReadsCache)
{
    build(ssqParams());
    lsu->trainSteering(7, 3);
    mem.write(0x200, 8, 17);
    DynInst &ld = addLoad(7, 0x200, 8);
    auto res = lsu->executeLoad(ld, 0);
    EXPECT_EQ(res.status, LoadExecResult::Status::Done);
    EXPECT_FALSE(res.forwarded);
    EXPECT_EQ(res.value, 17u);
}
