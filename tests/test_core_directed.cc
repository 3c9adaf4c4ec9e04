/**
 * @file
 * Directed core tests: hand-built programs that force specific pipeline
 * events (forwarding, ordering violations, re-execution flushes, SSN
 * wrap drains, NLQ-SM invalidations, loads blocked on the store queue)
 * and check both the event counts (or issue cycles) and the
 * architectural outcome.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "base/random.hh"
#include "cpu/core.hh"
#include "func/interp.hh"
#include "harness/config.hh"
#include "prog/builder.hh"

using namespace svw;
using namespace svw::harness;

namespace {

struct CoreHarness
{
    CoreHarness(Program &&prog, const ExperimentConfig &cfg)
        : program(std::move(prog)),
          core(buildParams(cfg), program, reg)
    {
    }

    CoreHarness(Program &&prog, const CoreParams &params)
        : program(std::move(prog)),
          core(params, program, reg)
    {
    }

    RunOutcome run(std::uint64_t maxCycles = 1'000'000)
    {
        return core.run(~std::uint64_t(0), maxCycles);
    }

    bool matchesGolden()
    {
        Interp golden(program);
        golden.run(core.retiredInstCount());
        for (RegIndex a = 0; a < numArchRegs; ++a)
            if (core.archReg(a) != golden.reg(a))
                return false;
        return core.memory().identicalTo(golden.memory());
    }

    std::uint64_t scalar(const std::string &name)
    {
        auto *s = dynamic_cast<const stats::Scalar *>(reg.find(name));
        return s ? s->value() : 0;
    }

    Program program;
    stats::StatRegistry reg;
    Core core;
};

ExperimentConfig
cfgOf(OptMode opt, SvwMode svw = SvwMode::None,
      Machine m = Machine::EightWide)
{
    ExperimentConfig c;
    c.machine = m;
    c.opt = opt;
    c.svw = svw;
    return c;
}

/** Store->load forwarding microkernel: every load hits a younger store. */
Program
forwardingProgram(int iters)
{
    ProgramBuilder b("fwd");
    Addr buf = b.allocData(64);
    b.loadAddr(1, buf);
    b.movi(2, 0);
    b.movi(3, iters);
    Label loop = b.newLabel();
    b.bind(loop);
    b.addi(4, 2, 100);
    b.st8(4, 1, 0);
    b.ld8(5, 1, 0);     // forwards from the store above
    b.add(6, 6, 5);
    b.addi(2, 2, 1);
    b.blt(2, 3, loop);
    b.halt();
    return b.finish();
}

/**
 * Ordering-violation kernel: a store's address comes off a (slow)
 * dependence chain while a younger load to the same address is ready
 * immediately — the load speculates and reads stale data.
 */
Program
violationProgram(int iters)
{
    ProgramBuilder b("viol");
    Addr slot = b.allocWords({0});
    Addr ptr = b.allocWords({slot});
    b.loadAddr(1, ptr);
    b.loadAddr(7, slot);
    b.movi(2, 0);
    b.movi(3, iters);
    Label loop = b.newLabel();
    b.bind(loop);
    b.ld8(4, 1, 0);       // slow: pointer load produces the store address
    b.mul(5, 2, 2);
    b.addi(5, 5, 1);
    b.st8(5, 4, 0);       // store through the loaded pointer
    b.ld8(6, 7, 0);       // younger load to the same address, ready now
    b.add(8, 8, 6);
    b.addi(2, 2, 1);
    b.blt(2, 3, loop);
    b.halt();
    return b.finish();
}

} // namespace

TEST(CoreDirected, ForwardingSuppliesValues)
{
    CoreHarness h(forwardingProgram(200), cfgOf(OptMode::Baseline));
    auto out = h.run();
    ASSERT_TRUE(out.halted);
    EXPECT_TRUE(h.matchesGolden());
    EXPECT_GT(h.scalar("lsu.forwards"), 150u);
}

TEST(CoreDirected, BaselineLqSearchCatchesViolations)
{
    CoreHarness h(violationProgram(100), cfgOf(OptMode::Baseline));
    auto out = h.run();
    ASSERT_TRUE(out.halted);
    EXPECT_TRUE(h.matchesGolden());
    // Early iterations violate until store-sets learns the pair.
    EXPECT_GT(h.scalar("core.orderingSquashes"), 0u);
    EXPECT_GT(h.scalar("storesets.trainings"), 0u);
}

TEST(CoreDirected, NlqCatchesViolationsByReExecution)
{
    CoreHarness h(violationProgram(100), cfgOf(OptMode::Nlq));
    auto out = h.run();
    ASSERT_TRUE(out.halted);
    EXPECT_TRUE(h.matchesGolden());
    EXPECT_EQ(h.scalar("core.orderingSquashes"), 0u);  // no LQ CAM
    EXPECT_GT(h.scalar("core.rexFlushes"), 0u);
    EXPECT_GT(h.scalar("rex.loadsMarked"), 0u);
}

TEST(CoreDirected, NlqMarksOnlySpeculativeLoads)
{
    CoreHarness h(forwardingProgram(300), cfgOf(OptMode::Nlq));
    auto out = h.run();
    ASSERT_TRUE(out.halted);
    // Forwarding loads see resolved stores: the natural filter keeps
    // the marked-rate far below 100%.
    EXPECT_LT(h.scalar("rex.loadsMarked"),
              h.scalar("core.retiredLoads") / 2);
}

TEST(CoreDirected, SsqMarksEveryLoad)
{
    CoreHarness h(forwardingProgram(300), cfgOf(OptMode::Ssq));
    auto out = h.run();
    ASSERT_TRUE(out.halted);
    EXPECT_TRUE(h.matchesGolden());
    EXPECT_GE(h.scalar("rex.loadsMarked"), h.scalar("core.retiredLoads"));
}

TEST(CoreDirected, SsqSteeringTrainsAndForwards)
{
    CoreHarness h(forwardingProgram(500), cfgOf(OptMode::Ssq));
    auto out = h.run();
    ASSERT_TRUE(out.halted);
    EXPECT_TRUE(h.matchesGolden());
    // The missed first forwarding flushes, trains the steering bits,
    // and subsequent instances use the FSQ.
    EXPECT_GT(h.scalar("lsu.steeringTrainings"), 0u);
    EXPECT_GT(h.scalar("lsu.fsqForwards"), 100u);
    EXPECT_GT(h.scalar("core.fsqLoadsRetired"), 100u);
}

TEST(CoreDirected, SvwFiltersForwardedLoads)
{
    ExperimentConfig cfg = cfgOf(OptMode::Ssq, SvwMode::Upd);
    CoreHarness h(forwardingProgram(500), cfg);
    auto out = h.run();
    ASSERT_TRUE(out.halted);
    EXPECT_TRUE(h.matchesGolden());
    // +UPD: FSQ-forwarded loads shrink their windows and skip rex.
    EXPECT_GT(h.scalar("rex.loadsRexSkippedSvw"),
              h.scalar("core.retiredLoads") / 3);
}

TEST(CoreDirected, RleEliminatesRedundantLoads)
{
    ProgramBuilder b("redundant");
    Addr g = b.allocWords({77});
    b.loadAddr(1, g);
    b.movi(2, 0);
    b.movi(3, 300);
    Label loop = b.newLabel();
    b.bind(loop);
    b.ld8(4, 1, 0);   // same signature every iteration
    b.add(5, 5, 4);
    b.addi(2, 2, 1);
    b.blt(2, 3, loop);
    b.halt();

    CoreHarness h(b.finish(), cfgOf(OptMode::Rle, SvwMode::None,
                                    Machine::FourWide));
    auto out = h.run();
    ASSERT_TRUE(out.halted);
    EXPECT_TRUE(h.matchesGolden());
    EXPECT_GT(h.scalar("core.loadsEliminatedRetired"), 200u);
    // Eliminated loads re-execute (RLE's natural filter).
    EXPECT_GT(h.scalar("rex.loadsReExecuted"), 200u);
}

TEST(CoreDirected, RleBypassesStoreToLoad)
{
    CoreHarness h(forwardingProgram(300),
                  cfgOf(OptMode::Rle, SvwMode::None, Machine::FourWide));
    auto out = h.run();
    ASSERT_TRUE(out.halted);
    EXPECT_TRUE(h.matchesGolden());
    EXPECT_GT(h.scalar("core.elimBypassRetired"), 100u);
}

TEST(CoreDirected, RleSvwFiltersVerifiedEliminations)
{
    CoreHarness h(forwardingProgram(400),
                  cfgOf(OptMode::Rle, SvwMode::Upd, Machine::FourWide));
    auto out = h.run();
    ASSERT_TRUE(out.halted);
    EXPECT_TRUE(h.matchesGolden());
    EXPECT_GT(h.scalar("rex.loadsRexSkippedSvw"), 100u);
}

TEST(CoreDirected, RleCatchesFalseEliminations)
{
    // A load is eliminated against an older load, but a store to the
    // same address intervenes: re-execution must flush.
    ProgramBuilder b("falseElim");
    Addr g = b.allocWords({1});
    Addr idx = b.allocWords({0});
    b.loadAddr(1, g);
    b.loadAddr(9, idx);
    b.movi(2, 0);
    b.movi(3, 200);
    Label loop = b.newLabel();
    b.bind(loop);
    b.ld8(4, 1, 0);     // candidate for reuse
    b.ld8(10, 9, 0);    // slow chain producing the store address...
    b.ld8(11, 10, 0);   // (idx holds 0 -> reads address 0: zero)
    b.add(12, 1, 11);
    b.st8(2, 12, 0);    // store to g through the chain
    b.ld8(5, 1, 0);     // redundant with seq-older load, but stale now
    b.add(6, 6, 5);
    b.addi(2, 2, 1);
    b.blt(2, 3, loop);
    b.halt();

    CoreHarness h(b.finish(), cfgOf(OptMode::Rle, SvwMode::None,
                                    Machine::FourWide));
    auto out = h.run();
    ASSERT_TRUE(out.halted);
    EXPECT_TRUE(h.matchesGolden());
    EXPECT_GT(h.scalar("core.rexFlushes"), 0u);
}

TEST(CoreDirected, WrapDrainTriggersAndStaysCorrect)
{
    // 8-bit SSNs wrap every 255 stores; a store-heavy kernel forces
    // several drains.
    ProgramBuilder b("wrap");
    Addr buf = b.allocData(4096);
    b.loadAddr(1, buf);
    b.movi(2, 0);
    b.movi(3, 2000);
    Label loop = b.newLabel();
    b.bind(loop);
    b.andi(4, 2, 511);
    b.slli(4, 4, 3);
    b.add(4, 4, 1);
    b.st8(2, 4, 0);
    b.ld8(5, 4, 0);
    b.add(6, 6, 5);
    b.addi(2, 2, 1);
    b.blt(2, 3, loop);
    b.halt();

    ExperimentConfig cfg = cfgOf(OptMode::Ssq, SvwMode::Upd);
    cfg.ssnBits = 8;
    CoreHarness h(b.finish(), cfg);
    auto out = h.run(4'000'000);
    ASSERT_TRUE(out.halted);
    EXPECT_TRUE(h.matchesGolden());
    EXPECT_GT(h.scalar("svw.wrapDrains"), 5u);
    EXPECT_GT(h.scalar("core.wrapDrainCycles"), 0u);
}

TEST(CoreDirected, ExternalStoreInvalidationMarksLoads)
{
    // NLQ-SM: an external agent rewrites a flag the program polls.
    ProgramBuilder b("poll");
    Addr flag = b.allocWords({0});
    b.loadAddr(1, flag);
    b.movi(2, 0);
    b.movi(3, 400);
    Label loop = b.newLabel();
    b.bind(loop);
    b.ld8(4, 1, 0);
    b.add(5, 5, 4);
    b.addi(2, 2, 1);
    b.blt(2, 3, loop);
    b.halt();

    ExperimentConfig cfg = cfgOf(OptMode::Nlq, SvwMode::Upd);
    cfg.nlqsm = true;
    CoreHarness h(b.finish(), cfg);
    // Inject a SILENT external write periodically (value unchanged), so
    // the golden model still applies but the machinery must fire.
    h.core.perCycleHook = [&](Core &c) {
        if (c.cycle() % 100 == 50) {
            const std::uint64_t v = c.memory().read(0, 8);
            (void)v;
            c.externalStore(h.program.segments()[0].base, 8,
                            c.memory().read(h.program.segments()[0].base,
                                            8));
        }
    };
    auto out = h.run();
    ASSERT_TRUE(out.halted);
    EXPECT_TRUE(h.matchesGolden());
    EXPECT_GT(h.scalar("core.invalidationsSeen"), 0u);
    EXPECT_GT(h.scalar("rex.loadsMarked"), 0u);
    EXPECT_GT(h.scalar("ssbf.invalidationUpdates"), 0u);
}

TEST(CoreDirected, ExternalStoreValueVisibleToLaterLoads)
{
    // Non-silent external write: the program spins until it observes it
    // (no golden comparison; the observation IS the check).
    ProgramBuilder b("spin");
    Addr flag = b.allocWords({0});
    b.loadAddr(1, flag);
    Label loop = b.newLabel();
    b.bind(loop);
    b.ld8(2, 1, 0);
    b.beq(2, 0, loop);
    b.halt();

    ExperimentConfig cfg = cfgOf(OptMode::Nlq, SvwMode::Upd);
    cfg.nlqsm = true;
    CoreHarness h(b.finish(), cfg);
    Addr flagAddr = h.program.segments()[0].base;
    h.core.perCycleHook = [flagAddr](Core &c) {
        if (c.cycle() == 500)
            c.externalStore(flagAddr, 8, 1);
    };
    auto out = h.run(100'000);
    EXPECT_TRUE(out.halted) << "spin loop never saw the external store";
}

TEST(CoreDirected, DualStorePortsDrainFaster)
{
    // Pure store stream: commit is port-bound.
    ProgramBuilder b("stores");
    Addr buf = b.allocData(1 << 14);
    b.loadAddr(1, buf);
    b.movi(2, 0);
    b.movi(3, 1500);
    Label loop = b.newLabel();
    b.bind(loop);
    b.andi(4, 2, 255);
    b.slli(4, 4, 5);
    b.add(4, 4, 1);
    b.st8(2, 4, 0);   // four stores per iteration: the single commit
    b.st8(2, 4, 8);   // port is the bottleneck
    b.st8(2, 4, 16);
    b.st8(2, 4, 24);
    b.addi(2, 2, 1);
    b.blt(2, 3, loop);
    b.halt();
    Program prog = b.finish();

    // Both configurations issue two stores per cycle so that the commit
    // port is the binding constraint.
    CoreParams one = buildParams(cfgOf(OptMode::Baseline));
    one.lsu.storeIssueWidth = 2;
    one.dcachePorts = 1;
    CoreParams two = one;
    two.dcachePorts = 2;

    Program p1 = prog;
    CoreHarness h1(std::move(p1), one);
    auto o1 = h1.run();
    Program p2 = std::move(prog);
    CoreHarness h2(std::move(p2), two);
    auto o2 = h2.run();
    ASSERT_TRUE(o1.halted && o2.halted);
    EXPECT_LT(o2.cycles, o1.cycles * 9 / 10)
        << "second commit port should help a store-bound kernel";
}

TEST(CoreDirected, MispredictRecoveryExact)
{
    // Data-dependent unpredictable branches with register state that
    // differs across paths: recovery must be exact.
    ProgramBuilder b("branchy");
    std::vector<std::uint64_t> vals(256);
    Random rng(42);
    for (auto &v : vals)
        v = rng.nextBounded(2);
    const Addr tbl = b.allocWords(vals);
    b.loadAddr(1, tbl);
    b.movi(2, 0);
    b.movi(3, 400);
    Label loop = b.newLabel();
    Label odd = b.newLabel();
    Label next = b.newLabel();
    b.bind(loop);
    b.andi(4, 2, 255);
    b.slli(4, 4, 3);
    b.add(4, 4, 1);
    b.ld8(5, 4, 0);
    b.beq(5, 0, odd);
    b.addi(6, 6, 3);
    b.jmp(next);
    b.bind(odd);
    b.addi(6, 6, 7);
    b.bind(next);
    b.addi(2, 2, 1);
    b.blt(2, 3, loop);
    b.halt();

    CoreHarness h(b.finish(), cfgOf(OptMode::Baseline));
    auto out = h.run();
    ASSERT_TRUE(out.halted);
    EXPECT_TRUE(h.matchesGolden());
    EXPECT_GT(h.scalar("core.branchSquashes"), 20u);
}

TEST(CoreDirected, CapsStopRunawayRuns)
{
    ProgramBuilder b("forever");
    Label loop = b.newLabel();
    b.bind(loop);
    b.addi(1, 1, 1);
    b.jmp(loop);
    b.halt();
    CoreHarness h(b.finish(), cfgOf(OptMode::Baseline));
    auto out = h.core.run(1'000, 10'000'000);
    EXPECT_FALSE(out.halted);
    EXPECT_GE(out.instructions, 1'000u);
}

// ---------------------------------------------------------------------
// Loads blocked on the store queue. The issue queue puts them to sleep
// until an SQ entry that can unblock them changes (address resolve,
// data capture, commit); these pin that each one still issues on the
// first cycle the blocking condition clears, as re-polling every cycle
// would.
// ---------------------------------------------------------------------

namespace {

/** Per-seq cycle of each pipeline event (latest incarnation wins). */
class EventLog : public CountingTracer
{
  public:
    struct Inst
    {
        Cycle issue = 0, complete = 0, commit = 0;
        bool issued = false, committed = false, squashed = false;
        bool isLoad = false, isStore = false;
        InstSeqNum storeSetDep = 0;
    };

    void event(Cycle cycle, TraceEvent ev, const DynInst &inst) override
    {
        CountingTracer::event(cycle, ev, inst);
        Inst &r = insts[inst.seq];
        r.isLoad = inst.isLoad();
        r.isStore = inst.isStore();
        switch (ev) {
          case TraceEvent::Issue:
            r.issue = cycle;
            r.issued = true;
            r.storeSetDep = inst.storeSetDep;
            break;
          case TraceEvent::Complete:
            r.complete = cycle;
            break;
          case TraceEvent::Commit:
            r.commit = cycle;
            r.committed = true;
            break;
          case TraceEvent::Squash:
            r.squashed = true;
            break;
          default:
            break;
        }
    }

    std::map<InstSeqNum, Inst> insts;
};

} // namespace

TEST(CoreDirected, LoadBlockedOnLateStoreDataIssuesWhenDataArrives)
{
    // mul (serial chain) -> st8 data; the store's address is ready at
    // once, so the same-address load finds the matching store without
    // its data and blocks until the mul's value is captured.
    ProgramBuilder b("latedata");
    const Addr buf = b.allocData(64);
    b.loadAddr(1, buf);
    b.movi(2, 0);
    b.movi(3, 200);
    b.movi(4, 1);
    b.movi(9, 3);
    Label loop = b.newLabel();
    b.bind(loop);
    b.mul(4, 4, 9);   // seq l-2: the store's data, one mul per iteration
    b.st8(4, 1, 0);   // seq l-1
    b.ld8(5, 1, 0);   // seq l
    b.add(6, 6, 5);
    b.addi(2, 2, 1);
    b.blt(2, 3, loop);
    b.halt();

    CoreHarness h(b.finish(), cfgOf(OptMode::Nlq));
    EventLog log;
    h.core.setTracer(&log);
    ASSERT_TRUE(h.run().halted);
    EXPECT_TRUE(h.matchesGolden());

    unsigned loads = 0, blocked = 0;
    for (const auto &[seq, ld] : log.insts) {
        if (!ld.isLoad || !ld.committed)
            continue;
        const EventLog::Inst &st = log.insts.at(seq - 1);
        const EventLog::Inst &mul = log.insts.at(seq - 2);
        ASSERT_TRUE(st.isStore && st.issued && mul.issued);
        // The data is captured at store issue if the mul is done by
        // then, else on the mul's completion cycle; the load issues on
        // exactly that cycle.
        EXPECT_EQ(ld.issue, std::max(st.issue, mul.complete))
            << "load seq " << seq;
        ++loads;
        if (ld.issue > st.issue)
            ++blocked;
    }
    EXPECT_EQ(loads, 200u);
    EXPECT_GT(blocked, 150u);
    // One block episode per blocked load, not one per waiting cycle.
    EXPECT_EQ(h.scalar("lsu.partialBlocks"), blocked);
}

TEST(CoreDirected, StoreSetWaitIssuesInTheStoresIssueCycle)
{
    // The store's address hangs off a slow mul chain (times zero), the
    // younger same-address load is ready at once: the baseline's LQ
    // search catches the violation, store-sets learns the pair, and
    // later loads wait for the store. The store's data is ready, so a
    // waiting load issues in the very scan that issues its store.
    ProgramBuilder b("storeset");
    const Addr buf = b.allocData(64);
    b.loadAddr(1, buf);
    b.movi(2, 0);
    b.movi(3, 200);
    b.movi(7, 1);
    b.movi(9, 3);
    b.movi(11, 0);
    Label loop = b.newLabel();
    b.bind(loop);
    b.mul(7, 7, 9);
    b.mul(8, 7, 11);  // zero, but only once the chain gets here
    b.add(10, 1, 8);
    b.st8(2, 10, 0);
    b.ld8(5, 1, 0);
    b.add(6, 6, 5);
    b.addi(2, 2, 1);
    b.blt(2, 3, loop);
    b.halt();

    CoreHarness h(b.finish(), cfgOf(OptMode::Baseline));
    EventLog log;
    h.core.setTracer(&log);
    ASSERT_TRUE(h.run().halted);
    EXPECT_TRUE(h.matchesGolden());
    EXPECT_GT(h.scalar("core.orderingSquashes"), 0u);

    unsigned waited = 0;
    for (const auto &[seq, ld] : log.insts) {
        if (!ld.isLoad || !ld.committed || ld.storeSetDep == 0)
            continue;
        const EventLog::Inst &st = log.insts.at(ld.storeSetDep);
        ASSERT_TRUE(st.isStore && st.issued);
        EXPECT_EQ(ld.issue, st.issue) << "load seq " << seq;
        ++waited;
    }
    EXPECT_GT(waited, 150u);
}

TEST(CoreDirected, PartialOverlapWaitsForBlockerCommit)
{
    // A 4-byte store into the upper half of an 8-byte load can never
    // forward: the load waits until the store leaves the SQ at commit,
    // and issues in that same cycle (commit runs before issue).
    auto program = [] {
        ProgramBuilder b("partial");
        const Addr buf = b.allocData(64);
        b.loadAddr(1, buf);
        b.movi(2, 0);
        b.movi(3, 100);
        Label loop = b.newLabel();
        b.bind(loop);
        b.st4(2, 1, 4);
        b.ld8(5, 1, 0);
        b.add(6, 6, 5);
        b.addi(2, 2, 1);
        b.blt(2, 3, loop);
        b.halt();
        return b.finish();
    };

    for (OptMode opt : {OptMode::Baseline, OptMode::Nlq}) {
        CoreHarness h(program(), cfgOf(opt));
        EventLog log;
        h.core.setTracer(&log);
        ASSERT_TRUE(h.run().halted);
        EXPECT_TRUE(h.matchesGolden());
        unsigned loads = 0;
        for (const auto &[seq, ld] : log.insts) {
            if (!ld.isLoad || !ld.committed)
                continue;
            const EventLog::Inst &st = log.insts.at(seq - 1);
            ASSERT_TRUE(st.isStore && st.committed);
            EXPECT_EQ(ld.issue, st.commit) << "load seq " << seq;
            ++loads;
        }
        EXPECT_EQ(loads, 100u);
        EXPECT_EQ(h.scalar("lsu.partialBlocks"), 100u);
    }
}

TEST(CoreDirected, SquashedBlockerTakesItsSleepingLoadAlong)
{
    // Each iteration branches on a pseudo-random bit off a slow mul
    // chain; both paths hold a partially overlapping store/load pair.
    // Mispredictions squash pairs whose load sleeps on its store; the
    // refetched pairs must still issue at their blocker's commit.
    ProgramBuilder b("squashpair");
    const Addr buf = b.allocData(64);
    b.loadAddr(1, buf);
    b.movi(2, 0);
    b.movi(3, 150);
    b.movi(7, 12345);
    b.movi(9, 1103515245);
    Label loop = b.newLabel();
    Label other = b.newLabel();
    Label next = b.newLabel();
    b.bind(loop);
    b.mul(7, 7, 9);
    b.addi(7, 7, 12345);
    b.srli(8, 7, 16);
    b.andi(8, 8, 1);
    b.beq(8, 0, other);
    b.st4(2, 1, 4);
    b.ld8(5, 1, 0);
    b.jmp(next);
    b.bind(other);
    b.st4(2, 1, 12);
    b.ld8(5, 1, 8);
    b.bind(next);
    b.add(6, 6, 5);
    b.addi(2, 2, 1);
    b.blt(2, 3, loop);
    b.halt();

    CoreHarness h(b.finish(), cfgOf(OptMode::Nlq));
    EventLog log;
    h.core.setTracer(&log);
    ASSERT_TRUE(h.run().halted);
    EXPECT_TRUE(h.matchesGolden());
    EXPECT_GT(h.scalar("core.branchSquashes"), 20u);

    unsigned squashedWaiting = 0, loads = 0;
    for (const auto &[seq, ld] : log.insts) {
        if (!ld.isLoad)
            continue;
        const EventLog::Inst &st = log.insts.at(seq - 1);
        ASSERT_TRUE(st.isStore);
        if (ld.squashed && !ld.issued && st.squashed)
            ++squashedWaiting;
        if (ld.committed) {
            EXPECT_EQ(ld.issue, st.commit) << "load seq " << seq;
            ++loads;
        }
    }
    EXPECT_EQ(loads, 150u);
    EXPECT_GT(squashedWaiting, 5u);
}
