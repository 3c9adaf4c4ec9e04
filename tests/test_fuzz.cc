/**
 * @file
 * Randomized-program fuzzing: generate random (but halting) programs
 * with dense memory conflicts — random-size loads and stores over a
 * tiny address pool, data-dependent store addresses, unpredictable
 * branches, call/return pairs — and require exact golden-model
 * equivalence under the aggressive machine configurations.
 *
 * This is the adversarial counterpart to the curated workload suite:
 * the tiny address pool maximizes partial overlaps, silent stores,
 * forwarding, ordering violations, false eliminations, and SSBF
 * conflicts all at once.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "base/random.hh"
#include "cpu/core.hh"
#include "func/interp.hh"
#include "harness/config.hh"
#include "harness/runner.hh"
#include "harness/serialize.hh"
#include "prog/builder.hh"
#include "prog/synth.hh"
#include "prog/trace.hh"
#include "prog/workloads/workloads.hh"

using namespace svw;
using namespace svw::harness;

namespace {

// The adversarial generator lives in the shared prog/synth module (it
// doubles as the "mix" workload kind); this file only drives it.
using synth::randomProgram;

struct FuzzCase
{
    std::uint64_t seed;
    const char *configName;
    ExperimentConfig config;
};

std::vector<FuzzCase>
fuzzCases()
{
    std::vector<FuzzCase> cases;
    auto cfg = [](Machine m, OptMode o, SvwMode s) {
        ExperimentConfig c;
        c.machine = m;
        c.opt = o;
        c.svw = s;
        return c;
    };
    const std::pair<const char *, ExperimentConfig> configs[] = {
        {"base", cfg(Machine::EightWide, OptMode::Baseline,
                     SvwMode::None)},
        {"nlqSvw", cfg(Machine::EightWide, OptMode::Nlq, SvwMode::Upd)},
        {"ssqSvw", cfg(Machine::EightWide, OptMode::Ssq, SvwMode::Upd)},
        {"rleSvw", cfg(Machine::FourWide, OptMode::Rle, SvwMode::Upd)},
        {"composed", cfg(Machine::EightWide, OptMode::Composed,
                         SvwMode::Upd)},
    };
    for (std::uint64_t seed = 1; seed <= 6; ++seed)
        for (const auto &[name, c] : configs)
            cases.push_back({seed, name, c});
    // A couple of hostile SVW shapes on one seed each.
    ExperimentConfig wrap = cfg(Machine::EightWide, OptMode::Ssq,
                                SvwMode::Upd);
    wrap.ssnBits = 8;
    cases.push_back({7, "ssqWrap8b", wrap});
    ExperimentConfig tiny = wrap;
    tiny.ssnBits = 16;
    tiny.ssbf.entries = 32;
    cases.push_back({8, "ssqTinySsbf", tiny});
    ExperimentConfig repl = cfg(Machine::EightWide, OptMode::Ssq,
                                SvwMode::Upd);
    repl.svwReplace = true;
    cases.push_back({9, "ssqSvwReplace", repl});
    ExperimentConfig replNlq = cfg(Machine::EightWide, OptMode::Nlq,
                                   SvwMode::Upd);
    replNlq.svwReplace = true;
    cases.push_back({10, "nlqSvwReplace", replNlq});
    return cases;
}

} // namespace

class FuzzGolden : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(FuzzGolden, RandomProgramMatchesInterpreter)
{
    const FuzzCase fc = fuzzCases()[GetParam()];
    Program prog = randomProgram(fc.seed, 24, 150);

    stats::StatRegistry reg;
    Core core(buildParams(fc.config), prog, reg);
    RunOutcome out = core.run(~0ull, 3'000'000);
    ASSERT_TRUE(out.halted)
        << "seed " << fc.seed << " config " << fc.configName;

    Interp golden(prog);
    ASSERT_TRUE(golden.run(out.instructions + 1));
    EXPECT_EQ(out.instructions, golden.counts().insts);
    for (RegIndex a = 0; a < numArchRegs; ++a) {
        ASSERT_EQ(core.archReg(a), golden.reg(a))
            << "r" << a << " seed " << fc.seed << " config "
            << fc.configName;
    }
    ASSERT_TRUE(core.memory().identicalTo(golden.memory()))
        << "seed " << fc.seed << " config " << fc.configName;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FuzzGolden,
    ::testing::Range<std::size_t>(0, fuzzCases().size()),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        const FuzzCase fc = fuzzCases()[info.param];
        return std::string("seed") + std::to_string(fc.seed) + "_" +
            fc.configName;
    });

// ---------------------------------------------------------------------
// Synthetic-generator differential fuzz: every synth kind across a
// seed range, each seed run under one of the aggressive machine
// configurations (rotated so every kind meets every config), with the
// out-of-order core required to match the golden interpreter exactly.
// SVW_FUZZ_SEEDS widens the range (the CI fuzz job sets it; the
// default keeps tier-1 fast while still meeting the >=32-seed bar).
// ---------------------------------------------------------------------

namespace {

unsigned
fuzzSeedCount()
{
    if (const char *env = std::getenv("SVW_FUZZ_SEEDS")) {
        const long v = std::atol(env);
        if (v > 0)
            return static_cast<unsigned>(v);
    }
    return 32;
}

const std::vector<std::pair<const char *, ExperimentConfig>> &
aggressiveConfigs()
{
    static const auto configs = [] {
        auto cfg = [](Machine m, OptMode o, SvwMode s) {
            ExperimentConfig c;
            c.machine = m;
            c.opt = o;
            c.svw = s;
            return c;
        };
        return std::vector<std::pair<const char *, ExperimentConfig>>{
            {"base", cfg(Machine::EightWide, OptMode::Baseline,
                         SvwMode::None)},
            {"nlqSvw", cfg(Machine::EightWide, OptMode::Nlq,
                           SvwMode::Upd)},
            {"ssqSvw", cfg(Machine::EightWide, OptMode::Ssq,
                           SvwMode::Upd)},
            {"rleSvw", cfg(Machine::FourWide, OptMode::Rle,
                           SvwMode::Upd)},
            {"composed", cfg(Machine::EightWide, OptMode::Composed,
                             SvwMode::Upd)},
        };
    }();
    return configs;
}

} // namespace

class SynthDifferential : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(SynthDifferential, CoreMatchesInterpreterAcrossSeeds)
{
    const std::string kind = synth::kindNames()[GetParam()];
    const unsigned seeds = fuzzSeedCount();
    const auto &configs = aggressiveConfigs();

    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        synth::SynthParams p;
        p.kind = kind;
        p.seed = seed;
        const std::string name = synth::canonicalName(p);
        // Through the registry, so the dispatch path is what's fuzzed.
        Program prog = workloads::make(name, 3'000);

        const auto &[cfgName, cfg] = configs[seed % configs.size()];
        stats::StatRegistry reg;
        Core core(buildParams(cfg), prog, reg);
        RunOutcome out = core.run(~0ull, 3'000'000);
        ASSERT_TRUE(out.halted) << name << " config " << cfgName;

        Interp golden(prog);
        ASSERT_TRUE(golden.run(out.instructions + 1))
            << name << " config " << cfgName;
        ASSERT_EQ(out.instructions, golden.counts().insts)
            << name << " config " << cfgName;
        for (RegIndex r = 0; r < numArchRegs; ++r) {
            ASSERT_EQ(core.archReg(r), golden.reg(r))
                << "r" << static_cast<unsigned>(r) << " " << name
                << " config " << cfgName;
        }
        ASSERT_TRUE(core.memory().identicalTo(golden.memory()))
            << name << " config " << cfgName;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, SynthDifferential,
    ::testing::Range<std::size_t>(0, synth::kindNames().size()),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        return synth::kindNames()[info.param];
    });

// ---------------------------------------------------------------------
// Trace record -> replay differential: replaying a recorded trace
// through the full runner must produce a RunResult byte-identical
// (every field of the JSON wire form, cycles included) to the live
// front end's, because the reconstructed program is bit-exact. Also
// cross-checks the recording itself against a fresh interpreter run.
// ---------------------------------------------------------------------

namespace {

struct TraceCase
{
    const char *workload;
    const char *configName;
};

const std::vector<TraceCase> &
traceCases()
{
    static const std::vector<TraceCase> cases = {
        // The 4 paper kernels (acceptance criterion) under two machine
        // shapes each, plus synth recipes under the composed machine.
        {"gzip", "base"},     {"gzip", "ssqSvw"},
        {"mcf", "base"},      {"mcf", "nlqSvw"},
        {"crafty", "base"},   {"crafty", "rleSvw"},
        {"perl.d", "base"},   {"perl.d", "composed"},
        {"synth:chase:3", "composed"},
        {"synth:hashjoin:5:buckets=128", "ssqSvw"},
    };
    return cases;
}

const ExperimentConfig &
configByName(const std::string &name)
{
    for (const auto &[n, c] : aggressiveConfigs())
        if (name == n)
            return c;
    throw std::runtime_error("unknown config " + name);
}

} // namespace

class TraceReplayDifferential
    : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(TraceReplayDifferential, ReplayByteIdenticalToLiveFrontEnd)
{
    const TraceCase tc = traceCases()[GetParam()];
    const std::uint64_t insts = 8'000;
    const std::string path = ::testing::TempDir() + "fuzz_replay_" +
        std::to_string(GetParam()) + ".svwtrace";

    Program live = workloads::make(tc.workload, insts);

    // Record once via the interpreter; sanity-check the recording
    // against an independent interpreter run.
    trace::TraceData t = trace::record(live, tc.workload, 100'000'000);
    {
        Interp check(live);
        ASSERT_TRUE(check.run(t.insts + 1));
        EXPECT_EQ(check.counts().insts, t.counts.insts);
        EXPECT_EQ(check.counts().silentStores, t.counts.silentStores);
        for (unsigned r = 0; r < numArchRegs; ++r)
            ASSERT_EQ(check.reg(r), t.finalRegs[r]) << "r" << r;
    }
    trace::writeFile(path, t);

    const std::string replayName = "trace:" + path;
    Program replay = workloads::make(replayName, insts);

    RunRequest req;
    req.config = configByName(tc.configName);
    req.targetInsts = insts;
    req.goldenCheck = true;

    req.workload = tc.workload;
    RunResult liveRes = runOne(req, live);

    req.workload = replayName;
    RunResult replayRes = runOne(req, replay);

    // Byte-identical modulo the workload name the result is stamped
    // with (the name is the only thing that legitimately differs).
    replayRes.workload = liveRes.workload;
    EXPECT_EQ(runResultToJson(liveRes), runResultToJson(replayRes))
        << tc.workload << " under " << tc.configName;

    std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    RecordReplay, TraceReplayDifferential,
    ::testing::Range<std::size_t>(0, traceCases().size()),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        const TraceCase tc = traceCases()[info.param];
        std::string n = std::string(tc.workload) + "_" + tc.configName;
        for (char &c : n)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

// ---------------------------------------------------------------------
// Squash recovery: the youngest-first walk must be an exact inverse of
// the definitions it undoes, and observing a run (a pipeline tracer)
// must never change it.
// ---------------------------------------------------------------------

namespace {

/** Mirror of one speculative definition, for the undo walk. */
struct DefRecord
{
    RegIndex rd;
    PhysRegIndex prd;
    PhysRegIndex prevPrd;
};

} // namespace

TEST(FuzzSquashRecovery, WalkUndoIsExactInverseOnRandomSquashes)
{
    constexpr unsigned numPhysRegs = 96;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        Random rng(seed * 0x9e3779b9ull + 7);
        RenameState rs(numPhysRegs);
        std::vector<DefRecord> defs;

        // One definition, sharing (integration-style) an earlier
        // definition's still-live register one time in four.
        auto makeDef = [&]() {
            DefRecord rec;
            rec.rd = static_cast<RegIndex>(1 + rng.nextBounded(10));
            rec.prevPrd = rs.map(rec.rd);
            std::vector<PhysRegIndex> live;
            for (const DefRecord &d : defs) {
                if (rs.regs().refCount(d.prd) > 0)
                    live.push_back(d.prd);
            }
            if (!live.empty() && rng.nextBounded(4) == 0) {
                rec.prd = live[rng.nextBounded(
                    static_cast<std::uint32_t>(live.size()))];
                rs.addRef(rec.prd);
            } else {
                rec.prd = rs.alloc();
            }
            rs.speculativeDef(rec.rd, rec.prd);
            defs.push_back(rec);
        };

        // Random prologue: definitions, then commit-style releases of
        // some displaced registers (in order, as commit would).
        const unsigned pre = 1 + rng.nextBounded(20);
        for (unsigned i = 0; i < pre; ++i)
            makeDef();
        std::size_t committed = 0;
        while (committed < defs.size() && rng.nextBounded(3) != 0)
            rs.deref(defs[committed++].prevPrd);

        // The squash point: copy the state, define past it, walk back.
        const RenameState before = rs;
        const std::size_t squashAt = defs.size();
        const unsigned post = 1 + rng.nextBounded(30);
        std::vector<bool> allocated(numPhysRegs, false);
        for (unsigned i = 0; i < post; ++i) {
            const std::size_t freeBefore = rs.freeRegs();
            makeDef();
            if (rs.freeRegs() < freeBefore)
                allocated[defs.back().prd] = true;
        }
        for (std::size_t i = defs.size(); i-- > squashAt;)
            rs.undoDef(defs[i].rd, defs[i].prd, defs[i].prevPrd);

        for (RegIndex r = 0; r < numArchRegs; ++r)
            ASSERT_EQ(rs.map(r), before.map(r)) << "r" << r << " seed "
                                                << seed;
        for (unsigned p = 0; p < numPhysRegs; ++p) {
            ASSERT_EQ(rs.regs().refCount(p), before.regs().refCount(p))
                << "refs p" << p << " seed " << seed;
            // No commits happen past the squash point, so each register
            // allocated there is freed once, by the walk.
            ASSERT_EQ(rs.regs().generation(p),
                      before.regs().generation(p) + (allocated[p] ? 1 : 0))
                << "gen p" << p << " seed " << seed;
        }
        RenameState want = before;
        ASSERT_EQ(rs.freeRegs(), want.freeRegs()) << "seed " << seed;
        while (want.hasFreeReg()) {
            ASSERT_EQ(rs.alloc(), want.alloc())
                << "free-list order diverged, seed " << seed;
        }
    }
}

TEST(FuzzSquashRecovery, TracerNeverChangesARun)
{
    // Same random programs, same config, with and without a pipeline
    // tracer attached: cycles, instructions, architectural state,
    // memory and every printed stat must match exactly. Squash recovery
    // emits the tracer's Squash events from the walk every squash takes
    // anyway, so observing a run never changes its host path or its
    // results.
    const std::pair<const char *, ExperimentConfig> configs[] = {
        {"base", {}},
        {"ssqSvw",
         [] {
             ExperimentConfig c;
             c.opt = OptMode::Ssq;
             c.svw = SvwMode::Upd;
             return c;
         }()},
        {"rleSvw",
         [] {
             ExperimentConfig c;
             c.machine = Machine::FourWide;
             c.opt = OptMode::Rle;
             c.svw = SvwMode::Upd;
             return c;
         }()},
        {"composed",
         [] {
             ExperimentConfig c;
             c.opt = OptMode::Composed;
             c.svw = SvwMode::Upd;
             return c;
         }()},
    };
    for (std::uint64_t seed = 11; seed <= 14; ++seed) {
        Program prog = randomProgram(seed, 24, 120);
        for (const auto &[name, cfg] : configs) {
            const CoreParams params = buildParams(cfg);
            stats::StatRegistry regPlain, regTraced;
            Core plain(params, prog, regPlain);
            Core traced(params, prog, regTraced);
            CountingTracer tracer;
            traced.setTracer(&tracer);
            RunOutcome a = plain.run(~0ull, 3'000'000);
            RunOutcome b = traced.run(~0ull, 3'000'000);

            ASSERT_TRUE(a.halted) << name << " seed " << seed;
            ASSERT_TRUE(b.halted) << name << " seed " << seed;
            EXPECT_GT(plain.branchSquashes.value() +
                          plain.orderingSquashes.value() +
                          plain.rexFlushes.value(),
                      0u)
                << name << " seed " << seed
                << " (the run never squashed; the check exercised no "
                   "recovery)";
            EXPECT_GT(tracer.count(TraceEvent::Squash), 0u)
                << name << " seed " << seed;
            ASSERT_EQ(a.cycles, b.cycles) << name << " seed " << seed;
            ASSERT_EQ(a.instructions, b.instructions)
                << name << " seed " << seed;
            for (RegIndex r = 0; r < numArchRegs; ++r) {
                ASSERT_EQ(plain.archReg(r), traced.archReg(r))
                    << "r" << r << " " << name << " seed " << seed;
            }
            ASSERT_TRUE(plain.memory().identicalTo(traced.memory()))
                << name << " seed " << seed;
            ASSERT_EQ(regPlain.all().size(), regTraced.all().size());
            for (std::size_t i = 0; i < regPlain.all().size(); ++i) {
                const stats::StatBase *sa = regPlain.all()[i];
                const stats::StatBase *sb = regTraced.all()[i];
                ASSERT_EQ(sa->name(), sb->name());
                std::ostringstream osa, osb;
                sa->print(osa);
                sb->print(osb);
                ASSERT_EQ(osa.str(), osb.str())
                    << sa->name() << " diverged: " << name << " seed "
                    << seed;
            }
        }
    }
}
