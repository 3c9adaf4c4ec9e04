/**
 * @file
 * google-benchmark microbenchmarks of the SVW hardware structures: SSBF
 * update/test, SPCT update/lookup, store-sets dispatch path, and
 * integration-table lookup. These quantify the simulator-side cost of
 * each structure (and document their software interfaces); the paper's
 * hardware cost argument (1 KB SSBF + 16-bit field per LQ entry) is in
 * README.md.
 */

#include <benchmark/benchmark.h>

#include "base/random.hh"
#include "harness/serialize.hh"
#include "lsu/spct.hh"
#include "lsu/store_sets.hh"
#include "rle/integration_table.hh"
#include "svw/ssbf.hh"

using namespace svw;

static void
BM_SsbfUpdate(benchmark::State &state)
{
    stats::StatRegistry reg;
    SsbfParams p;
    p.entries = static_cast<unsigned>(state.range(0));
    SSBF ssbf(p, reg);
    Random rng(1);
    SSN ssn = 0;
    for (auto _ : state) {
        ssbf.update(rng.next() & 0xffff8, 8, ++ssn & 0xffff);
    }
}
BENCHMARK(BM_SsbfUpdate)->Arg(128)->Arg(512)->Arg(2048);

static void
BM_SsbfTest(benchmark::State &state)
{
    stats::StatRegistry reg;
    SsbfParams p;
    p.entries = 512;
    p.dualHash = state.range(0) != 0;
    SSBF ssbf(p, reg);
    Random rng(2);
    for (SSN s = 1; s < 4096; ++s)
        ssbf.update(rng.next() & 0xffff8, 8, s & 0xffff);
    bool acc = false;
    for (auto _ : state) {
        acc ^= ssbf.test(rng.next() & 0xffff8, 8, 100);
    }
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_SsbfTest)->Arg(0)->Arg(1);

static void
BM_SpctUpdateLookup(benchmark::State &state)
{
    SPCT spct(512, 8);
    Random rng(3);
    std::uint64_t acc = 0;
    for (auto _ : state) {
        const Addr a = rng.next() & 0xffff8;
        spct.update(a, 8, a ^ 0x123);
        acc += spct.lookup(a);
    }
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_SpctUpdateLookup);

static void
BM_StoreSetsDispatch(benchmark::State &state)
{
    stats::StatRegistry reg;
    StoreSets ss(4096, 256, reg);
    Random rng(4);
    for (int i = 0; i < 256; ++i)
        ss.train(rng.next() & 0xfff, rng.next() & 0xfff);
    InstSeqNum seq = 0;
    std::uint64_t acc = 0;
    for (auto _ : state) {
        const std::uint64_t pc = rng.next() & 0xfff;
        acc += ss.storeDispatched(pc, ++seq);
        acc += ss.loadDependency(pc ^ 1);
        ss.storeResolved(pc, seq);
    }
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_StoreSetsDispatch);

static void
BM_IntegrationTableLookup(benchmark::State &state)
{
    stats::StatRegistry reg;
    RenameState rename(448);
    IntegrationTable it(512, 2, 256, reg);
    Random rng(5);
    std::vector<PhysRegIndex> regs;
    for (int i = 0; i < 64; ++i)
        regs.push_back(rename.alloc());
    for (int i = 0; i < 256; ++i) {
        ItKey k;
        k.op = Opcode::Ld8;
        k.src1 = regs[rng.nextBounded(regs.size())];
        k.src1Gen = rename.regs().generation(k.src1);
        k.imm = static_cast<std::int64_t>(rng.nextBounded(64)) * 8;
        it.insert(k, regs[rng.nextBounded(regs.size())], i, i, rename);
    }
    std::uint64_t acc = 0;
    for (auto _ : state) {
        ItKey k;
        k.op = Opcode::Ld8;
        k.src1 = regs[rng.nextBounded(regs.size())];
        k.src1Gen = rename.regs().generation(k.src1);
        k.imm = static_cast<std::int64_t>(rng.nextBounded(64)) * 8;
        acc += it.lookup(k, rename) != nullptr;
    }
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_IntegrationTableLookup);

/**
 * Sweep-engine wire format: serialize + parse of one lossless
 * RunResult JSON line (the result cache and sweepd streams carry this;
 * it must stay negligible next to even a --quick simulation cell).
 */
static void
BM_RunResultJsonRoundTrip(benchmark::State &state)
{
    harness::RunResult r;
    r.workload = "gzip";
    r.config = "SSQ+SVW+UPD";
    r.cycles = 54257;
    r.insts = 100000;
    r.ipc = 100000.0 / 54257.0;
    r.rexRate = 2.0 / 7.0;
    bool acc = true;
    for (auto _ : state) {
        const std::string line = harness::runResultToJson(r);
        harness::RunResult back;
        acc &= harness::runResultFromJson(line, back);
        benchmark::DoNotOptimize(back);
    }
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RunResultJsonRoundTrip);

BENCHMARK_MAIN();
