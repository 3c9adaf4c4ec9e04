/**
 * @file
 * Fetch stage: follows the branch predictor down (possibly wrong) paths,
 * snapshots predictor state for recovery, and models I-cache timing.
 */

#include "base/logging.hh"
#include "cpu/core.hh"

namespace svw {

namespace {

constexpr Addr textBase = 0x8000'0000ull;

} // namespace

void
Core::fetchStage()
{
    if (haltCommitted || fetchStopped || now < fetchResumeCycle)
        return;

    if (fetchQueue.full())
        return;

    // I-cache: probe the line holding the first instruction.
    const Addr line = alignDownAddr(textBase + fetchPc * 4,
                                    prm.mem.l1i.lineBytes);
    if (line != lastFetchLine) {
        const Cycle done = mem.accessInst(line, now);
        lastFetchLine = line;
        if (done > now + prm.mem.l1i.latency) {
            fetchResumeCycle = done;
            return;
        }
    }

    for (unsigned i = 0; i < prm.fetchWidth; ++i) {
        if (fetchPc >= prog.textSize()) {
            // Ran off the program text on a wrong path; wait for the
            // squash that must be coming.
            fetchStopped = true;
            return;
        }

        DynInst d;
        d.seq = ++seqCounter;
        d.pc = static_cast<std::uint32_t>(fetchPc);
        d.setStatic(&prog.inst(fetchPc), preText[fetchPc]);
        DynInstCold c;
        c.bpredSnap = bpred.save();
        d.fetchReadyCycle = now + prm.frontendDepth;

        const StaticInst &si = *d.si;
        if (d.isCondBranch()) {
            const bool taken = bpred.predictDirection(d.pc);
            bpred.speculativeUpdate(taken);
            d.predNextPc = taken ? static_cast<std::uint32_t>(si.imm)
                                 : d.pc + 1;
        } else if (d.isDirectCtrl()) {
            d.predNextPc = static_cast<std::uint32_t>(si.imm);
            if (d.isCall())
                bpred.rasPush(d.pc + 1);
        } else if (d.isIndirectCtrl()) {
            if (si.rs1 == regLink) {
                d.predNextPc = static_cast<std::uint32_t>(bpred.rasPop());
            } else {
                const std::uint64_t t = bpred.btbLookup(d.pc);
                d.predNextPc = t ? static_cast<std::uint32_t>(t)
                                 : d.pc + 1;
                if (!t)
                    ++bpred.btbMisses;
            }
        } else {
            d.predNextPc = d.pc + 1;
        }
        d.actualNextPc = d.predNextPc;  // non-control: always correct

        const bool isHalt = d.isHalt();
        const bool redirects = d.predNextPc != d.pc + 1;
        fetchPc = d.predNextPc;
        if (tracer)
            tracer->event(now, TraceEvent::Fetch, d);
        fetchQueue.push_back(std::move(d));
        fetchColds.push_back(std::move(c));

        if (isHalt) {
            fetchStopped = true;
            return;
        }
        if (redirects)
            return;  // at most one taken branch per fetch cycle
        if (fetchQueue.full())
            return;
    }
}

} // namespace svw
