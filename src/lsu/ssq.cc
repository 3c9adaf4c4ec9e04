/**
 * @file
 * SSQ execution path (Figure 2c): steered loads search the small FSQ
 * (one port); everything else takes its chances with the per-bank
 * best-effort forwarding buffer or the cache. All SSQ loads are marked
 * for re-execution, which is what makes the speculation safe.
 */

#include "base/intmath.hh"
#include "lsu/lsu.hh"

namespace svw {

LoadExecResult
LoadStoreUnit::searchSsq(DynInst &load, Cycle now)
{
    LoadExecResult res;

    // One FSQ search per cycle. Checked before anything else: a
    // rejected load needs none of the rest.
    if (load.fsqLoad) {
        if (now != fsqPortCycle) {
            fsqPortCycle = now;
            fsqPortUsed = 0;
        }
        if (fsqPortUsed >= prm.fsqPorts) {
            res.status = LoadExecResult::Status::BlockedPort;
            return res;
        }
        ++fsqPortUsed;
    }

    // Note ambiguous older stores for statistics/NLQ composition; the
    // SSQ itself marks every load regardless. Youngest-first over the
    // dense SQ mirror, like searchSq.
    for (std::size_t i = sqm.size(); i-- > 0;) {
        if (sqm[i].seq > load.seq)
            continue;
        if (!sqm[i].addrOk) {
            res.sawAmbiguousOlderStore = true;
            break;
        }
    }

    if (load.fsqLoad) {
        // Youngest-first search of FSQ stores older than the load.
        for (std::size_t i = fsq.size(); i-- > 0;) {
            DynInst *st = fsq[i];
            if (st->seq > load.seq)
                continue;
            if (!st->addrResolved)
                continue;
            if (!rangesOverlap(st->addr, st->size, load.addr, load.size))
                continue;
            if (rangeContains(st->addr, st->size, load.addr, load.size) &&
                st->dataResolved) {
                ++hot.fsqForwards;
                res.forwarded = true;
                res.fwdSsn = st->ssn;
                res.value = extractForward(*st, load);
                return res;
            }
            blockPartial(load, st->seq, res);
            return res;
        }
        // Steered but no FSQ producer: fall through to the cache.
        res.value = committed.read(load.addr, load.size);
        return res;
    }

    // Unsteered load: best-effort buffer at the target bank, newest
    // entry first. Exact address/size match required; the entry is not
    // guaranteed to be the architecturally correct producer.
    const unsigned bank = static_cast<unsigned>(load.addr >> 6) & 1;
    const auto &buf = fwdBufs[bank];
    for (auto it = buf.rbegin(); it != buf.rend(); ++it) {
        if (it->addr == load.addr && it->size == load.size) {
            ++hot.bestEffortHits;
            res.forwarded = true;
            res.bestEffort = true;
            res.value = it->value;
            return res;
        }
    }
    res.value = committed.read(load.addr, load.size);
    return res;
}

} // namespace svw
