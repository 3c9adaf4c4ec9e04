#include "cpu/bpred.hh"

#include "base/intmath.hh"
#include "base/logging.hh"

namespace svw {

namespace {

/** Saturating 2-bit counter update. */
void
bump(std::uint8_t &ctr, bool up)
{
    if (up) {
        if (ctr < 3)
            ++ctr;
    } else {
        if (ctr > 0)
            --ctr;
    }
}

} // namespace

BPred::BPred(const BPredParams &p, stats::StatRegistry &reg)
    : lookups(reg, "bpred.lookups", "conditional direction lookups"),
      condMispredicts(reg, "bpred.condMispredicts",
                      "conditional branches trained as mispredicted"),
      btbMisses(reg, "bpred.btbMisses", "BTB lookup misses"),
      btbAssoc(p.btbAssoc)
{
    svw_assert(isPowerOf2(p.hybridEntries), "hybrid size");
    tableMask = p.hybridEntries - 1;
    bimodal.assign(p.hybridEntries, 1);
    gshare.assign(p.hybridEntries, 1);
    chooser.assign(p.hybridEntries, 2);

    svw_assert(p.btbEntries % p.btbAssoc == 0, "btb geometry");
    btbSets = p.btbEntries / p.btbAssoc;
    btbShift = exactLog2(btbSets);
    svw_assert(isPowerOf2(btbSets), "btb sets");
    btb.resize(p.btbEntries);

    ras.assign(p.rasEntries, 0);

    lookups.bind(&hot.lookups);
}

bool
BPred::predictDirection(std::uint64_t pc)
{
    ++hot.lookups;
    const unsigned bi = static_cast<unsigned>(pc & tableMask);
    const unsigned gi = static_cast<unsigned>((pc ^ _ghist) & tableMask);
    const bool bPred = bimodal[bi] >= 2;
    const bool gPred = gshare[gi] >= 2;
    return chooser[bi] >= 2 ? gPred : bPred;
}

void
BPred::speculativeUpdate(bool taken)
{
    _ghist = (_ghist << 1) | (taken ? 1 : 0);
}

void
BPred::train(std::uint64_t pc, bool taken, std::uint64_t ghistAtPredict)
{
    const unsigned bi = static_cast<unsigned>(pc & tableMask);
    const unsigned gi =
        static_cast<unsigned>((pc ^ ghistAtPredict) & tableMask);
    const bool bWas = bimodal[bi] >= 2;
    const bool gWas = gshare[gi] >= 2;
    if (bWas != gWas)
        bump(chooser[bi], gWas == taken);
    bump(bimodal[bi], taken);
    bump(gshare[gi], taken);
}

std::uint64_t
BPred::btbLookup(std::uint64_t pc) const
{
    const unsigned set = static_cast<unsigned>(pc & (btbSets - 1));
    const std::uint64_t tag = pc >> btbShift;
    for (unsigned w = 0; w < btbAssoc; ++w) {
        const BtbEntry &e = btb[set * btbAssoc + w];
        if (e.valid && e.tag == tag)
            return e.target;
    }
    return 0;
}

void
BPred::btbUpdate(std::uint64_t pc, std::uint64_t target)
{
    const unsigned set = static_cast<unsigned>(pc & (btbSets - 1));
    const std::uint64_t tag = pc >> btbShift;
    // Hit: refresh in place.
    for (unsigned w = 0; w < btbAssoc; ++w) {
        BtbEntry &e = btb[set * btbAssoc + w];
        if (e.valid && e.tag == tag) {
            e.target = target;
            e.lru = ++btbLru;
            return;
        }
    }
    // Miss: fill an invalid way, else the LRU way.
    BtbEntry *victim = &btb[set * btbAssoc];
    for (unsigned w = 0; w < btbAssoc; ++w) {
        BtbEntry &e = btb[set * btbAssoc + w];
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.lru < victim->lru)
            victim = &e;
    }
    victim->valid = true;
    victim->tag = tag;
    victim->target = target;
    victim->lru = ++btbLru;
}

void
BPred::rasPush(std::uint64_t returnPc)
{
    rasPtr = (rasPtr + 1) % ras.size();
    ras[rasPtr] = returnPc;
}

std::uint64_t
BPred::rasPop()
{
    const std::uint64_t v = ras[rasPtr];
    rasPtr = (rasPtr + ras.size() - 1) % ras.size();
    return v;
}

void
BPred::restore(std::uint64_t ghist, std::uint32_t rasTop,
               std::uint64_t rasTopVal)
{
    _ghist = ghist;
    rasPtr = rasTop % ras.size();
    ras[rasPtr] = rasTopVal;
}

} // namespace svw
