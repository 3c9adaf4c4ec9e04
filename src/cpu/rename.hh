/**
 * @file
 * MIPS R10000-style register renaming: map table, free list, and a
 * physical register file that carries values, readiness, reference
 * counts (register integration shares registers), and generation
 * numbers (for O(1) integration-table invalidation).
 *
 * Squash recovery walks the squashed instructions youngest-first and
 * undoes each definition from the instruction's own record (undoDef):
 * a DynInst carries the {rd, prd, prevPrd} triple of the mapping it
 * made, which is all the undo needs.
 */

#ifndef SVW_CPU_RENAME_HH
#define SVW_CPU_RENAME_HH

#include <array>
#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "isa/inst.hh"

namespace svw {

/** Sentinel ready-cycle meaning "value not yet scheduled". */
constexpr Cycle notReady = ~Cycle(0);

/**
 * Physical register file with values and scheduling metadata. Register 0
 * is permanently mapped to architectural r0 and always reads zero.
 */
class PhysRegFile
{
  public:
    explicit PhysRegFile(unsigned numRegs);

    std::uint64_t value(PhysRegIndex p) const { return vals[p]; }
    void setValue(PhysRegIndex p, std::uint64_t v) { vals[p] = v; }

    Cycle readyAt(PhysRegIndex p) const { return ready[p]; }
    void setReadyAt(PhysRegIndex p, Cycle c) { ready[p] = c; }
    bool isReady(PhysRegIndex p, Cycle now) const { return ready[p] <= now; }

    unsigned refCount(PhysRegIndex p) const { return refs[p]; }
    void addRef(PhysRegIndex p) { ++refs[p]; }
    /** @return true if the count dropped to zero (register is dead). */
    bool dropRef(PhysRegIndex p)
    {
        svw_assert(refs[p] > 0, "dropRef of free register ", p);
        return --refs[p] == 0;
    }

    /** Generation bumps on every free; stale consumers can detect reuse. */
    std::uint64_t generation(PhysRegIndex p) const { return gens[p]; }
    void bumpGeneration(PhysRegIndex p) { ++gens[p]; }

    unsigned size() const { return static_cast<unsigned>(vals.size()); }

  private:
    std::vector<std::uint64_t> vals;
    std::vector<Cycle> ready;
    std::vector<unsigned> refs;
    std::vector<std::uint64_t> gens;
};

/**
 * Rename state: speculative map table and free list. The core recovers
 * from a squash by walking the squashed instructions youngest-first and
 * undoing each definition (undoDef).
 */
class RenameState
{
  public:
    /** @param numPhysRegs total physical registers (paper: 448 / 160) */
    explicit RenameState(unsigned numPhysRegs);

    PhysRegFile &regs() { return file; }
    const PhysRegFile &regs() const { return file; }

    PhysRegIndex map(RegIndex arch) const { return mapTable[arch]; }

    bool hasFreeReg() const { return !freeList.empty(); }
    std::size_t freeRegs() const { return freeList.size(); }

    /** Allocate a register (ref count 1, not ready). */
    PhysRegIndex alloc()
    {
        svw_assert(!freeList.empty(), "physical register underflow");
        PhysRegIndex p = freeList.back();
        freeList.pop_back();
        file.addRef(p);
        file.setReadyAt(p, notReady);
        return p;
    }

    /** Release one reference; frees (and bumps generation) at zero.
     * Header-inlined with dropRef: commit releases a displaced mapping
     * per retired writer, so this pair is a per-instruction cost. */
    void deref(PhysRegIndex p)
    {
        if (file.dropRef(p)) {
            file.bumpGeneration(p);
            freeList.push_back(p);
        }
    }

    /** Extra reference for sharing (register integration). */
    void addRef(PhysRegIndex p) { file.addRef(p); }

    // --- speculative definitions -------------------------------------

    /** Point arch reg @p rd at @p p. The caller keeps the displaced
     * mapping (DynInst::prevPrd) for undoDef and commit. */
    void speculativeDef(RegIndex rd, PhysRegIndex p) { mapTable[rd] = p; }

    /**
     * Squash-walk step: undo the definition that pointed @p rd at
     * @p prd, displacing @p prevPrd (restore the mapping, release
     * @p prd). Undoing every squashed definition youngest-first
     * restores the map, reference counts and free-list order exactly.
     */
    void undoDef(RegIndex rd, PhysRegIndex prd, PhysRegIndex prevPrd)
    {
        mapTable[rd] = prevPrd;
        deref(prd);
    }

  private:
    PhysRegFile file;
    std::array<PhysRegIndex, numArchRegs> mapTable;
    std::vector<PhysRegIndex> freeList;
};

} // namespace svw

#endif // SVW_CPU_RENAME_HH
