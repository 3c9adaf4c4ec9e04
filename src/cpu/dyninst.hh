/**
 * @file
 * DynInst: the per-dynamic-instruction record shared by every pipeline
 * stage, the load/store unit, the re-execution engine, and SVW.
 *
 * Layout discipline (docs/ARCHITECTURE.md "Data layout"): DynInst is
 * the *hot* record — everything the issue scan, completion drain,
 * commit loop, and LSU associative searches touch — and is budgeted at
 * two cache lines (<= 128 B, enforced below). It is copied once per
 * instruction (fetch queue -> ROB ring) and then walked in place by
 * every stage, so every byte here is multiplied by the window size.
 *
 *  - The ~20 status booleans are 1-bit bitfields sharing one 32-bit
 *    cluster.
 *  - The StaticInst predicate answers (isLoad, writesReg, ...) plus the
 *    instruction class, access size, destination register, and opcode
 *    are pre-decoded into the record at fetch (setStatic), so the
 *    scheduling/completion/commit paths never dereference `si` and the
 *    execute step dispatches through the header-inlined
 *    evalAluOp/evalBranchTakenOp switches on the cached opcode. `si`
 *    itself remains for the immediate and register indices.
 *  - Issue-scan sleep state (retry cycle / blocking register) lives in
 *    the IssueQueue entry mirror, not here: a failed wakeup check is
 *    recorded and re-tested entirely inside the IQ's compact slot
 *    array without touching the DynInst.
 *  - PCs are 32-bit: a "PC" is an index into the program text, which is
 *    nowhere near 4G instructions.
 *  - Load-only and store-only fields overlay each other (anonymous
 *    unions): loadValue/storeData and svw/ssn.
 *  - Rarely-touched state (the fetch-time branch-predictor snapshot,
 *    read only on squash repair and commit-time training) lives in the
 *    DynInstCold side-record, held in arenas parallel to the fetch
 *    queue and the ROB ring (ROB::cold).
 */

#ifndef SVW_CPU_DYNINST_HH
#define SVW_CPU_DYNINST_HH

#include <cstdint>

#include "base/types.hh"
#include "cpu/bpred.hh"
#include "isa/inst.hh"

namespace svw {

/** Why a load was marked for pre-commit re-execution (bitmask). */
enum RexReason : std::uint8_t {
    RexNone    = 0,
    RexNlqSpec = 1 << 0,  ///< issued past an older unresolved store (NLQ-LS)
    RexSsqAll  = 1 << 1,  ///< SSQ marks every load
    RexRleElim = 1 << 2,  ///< load eliminated by register integration
    RexNlqSm   = 1 << 3,  ///< in-flight during a coherence invalidation
};

/**
 * Cold side-record of an in-flight instruction: state no per-cycle loop
 * reads. Lives in a parallel arena (one per fetch-queue slot, one per
 * ROB ring slot — ROB::cold) so the hot record stays within its
 * cache-line budget.
 */
struct DynInstCold
{
    /** Branch-history / RAS snapshot taken at fetch, for squash repair
     * and commit-time direction training. */
    BPredCheckpoint bpredSnap{};
};

/** One in-flight dynamic instruction (hot record; see file comment). */
struct DynInst
{
    // --- identity ----------------------------------------------------
    InstSeqNum seq = 0;
    const StaticInst *si = nullptr;

    // --- cycle fields -------------------------------------------------
    Cycle fetchReadyCycle = 0;   ///< when it exits the front end
    Cycle completeCycle = 0;     ///< result available
    Cycle rexDoneCycle = 0;      ///< re-execution / store rex-stage done

    // --- memory -------------------------------------------------------
    Addr addr = 0;
    union {
        std::uint64_t storeData = 0; ///< store value (stores only)
        std::uint64_t loadValue;     ///< value obtained at execution
                                     ///< (loads only)
    };
    // SSN / SVW (paper sections 3, 3.1-3.5). A store carries its own
    // SSN; a load carries its SVW (SSN of the youngest older store it
    // is NOT vulnerable to). Never both: they overlay.
    union {
        SSN ssn = 0;  ///< store sequence number (stores only)
        SSN svw;      ///< vulnerability-window start (loads only)
    };
    SSN fwdStoreSSN = 0;         ///< SSN of the forwarding store
    InstSeqNum storeSetDep = 0;  ///< store this op must wait for (0 = none)

    // --- control flow (PCs are program-text indices) -------------------
    std::uint32_t pc = 0;
    std::uint32_t predNextPc = 0;
    std::uint32_t actualNextPc = 0;

    // --- rename -------------------------------------------------------
    PhysRegIndex prs1 = invalidPhysReg;
    PhysRegIndex prs2 = invalidPhysReg;
    PhysRegIndex prd = invalidPhysReg;
    PhysRegIndex prevPrd = invalidPhysReg;  ///< old mapping of arch rd

    // --- pre-decoded static-instruction facts (setStatic) --------------
    std::uint16_t preFlags = 0;       ///< PreFlag bits of *si
    std::uint8_t iclass =
        static_cast<std::uint8_t>(InstClass::Nop);  ///< cached si->cls()
    std::uint8_t size = 0;            ///< access size in bytes (mem ops)
    std::uint8_t archRd = 0;          ///< cached si->rd (commit arch
                                      ///< map, squash undo)
    std::uint8_t execLat = 1;         ///< cached si->execLatency()
    std::uint8_t opByte =
        static_cast<std::uint8_t>(Opcode::Nop);  ///< cached si->op: keys
                                     ///< the inlined evalAluOp /
                                     ///< evalBranchTakenOp switches
    std::uint8_t rexReasons = RexNone;

    // --- status flags (one packed 32-bit cluster) ----------------------
    bool actualTaken : 1 = false;  ///< conditional-branch outcome
    bool mispredicted : 1 = false;
    bool dispatched : 1 = false;
    bool issued : 1 = false;
    bool completed : 1 = false;
    bool addrResolved : 1 = false;
    bool dataResolved : 1 = false; ///< store data captured (stores only)
    bool forwarded : 1 = false;    ///< got value from an in-flight store
    bool specExecuted : 1 = false; ///< executed past ambiguity / via a
                                   ///< best-effort structure (value may
                                   ///< be stale)
    bool svwValid : 1 = false;
    bool rexProcessed : 1 = false; ///< passed the rex SVW stage
    bool rexSvwStageDone : 1 = false; ///< SVW stage work performed
    bool rexNeedsCache : 1 = false;///< SVW test positive: awaiting port
    bool rexFiltered : 1 = false;  ///< SVW test negative: skipped cache
    bool forceRealRex : 1 = false; ///< replacement-mode escape hatch:
                                   ///< this load re-executes for real
                                   ///< (it flushed repeatedly on SSBF
                                   ///< hits)
    bool rexDone : 1 = false;      ///< re-execution (if any) finished
    bool rexPassed : 1 = true;     ///< value matched (false => flush)
    bool eliminated : 1 = false;   ///< RLE removed it from execution
    bool elimFromSquash : 1 = false; ///< integrated a squashed incarnation
    bool elimFromBypass : 1 = false; ///< integrated a store's data register
    bool fsqLoad : 1 = false;      ///< steered to the FSQ (SSQ)
    bool fsqStore : 1 = false;     ///< allocated an FSQ entry (SSQ)

    /** Loads: low 32 bits of the seq of the store that last blocked
     * this load (0 = none), so lsu.partialBlocks counts each block
     * episode once. In-flight seqs never lie 2^32 apart. */
    std::uint32_t partialBlocker = 0;

    // --- pre-decoded predicate accessors -------------------------------
    /** Bind the static instruction and cache its pre-decoded facts.
     * Every DynInst must be initialized through this (fetch does; so do
     * tests building instructions by hand). */
    void setStatic(const StaticInst *s)
    {
        setStatic(s, predecodeInst(*s));
    }

    /** Same, from a pre-built table entry (Program::predecoded()) —
     * fetch uses this form so binding is a straight field copy with no
     * per-dynamic-instruction predicate switches. */
    void setStatic(const StaticInst *s, const PreDecodedInst &p)
    {
        si = s;
        preFlags = p.flags;
        iclass = p.cls;
        size = p.memSize;
        archRd = p.archRd;
        execLat = p.execLat;
        opByte = p.op;
    }

    InstClass cls() const { return static_cast<InstClass>(iclass); }
    Opcode opc() const { return static_cast<Opcode>(opByte); }
    bool isLoad() const { return preFlags & PfLoad; }
    bool isStore() const { return preFlags & PfStore; }
    bool isMem() const { return preFlags & PfMem; }
    bool isCondBranch() const { return preFlags & PfCondBranch; }
    bool isDirectCtrl() const { return preFlags & PfDirectCtrl; }
    bool isIndirectCtrl() const { return preFlags & PfIndirectCtrl; }
    bool isCtrl() const { return preFlags & PfCtrl; }
    bool isCall() const { return preFlags & PfCall; }
    bool isHalt() const { return preFlags & PfHalt; }
    bool writesReg() const { return preFlags & PfWritesReg; }
    bool readsRs1() const { return preFlags & PfReadsRs1; }
    bool readsRs2() const { return preFlags & PfReadsRs2; }
    unsigned execLatency() const { return execLat; }

    bool marked() const { return rexReasons != RexNone; }
};

/**
 * The hot-record budget: two cache lines. Growing past it silently
 * multiplies across the ROB ring, fetch queue, and every pointer walk —
 * move the new field to DynInstCold instead (or argue the budget up
 * here *and* in docs/ARCHITECTURE.md, and re-measure with perfbench).
 */
static_assert(sizeof(DynInst) <= 128,
              "DynInst hot record exceeds its 128-byte budget");

} // namespace svw

#endif // SVW_CPU_DYNINST_HH
