/**
 * @file
 * Branch prediction: 8K-entry hybrid (bimodal + gshare + chooser),
 * 2K-entry 2-way BTB, and a return address stack — the paper's front end.
 */

#ifndef SVW_CPU_BPRED_HH
#define SVW_CPU_BPRED_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "stats/stats.hh"

namespace svw {

/** Parameters for the branch prediction unit. */
struct BPredParams
{
    unsigned hybridEntries = 8192;
    unsigned btbEntries = 2048;
    unsigned btbAssoc = 2;
    unsigned rasEntries = 32;
};

/**
 * Speculative front-end predictor state at one point in the instruction
 * stream: the global history register and the RAS top. Taken per branch
 * at fetch and kept in the instruction's cold record; squash recovery
 * restores from it.
 *
 * Restoring only the RAS *top* (not the whole stack) is the paper-era
 * approximation: a wrong-path call/return imbalance deeper than one
 * entry can still corrupt lower stack slots, which real RAS repair
 * schemes accept too.
 */
struct BPredCheckpoint
{
    std::uint64_t ghist = 0;
    std::uint32_t rasTop = 0;
    std::uint64_t rasTopVal = 0;
};

/**
 * Direction + target prediction with checkpoint/restore of speculative
 * history state (global history register and RAS top).
 */
class BPred
{
  public:
    BPred(const BPredParams &params, stats::StatRegistry &reg);

    /** Predict a conditional branch's direction at @p pc. */
    bool predictDirection(std::uint64_t pc);

    /** Speculatively update global history with outcome @p taken. */
    void speculativeUpdate(bool taken);

    /** Commit-time training of the direction tables. */
    void train(std::uint64_t pc, bool taken, std::uint64_t ghistAtPredict);

    /** BTB lookup; @return target or 0 if missing. */
    std::uint64_t btbLookup(std::uint64_t pc) const;
    void btbUpdate(std::uint64_t pc, std::uint64_t target);

    /** RAS push (call) / pop (return). Pop of empty stack returns 0. */
    void rasPush(std::uint64_t returnPc);
    std::uint64_t rasPop();

    // --- checkpoint/restore for squash recovery -----------------------
    std::uint64_t ghist() const { return _ghist; }
    std::uint32_t rasTop() const { return rasPtr; }
    std::uint64_t rasTopValue() const
    {
        // rasPtr is kept in [0, size) by push/pop/restore; no modulo on
        // this per-fetch path.
        return ras.empty() ? 0 : ras[rasPtr];
    }

    /** Snapshot the speculative state (fetch takes one per branch). */
    BPredCheckpoint save() const
    {
        return BPredCheckpoint{_ghist, rasPtr, rasTopValue()};
    }

    void restore(const BPredCheckpoint &ck)
    {
        restore(ck.ghist, ck.rasTop, ck.rasTopVal);
    }

    void restore(std::uint64_t ghist, std::uint32_t rasTop,
                 std::uint64_t rasTopVal);

  public:
    stats::Scalar lookups;
    stats::Scalar condMispredicts;
    stats::Scalar btbMisses;

  private:
    /** Dense hot-loop accumulator for the per-fetch lookup counter,
     * bound to the Scalar above (stats::Scalar::bind). */
    struct HotCounters
    {
        std::uint64_t lookups = 0;
    };
    HotCounters hot;

    struct BtbEntry
    {
        bool valid = false;
        std::uint64_t tag = 0;
        std::uint64_t target = 0;
        std::uint64_t lru = 0;
    };

    unsigned tableMask;
    std::vector<std::uint8_t> bimodal;  ///< 2-bit counters
    std::vector<std::uint8_t> gshare;
    std::vector<std::uint8_t> chooser;  ///< 0..3, >=2 favours gshare
    std::uint64_t _ghist = 0;

    unsigned btbSets;
    unsigned btbShift;  ///< exactLog2(btbSets), cached (tag extraction)
    unsigned btbAssoc;
    std::vector<BtbEntry> btb;
    std::uint64_t btbLru = 0;

    std::vector<std::uint64_t> ras;
    std::uint32_t rasPtr = 0;
};

} // namespace svw

#endif // SVW_CPU_BPRED_HH
