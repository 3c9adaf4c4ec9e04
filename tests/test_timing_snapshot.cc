/**
 * @file
 * Timing snapshot: every fig5-fig8 cell at --quick size over the paper
 * and synth rows (--families=all), re-run through the figure registry,
 * must print the lossless RunResult line (cycles, instruction counts,
 * every rate) recorded in tests/data/fig_quick_cells.ndjson, byte for
 * byte. A change meant to be host-side only that moves a single
 * simulated cycle fails here.
 *
 * The reference changes only with an intended timing change. To
 * regenerate it, from a build directory:
 *
 *   for f in fig5_nlqls fig6_ssq fig7_rle fig8_ssbf; do
 *     ./$f --quick --families=all --emit-cells=$f.cells >/dev/null
 *   done
 *   cat fig5_nlqls.cells fig6_ssq.cells fig7_rle.cells fig8_ssbf.cells \
 *     > ../tests/data/fig_quick_cells.ndjson
 */

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "harness/executor.hh"
#include "harness/figures.hh"
#include "harness/serialize.hh"
#include "harness/sweep.hh"

using namespace svw;
using namespace svw::harness;

namespace {

constexpr std::uint64_t quickInsts = 20'000;  // the figures' --quick

std::vector<std::string>
referenceLines()
{
    std::ifstream in(SVW_TEST_DATA_DIR "/fig_quick_cells.ndjson");
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

} // namespace

TEST(TimingSnapshot, FigureCellsMatchCommittedReference)
{
    const std::vector<std::string> want = referenceLines();
    ASSERT_EQ(want.size(), 396u) << "reference file missing or truncated";

    SweepOptions opts;
    opts.threads = 2;  // byte-identical to sequential by construction
    std::vector<std::string> got;
    for (const char *name : {"fig5", "fig6", "fig7", "fig8"}) {
        const FigureDef *fig = findFigure(name);
        ASSERT_NE(fig, nullptr) << name;
        const SweepSpec spec = fig->build(
            familySuite(Families::All, fig->paperSuite()), quickInsts);
        const SweepResults res = runSweep(spec, opts);
        for (std::size_t i = 0; i < spec.size(); ++i) {
            const CellOutcome &o = res.outcome(i);
            ASSERT_TRUE(o.ok) << name << " cell " << i << ": " << o.error;
            got.push_back(runResultToJson(o.result));
        }
    }

    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], want[i]) << "cell line " << i + 1;
}
