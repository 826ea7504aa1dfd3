/**
 * @file
 * Figure-harness plumbing tests: paper reference data, report
 * rendering, and one cheap end-to-end harness run.
 *
 * Full-fidelity shape checks run in the bench binaries; here we use
 * minimal effort options and verify structure, not calibration.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/figures.hh"
#include "core/leaves.hh"
#include "core/paper.hh"
#include "core/report.hh"

using namespace middlesim;
using core::FigureOptions;
using core::FigureResult;

TEST(PaperData, SweepAndSeriesAreConsistent)
{
    const auto &sweep = core::paper::cpuSweep();
    ASSERT_FALSE(sweep.empty());
    EXPECT_EQ(sweep.front(), 1.0);
    EXPECT_EQ(sweep.back(), 15.0);
    // Every scaling series covers every sweep point.
    for (const auto &series :
         {core::paper::fig4Ecperf(), core::paper::fig4SpecJbb(),
          core::paper::fig8Ecperf(), core::paper::fig8SpecJbb()}) {
        for (double x : sweep)
            EXPECT_GT(series.yAt(x, -1.0), 0.0) << series.name;
    }
}

TEST(PaperData, HeadlineClaims)
{
    const auto &c = core::paper::claims();
    EXPECT_NEAR(c.ecperfPeakSpeedup, 10.0, 0.5);
    EXPECT_NEAR(c.jbbPlateauSpeedup, 7.0, 0.5);
    EXPECT_GT(c.c2cRatioAt14, c.c2cRatioAt2);
    EXPECT_GT(c.jbbTopLineC2cShare, c.ecperfTopLineC2cShare);
}

TEST(PaperData, Fig16Crossover)
{
    // The digitized reference must itself encode the crossover.
    const auto ec = core::paper::fig16Ecperf();
    const auto jbb = core::paper::fig16SpecJbb25();
    EXPECT_LT(ec.yAt(8), ec.yAt(1));
    EXPECT_GT(jbb.yAt(8), jbb.yAt(1));
}

TEST(FigureOptions, FromEnvQuick)
{
    setenv("MIDDLESIM_QUICK", "1", 1);
    const auto opt = FigureOptions::fromEnv();
    EXPECT_EQ(opt.runs, 1u);
    EXPECT_LT(opt.timeScale, 1.0);
    unsetenv("MIDDLESIM_QUICK");
    setenv("MIDDLESIM_RUNS", "5", 1);
    EXPECT_EQ(FigureOptions::fromEnv().runs, 5u);
    unsetenv("MIDDLESIM_RUNS");
}

TEST(FigureOptions, TimescaleShrinksIntervalsProportionally)
{
    setenv("MIDDLESIM_TIMESCALE", "0.25", 1);
    const FigureOptions quarter = FigureOptions::fromEnv();
    EXPECT_DOUBLE_EQ(quarter.timeScale, 0.25);
    unsetenv("MIDDLESIM_TIMESCALE");
    const FigureOptions full = FigureOptions::fromEnv();
    EXPECT_DOUBLE_EQ(full.timeScale, 1.0);

    // The scaled option must shrink every grid spec's warmup and
    // measure interval by exactly the requested factor.
    const auto leaves_q = core::figureRow("fig16").leaves(quarter);
    const auto leaves_f = core::figureRow("fig16").leaves(full);
    ASSERT_EQ(leaves_q.size(), leaves_f.size());
    ASSERT_FALSE(leaves_q.empty());
    for (std::size_t i = 0; i < leaves_q.size(); ++i) {
        const core::ExperimentSpec &q = leaves_q[i].spec;
        const core::ExperimentSpec &f = leaves_f[i].spec;
        EXPECT_EQ(q.warmup, static_cast<sim::Tick>(
                                static_cast<double>(f.warmup) * 0.25));
        EXPECT_EQ(q.measure, static_cast<sim::Tick>(
                                 static_cast<double>(f.measure) * 0.25));
        EXPECT_LT(q.warmup, f.warmup);
        EXPECT_LT(q.measure, f.measure);
    }

    // Zero and negative values are a fatal error naming the variable.
    setenv("MIDDLESIM_TIMESCALE", "0", 1);
    EXPECT_EXIT(FigureOptions::fromEnv(), ::testing::ExitedWithCode(1),
                "MIDDLESIM_TIMESCALE: '0'");
    setenv("MIDDLESIM_TIMESCALE", "-2", 1);
    EXPECT_EXIT(FigureOptions::fromEnv(), ::testing::ExitedWithCode(1),
                "MIDDLESIM_TIMESCALE: '-2'");
    unsetenv("MIDDLESIM_TIMESCALE");
}

TEST(FigureOptions, FromEnvRejectsMalformedNumbers)
{
    const std::pair<const char *, const char *> bad[] = {
        {"MIDDLESIM_RUNS", "-1"},       {"MIDDLESIM_RUNS", "3x"},
        {"MIDDLESIM_RUNS", "0"},        {"MIDDLESIM_TIMESCALE", "abc"},
        {"MIDDLESIM_TIMESCALE", "nan"}, {"MIDDLESIM_QUICK", "2"},
        {"MIDDLESIM_NUMA_NODES", "0"},  {"MIDDLESIM_DIR_OCCUPANCY", " 1"},
    };
    for (const auto &[name, value] : bad) {
        setenv(name, value, 1);
        EXPECT_EXIT(FigureOptions::fromEnv(), ::testing::ExitedWithCode(1),
                    std::string(name) + ": '" + value + "'")
            << name << "=" << value;
        unsetenv(name);
    }
    // An empty variable counts as unset.
    setenv("MIDDLESIM_RUNS", "", 1);
    EXPECT_EQ(FigureOptions::fromEnv().runs, FigureOptions{}.runs);
    unsetenv("MIDDLESIM_RUNS");
}

TEST(FigureOptions, ValidateRejectsDirectoryKnobsOnTheSnoopBus)
{
    const std::vector<std::string> &paper = core::paperFigures();
    FigureOptions opt;
    opt.validate(paper); // the paper's machine
    opt.dirOccupancy = 4;
    EXPECT_EXIT(opt.validate(paper), ::testing::ExitedWithCode(1),
                "--dir-occupancy");
    opt.protocol = sim::CoherenceProtocol::DirectoryMesi;
    opt.numaNodes = 4;
    opt.validate(paper);
    opt.numaNodes = 3; // does not divide the 16 L2 groups
    EXPECT_EXIT(opt.validate(paper), ::testing::ExitedWithCode(1),
                "numaNodes");
}

TEST(FigureLeaves, EveryLeafCarriesTheMachineOptions)
{
    FigureOptions opt;
    opt.protocol = sim::CoherenceProtocol::DirectoryMesi;
    opt.numaNodes = 2;
    opt.topology = sim::Topology::Mesh;
    opt.dirOccupancy = 4;
    opt.validate(core::paperFigures());
    for (const std::string &id : core::paperFigures()) {
        const std::vector<core::Leaf> leaves =
            core::figureRow(id).leaves(opt);
        ASSERT_FALSE(leaves.empty()) << id;
        for (const core::Leaf &leaf : leaves) {
            const core::ExperimentSpec &s = leaf.spec;
            SCOPED_TRACE(id + " " + core::pointName(s));
            EXPECT_EQ(s.protocol, opt.protocol);
            EXPECT_EQ(s.topology, opt.topology);
            EXPECT_EQ(s.dirOccupancy, opt.dirOccupancy);
            // The documented exceptions: a sweep point is a one-CPU
            // machine, and Fig 16 keeps the node count that divides
            // its L2 groups.
            const unsigned nodes =
                leaf.kind == core::LeafKind::Sweep ? 1u
                : id == "fig16" ? std::gcd(opt.numaNodes,
                                           s.totalCpus / s.cpusPerL2)
                                : opt.numaNodes;
            EXPECT_EQ(s.numaNodes, nodes);
        }
    }
}

TEST(FigureLeaves, ManycoreRefusesMachineOptions)
{
    const std::vector<std::string> manycore = {"fig_manycore"};
    FigureOptions opt;
    opt.validate(manycore);
    opt.protocol = sim::CoherenceProtocol::DirectoryMesi;
    EXPECT_EXIT(opt.validate(manycore), ::testing::ExitedWithCode(1),
                "fig_manycore: --protocol");
    opt = FigureOptions{};
    opt.dirOccupancy = 4;
    EXPECT_EXIT(opt.validate(manycore), ::testing::ExitedWithCode(1),
                "fig_manycore: --dir-occupancy");
}

TEST(Report, RendersTablesAndVerdicts)
{
    FigureResult fig;
    fig.id = "figXX";
    fig.title = "test";
    fig.table = stats::Table({"a", "b"});
    fig.table.addRow({"1", "2"});
    fig.checks.push_back({"always true", true, "ok"});
    std::ostringstream os;
    core::printFigure(fig, os);
    EXPECT_NE(os.str().find("figXX"), std::string::npos);
    EXPECT_NE(os.str().find("[PASS]"), std::string::npos);
    EXPECT_NE(os.str().find("all shape checks passed"),
              std::string::npos);
    EXPECT_TRUE(fig.allPass());
    fig.checks.push_back({"always false", false, "no"});
    EXPECT_FALSE(fig.allPass());
}

TEST(FigureHarness, Fig16RunsAtMinimalEffort)
{
    FigureOptions opt;
    opt.runs = 1;
    opt.timeScale = 0.12;
    opt.seed = 5;
    const FigureResult fig = core::runFig16(opt);
    EXPECT_EQ(fig.id, "fig16");
    EXPECT_EQ(fig.measured.size(), 2u);
    // Four sharing degrees per series.
    EXPECT_EQ(fig.measured[0].points.size(), 4u);
    EXPECT_EQ(fig.table.numRows(), 4u);
    EXPECT_FALSE(fig.checks.empty());
    for (const auto &series : fig.measured) {
        for (const auto &p : series.points)
            EXPECT_GT(p.y, 0.0);
    }
}

TEST(FigureHarness, EachCallRendersItsOwnOptions)
{
    // One process, several option sets: no figure may hand a later
    // caller the results of an earlier one.
    FigureOptions opt;
    opt.runs = 1;
    opt.timeScale = 0.02;
    for (unsigned seed : {1u, 2u}) {
        opt.seed = seed;
        const FigureResult fig = core::runFig14(opt);
        ASSERT_EQ(fig.metricsByPoint.size(), 2u);
        for (const auto &[name, snap] : fig.metricsByPoint) {
            EXPECT_NE(name.find("/seed=" + std::to_string(seed)),
                      std::string::npos)
                << name;
        }
    }
    opt.seed = 1;
    for (sim::CoherenceProtocol protocol :
         {sim::CoherenceProtocol::SnoopBus,
          sim::CoherenceProtocol::DirectoryMesi}) {
        opt.protocol = protocol;
        const FigureResult fig = core::runFig12(opt);
        ASSERT_EQ(fig.metricsByPoint.size(), 4u);
        for (const auto &[name, snap] : fig.metricsByPoint) {
            EXPECT_EQ(name.find("/directory/") != std::string::npos,
                      protocol == sim::CoherenceProtocol::DirectoryMesi)
                << name;
        }
    }
}
