/**
 * @file
 * The figure renderers: each fetches its figure's leaves
 * (core/leaves.hh) and derives the series, table and shape checks.
 */

#include "core/figures.hh"

#include <cmath>

#include "core/leaves.hh"
#include "core/paper.hh"
#include "core/report.hh"
#include "sim/parse.hh"

namespace middlesim::core
{

namespace
{

using stats::Series;
using stats::Table;

/** Mean of a metric over repeated runs. */
double
meanOf(const std::vector<RunResult> &runs,
       const std::function<double(const RunResult &)> &metric)
{
    return summarize(runs, metric).mean();
}

double
stdOf(const std::vector<RunResult> &runs,
      const std::function<double(const RunResult &)> &metric)
{
    return summarize(runs, metric).stddev();
}

double
dataMpki(const RunResult &r)
{
    return 1000.0 * static_cast<double>(r.cache.dataMisses) /
           static_cast<double>(r.cpi.instructions);
}

/** The payloads of figure `fig.id`'s leaves, their metrics recorded. */
template <typename Payload>
std::vector<Payload>
fetchFigure(FigureResult &fig, const FigureOptions &opt)
{
    return fetchPayloads<Payload>(figureRow(fig.id).leaves(opt),
                                  fig.metricsByPoint);
}

/** One CPU count of the Figure 4-9 scaling sweep. */
struct ScalingPoint
{
    unsigned cpus = 0;
    std::vector<RunResult> ecperf;
    std::vector<RunResult> jbb;
};

/** The scaling sweep of figure `fig.id`, its metrics recorded. */
std::vector<ScalingPoint>
scalingSweep(FigureResult &fig, const FigureOptions &opt)
{
    // Per CPU count: opt.runs runs of ECperf, then of SPECjbb.
    const std::vector<Leaf> leaves = figureRow(fig.id).leaves(opt);
    const std::vector<RunResult> runs =
        fetchPayloads<RunResult>(leaves, fig.metricsByPoint);
    std::vector<ScalingPoint> sweep;
    for (std::size_t i = 0; i < runs.size(); i += 2 * opt.runs) {
        const auto next = runs.begin() + static_cast<std::ptrdiff_t>(i);
        ScalingPoint point;
        point.cpus = leaves[i].spec.appCpus;
        point.ecperf.assign(next, next + opt.runs);
        point.jbb.assign(next + opt.runs, next + 2 * opt.runs);
        sweep.push_back(std::move(point));
    }
    return sweep;
}

} // namespace

std::vector<sim::Flag>
FigureOptions::flags()
{
    return {
        {nullptr, "MIDDLESIM_RUNS", "N", "runs per measured point (3)",
         sim::store(runs, 1, kMaxRuns)},
        {nullptr, "MIDDLESIM_QUICK", nullptr,
         "1 = one run per point, half-length intervals",
         [this](const std::string &, const std::string &) {
             runs = 1;
             timeScale = 0.5;
         }},
        {nullptr, "MIDDLESIM_TIMESCALE", "F",
         "scale every warmup/measure interval by F",
         [this](const std::string &what, const std::string &text) {
             timeScale = sim::parsePositive(what, text, kMaxTimeScale);
         }},
        {"protocol", "MIDDLESIM_PROTOCOL", "snoop|directory",
         "coherence protocol of every point",
         [this](const std::string &what, const std::string &text) {
             protocol = sim::parseProtocol(what, text);
         }},
        {"numa-nodes", "MIDDLESIM_NUMA_NODES", "N",
         "NUMA nodes (directory only)",
         sim::store(numaNodes, 1, kMaxNumaNodes)},
        {"topology", "MIDDLESIM_TOPOLOGY", "ring|mesh",
         "node interconnect (directory only)",
         [this](const std::string &what, const std::string &text) {
             topology = sim::parseTopology(what, text);
         }},
        {"dir-occupancy", "MIDDLESIM_DIR_OCCUPANCY", "N",
         "in-flight slots per directory home (0 = no contention)",
         sim::store(dirOccupancy, 0, kMaxDirOccupancy)},
    };
}

FigureOptions
FigureOptions::fromEnv()
{
    FigureOptions opt;
    sim::applyEnv(opt.flags());
    return opt;
}

void
FigureOptions::validate(const std::vector<std::string> &figures) const
{
    // Checking every leaf here reports a conflict once, instead of
    // once per pool thread that builds a System.
    for (const std::string &id : figures) {
        for (const Leaf &leaf : figureRow(id).leaves(*this))
            machineConfig(leaf.spec).validate();
    }
}

// ---------------------------------------------------------------------
// Figure 4: throughput scaling
// ---------------------------------------------------------------------

FigureResult
runFig04(const FigureOptions &opt)
{
    FigureResult fig;
    fig.id = "fig04";
    fig.title = "Throughput scaling on a Sun E6000 (speedup vs 1 CPU)";
    const std::vector<ScalingPoint> sweep = scalingSweep(fig, opt);

    auto tput = [](const RunResult &r) { return r.throughput; };
    const double ec_base = meanOf(sweep.front().ecperf, tput);
    const double jbb_base = meanOf(sweep.front().jbb, tput);

    Series ec("ecperf"), jbb("specjbb");
    Table table({"cpus", "ecperf", "+-", "specjbb", "+-",
                 "paper-ec", "paper-jbb"});
    for (const auto &p : sweep) {
        const double e = meanOf(p.ecperf, tput) / ec_base;
        const double es = stdOf(p.ecperf, tput) / ec_base;
        const double j = meanOf(p.jbb, tput) / jbb_base;
        const double js = stdOf(p.jbb, tput) / jbb_base;
        ec.add(p.cpus, e, es);
        jbb.add(p.cpus, j, js);
        table.addRow({fmt(p.cpus, 0), fmt(e), fmt(es), fmt(j), fmt(js),
                      fmt(paper::fig4Ecperf().yAt(p.cpus)),
                      fmt(paper::fig4SpecJbb().yAt(p.cpus))});
    }

    const double ec8 = ec.yAt(8), jbb10 = jbb.yAt(10);
    const double jbb15 = jbb.yAt(15), ec15 = ec.yAt(15);
    const double ec_peak = ec.maxY();
    fig.checks.push_back({
        "ECperf scales super-linearly to 8 CPUs", ec8 >= 7.2,
        "speedup(8)=" + fmt(ec8)});
    fig.checks.push_back({
        "ECperf gains little beyond 12 CPUs",
        ec15 <= ec.yAt(12) * 1.15,
        "speedup(12)=" + fmt(ec.yAt(12)) + " speedup(15)=" + fmt(ec15)});
    fig.checks.push_back({
        "SPECjbb scales sub-linearly and flattens",
        jbb10 <= 9.0 && jbb15 <= jbb10 * 1.5,
        "speedup(10)=" + fmt(jbb10) + " speedup(15)=" + fmt(jbb15)});
    fig.checks.push_back({
        "ECperf outscales SPECjbb at its peak", ec_peak > jbb.maxY(),
        "ecperf peak=" + fmt(ec_peak) + " jbb peak=" + fmt(jbb.maxY())});

    fig.measured = {ec, jbb};
    fig.paperRef = {paper::fig4Ecperf(), paper::fig4SpecJbb()};
    fig.table = table;
    return fig;
}

// ---------------------------------------------------------------------
// Figure 5: execution mode breakdown
// ---------------------------------------------------------------------

FigureResult
runFig05(const FigureOptions &opt)
{
    FigureResult fig;
    fig.id = "fig05";
    fig.title = "Execution mode breakdown vs number of processors (%)";
    const std::vector<ScalingPoint> sweep = scalingSweep(fig, opt);

    auto frac = [](const RunResult &r, sim::Tick os::ModeBreakdown::*m) {
        return 100.0 * r.modes.fraction(r.modes.*m);
    };

    Series ec_user("ecperf-user"), ec_sys("ecperf-system"),
        ec_idle("ecperf-idle"), ec_gc("ecperf-gcidle");
    Series jbb_user("specjbb-user"), jbb_sys("specjbb-system"),
        jbb_idle("specjbb-idle"), jbb_gc("specjbb-gcidle");

    Table table({"cpus", "ec-user", "ec-sys", "ec-idle", "ec-gcidle",
                 "jbb-user", "jbb-sys", "jbb-idle", "jbb-gcidle"});
    for (const auto &p : sweep) {
        auto m = [&](const std::vector<RunResult> &rs,
                     sim::Tick os::ModeBreakdown::*field) {
            return meanOf(rs, [&](const RunResult &r) {
                return frac(r, field);
            });
        };
        const double eu = m(p.ecperf, &os::ModeBreakdown::user);
        const double es = m(p.ecperf, &os::ModeBreakdown::system);
        const double ei = m(p.ecperf, &os::ModeBreakdown::idle);
        const double eg = m(p.ecperf, &os::ModeBreakdown::gcIdle);
        const double ju = m(p.jbb, &os::ModeBreakdown::user);
        const double js = m(p.jbb, &os::ModeBreakdown::system);
        const double ji = m(p.jbb, &os::ModeBreakdown::idle);
        const double jg = m(p.jbb, &os::ModeBreakdown::gcIdle);
        ec_user.add(p.cpus, eu);
        ec_sys.add(p.cpus, es);
        ec_idle.add(p.cpus, ei);
        ec_gc.add(p.cpus, eg);
        jbb_user.add(p.cpus, ju);
        jbb_sys.add(p.cpus, js);
        jbb_idle.add(p.cpus, ji);
        jbb_gc.add(p.cpus, jg);
        table.addRow({fmt(p.cpus, 0), fmt(eu, 1), fmt(es, 1),
                      fmt(ei, 1), fmt(eg, 1), fmt(ju, 1), fmt(js, 1),
                      fmt(ji, 1), fmt(jg, 1)});
    }

    // Part of the system-time rise is bus queueing inside kernel
    // paths; the directory plane removes it, so the growth floor
    // softens there (the absolute 20% floor still applies).
    const bool fig5_bus =
        opt.protocol == sim::CoherenceProtocol::SnoopBus;
    fig.checks.push_back({
        "ECperf system time grows substantially with CPUs",
        ec_sys.yAt(15) >= (fig5_bus ? 2.2 : 1.8) * ec_sys.yAt(1) &&
            ec_sys.yAt(15) >= 20.0,
        "system(1)=" + fmt(ec_sys.yAt(1), 1) + "% system(15)=" +
            fmt(ec_sys.yAt(15), 1) + "%"});
    fig.checks.push_back({
        "SPECjbb spends essentially no system time",
        jbb_sys.yAt(15) <= 6.0,
        "system(15)=" + fmt(jbb_sys.yAt(15), 1) + "%"});
    fig.checks.push_back({
        "Significant non-GC idle time appears on large systems",
        jbb_idle.yAt(15) >= 12.0,
        "jbb idle(15)=" + fmt(jbb_idle.yAt(15), 1) + "%"});
    fig.checks.push_back({
        "GC idle is a minor slice of total idle",
        jbb_gc.yAt(15) <= jbb_idle.yAt(15),
        "gcidle(15)=" + fmt(jbb_gc.yAt(15), 1) + "% idle(15)=" +
            fmt(jbb_idle.yAt(15), 1) + "%"});

    fig.measured = {ec_user, ec_sys, ec_idle, ec_gc,
                    jbb_user, jbb_sys, jbb_idle, jbb_gc};
    fig.paperRef = {paper::fig5EcperfSystem(), paper::fig5EcperfIdle(),
                    paper::fig5SpecJbbSystem(),
                    paper::fig5SpecJbbIdle()};
    fig.table = table;
    return fig;
}

// ---------------------------------------------------------------------
// Figure 6: CPI breakdown
// ---------------------------------------------------------------------

FigureResult
runFig06(const FigureOptions &opt)
{
    FigureResult fig;
    fig.id = "fig06";
    fig.title = "CPI breakdown vs number of processors";
    const std::vector<ScalingPoint> sweep = scalingSweep(fig, opt);

    Series ec_cpi("ecperf-cpi"), jbb_cpi("specjbb-cpi");
    Series ec_ds("ecperf-datastall"), jbb_ds("specjbb-datastall");
    Series ec_is("ecperf-istall"), jbb_is("specjbb-istall");

    Table table({"cpus", "ec-cpi", "ec-istall", "ec-dstall",
                 "jbb-cpi", "jbb-istall", "jbb-dstall",
                 "paper-ec-cpi", "paper-jbb-cpi"});
    for (const auto &p : sweep) {
        auto cpi = [](const RunResult &r) { return r.cpi.cpi(); };
        auto dstall = [](const RunResult &r) {
            return r.cpi.cpi() * r.cpi.fraction(r.cpi.dataStall());
        };
        auto istall = [](const RunResult &r) {
            return r.cpi.cpi() * r.cpi.fraction(r.cpi.iStall);
        };
        const double ec = meanOf(p.ecperf, cpi);
        const double ed = meanOf(p.ecperf, dstall);
        const double ei = meanOf(p.ecperf, istall);
        const double jc = meanOf(p.jbb, cpi);
        const double jd = meanOf(p.jbb, dstall);
        const double ji = meanOf(p.jbb, istall);
        ec_cpi.add(p.cpus, ec, stdOf(p.ecperf, cpi));
        jbb_cpi.add(p.cpus, jc, stdOf(p.jbb, cpi));
        ec_ds.add(p.cpus, ed);
        jbb_ds.add(p.cpus, jd);
        ec_is.add(p.cpus, ei);
        jbb_is.add(p.cpus, ji);
        table.addRow({fmt(p.cpus, 0), fmt(ec), fmt(ei), fmt(ed),
                      fmt(jc), fmt(ji), fmt(jd),
                      fmt(paper::fig6EcperfCpi().yAt(p.cpus)),
                      fmt(paper::fig6SpecJbbCpi().yAt(p.cpus))});
    }

    // Residual gap (EXPERIMENTS.md): the paper reports +40%/+33%;
    // our sparser reference stream yields a shallower but clearly
    // monotone rise driven by memory-system stalls. The paper's
    // growth figures are for a snooping bus; a directory machine has
    // no shared-bus queueing, so its CPI rise is milder — that is the
    // point of a directory — and the floor softens accordingly.
    const double ec_growth = ec_cpi.yAt(15) / ec_cpi.yAt(1);
    const double jbb_growth = jbb_cpi.yAt(15) / jbb_cpi.yAt(1);
    const bool on_bus = opt.protocol == sim::CoherenceProtocol::SnoopBus;
    fig.checks.push_back({
        "CPI grows with processor count (both workloads)",
        ec_growth > (on_bus ? 1.08 : 1.02) &&
            jbb_growth > (on_bus ? 1.03 : 1.02),
        "ecperf x" + fmt(ec_growth) + " jbb x" + fmt(jbb_growth)});
    fig.checks.push_back({
        "Memory-system stalls drive the CPI increase",
        (ec_ds.yAt(15) - ec_ds.yAt(1)) >
            0.5 * (ec_is.yAt(15) - ec_is.yAt(1)) &&
        (jbb_ds.yAt(15) - jbb_ds.yAt(1)) >
            (jbb_is.yAt(15) - jbb_is.yAt(1)),
        "ec dstall " + fmt(ec_ds.yAt(1)) + "->" + fmt(ec_ds.yAt(15)) +
            ", jbb dstall " + fmt(jbb_ds.yAt(1)) + "->" +
            fmt(jbb_ds.yAt(15))});
    fig.checks.push_back({
        "CPIs are moderate for commercial workloads (< 3.2)",
        ec_cpi.maxY() < 3.2 && jbb_cpi.maxY() < 3.2,
        "max ec=" + fmt(ec_cpi.maxY()) + " max jbb=" +
            fmt(jbb_cpi.maxY())});

    fig.measured = {ec_cpi, jbb_cpi, ec_ds, jbb_ds, ec_is, jbb_is};
    fig.paperRef = {paper::fig6EcperfCpi(), paper::fig6SpecJbbCpi()};
    fig.table = table;
    return fig;
}

// ---------------------------------------------------------------------
// Figure 7: data stall decomposition
// ---------------------------------------------------------------------

FigureResult
runFig07(const FigureOptions &opt)
{
    FigureResult fig;
    fig.id = "fig07";
    fig.title = "Data stall time decomposition vs processors";
    const std::vector<ScalingPoint> sweep = scalingSweep(fig, opt);

    Series ec_c2c("ecperf-c2c-share"), jbb_c2c("specjbb-c2c-share");
    Series ec_mem("ecperf-mem-share"), jbb_mem("specjbb-mem-share");

    Table table({"cpus", "wl", "storebuf", "raw", "l2hit", "c2c",
                 "mem", "other"});
    auto addRows = [&](const char *wl,
                       const std::vector<RunResult> &runs,
                       unsigned cpus, Series &c2c_series,
                       Series &mem_series) {
        auto share = [&](sim::Tick cpu::CpiBreakdown::*field) {
            return meanOf(runs, [&](const RunResult &r) {
                const double ds =
                    static_cast<double>(r.cpi.dataStall());
                return ds > 0
                    ? static_cast<double>(r.cpi.*field) / ds
                    : 0.0;
            });
        };
        const double sb = share(&cpu::CpiBreakdown::dsStoreBuf);
        const double raw = share(&cpu::CpiBreakdown::dsRaw);
        const double l2 = share(&cpu::CpiBreakdown::dsL2Hit);
        const double c2c = share(&cpu::CpiBreakdown::dsC2C);
        const double mem = share(&cpu::CpiBreakdown::dsMemory);
        const double other = share(&cpu::CpiBreakdown::dsOther);
        c2c_series.add(cpus, c2c);
        mem_series.add(cpus, mem);
        table.addRow({fmt(cpus, 0), wl, fmt(sb), fmt(raw), fmt(l2),
                      fmt(c2c), fmt(mem), fmt(other)});
    };

    for (const auto &p : sweep) {
        addRows("ecperf", p.ecperf, p.cpus, ec_c2c, ec_mem);
        addRows("specjbb", p.jbb, p.cpus, jbb_c2c, jbb_mem);
    }

    fig.checks.push_back({
        "c2c share of data stall grows with processors",
        ec_c2c.yAt(15) > ec_c2c.yAt(2) &&
            jbb_c2c.yAt(15) > jbb_c2c.yAt(2),
        "ec " + fmt(ec_c2c.yAt(2)) + "->" + fmt(ec_c2c.yAt(15)) +
            ", jbb " + fmt(jbb_c2c.yAt(2)) + "->" +
            fmt(jbb_c2c.yAt(15))});
    fig.checks.push_back({
        "c2c transfers are a major data-stall component at scale",
        ec_c2c.yAt(15) >= 0.25 && jbb_c2c.yAt(15) >= 0.12,
        "ec(15)=" + fmt(ec_c2c.yAt(15)) + " jbb(15)=" +
            fmt(jbb_c2c.yAt(15))});

    // Store-buffer and RAW stalls as fractions of *total execution*:
    // the paper reports 1-2% and ~1%.
    auto exec_share = [&](const std::vector<RunResult> &runs,
                          sim::Tick cpu::CpiBreakdown::*field) {
        return meanOf(runs, [&](const RunResult &r) {
            return r.cpi.fraction(r.cpi.*field);
        });
    };
    const auto &big = sweep.back();
    const double sb_exec =
        exec_share(big.jbb, &cpu::CpiBreakdown::dsStoreBuf);
    const double raw_exec =
        exec_share(big.jbb, &cpu::CpiBreakdown::dsRaw);
    fig.checks.push_back({
        "store buffer stalls are a small fraction of execution",
        sb_exec < 0.05, "storebuf=" + fmt(100 * sb_exec, 2) + "%"});
    fig.checks.push_back({
        "RAW hazard stalls are a small fraction of execution",
        raw_exec < 0.04, "raw=" + fmt(100 * raw_exec, 2) + "%"});

    fig.measured = {ec_c2c, jbb_c2c, ec_mem, jbb_mem};
    fig.paperRef = {paper::fig7EcperfC2cShare(),
                    paper::fig7SpecJbbC2cShare()};
    fig.table = table;
    return fig;
}

// ---------------------------------------------------------------------
// Figure 8: cache-to-cache transfer ratio
// ---------------------------------------------------------------------

FigureResult
runFig08(const FigureOptions &opt)
{
    FigureResult fig;
    fig.id = "fig08";
    fig.title = "Cache-to-cache transfer ratio (% of L2 misses)";
    const std::vector<ScalingPoint> sweep = scalingSweep(fig, opt);

    auto ratio = [](const RunResult &r) {
        return 100.0 * r.cache.c2cRatio();
    };

    Series ec("ecperf"), jbb("specjbb");
    Table table({"cpus", "ecperf", "+-", "specjbb", "+-", "paper-ec",
                 "paper-jbb"});
    for (const auto &p : sweep) {
        const double e = meanOf(p.ecperf, ratio);
        const double j = meanOf(p.jbb, ratio);
        ec.add(p.cpus, e, stdOf(p.ecperf, ratio));
        jbb.add(p.cpus, j, stdOf(p.jbb, ratio));
        table.addRow({fmt(p.cpus, 0), fmt(e, 1),
                      fmt(stdOf(p.ecperf, ratio), 1), fmt(j, 1),
                      fmt(stdOf(p.jbb, ratio), 1),
                      fmt(paper::fig8Ecperf().yAt(p.cpus), 0),
                      fmt(paper::fig8SpecJbb().yAt(p.cpus), 0)});
    }

    // Residual gap (EXPERIMENTS.md): the paper reaches >60% at 14
    // CPUs; our capacity-miss denominator stays larger, so the rise
    // is steep in relative terms but tops out near 15-30%. The rise
    // itself is a MOSI-bus claim: an O-state owner supplies every
    // reader, so dirty sharing converts misses to c2c transfers as
    // CPUs are added. Directory MESI has no O state — clean sharers
    // are served by the home — so there the qualitative claim is
    // only that communication stays substantial, not that its share
    // keeps rising.
    const bool fig8_bus =
        opt.protocol == sim::CoherenceProtocol::SnoopBus;
    fig.checks.push_back({
        fig8_bus ? "ratio rises substantially with processor count"
                 : "c2c share stays substantial (MESI: home serves "
                   "clean sharers, no O-state supply)",
        fig8_bus ? (jbb.yAt(14) >= 1.4 * jbb.yAt(2) &&
                    jbb.yAt(14) >= 11.0 &&
                    ec.yAt(14) >= 1.4 * ec.yAt(2))
                 : (jbb.yAt(14) >= 8.0 && ec.yAt(14) >= 15.0),
        "jbb " + fmt(jbb.yAt(2), 1) + "% -> " + fmt(jbb.yAt(14), 1) +
            "%, ec " + fmt(ec.yAt(2), 1) + "% -> " +
            fmt(ec.yAt(14), 1) + "%"});
    fig.checks.push_back({
        "transfers occur even with one application CPU (OS activity)",
        ec.yAt(1) > 0.0 && jbb.yAt(1) > 0.0,
        "ec(1)=" + fmt(ec.yAt(1), 2) + "% jbb(1)=" +
            fmt(jbb.yAt(1), 2) + "%"});
    fig.checks.push_back({
        "both workloads show comparable sharing behavior",
        std::abs(ec.yAt(14) - jbb.yAt(14)) <
            0.6 * std::max(ec.yAt(14), jbb.yAt(14)),
        "ec(14)=" + fmt(ec.yAt(14), 1) + "% jbb(14)=" +
            fmt(jbb.yAt(14), 1) + "%"});

    fig.measured = {ec, jbb};
    fig.paperRef = {paper::fig8Ecperf(), paper::fig8SpecJbb()};
    fig.table = table;
    return fig;
}

// ---------------------------------------------------------------------
// Figure 9: effect of garbage collection on scaling
// ---------------------------------------------------------------------

FigureResult
runFig09(const FigureOptions &opt)
{
    FigureResult fig;
    fig.id = "fig09";
    fig.title = "Effect of garbage collection on throughput scaling";
    const std::vector<ScalingPoint> sweep = scalingSweep(fig, opt);

    auto tput = [](const RunResult &r) { return r.throughput; };
    auto tput_nogc = [](const RunResult &r) {
        // Factor the collection time out of the runtime.
        const double gc = r.gcFraction();
        return gc < 0.95 ? r.throughput / (1.0 - gc) : r.throughput;
    };

    const double ec_base = meanOf(sweep.front().ecperf, tput);
    const double jbb_base = meanOf(sweep.front().jbb, tput);
    const double ec_base_n = meanOf(sweep.front().ecperf, tput_nogc);
    const double jbb_base_n = meanOf(sweep.front().jbb, tput_nogc);

    Series ec("ecperf"), ecn("ecperf-nogc");
    Series jbb("specjbb"), jbbn("specjbb-nogc");
    Table table({"cpus", "ecperf", "ecperf-nogc", "specjbb",
                 "specjbb-nogc"});
    for (const auto &p : sweep) {
        const double e = meanOf(p.ecperf, tput) / ec_base;
        const double en = meanOf(p.ecperf, tput_nogc) / ec_base_n;
        const double j = meanOf(p.jbb, tput) / jbb_base;
        const double jn = meanOf(p.jbb, tput_nogc) / jbb_base_n;
        ec.add(p.cpus, e);
        ecn.add(p.cpus, en);
        jbb.add(p.cpus, j);
        jbbn.add(p.cpus, jn);
        table.addRow({fmt(p.cpus, 0), fmt(e), fmt(en), fmt(j),
                      fmt(jn)});
    }

    // GC helps the no-GC curve, but only modestly: it explains a
    // small part of the gap to linear speedup.
    const double jbb_gap = 15.0 - jbb.yAt(15);
    const double jbb_gc_gain = jbbn.yAt(15) - jbb.yAt(15);
    fig.checks.push_back({
        "removing GC time closes only a fraction of the speedup gap",
        jbb_gap > 0 && jbb_gc_gain < 0.6 * jbb_gap,
        "gap=" + fmt(jbb_gap) + " gc-gain=" + fmt(jbb_gc_gain)});
    fig.checks.push_back({
        "no-GC speedup is at least the measured speedup",
        jbbn.yAt(15) >= jbb.yAt(15) * 0.98 &&
            ecn.yAt(15) >= ec.yAt(15) * 0.98,
        "jbb " + fmt(jbb.yAt(15)) + " vs nogc " + fmt(jbbn.yAt(15))});

    fig.measured = {ec, ecn, jbb, jbbn};
    fig.paperRef = {paper::fig4Ecperf(), paper::fig4SpecJbb()};
    fig.table = table;
    return fig;
}

// ---------------------------------------------------------------------
// Figure 10: copyback rate over time (GC windows)
// ---------------------------------------------------------------------

FigureResult
runFig10(const FigureOptions &opt)
{
    FigureResult fig;
    fig.id = "fig10";
    fig.title =
        "Cache-to-cache transfers per second over time (SPECjbb)";

    const Fig10Data data = fetchFigure<Fig10Data>(fig, opt).front();
    const sim::Tick bin = fig10BinWidth;
    const sim::Tick t0 = data.t0;
    const auto &timeline = data.bins;
    const auto first_bin = static_cast<std::size_t>(t0 / bin);

    // Normalize to the peak rate, as the paper does.
    std::uint64_t peak = 1;
    for (std::size_t b = first_bin; b < timeline.size(); ++b)
        peak = std::max(peak, timeline[b]);

    Series rate("specjbb-c2c-rate");
    Table table({"t(ms)", "c2c-rate(norm)", "gc-active"});

    // Identify GC windows from the collection log.
    // A bin counts as in-GC only when it lies fully inside the
    // collection window (edge bins mix application activity).
    auto inGc = [&](sim::Tick lo, sim::Tick hi) {
        for (const auto &[start, end] : data.gcWindows) {
            if (lo >= start && hi <= end)
                return true;
        }
        return false;
    };

    double in_sum = 0, in_n = 0, out_sum = 0, out_n = 0;
    for (std::size_t b = first_bin; b < timeline.size(); ++b) {
        const sim::Tick t = static_cast<sim::Tick>(b) * bin;
        const double norm = static_cast<double>(timeline[b]) /
                            static_cast<double>(peak);
        const bool gc = inGc(t, t + bin);
        rate.add(1000.0 * sim::ticksToSeconds(t - t0), norm);
        if (gc) {
            in_sum += norm;
            in_n += 1;
        } else {
            out_sum += norm;
            out_n += 1;
        }
        if (b % 4 == 0) {
            table.addRow({fmt(1000.0 * sim::ticksToSeconds(t - t0), 1),
                          fmt(norm), gc ? "yes" : "no"});
        }
    }

    const double in_mean = in_n ? in_sum / in_n : 0.0;
    const double out_mean = out_n ? out_sum / out_n : 1.0;
    fig.checks.push_back({
        "at least 3 collections occur in the interval",
        data.gcWindows.size() >= 3,
        std::to_string(data.gcWindows.size()) + " collections"});
    fig.checks.push_back({
        "copyback rate collapses during garbage collection",
        in_n > 0 && in_mean < 0.35 * out_mean,
        "mean in-GC=" + fmt(in_mean, 3) + " out-GC=" +
            fmt(out_mean, 3)});

    fig.measured = {rate};
    fig.table = table;
    return fig;
}

// ---------------------------------------------------------------------
// Figure 11: memory use vs scale factor
// ---------------------------------------------------------------------

FigureResult
runFig11(const FigureOptions &opt)
{
    FigureResult fig;
    fig.id = "fig11";
    fig.title = "Live memory after collection vs scale factor (MB)";

    // SPECjbb's scale points, then ECperf's, index-aligned.
    const std::vector<Leaf> leaves = figureRow(fig.id).leaves(opt);
    const std::vector<LivePoint> live =
        fetchPayloads<LivePoint>(leaves, fig.metricsByPoint);
    const std::size_t n = leaves.size() / 2;

    Series jbb("specjbb"), ec("ecperf");
    Table table({"scale", "specjbb(MB)", "ecperf(MB)", "paper-jbb",
                 "paper-ec"});
    for (std::size_t i = 0; i < n; ++i) {
        const unsigned js = leaves[i].spec.scale;
        const unsigned es = leaves[n + i].spec.scale;
        const double j = live[i].mb, e = live[n + i].mb;
        jbb.add(js, j);
        ec.add(es, e);
        table.addRow({fmt(js, 0), fmt(j, 0), fmt(e, 0),
                      fmt(paper::fig11SpecJbb().yAt(js), 0),
                      fmt(paper::fig11Ecperf().yAt(es), 0)});
    }

    // Linearity of SPECjbb growth between 5 and 25 warehouses.
    const double slope_lo = (jbb.yAt(15) - jbb.yAt(5)) / 10.0;
    const double slope_hi = (jbb.yAt(25) - jbb.yAt(15)) / 10.0;
    fig.checks.push_back({
        "SPECjbb memory grows linearly with warehouses",
        slope_lo > 2.0 && std::abs(slope_hi - slope_lo) <
                              0.5 * std::max(slope_lo, slope_hi),
        "slope 5-15=" + fmt(slope_lo, 1) + " MB/wh, 15-25=" +
            fmt(slope_hi, 1) + " MB/wh"});
    fig.checks.push_back({
        "SPECjbb growth breaks beyond ~30 warehouses (compaction)",
        jbb.yAt(35) < jbb.yAt(30) * 1.05,
        "live(30)=" + fmt(jbb.yAt(30), 0) + " live(35)=" +
            fmt(jbb.yAt(35), 0)});
    const double ec_late = ec.yAt(40) - ec.yAt(10);
    const double ec_early = ec.yAt(6) - ec.yAt(1);
    fig.checks.push_back({
        "ECperf memory saturates around injection rate ~6",
        ec_early > 2.0 * std::abs(ec_late),
        "rise(1->6)=" + fmt(ec_early, 0) + " MB, rise(10->40)=" +
            fmt(ec_late, 0) + " MB"});

    fig.measured = {jbb, ec};
    fig.paperRef = {paper::fig11SpecJbb(), paper::fig11Ecperf()};
    fig.table = table;
    return fig;
}

// ---------------------------------------------------------------------
// Figures 12/13: instruction and data cache miss rates
// ---------------------------------------------------------------------

FigureResult
runFig12(const FigureOptions &opt)
{
    FigureResult fig;
    fig.id = "fig12";
    fig.title = "Instruction cache misses per 1000 instructions";
    // ECperf, then SPECjbb-1, -10 and -25.
    const std::vector<SweepOutcome> set =
        fetchFigure<SweepOutcome>(fig, opt);

    Series ec("ecperf"), j1("specjbb-1"), j10("specjbb-10"),
        j25("specjbb-25");
    Table table({"size(KB)", "ecperf", "jbb-1", "jbb-10", "jbb-25",
                 "paper-ec", "paper-jbb"});
    const auto &configs = set[0].icache;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const double kb =
            static_cast<double>(configs[i].params.sizeBytes) / 1024.0;
        const double e = set[0].imissPer1000(i);
        const double a = set[1].imissPer1000(i);
        const double b = set[2].imissPer1000(i);
        const double c = set[3].imissPer1000(i);
        ec.add(kb, e);
        j1.add(kb, a);
        j10.add(kb, b);
        j25.add(kb, c);
        table.addRow({fmt(kb, 0), fmt(e, 3), fmt(a, 3), fmt(b, 3),
                      fmt(c, 3),
                      fmt(paper::fig12EcperfIcache().yAt(kb), 3),
                      fmt(paper::fig12SpecJbbIcache().yAt(kb), 3)});
    }

    fig.checks.push_back({
        "ECperf instruction misses exceed SPECjbb's at 256 KB",
        ec.yAt(256) > 1.8 * j10.yAt(256),
        "ec=" + fmt(ec.yAt(256), 2) + " jbb-10=" +
            fmt(j10.yAt(256), 2)});
    fig.checks.push_back({
        "instruction misses are small (< ~1/1000) at >= 1 MB",
        ec.yAt(1024) < 1.3 && j25.yAt(1024) < 1.0,
        "ec(1MB)=" + fmt(ec.yAt(1024), 2) + " jbb-25(1MB)=" +
            fmt(j25.yAt(1024), 2)});
    fig.checks.push_back({
        "miss rate decreases monotonically with cache size",
        [&] {
            for (std::size_t i = 1; i < ec.points.size(); ++i) {
                if (ec.points[i].y > ec.points[i - 1].y + 0.01)
                    return false;
            }
            return true;
        }(),
        "ecperf curve"});

    fig.measured = {ec, j1, j10, j25};
    fig.paperRef = {paper::fig12EcperfIcache(),
                    paper::fig12SpecJbbIcache()};
    fig.table = table;
    return fig;
}

FigureResult
runFig13(const FigureOptions &opt)
{
    FigureResult fig;
    fig.id = "fig13";
    fig.title = "Data cache misses per 1000 instructions";
    // ECperf, then SPECjbb-1, -10 and -25.
    const std::vector<SweepOutcome> set =
        fetchFigure<SweepOutcome>(fig, opt);

    Series ec("ecperf"), j1("specjbb-1"), j10("specjbb-10"),
        j25("specjbb-25");
    Table table({"size(KB)", "ecperf", "jbb-1", "jbb-10", "jbb-25",
                 "paper-ec", "paper-jbb25"});
    const auto &configs = set[0].dcache;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const double kb =
            static_cast<double>(configs[i].params.sizeBytes) / 1024.0;
        const double e = set[0].dmissPer1000(i);
        const double a = set[1].dmissPer1000(i);
        const double b = set[2].dmissPer1000(i);
        const double c = set[3].dmissPer1000(i);
        ec.add(kb, e);
        j1.add(kb, a);
        j10.add(kb, b);
        j25.add(kb, c);
        table.addRow({fmt(kb, 0), fmt(e, 3), fmt(a, 3), fmt(b, 3),
                      fmt(c, 3),
                      fmt(paper::fig13EcperfDcache().yAt(kb), 3),
                      fmt(paper::fig13SpecJbb25Dcache().yAt(kb), 3)});
    }

    fig.checks.push_back({
        "SPECjbb data misses grow with the warehouse count",
        j25.yAt(1024) > j10.yAt(1024) && j10.yAt(1024) > j1.yAt(1024),
        "1MB: jbb-1=" + fmt(j1.yAt(1024), 2) + " jbb-10=" +
            fmt(j10.yAt(1024), 2) + " jbb-25=" +
            fmt(j25.yAt(1024), 2)});
    // Residual gap (EXPERIMENTS.md): the paper reports ~30% growth
    // from 1 to 25 warehouses; our per-transaction reference stream
    // has a larger scale-independent floor, so the gradient is
    // present but shallower.
    fig.checks.push_back({
        "SPECjbb data misses grow monotonically 1 -> 25 warehouses",
        j25.yAt(2048) > 1.03 * j1.yAt(2048) &&
            j25.yAt(1024) > j10.yAt(1024) &&
            j10.yAt(1024) > j1.yAt(1024),
        "ratio@2MB=" + fmt(j25.yAt(2048) / std::max(j1.yAt(2048), 1e-9),
                           2)});
    fig.checks.push_back({
        "ECperf's data miss rate is below SPECjbb-1's",
        ec.yAt(1024) < j1.yAt(1024),
        "1MB: ec=" + fmt(ec.yAt(1024), 2) + " jbb-1=" +
            fmt(j1.yAt(1024), 2)});
    fig.checks.push_back({
        "data misses fall below ~2/1000 at >= 1 MB",
        ec.yAt(1024) < 2.5 && j25.yAt(1024) < 3.5,
        "ec=" + fmt(ec.yAt(1024), 2) + " jbb-25=" +
            fmt(j25.yAt(1024), 2)});

    fig.measured = {ec, j1, j10, j25};
    fig.paperRef = {paper::fig13EcperfDcache(),
                    paper::fig13SpecJbb1Dcache(),
                    paper::fig13SpecJbb10Dcache(),
                    paper::fig13SpecJbb25Dcache()};
    fig.table = table;
    return fig;
}

// ---------------------------------------------------------------------
// Figures 14/15: communication footprint
// ---------------------------------------------------------------------

FigureResult
runFig14(const FigureOptions &opt)
{
    FigureResult fig;
    fig.id = "fig14";
    fig.title = "Distribution of c2c transfers vs % of lines touched";
    // SPECjbb, then ECperf.
    const std::vector<CommPoint> comm = fetchFigure<CommPoint>(fig, opt);
    const CommPoint &jbb = comm[0];
    const CommPoint &ec = comm[1];

    // x = fraction of *touched* lines (communicating lines are a
    // subset); y = cumulative share of all c2c transfers.
    const std::vector<double> fractions = {0.0001, 0.0005, 0.001,
                                           0.005, 0.01, 0.05, 0.1,
                                           0.25, 0.5, 1.0};
    Series jbb_s("specjbb"), ec_s("ecperf");
    Table table({"frac-of-touched", "specjbb", "ecperf"});
    for (double f : fractions) {
        auto shareAt = [&](const CommPoint &p) {
            const auto k = static_cast<std::size_t>(
                std::ceil(f * static_cast<double>(p.touchedLines)));
            return p.curve.shareOfTopK(std::max<std::size_t>(k, 1));
        };
        const double j = shareAt(jbb);
        const double e = shareAt(ec);
        jbb_s.add(f, j);
        ec_s.add(f, e);
        table.addRow({fmt(f, 4), fmt(j, 3), fmt(e, 3)});
    }

    const double j_top = jbb.curve.maxShare();
    const double e_top = ec.curve.maxShare();
    const double j_01 = jbb_s.yAt(0.001);
    const double e_01 = ec_s.yAt(0.001);
    fig.checks.push_back({
        "SPECjbb's hottest line carries a larger share than ECperf's",
        j_top > e_top,
        "jbb top=" + fmt(100 * j_top, 1) + "% ec top=" +
            fmt(100 * e_top, 1) + "%"});
    fig.checks.push_back({
        "top 0.1% of lines: SPECjbb more concentrated than ECperf",
        j_01 > e_01,
        "jbb=" + fmt(100 * j_01, 1) + "% ec=" + fmt(100 * e_01, 1) +
            "%"});
    const double jbb_all_frac =
        static_cast<double>(jbb.curve.numKeys()) /
        static_cast<double>(std::max<std::uint64_t>(jbb.touchedLines,
                                                    1));
    const double ec_all_frac =
        static_cast<double>(ec.curve.numKeys()) /
        static_cast<double>(std::max<std::uint64_t>(ec.touchedLines,
                                                    1));
    fig.checks.push_back({
        "ECperf communication spreads over more of its touched lines",
        ec_all_frac > jbb_all_frac,
        "jbb frac=" + fmt(jbb_all_frac, 3) + " ec frac=" +
            fmt(ec_all_frac, 3)});

    fig.measured = {jbb_s, ec_s};
    fig.paperRef = {paper::fig14SpecJbb(), paper::fig14Ecperf()};
    fig.table = table;
    return fig;
}

FigureResult
runFig15(const FigureOptions &opt)
{
    FigureResult fig;
    fig.id = "fig15";
    fig.title =
        "Distribution of c2c transfers vs absolute lines (64 B)";
    // SPECjbb, then ECperf.
    const std::vector<CommPoint> comm = fetchFigure<CommPoint>(fig, opt);
    const CommPoint &jbb = comm[0];
    const CommPoint &ec = comm[1];

    const std::vector<double> shares = {0.1, 0.2, 0.3, 0.4, 0.5,
                                        0.6, 0.7, 0.8, 0.9, 1.0};
    Series jbb_s("specjbb"), ec_s("ecperf");
    Table table({"share-of-c2c", "specjbb-lines", "ecperf-lines"});
    for (double s : shares) {
        const double j =
            static_cast<double>(jbb.curve.keysForShare(s));
        const double e = static_cast<double>(ec.curve.keysForShare(s));
        jbb_s.add(j, s);
        ec_s.add(e, s);
        table.addRow({fmt(s, 1), fmt(j, 0), fmt(e, 0)});
    }

    fig.checks.push_back({
        "ECperf's absolute communication footprint exceeds SPECjbb's",
        ec.curve.keysForShare(0.95) > jbb.curve.keysForShare(0.95),
        "lines for 95%: ec=" +
            std::to_string(ec.curve.keysForShare(0.95)) + " jbb=" +
            std::to_string(jbb.curve.keysForShare(0.95))});
    fig.checks.push_back({
        "SPECjbb touches more memory overall",
        jbb.touchedLines > ec.touchedLines,
        "touched: jbb=" + std::to_string(jbb.touchedLines) + " ec=" +
            std::to_string(ec.touchedLines)});

    fig.measured = {jbb_s, ec_s};
    fig.table = table;
    return fig;
}

// ---------------------------------------------------------------------
// Figure 16: shared caches
// ---------------------------------------------------------------------

FigureResult
runFig16(const FigureOptions &opt)
{
    FigureResult fig;
    fig.id = "fig16";
    fig.title =
        "Data miss rate with 1 MB L2s shared by 1/2/4/8 processors";

    // Per sharing degree: ECperf, then SPECjbb-25.
    const std::vector<Leaf> leaves = figureRow(fig.id).leaves(opt);
    const std::vector<RunResult> results =
        fetchPayloads<RunResult>(leaves, fig.metricsByPoint);

    Series ec("ecperf"), jbb("specjbb-25");
    Table table({"cpus/L2", "ecperf", "specjbb-25", "paper-ec",
                 "paper-jbb25"});
    for (std::size_t i = 0; i < results.size(); i += 2) {
        const unsigned share = leaves[i].spec.cpusPerL2;
        const double e = dataMpki(results[i]);
        const double j = dataMpki(results[i + 1]);
        ec.add(share, e);
        jbb.add(share, j);
        table.addRow({fmt(share, 0), fmt(e, 2), fmt(j, 2),
                      fmt(paper::fig16Ecperf().yAt(share), 2),
                      fmt(paper::fig16SpecJbb25().yAt(share), 2)});
    }

    fig.checks.push_back({
        "sharing reduces ECperf's miss rate (best fully shared)",
        ec.yAt(8) < ec.yAt(1),
        "private=" + fmt(ec.yAt(1), 2) + " shared-8=" +
            fmt(ec.yAt(8), 2)});
    fig.checks.push_back({
        "sharing increases SPECjbb-25's miss rate",
        jbb.yAt(8) > jbb.yAt(1),
        "private=" + fmt(jbb.yAt(1), 2) + " shared-8=" +
            fmt(jbb.yAt(8), 2)});
    fig.checks.push_back({
        "the workloads reach opposite conclusions",
        ec.yAt(8) < ec.yAt(1) && jbb.yAt(8) > jbb.yAt(1),
        "crossover reproduced"});

    fig.measured = {ec, jbb};
    fig.paperRef = {paper::fig16Ecperf(), paper::fig16SpecJbb25()};
    fig.table = table;
    return fig;
}

} // namespace middlesim::core
