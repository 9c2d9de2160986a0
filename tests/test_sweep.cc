/**
 * @file
 * Tests for the parallel sweep engine and the fast-path cache
 * geometry it depends on.
 *
 *  - runOrdered(): results land in input order for any job count,
 *    and task exceptions propagate (first failing index wins).
 *  - expandGrid(): cardinality and deterministic axis ordering.
 *  - runSweep() + writeReportJson(): byte-identical JSON for
 *    --jobs 1 vs --jobs 4 on a real (small) grid — with and without a
 *    sampled (--samples) axis — and a well-formed report for an empty
 *    grid.
 *  - Capture sharing: runSweep with LibrarySharing (shared passes per
 *    capture-matching group, informing modes included, or replay of a
 *    supplied library) emits the plain sweep's bytes and counts only
 *    the passes that ran.
 *  - Simulation identity: equal simulationKey() means one program and
 *    one machine config over every workload, machine and mode; twins
 *    share one run in runSweep (full, sampled and multi-cache alike)
 *    yet emit the per-point bytes and carry their leader's timing.
 *  - CacheGeometry: the compiled shift/mask fast path agrees with the
 *    reference divide chain on randomized addresses across all legal
 *    shapes, and lineAddrOf() inverts (setIndex, tag) — the dirty-
 *    victim writeback reconstruction.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/json.hh"
#include "memory/geometry.hh"
#include "sample/livepoint.hh"
#include "sample/sharedpass.hh"
#include "sweep/engine.hh"
#include "sweep/sweep.hh"
#include "workloads/suite.hh"

namespace
{

using namespace imo;

// ---------------------------------------------------------------- engine

TEST(SweepEngine, ResultsInInputOrder)
{
    constexpr std::size_t kTasks = 64;
    std::vector<std::function<std::size_t()>> tasks;
    for (std::size_t i = 0; i < kTasks; ++i) {
        // Uneven work so parallel completion order differs from
        // input order; results must still come back by index.
        tasks.emplace_back([i] {
            std::size_t acc = i;
            for (std::size_t k = 0; k < (i % 7) * 1000; ++k)
                acc = acc * 2654435761u + k;
            return acc % kTasks == 0 ? i : i;
        });
    }
    const std::vector<std::size_t> seq = sweep::runOrdered(tasks, 1);
    const std::vector<std::size_t> par = sweep::runOrdered(tasks, 4);
    ASSERT_EQ(seq.size(), kTasks);
    for (std::size_t i = 0; i < kTasks; ++i)
        EXPECT_EQ(seq[i], i);
    EXPECT_EQ(seq, par);
}

TEST(SweepEngine, CancelStopsSchedulingAndReportsCompletion)
{
    // A task trips the cancel flag partway through; no new tasks may
    // start after that, and the completion mask must say exactly which
    // results are real.
    constexpr std::size_t kTasks = 32;
    constexpr std::size_t kTrip = 5;
    static volatile std::sig_atomic_t cancel;
    cancel = 0;
    std::vector<std::function<std::size_t()>> tasks;
    for (std::size_t i = 0; i < kTasks; ++i) {
        tasks.emplace_back([i] {
            if (i == kTrip)
                cancel = 1;
            return i + 100;
        });
    }

    for (const unsigned jobs : {1u, 4u}) {
        cancel = 0;
        std::vector<std::uint8_t> completed;
        const std::vector<std::size_t> out =
            sweep::runOrdered(tasks, jobs, &cancel, &completed);
        ASSERT_EQ(out.size(), kTasks);
        ASSERT_EQ(completed.size(), kTasks);

        std::size_t done = 0;
        for (std::size_t i = 0; i < kTasks; ++i) {
            if (completed[i]) {
                EXPECT_EQ(out[i], i + 100) << "jobs=" << jobs;
                ++done;
            }
        }
        // The tripping task itself completes; everything the flag beat
        // to the scheduler does not.
        EXPECT_GE(done, kTrip + 1) << "jobs=" << jobs;
        EXPECT_LT(done, kTasks) << "jobs=" << jobs;
    }
}

TEST(SweepEngine, NullCancelRunsEverything)
{
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 8; ++i)
        tasks.emplace_back([i] { return i; });
    std::vector<std::uint8_t> completed;
    const std::vector<int> out =
        sweep::runOrdered(tasks, 2, nullptr, &completed);
    ASSERT_EQ(completed.size(), 8u);
    for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_TRUE(completed[i]);
        EXPECT_EQ(out[i], static_cast<int>(i));
    }
}

TEST(SweepEngine, JobsZeroAndOversubscribedBothWork)
{
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 5; ++i)
        tasks.emplace_back([i] { return i * i; });
    const std::vector<int> expect = {0, 1, 4, 9, 16};
    EXPECT_EQ(sweep::runOrdered(tasks, 0), expect);
    EXPECT_EQ(sweep::runOrdered(tasks, 64), expect);
}

TEST(SweepEngine, FirstFailingIndexWins)
{
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 8; ++i) {
        tasks.emplace_back([i]() -> int {
            if (i == 2)
                throw std::runtime_error("task two");
            if (i == 5)
                throw std::runtime_error("task five");
            return i;
        });
    }
    for (const unsigned jobs : {1u, 4u}) {
        try {
            sweep::runOrdered(tasks, jobs);
            FAIL() << "expected an exception (jobs=" << jobs << ")";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "task two");
        }
    }
}

TEST(SweepEngine, EmptyTaskList)
{
    const std::vector<std::function<int()>> tasks;
    EXPECT_TRUE(sweep::runOrdered(tasks, 4).empty());
}

// ------------------------------------------------------------------ grid

TEST(SweepGrid, ExpandCardinalityAndOrder)
{
    sweep::SweepGrid grid;
    grid.machines = {"ooo", "inorder"};
    grid.workloads = {"ora", "eqntott"};
    grid.modes = {core::InformingMode::None,
                  core::InformingMode::TrapSingle};
    grid.handlerLens = {1, 10};
    const std::vector<sweep::SweepPoint> points = sweep::expandGrid(grid);
    ASSERT_EQ(points.size(), 16u);

    // Machine is the outermost axis: first half all "ooo".
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(points[i].machine, "ooo") << i;
    for (std::size_t i = 8; i < 16; ++i)
        EXPECT_EQ(points[i].machine, "inorder") << i;
    // handlerLen is the innermost of the populated axes here.
    EXPECT_EQ(points[0].handlerLen, 1u);
    EXPECT_EQ(points[1].handlerLen, 10u);
    EXPECT_EQ(points[0].workload, "ora");
    EXPECT_EQ(points[4].workload, "eqntott");
    EXPECT_EQ(points[0].mode, core::InformingMode::None);
    EXPECT_EQ(points[2].mode, core::InformingMode::TrapSingle);
}

TEST(SweepGrid, ResolveConfigValidatesMachineName)
{
    sweep::SweepPoint p;
    p.machine = "ooo";
    EXPECT_NO_THROW(p.resolveConfig().validate());
    p.machine = "inorder";
    EXPECT_NO_THROW(p.resolveConfig().validate());
    p.machine = "vliw";
    try {
        p.resolveConfig();
        FAIL() << "expected BadConfig for unknown machine";
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().code, ErrCode::BadConfig);
    }
}

TEST(SweepGrid, DescribePointMentionsTheCell)
{
    sweep::SweepPoint p;
    p.machine = "inorder";
    p.workload = "tomcatv";
    const std::string text = sweep::describePoint(p);
    EXPECT_NE(text.find("inorder"), std::string::npos) << text;
    EXPECT_NE(text.find("tomcatv"), std::string::npos) << text;
}

// ------------------------------------------------- end-to-end determinism

TEST(SweepRun, ReportByteIdenticalAcrossJobCounts)
{
    sweep::SweepGrid grid;
    grid.machines = {"ooo", "inorder"};
    grid.workloads = {"ora"};
    grid.modes = {core::InformingMode::None,
                  core::InformingMode::TrapSingle};
    grid.scale = 0.1;
    const std::vector<sweep::SweepPoint> points = sweep::expandGrid(grid);
    ASSERT_EQ(points.size(), 4u);

    const auto report = [&](unsigned jobs) {
        const std::vector<sweep::SweepOutcome> outcomes =
            sweep::runSweep(points, jobs);
        std::ostringstream os;
        sweep::writeReportJson(os, outcomes);
        return os.str();
    };
    const std::string j1 = report(1);
    const std::string j4 = report(4);
    EXPECT_FALSE(j1.empty());
    EXPECT_EQ(j1, j4);
    EXPECT_NE(j1.find("\"machine\":\"ooo"), std::string::npos);
    EXPECT_NE(j1.find("\"ok\":true"), std::string::npos);
}

TEST(SweepRun, EmptyGridProducesAnEmptyButValidReport)
{
    // A fully filtered-out grid is legal: the engine gets zero tasks
    // and the report writer must still emit a well-formed document.
    const std::vector<sweep::SweepPoint> none;
    const std::vector<sweep::SweepOutcome> outcomes =
        sweep::runSweep(none, 4);
    EXPECT_TRUE(outcomes.empty());

    std::ostringstream os;
    sweep::writeReportJson(os, outcomes);
    EXPECT_NE(os.str().find("\"points\":[]"), std::string::npos)
        << os.str();
}

TEST(SweepRun, SampledAxisReportByteIdenticalAcrossJobCounts)
{
    sweep::SweepGrid grid;
    grid.machines = {"ooo"};
    grid.workloads = {"hydro2d"};
    grid.modes = {core::InformingMode::None};
    grid.samples = {"", "9973:300:300"};
    grid.scale = 0.2;
    const std::vector<sweep::SweepPoint> points = sweep::expandGrid(grid);
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].sample, "");
    EXPECT_EQ(points[1].sample, "9973:300:300");

    const auto report = [&](unsigned jobs) {
        const std::vector<sweep::SweepOutcome> outcomes =
            sweep::runSweep(points, jobs);
        std::ostringstream os;
        sweep::writeReportJson(os, outcomes);
        return os.str();
    };
    const std::string j1 = report(1);
    const std::string j4 = report(4);
    EXPECT_EQ(j1, j4);
    EXPECT_NE(j1.find("\"sample\":\"9973:300:300\""), std::string::npos);
    EXPECT_NE(j1.find("\"cpi_mean\":"), std::string::npos);
}

// ------------------------------------------------------ capture sharing

/** {hydro2d, compress} x {ooo, inorder} x {N, S, U, CC} x L1 {8, 32 KB}
 *  x memory latency {50, 100} x MSHRs {4, 8}, sampled: every
 *  capture-matching group is one (workload, machine, mode, L1) cell
 *  spread over the four timing-knob points. */
std::vector<sweep::SweepPoint>
timingAxisPoints()
{
    sweep::SweepGrid grid;
    grid.machines = {"ooo", "inorder"};
    grid.workloads = {"hydro2d", "compress"};
    grid.modes = {core::InformingMode::None,
                  core::InformingMode::TrapSingle,
                  core::InformingMode::TrapUnique,
                  core::InformingMode::CondCode};
    grid.l1SizesBytes = {8192, 32768};
    grid.memLatencies = {50, 100};
    grid.mshrCounts = {4, 8};
    grid.samples = {"9973:300:300"};
    grid.scale = 0.1;
    return sweep::expandGrid(grid);
}

std::string
reportOf(const std::vector<sweep::SweepOutcome> &outcomes)
{
    std::ostringstream os;
    sweep::writeReportJson(os, outcomes);
    return os.str();
}

TEST(SweepSharing, ByteIdenticalToPlainSweepWithAndWithoutMultiCache)
{
    const std::vector<sweep::SweepPoint> points = timingAxisPoints();
    ASSERT_EQ(points.size(), 128u);
    const std::string plain = reportOf(sweep::runSweep(points, 4));
    EXPECT_EQ(plain.find("\"ok\":false"), std::string::npos);

    for (const bool multi : {false, true}) {
        for (const unsigned jobs : {1u, 4u}) {
            SCOPED_TRACE(testing::Message()
                         << "multi-cache=" << multi << " jobs=" << jobs);
            sweep::LibrarySharing sharing;
            sweep::MultiCache mc;
            const std::vector<sweep::SweepOutcome> outs = sweep::runSweep(
                points, jobs, nullptr, nullptr, nullptr, &sharing,
                multi ? &mc : nullptr);
            EXPECT_EQ(reportOf(outs), plain);
            // 32 (workload, machine, mode, L1) cells of 4 points; with
            // multi-cache the 4 mode-N (workload, machine) cells of 8
            // points go to shared geometry passes instead.
            const std::uint64_t groups = multi ? 24 : 32;
            EXPECT_EQ(sharing.captured, groups);
            EXPECT_EQ(sharing.reused, 3 * groups);
            EXPECT_EQ(mc.groups.size(), multi ? 4u : 0u);
            EXPECT_EQ(mc.pointsShared, multi ? 32u : 0u);
        }
    }
}

TEST(SweepSharing, SuppliedLibraryServesItsGroupByReplay)
{
    const std::vector<sweep::SweepPoint> points = timingAxisPoints();
    const std::string plain = reportOf(sweep::runSweep(points, 4));

    // Capture on the first point's functional pass: its whole
    // capture-matching group (4 points) replays the library.
    std::shared_ptr<const sample::LivePointLibrary> lib;
    (void)sweep::runPoint(points[0], nullptr, &lib);
    ASSERT_TRUE(lib);
    sweep::LibrarySharing sharing;
    sharing.supplied = lib;
    const std::vector<sweep::SweepOutcome> outs = sweep::runSweep(
        points, 4, nullptr, nullptr, nullptr, &sharing);
    EXPECT_EQ(reportOf(outs), plain);
    EXPECT_EQ(sharing.captured, 31u);
    EXPECT_EQ(sharing.reused, 31u * 3 + 4);
}

TEST(SweepSharing, CountsOnlyWhatRan)
{
    // A cancelled sweep runs no pass, so it reuses nothing.
    const std::vector<sweep::SweepPoint> points = timingAxisPoints();
    std::shared_ptr<const sample::LivePointLibrary> lib;
    (void)sweep::runPoint(points[0], nullptr, &lib);
    sweep::LibrarySharing sharing;
    sharing.supplied = lib;
    sweep::MultiCache mc;
    volatile std::sig_atomic_t cancel = 1;
    std::vector<std::uint8_t> completed;
    (void)sweep::runSweep(points, 4, &cancel, &completed, nullptr,
                          &sharing, &mc);
    EXPECT_EQ(completed, std::vector<std::uint8_t>(points.size(), 0));
    EXPECT_EQ(sharing.captured, 0u);
    EXPECT_EQ(sharing.reused, 0u);
    EXPECT_EQ(mc.groups.size(), 4u);
    EXPECT_EQ(mc.pointsShared, 0u);
}

TEST(SweepSharing, SharedPassTakesInformingProgramsInOneCacheClass)
{
    // Timing knobs alone keep one cache class, so an informing-mode
    // program may share a pass; a second L1 geometry may not.
    const std::vector<sweep::SweepPoint> points = timingAxisPoints();
    const sweep::SweepPoint &p0 = points[8]; // ooo hydro2d S, 8 KB
    ASSERT_EQ(p0.mode, core::InformingMode::TrapSingle);
    const isa::Program prog = p0.buildProgram();
    ASSERT_FALSE(sample::sharedPassEligible(prog));
    const sample::SampleParams params =
        sample::SampleParams::parse(p0.sample);

    std::vector<pipeline::MachineConfig> cfgs;
    for (std::size_t m = 0; m < 4; ++m)
        cfgs.push_back(points[8 + m].resolveConfig());
    const sample::SharedPassResult shared =
        sample::runSharedGeometryPass(prog, cfgs, params);
    EXPECT_EQ(shared.configs, 1u);
    for (std::size_t m = 0; m < cfgs.size(); ++m) {
        sample::Sampler dedicated(prog, cfgs[m], params);
        const sample::SampleEstimate ref = dedicated.run();
        ASSERT_TRUE(ref.ok) << ref.error.message;
        EXPECT_GT(ref.traps, 0u);
        EXPECT_EQ(shared.samples[m], dedicated.windowSamples()) << m;
        EXPECT_EQ(shared.totals[m].traps, ref.traps) << m;
        EXPECT_EQ(shared.totals[m].l1Misses, ref.l1Misses) << m;
    }

    cfgs.push_back(points[12].resolveConfig()); // ooo hydro2d S, 32 KB
    ASSERT_NE(cfgs.back().l1.sizeBytes, cfgs.front().l1.sizeBytes);
    try {
        (void)sample::runSharedGeometryPass(prog, cfgs, params);
        FAIL() << "expected BadConfig for two cache classes";
    } catch (const SimException &e) {
        EXPECT_EQ(e.code(), ErrCode::BadConfig);
    }
}

TEST(SweepSharing, SharedPassRefusesMixedPredictors)
{
    // One warm accumulator trains one predictor for every member, so a
    // member with another predictor kind or size is refused up front
    // instead of running on untrained (or misshapen) tables.
    const std::vector<sweep::SweepPoint> points = timingAxisPoints();
    const isa::Program prog = points[8].buildProgram();
    const sample::SampleParams params =
        sample::SampleParams::parse(points[8].sample);
    std::vector<pipeline::MachineConfig> cfgs;
    for (std::size_t m = 0; m < 4; ++m)
        cfgs.push_back(points[8 + m].resolveConfig());
    for (const char *what : {"useGshare", "predictorEntries"}) {
        std::vector<pipeline::MachineConfig> mixed = cfgs;
        if (std::string(what) == "useGshare")
            mixed.back().useGshare = !mixed.back().useGshare;
        else
            mixed.back().predictorEntries *= 2;
        ASSERT_NO_THROW(mixed.back().validate()) << what;
        try {
            (void)sample::runSharedGeometryPass(prog, mixed, params);
            ADD_FAILURE() << "expected BadConfig for differing " << what;
        } catch (const SimException &e) {
            EXPECT_EQ(e.code(), ErrCode::BadConfig) << what;
            EXPECT_NE(e.error().message.find("predictor"),
                      std::string::npos) << e.error().message;
        }
    }
}

// ---------------------------------------------------- simulation identity

/** The resolved-config fields a point can move, plus the capture
 *  digest (geometry, predictor, budget) and the machine identity. */
std::string
configText(const pipeline::MachineConfig &c)
{
    std::ostringstream os;
    os << c.name << ' ' << c.outOfOrder << ' ' << c.l1.sizeBytes << ' '
       << c.l1.assoc << ' ' << c.l2.sizeBytes << ' ' << c.l2.assoc << ' '
       << c.mem.l2Latency << ' ' << c.mem.memLatency << ' ' << c.mem.mshrs
       << ' ' << sample::captureDigest(c);
    return os.str();
}

TEST(SweepIdentity, EqualKeysMeanOneProgramAndOneMachine)
{
    sweep::SweepGrid grid;
    grid.machines = {"ooo", "inorder"};
    grid.workloads.clear();
    for (const workloads::BenchmarkInfo &b : workloads::suite())
        grid.workloads.push_back(b.name);
    grid.modes = {core::InformingMode::None,
                  core::InformingMode::TrapSingle,
                  core::InformingMode::TrapUnique,
                  core::InformingMode::CondCode};
    grid.handlerLens = {1, 10};
    grid.scale = 0.05;
    std::vector<sweep::SweepPoint> points = sweep::expandGrid(grid);
    ASSERT_EQ(points.size(), 2u * 14 * 4 * 2);
    // An override spelled out at its default value resolves to the
    // same machine, so it is the same simulation too.
    sweep::SweepPoint spelled = points[0];
    spelled.l1SizeBytes = points[0].resolveConfig().l1.sizeBytes;
    spelled.mshrs = points[0].resolveConfig().mem.mshrs;
    points.push_back(spelled);

    std::map<std::string, std::size_t> first;
    std::size_t twins = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const sweep::SweepPoint &p = points[i];
        const auto [it, fresh] =
            first.emplace(sweep::simulationKey(p), i);
        if (fresh)
            continue;
        ++twins;
        const sweep::SweepPoint &lead = points[it->second];
        SCOPED_TRACE(sweep::describePoint(p) + " vs " +
                     sweep::describePoint(lead));
        EXPECT_EQ(p.buildProgram().fingerprint(),
                  lead.buildProgram().fingerprint());
        EXPECT_EQ(configText(p.resolveConfig()),
                  configText(lead.resolveConfig()));
    }
    // Mode N at length 10 twins length 1 on every machine and
    // workload, and the spelled-out override twins its default.
    EXPECT_EQ(twins, 2u * 14 + 1);

    for (const sweep::SweepPoint &p : points) {
        if (p.handlerLen != 1)
            continue;
        sweep::SweepPoint longer = p;
        longer.handlerLen = 10;
        if (p.mode == core::InformingMode::None) {
            EXPECT_EQ(sweep::simulationKey(longer),
                      sweep::simulationKey(p));
            // instrument() rejects length 0, so it twins nothing.
            sweep::SweepPoint zero = p;
            zero.handlerLen = 0;
            EXPECT_NE(sweep::simulationKey(zero), sweep::simulationKey(p));
        } else {
            EXPECT_NE(sweep::simulationKey(longer),
                      sweep::simulationKey(p))
                << sweep::describePoint(p);
        }
    }
}

/** {N, S} x lengths {1, 10} x L1 {4, 8 KB} x {full, 2000:100:100} on
 *  in-order ora: every mode-N length-10 point twins its length-1 point,
 *  full and sampled alike, and the sampled mode-N leaders form one
 *  multi-cache geometry group. */
std::vector<sweep::SweepPoint>
twinGridPoints()
{
    sweep::SweepGrid grid;
    grid.machines = {"inorder"};
    grid.workloads = {"ora"};
    grid.modes = {core::InformingMode::None,
                  core::InformingMode::TrapSingle};
    grid.handlerLens = {1, 10};
    grid.l1SizesBytes = {4096, 8192};
    grid.samples = {"", "2000:100:100"};
    grid.scale = 0.1;
    return sweep::expandGrid(grid);
}

TEST(SweepIdentity, TwinsShareOneRunWithPerPointBytes)
{
    const std::vector<sweep::SweepPoint> points = twinGridPoints();
    ASSERT_EQ(points.size(), 16u);

    // The reference: every point run on its own.
    std::string expect = sweep::reportJsonPrefix;
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (i)
            expect += ',';
        std::ostringstream os;
        sweep::writePointJson(os, sweep::runPoint(points[i]));
        expect += os.str();
    }
    expect += sweep::reportJsonSuffix;
    EXPECT_EQ(expect.find("\"ok\":false"), std::string::npos);

    std::map<std::string, std::size_t> first;
    std::vector<std::size_t> leader(points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        leader[i] = first.emplace(sweep::simulationKey(points[i]), i)
                        .first->second;
    ASSERT_EQ(first.size(), 12u);

    for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE(testing::Message() << "jobs=" << jobs);
        std::vector<sweep::PointTiming> timings;
        std::vector<std::uint8_t> completed;
        sweep::MultiCache mc;
        const std::vector<sweep::SweepOutcome> outs =
            sweep::runSweep(points, jobs, nullptr, &completed, &timings,
                            nullptr, &mc);
        EXPECT_EQ(reportOf(outs), expect);
        EXPECT_EQ(completed, std::vector<std::uint8_t>(points.size(), 1));
        // Twins are planned first: only the leaders' sampled mode-N
        // geometry pair forms a group, not its length-10 twin pair.
        ASSERT_EQ(mc.groups.size(), 1u);
        EXPECT_EQ(mc.pointsShared, 2u);
        for (const std::size_t i : mc.groups[0].members)
            EXPECT_EQ(leader[i], i);

        std::size_t twins = 0;
        for (std::size_t i = 0; i < points.size(); ++i) {
            EXPECT_TRUE(outs[i].point == points[i]) << i;
            EXPECT_TRUE(timings[i].ran) << i;
            if (leader[i] == i)
                continue;
            ++twins;
            const sweep::PointTiming &a = timings[i];
            const sweep::PointTiming &b = timings[leader[i]];
            EXPECT_EQ(a.startMs, b.startMs) << i;
            EXPECT_EQ(a.endMs, b.endMs) << i;
            EXPECT_EQ(a.threadId, b.threadId) << i;
        }
        EXPECT_EQ(twins, 4u);
    }
}

TEST(SweepRun, ReportFragmentEscapesControlCharacters)
{
    // Error messages can carry anything a workload or the OS put in
    // them; the fragment must stay valid JSON and round-trip exactly.
    sweep::SweepOutcome o;
    o.point.machine = "inorder";
    o.point.workload = "tab\there \"quoted\" back\\slash";
    o.point.sample = "997:100:100";
    o.estimate.ok = false;
    o.estimate.error.message = "line one\nline two\r\x01\x1f end";

    std::ostringstream os;
    sweep::writePointJson(os, o);
    json::Value v;
    std::string err;
    ASSERT_TRUE(json::parse(os.str(), v, err)) << err << ": " << os.str();
    ASSERT_NE(v.find("error"), nullptr);
    EXPECT_EQ(v.find("error")->asString(), o.estimate.error.message);
    EXPECT_EQ(v.find("workload")->asString(), o.point.workload);
}

// -------------------------------------------------------------- geometry

std::vector<memory::CacheGeometry>
allLegalShapes()
{
    // Every legal shape class: pow2 line, any assoc (including
    // non-pow2) as long as the set count is a power of two.
    std::vector<memory::CacheGeometry> shapes;
    for (const std::uint32_t line : {16u, 32u, 64u, 128u}) {
        for (const std::uint32_t assoc : {1u, 2u, 3u, 4u, 6u, 8u}) {
            for (const std::uint64_t sets : {1ull, 2ull, 64ull, 1024ull}) {
                memory::CacheGeometry g;
                g.lineBytes = line;
                g.assoc = assoc;
                g.sizeBytes =
                    static_cast<std::uint64_t>(line) * assoc * sets;
                std::string why;
                EXPECT_TRUE(g.wellFormed(&why)) << why;
                shapes.push_back(g);
            }
        }
    }
    return shapes;
}

TEST(CacheGeometry, FastPathMatchesReferenceOnRandomAddresses)
{
    std::mt19937_64 rng(0x1996'05'22);  // fixed seed: deterministic
    for (memory::CacheGeometry g : allLegalShapes()) {
        memory::CacheGeometry ref = g;  // never compiled
        g.compile();
        ASSERT_TRUE(g.precomputed);
        for (int i = 0; i < 10000; ++i) {
            // Mix full-range and small addresses.
            Addr addr = rng();
            if (i % 3 == 0)
                addr &= 0xfffffff;
            ASSERT_EQ(g.setIndex(addr), ref.setIndexRef(addr))
                << "line=" << g.lineBytes << " assoc=" << g.assoc
                << " size=" << g.sizeBytes << " addr=" << addr;
            ASSERT_EQ(g.tag(addr), ref.tagRef(addr))
                << "line=" << g.lineBytes << " assoc=" << g.assoc
                << " size=" << g.sizeBytes << " addr=" << addr;
        }
    }
}

TEST(CacheGeometry, LineAddrOfInvertsSlicing)
{
    std::mt19937_64 rng(0xfeedface);
    for (memory::CacheGeometry g : allLegalShapes()) {
        memory::CacheGeometry ref = g;
        g.compile();
        for (int i = 0; i < 1000; ++i) {
            const Addr addr = rng();
            const Addr line = g.lineAddr(addr);
            const std::uint64_t set = g.setIndex(addr);
            const Addr tag_v = g.tag(addr);
            // The reconstruction used for dirty-victim writebacks must
            // name exactly the cached line, on both paths.
            EXPECT_EQ(g.lineAddrOf(tag_v, set), line);
            EXPECT_EQ(ref.lineAddrOf(tag_v, set), line);
            // And round-trip back to the same (set, tag).
            EXPECT_EQ(g.setIndex(g.lineAddrOf(tag_v, set)), set);
            EXPECT_EQ(g.tag(g.lineAddrOf(tag_v, set)), tag_v);
        }
    }
}

TEST(CacheGeometry, CompileRejectsIllegalShapes)
{
    memory::CacheGeometry g;
    g.lineBytes = 48;  // not a power of two
    g.assoc = 1;
    g.sizeBytes = 48 * 64;
    try {
        g.compile();
        FAIL() << "expected BadConfig";
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().code, ErrCode::BadConfig);
    }

    memory::CacheGeometry h;
    h.lineBytes = 32;
    h.assoc = 1;
    h.sizeBytes = 32 * 3;  // three sets: not a power of two
    EXPECT_FALSE(h.wellFormed());
    EXPECT_THROW(h.compile(), SimException);
}

} // anonymous namespace
