/**
 * @file
 * Window-level equivalence of every sampled-simulation path.
 *
 * Five producers yield the window samples of a sampled point: the
 * interleaved in-place loop, capture + thread pool, live-point library
 * replay, the shared multi-configuration pass, and a farm-style fold
 * of WindowRunner shards run out of order. All of them run each window
 * through sample::runWindow() and fold through one Sampler entry, so
 * for one eligible point per CPU kind they must agree on the exact
 * std::vector<WindowSample> and on the estimate's report bytes — not
 * just pairwise, and not just on the folded estimate. A cooperative
 * stop must surface as the same Interrupted failure on every path that
 * honours the stop flag.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hh"
#include "pipeline/inorder/cpu.hh"
#include "pipeline/ooo/cpu.hh"
#include "sample/livepoint.hh"
#include "sample/sample.hh"
#include "sample/sharedpass.hh"
#include "sweep/sweep.hh"

using namespace imo;

namespace
{

sweep::SweepPoint
sampledPoint(const char *machine)
{
    sweep::SweepPoint point;
    point.machine = machine;
    point.workload = "hydro2d";
    point.mode = core::InformingMode::None;
    point.scale = 0.1;
    point.sample = "9973:300:300";
    return point;
}

std::string
reportBytes(const sweep::SweepPoint &point,
            const sample::SampleEstimate &est)
{
    sweep::SweepOutcome o;
    o.point = point;
    o.estimate = est;
    std::ostringstream os;
    sweep::writePointJson(os, o);
    return os.str();
}

template <typename Cpu>
void
expectEveryProducerAgrees(const char *machine)
{
    const sweep::SweepPoint point = sampledPoint(machine);
    const isa::Program prog = point.buildProgram();
    const pipeline::MachineConfig cfg = point.resolveConfig();
    const sample::SampleParams params =
        sample::SampleParams::parse(point.sample);
    ASSERT_TRUE(sample::sharedPassEligible(prog));

    // Interleaved: the sequential reference path.
    sample::Sampler interleaved(prog, cfg, params);
    const sample::SampleEstimate ref = interleaved.run();
    ASSERT_TRUE(ref.ok) << ref.error.message;
    const std::vector<sample::WindowSample> windows =
        interleaved.windowSamples();
    ASSERT_GT(ref.windows, 5u) << ref.windows;
    ASSERT_GE(windows.size(), ref.windows);
    const std::string bytes = reportBytes(point, ref);

    const auto expectSame = [&](const char *path,
                                const sample::Sampler &s,
                                const sample::SampleEstimate &est) {
        EXPECT_EQ(s.windowSamples(), windows) << path;
        EXPECT_EQ(reportBytes(point, est), bytes) << path;
    };

    // Capture + pool.
    sample::Sampler pooled(prog, cfg, params);
    pooled.setJobs(4);
    const sample::SampleEstimate pooled_est = pooled.run();
    expectSame("capture+pool", pooled, pooled_est);
    const std::shared_ptr<const sample::LivePointLibrary> lib =
        pooled.capturedLibrary();
    ASSERT_TRUE(lib);
    EXPECT_EQ(lib->points.size(), windows.size());

    // Library replay.
    sample::Sampler replay(prog, cfg, params);
    replay.setLibrary(lib);
    const sample::SampleEstimate replay_est = replay.run();
    expectSame("library replay", replay, replay_est);

    // Shared pass, with a second geometry riding along whose windows
    // really differ, so a mixed-up member would show.
    pipeline::MachineConfig smaller = cfg;
    smaller.l1.sizeBytes /= 8;
    smaller.l1.assoc = 1;
    const sample::SharedPassResult shared =
        sample::runSharedGeometryPass(prog, {cfg, smaller}, params);
    EXPECT_EQ(shared.samples[0], windows);
    EXPECT_NE(shared.samples[1], windows);
    sample::Sampler shared_fold(prog, cfg, params);
    const sample::SampleEstimate shared_est =
        shared_fold.runFromWindowSamples(shared.totals[0],
                                         shared.samples[0]);
    expectSame("shared pass", shared_fold, shared_est);

    // Farm-style: one reused runner drains the windows last to first,
    // the coordinator folds the shards in window order.
    std::vector<sample::WindowSample> shards(lib->points.size());
    sample::WindowRunner<Cpu> runner(prog, cfg);
    for (std::size_t w = lib->points.size(); w-- > 0;)
        shards[w] = runner.run(lib->points[w], params.warmup,
                               params.measure);
    EXPECT_EQ(shards, windows);
    sample::Sampler farm_fold(prog, cfg, params);
    farm_fold.setLibrary(lib);
    const sample::SampleEstimate farm_est =
        farm_fold.runFromWindowSamples(lib->totals, shards);
    expectSame("farm fold", farm_fold, farm_est);
}

} // anonymous namespace

TEST(WindowEquivalence, EveryProducerAgreesInOrder)
{
    expectEveryProducerAgrees<pipeline::InOrderCpu>("inorder");
}

TEST(WindowEquivalence, EveryProducerAgreesOutOfOrder)
{
    expectEveryProducerAgrees<pipeline::OooCpu>("ooo");
}

TEST(WindowEquivalence, StopIsReportedAlikeOnEveryPath)
{
    const sweep::SweepPoint point = sampledPoint("inorder");
    const isa::Program prog = point.buildProgram();
    const pipeline::MachineConfig cfg = point.resolveConfig();
    const sample::SampleParams params =
        sample::SampleParams::parse(point.sample);

    sample::Sampler capture(prog, cfg, params);
    capture.setRetainCapture(true);
    ASSERT_TRUE(capture.run().ok);

    volatile std::sig_atomic_t stop = 1;
    pipeline::SimulateOptions opt;
    opt.stopFlag = &stop;
    const auto expectStopped = [&](const char *path, unsigned jobs,
                                   bool replay) {
        sample::Sampler s(prog, cfg, params);
        s.setJobs(jobs);
        if (replay)
            s.setLibrary(capture.capturedLibrary());
        const sample::SampleEstimate est = s.run(opt);
        EXPECT_FALSE(est.ok) << path;
        EXPECT_EQ(est.error.code, ErrCode::Interrupted) << path;
        EXPECT_EQ(est.error.message, "interrupted after 0 sampled windows")
            << path;
    };
    expectStopped("interleaved", 1, false);
    expectStopped("capture+pool", 4, false);
    expectStopped("library replay", 4, true);
}
