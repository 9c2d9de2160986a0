/**
 * @file
 * Window-level equivalence of every sampled-simulation path.
 *
 * Six producers yield the window samples of a sampled point: the
 * functional pass running each window in place, the same pass running
 * its buffered spans on a thread pool (with and without live-point
 * capture), live-point library replay, the shared multi-configuration
 * pass, and a farm-style fold of WindowRunner shards run out of order. All of them run each window
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
#include <tuple>
#include <vector>

#include "common/checkpoint.hh"
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

std::vector<std::uint8_t>
libraryBytes(sample::LivePointLibrary lib)
{
    return sample::serializeLibrary(lib);
}

/** The library a sequential (one-job) run captures. */
std::shared_ptr<const sample::LivePointLibrary>
sequentialCapture(const isa::Program &prog,
                    const pipeline::MachineConfig &cfg,
                    const sample::SampleParams &params)
{
    sample::Sampler s(prog, cfg, params);
    s.setRetainCapture(true);
    EXPECT_TRUE(s.run().ok);
    return s.capturedLibrary();
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

    // Pool: the buffered spans run on four threads; no live points.
    sample::Sampler pooled(prog, cfg, params);
    pooled.setJobs(4);
    const sample::SampleEstimate pooled_est = pooled.run();
    expectSame("pool", pooled, pooled_est);
    EXPECT_FALSE(pooled.capturedLibrary());

    // Capture + pool.
    sample::Sampler captured(prog, cfg, params);
    captured.setJobs(4);
    captured.setRetainCapture(true);
    const sample::SampleEstimate captured_est = captured.run();
    expectSame("capture+pool", captured, captured_est);
    const std::shared_ptr<const sample::LivePointLibrary> lib =
        captured.capturedLibrary();
    ASSERT_TRUE(lib);
    EXPECT_EQ(lib->points.size(), windows.size());
    EXPECT_EQ(libraryBytes(*lib),
              libraryBytes(*sequentialCapture(prog, cfg, params)));

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

TEST(WindowEquivalence, ExtensionPassesAndCheckpointMatchAcrossJobs)
{
    // Passes after the first start at a phase offset, and only pass 0
    // writes the checkpoint; neither may depend on the job count. The
    // dense schedule gives each pass more windows than one pool round.
    sweep::SweepPoint point = sampledPoint("ooo");
    point.sample = "1999:100:100";
    const isa::Program prog = point.buildProgram();
    const pipeline::MachineConfig cfg = point.resolveConfig();
    sample::SampleParams params = sample::SampleParams::parse(point.sample);
    params.targetRelErr = 0.001;
    params.maxPasses = 3;

    const auto runWith = [&](unsigned jobs) {
        pipeline::SimulateOptions opt;
        opt.checkpointOut = ::testing::TempDir() +
            "window_equivalence_j" + std::to_string(jobs) + ".ckpt";
        sample::Sampler s(prog, cfg, params);
        s.setJobs(jobs);
        const sample::SampleEstimate est = s.run(opt);
        EXPECT_TRUE(est.ok) << est.error.message;
        EXPECT_EQ(est.passes, 3u);
        EXPECT_GT(est.windows, 3 * 150u);
        EXPECT_FALSE(s.capturedLibrary());
        return std::make_tuple(s.windowSamples(), reportBytes(point, est),
                               Deserializer::readFile(opt.checkpointOut));
    };
    const auto seq = runWith(1);
    const auto par = runWith(4);
    EXPECT_EQ(std::get<0>(par), std::get<0>(seq));
    EXPECT_EQ(std::get<1>(par), std::get<1>(seq));
    EXPECT_FALSE(std::get<2>(seq).empty());
    EXPECT_EQ(std::get<2>(par), std::get<2>(seq));
}
