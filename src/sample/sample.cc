#include "sample/sample.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <utility>
#include <vector>

#include "isa/verify.hh"
#include "pipeline/inorder/cpu.hh"
#include "pipeline/ooo/cpu.hh"
#include "sample/sharedpass.hh"
#include "sweep/engine.hh"

namespace imo::sample
{

void
SampleParams::validate() const
{
    sim_throw_if(fastForward == 0, ErrCode::BadConfig,
                 "sample: fast-forward gap (U) must be nonzero; use the "
                 "full detailed simulation instead of U=0");
    sim_throw_if(measure == 0, ErrCode::BadConfig,
                 "sample: measurement window (M) must be nonzero");
    sim_throw_if(maxPasses == 0, ErrCode::BadConfig,
                 "sample: maxPasses must be at least 1");
    sim_throw_if(targetRelErr < 0.0 || targetRelErr >= 1.0,
                 ErrCode::BadConfig,
                 "sample: target relative error %g outside [0, 1)",
                 targetRelErr);
}

std::string
SampleParams::spec() const
{
    return simFormat("%llu:%llu:%llu",
                     static_cast<unsigned long long>(fastForward),
                     static_cast<unsigned long long>(warmup),
                     static_cast<unsigned long long>(measure));
}

SampleParams
SampleParams::parse(const std::string &spec)
{
    std::vector<std::string> parts;
    std::stringstream ss(spec);
    std::string item;
    while (std::getline(ss, item, ':'))
        parts.push_back(item);
    sim_throw_if(parts.size() != 3, ErrCode::BadConfig,
                 "sample spec '%s' is not of the form U:W:M "
                 "(e.g. 10000:500:500)", spec.c_str());

    auto num = [&spec](const std::string &s, const char *what) {
        char *end = nullptr;
        const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
        // Digits only: strtoull would otherwise accept "-1" by
        // wrapping it to a huge unsigned value.
        sim_throw_if(s.empty() ||
                     s.find_first_not_of("0123456789") !=
                         std::string::npos ||
                     end == s.c_str() || *end != '\0',
                     ErrCode::BadConfig,
                     "sample spec '%s': bad %s value '%s'",
                     spec.c_str(), what, s.c_str());
        return static_cast<std::uint64_t>(v);
    };
    SampleParams p;
    p.fastForward = num(parts[0], "fast-forward (U)");
    p.warmup = num(parts[1], "warmup (W)");
    p.measure = num(parts[2], "measure (M)");
    p.validate();
    return p;
}

SampleParams
SampleParams::preset(const std::string &name,
                     const std::string &workload)
{
    if (name == "default")
        return SampleParams{};
    sim_throw_if(name != "periodic", ErrCode::BadConfig,
                 "unknown sample preset '%s' (known: default, periodic)",
                 name.c_str());

    // Workloads whose misses concentrate in a narrow periodic phase.
    // The default 9973-gap stride samples such a phase too sparsely:
    // most windows land in the compute body and the few that catch the
    // miss burst dominate the variance. A denser prime gap with wider
    // windows covers every period of the phase; the gaps differ per
    // workload so the stride stays co-prime with each one's loop
    // period. Tuned against the exact detailed run in EXPERIMENTS.md.
    SampleParams p;
    if (workload == "eqntott") {
        p.fastForward = 1999; // short bitmap-scan period
        p.warmup = 400;
        p.measure = 400;
    } else if (workload == "xlisp") {
        p.fastForward = 2503; // GC mark/sweep bursts
        p.warmup = 500;
        p.measure = 500;
    } else if (workload == "doduc") {
        p.fastForward = 3001; // nuclear-kernel inner loops
        p.warmup = 400;
        p.measure = 400;
    } else if (workload == "ora") {
        p.fastForward = 1499; // tight ray-step recurrence
        p.warmup = 300;
        p.measure = 300;
    }
    // Anything else keeps the defaults: the preset only overrides the
    // workloads with a demonstrated aliasing problem.
    p.validate();
    return p;
}

Sampler::Sampler(isa::Program program,
                 const pipeline::MachineConfig &config,
                 const SampleParams &params)
    : _program(std::move(program)), _config(config), _params(params)
{
}

bool
Sampler::foldWindow(const WindowSample &ws)
{
    _folded.push_back(ws);
    _est.detailedInstructions += ws.warmed;
    if (ws.warmed < _params.warmup)
        return false; // halted during warmup
    _est.detailedInstructions += ws.measured;
    if (ws.measured < _params.measure)
        return false; // truncated window: not a full-length sample, drop

    _cpi.sample(static_cast<double>(ws.cycles) /
                static_cast<double>(_params.measure));
    // Zero-ref windows are legitimate ratio-estimator samples
    // (they pull the estimate's weight, not its value), but a
    // per-window ratio only exists when there are refs.
    _winMisses.push_back(static_cast<double>(ws.misses));
    _winRefs.push_back(static_cast<double>(ws.refs));
    if (ws.refs) {
        _missRate.sample(static_cast<double>(ws.misses) /
                         static_cast<double>(ws.refs));
    }
    return true;
}

void
Sampler::throwInterrupted() const
{
    // A cooperative stop between windows; run() surfaces it as a
    // structured Interrupted estimate failure.
    throwSimError(ErrCode::Interrupted,
                  "interrupted after %llu sampled windows",
                  static_cast<unsigned long long>(_cpi.count()));
}

void
Sampler::foldWindowSamples(const std::vector<WindowSample> &samples,
                           const std::vector<std::uint8_t> *completed)
{
    for (std::size_t i = 0; i < samples.size(); ++i) {
        if (completed && !(*completed)[i]) [[unlikely]]
            throwInterrupted(); // this and later windows never ran
        if (!foldWindow(samples[i]))
            break;
    }
}

void
Sampler::setTotals(const CaptureTotals &totals)
{
    _est.instructions = totals.instructions;
    _est.dataRefs = totals.dataRefs;
    _est.l1Misses = totals.l1Misses;
    _est.traps = totals.traps;
}

template <typename Cpu>
void
Sampler::runPasses(const char *kind, const pipeline::SimulateOptions &opt)
{
    if (_library) {
        validateLibrary(kind);
        // The capture pass ran the whole program once; its exact
        // totals travel in the library header, which is what lets a
        // library consumer skip the functional pass entirely.
        setTotals(_library->totals);
        // One WindowRunner per worker: every restore overwrites the
        // whole executor, so samples stay pure functions of their live
        // points while the expensive executor construction happens
        // once per worker, not once per window. runOrderedWith writes
        // each sample into its window's slot, so the fold sees window
        // order however the pool scheduled them. A fault injector is
        // shared by every window, so with one the windows run in order
        // on this thread.
        const std::function<WindowRunner<Cpu>()> make_runner = [this] {
            return WindowRunner<Cpu>(_program, _config);
        };
        std::vector<std::function<WindowSample(WindowRunner<Cpu> &)>> tasks;
        for (const LivePoint &p : _library->points) {
            tasks.push_back([this, &p](WindowRunner<Cpu> &runner) {
                return runner.run(p, _params.warmup, _params.measure);
            });
        }
        std::vector<std::uint8_t> completed;
        foldWindowSamples(
            sweep::runOrderedWith<WindowSample, WindowRunner<Cpu>>(
                make_runner, tasks, _config.faults ? 1 : _jobs,
                opt.stopFlag, &completed),
            &completed);
        _est.passes = 1;
        return;
    }

    // Each pass is a one-member functional pass. Every pass resumes
    // from the same image; only pass 0 captures or checkpoints. Error-
    // targeted auto-extension pools more phase-offset passes until the
    // CPI confidence interval meets the target (at least two windows
    // are needed for the interval to mean anything).
    do {
        const bool capture = _est.passes == 0 &&
                             (!_captureOut.empty() || _retainCapture);
        SharedPassResult r = runSharedGeometryPass(
            _program, {_config}, _params,
            PassRequest{.pass = _est.passes,
                        .jobs = _jobs,
                        .capture = capture,
                        .options = opt});
        _est.resumedInstructions = r.resumedInstructions;
        foldWindowSamples(r.samples[0], nullptr); // the windows that ran
        if (r.interrupted) [[unlikely]]
            throwInterrupted();

        // The functional side executed the whole program regardless of
        // how the windows fell, so these totals are exact (and
        // identical in every pass — only the window placement differs).
        setTotals(r.totals[0]);
        if (capture) {
            auto lib = std::make_shared<LivePointLibrary>(LivePointLibrary{
                .kind = kind, .workload = _program.name(),
                .programFingerprint = _program.fingerprint(),
                .digest = captureDigest(_config),
                .fastForward = _params.fastForward,
                .warmup = _params.warmup, .measure = _params.measure,
                .totals = r.totals[0], .points = std::move(r.points)});
            if (!_captureOut.empty())
                writeLibraryFile(_captureOut, *lib);
            _captured = lib;
        }
        ++_est.passes;
    } while (_params.targetRelErr > 0.0 &&
             _est.passes < _params.maxPasses &&
             (_cpi.count() < 2 ||
              _cpi.relativeError() > _params.targetRelErr));
}

void
Sampler::finishMissRateEstimate()
{
    // Ratio estimator over the measured windows: R = pooled misses /
    // pooled refs, var(R) ~= sum((m_i - R r_i)^2) / (n-1) / (n rbar^2)
    // (Taylor linearization). Each window is weighted by its refs, so
    // ref-heavy miss-heavy windows cannot bias the estimate the way an
    // equal-weighted mean of per-window ratios would.
    const std::size_t n = _winMisses.size();
    double sum_m = 0.0;
    double sum_r = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        sum_m += _winMisses[i];
        sum_r += _winRefs[i];
    }
    if (sum_r <= 0.0)
        return;
    const double ratio = sum_m / sum_r;
    _est.missRateMean = ratio;
    if (n < 2)
        return;
    const double rbar = sum_r / static_cast<double>(n);
    double dev2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double d = _winMisses[i] - ratio * _winRefs[i];
        dev2 += d * d;
    }
    _est.missRateVariance = dev2 / static_cast<double>(n - 1) /
        (static_cast<double>(n) * rbar * rbar);
    _est.missRateCi95 = 1.96 * std::sqrt(_est.missRateVariance);
}

void
Sampler::resetAccumulators()
{
    _cpi.reset();
    _missRate.reset();
    _winMisses.clear();
    _winRefs.clear();
    _folded.clear();
    _captured.reset();
    _est = SampleEstimate{};
    _est.machine = _config.name;
    _est.workload = _program.name();
    _est.spec = _params.spec();
}

void
Sampler::finishEstimate()
{
    _est.windows = _cpi.count();
    _est.cpiMean = _cpi.mean();
    _est.cpiVariance = _cpi.variance();
    _est.cpiCi95 = _cpi.ci95();
    finishMissRateEstimate();
    _est.missRateDegenerate =
        std::count_if(_winMisses.begin(), _winMisses.end(),
                      [](double m) { return m > 0.0; }) < 2 ||
        _est.missRateVariance == 0.0;
}

void
Sampler::validateLibrary(const char *kind) const
{
    const LivePointLibrary &lib = *_library;
    sim_throw_if(lib.kind != kind, ErrCode::BadConfig,
                 "live-point library was captured on a '%s' machine, "
                 "this configuration is '%s'", lib.kind.c_str(), kind);
    sim_throw_if(lib.programFingerprint != _program.fingerprint(),
                 ErrCode::BadConfig,
                 "live-point library was captured from workload '%s' "
                 "(fingerprint %llx), not this program (%llx)",
                 lib.workload.c_str(),
                 static_cast<unsigned long long>(lib.programFingerprint),
                 static_cast<unsigned long long>(_program.fingerprint()));
    sim_throw_if(lib.digest != captureDigest(_config),
                 ErrCode::BadConfig,
                 "live-point library was captured under a different "
                 "cache/predictor geometry (digest %llx, this "
                 "configuration %llx)",
                 static_cast<unsigned long long>(lib.digest),
                 static_cast<unsigned long long>(
                     captureDigest(_config)));
    sim_throw_if(lib.fastForward != _params.fastForward ||
                 lib.warmup != _params.warmup ||
                 lib.measure != _params.measure,
                 ErrCode::BadConfig,
                 "live-point library was captured on a %llu:%llu:%llu "
                 "schedule, not %s",
                 static_cast<unsigned long long>(lib.fastForward),
                 static_cast<unsigned long long>(lib.warmup),
                 static_cast<unsigned long long>(lib.measure),
                 _params.spec().c_str());
}

template <typename Body>
SampleEstimate
Sampler::guarded(Body &&body)
{
    resetAccumulators();
    try {
        _params.validate();
        _config.validate();
        isa::verifyProgram(_program);
        body();
        finishEstimate();
        xcheckAgainstFull();
    } catch (const SimException &e) {
        _est.ok = false;
        _est.error = e.error();
    } catch (const std::exception &e) {
        _est.ok = false;
        _est.error = SimError{ErrCode::Internal, e.what(), {}};
    }
    return _est;
}

SampleEstimate
Sampler::run(const pipeline::SimulateOptions &options)
{
    return guarded([&] {
        if (_library) {
            sim_throw_if(_params.targetRelErr > 0.0, ErrCode::BadConfig,
                         "error-targeted extension re-runs the "
                         "functional pass with new phase offsets; it "
                         "cannot sample from a live-point library");
            sim_throw_if(!options.checkpointOut.empty() ||
                         !options.checkpointIn.empty() ||
                         options.resumeImage, ErrCode::BadConfig,
                         "checkpoint options do not apply when "
                         "sampling from a live-point library (no "
                         "functional pass runs)");
        }
        sim_throw_if(!_captureOut.empty() &&
                     (!options.checkpointIn.empty() ||
                      options.resumeImage), ErrCode::BadConfig,
                     "capturing a live-point library from a resumed "
                     "run would bake the resume point into the "
                     "library; capture from a cold start instead");

        if (_config.outOfOrder)
            runPasses<pipeline::OooCpu>("ooo", options);
        else
            runPasses<pipeline::InOrderCpu>("inorder", options);
    });
}

SampleEstimate
Sampler::runFromWindowSamples(const CaptureTotals &totals,
                              const std::vector<WindowSample> &samples)
{
    return guarded([&] {
        if (_library) {
            validateLibrary(_config.outOfOrder ? "ooo" : "inorder");
            sim_throw_if(samples.size() != _library->points.size(),
                         ErrCode::BadConfig,
                         "%zu window samples for a %zu-window library",
                         samples.size(), _library->points.size());
        }
        // The same fold, halt truncation and totals as one pass of run().
        foldWindowSamples(samples, nullptr);
        setTotals(totals);
        _est.passes = 1;
    });
}

void
Sampler::xcheckAgainstFull()
{
#ifdef IMO_PARANOID_XCHECK
    // Fault injection consumes PRNG draws per detailed event, so a
    // full run and a sampled run see different fault streams and are
    // not comparable; a windowless run estimates nothing. Resumed runs
    // cover a program suffix a cold full run would not match.
    if (_config.faults || _est.windows == 0 ||
        _est.resumedInstructions != 0) {
        return;
    }

    pipeline::MachineConfig full_cfg = _config;
    full_cfg.obs = nullptr;
    const pipeline::RunResult full =
        pipeline::simulate(_program, full_cfg);
    sim_throw_if(!full.ok, ErrCode::Internal,
                 "xcheck: full reference run failed: %s",
                 full.error.message.c_str());

    // The sampled estimate must land inside its own reported interval
    // around the detailed truth. The interval is floored at 2% of the
    // reference value (the accuracy budget this engine targets) so a
    // handful of near-identical windows reporting a degenerate
    // zero-width CI cannot turn an accurate estimate into a false
    // alarm, and at an absolute 0.002 for miss rates near zero.
    const double full_cpi = full.instructions
        ? static_cast<double>(full.cycles) / full.instructions : 0.0;
    const double cpi_tol = std::max(_est.cpiCi95, 0.02 * full_cpi);
    sim_throw_if(std::abs(full_cpi - _est.cpiMean) > cpi_tol,
                 ErrCode::Internal,
                 "xcheck: sampled CPI %.6f +/- %.6f misses full-run "
                 "CPI %.6f (%s, %s, %s, %llu windows)",
                 _est.cpiMean, cpi_tol, full_cpi,
                 _est.machine.c_str(), _est.workload.c_str(),
                 _est.spec.c_str(),
                 static_cast<unsigned long long>(_est.windows));

    // The degenerate flag, recounted from the folded windows: fewer
    // than two full windows missed, or every full window's misses sit
    // exactly on the pooled ratio (zero linearized variance).
    std::size_t missed = 0;
    bool on_ratio = true;
    for (const WindowSample &ws : _folded) {
        if (ws.warmed == _params.warmup && ws.measured == _params.measure) {
            missed += ws.misses > 0;
            on_ratio &= static_cast<double>(ws.misses) ==
                _est.missRateMean * static_cast<double>(ws.refs);
        }
    }
    sim_throw_if((missed < 2 || on_ratio) != _est.missRateDegenerate,
                 ErrCode::Internal,
                 "xcheck: miss-rate degenerate flag %d disagrees with "
                 "the folded windows (%zu missed; %s, %s, %s)",
                 _est.missRateDegenerate, missed, _est.machine.c_str(),
                 _est.workload.c_str(), _est.spec.c_str());
    if (_est.missRateDegenerate)
        return; // no interval to hold the truth to

    const double full_rate = full.dataRefs
        ? static_cast<double>(full.l1Misses) / full.dataRefs : 0.0;
    const double rate_tol = std::max(
        {_est.missRateCi95, 0.02 * full_rate, 0.002});
    sim_throw_if(std::abs(full_rate - _est.missRateMean) > rate_tol,
                 ErrCode::Internal,
                 "xcheck: sampled L1 miss rate %.6f +/- %.6f misses "
                 "full-run rate %.6f (%s, %s, %s)",
                 _est.missRateMean, rate_tol, full_rate,
                 _est.machine.c_str(), _est.workload.c_str(),
                 _est.spec.c_str());
#endif
}

void
Sampler::registerStats(stats::StatGroup &parent)
{
    auto &g = parent.childGroup("sample");
    g.adopt(_cpi);
    g.adopt(_missRate);
    g.make<stats::Value>("windows", "full measurement windows pooled",
                         [this] { return _est.windows; });
    g.make<stats::Value>("l1_miss_rate_degenerate",
                         "1: under two windows missed or zero variance",
                         [this] { return _est.missRateDegenerate ? 1 : 0; });
    g.make<stats::Value>("passes", "sampling passes run", [this] {
        return static_cast<std::uint64_t>(_est.passes);
    });
    g.make<stats::Value>("instructions",
                         "instructions executed functionally (exact)",
                         [this] { return _est.instructions; });
    g.make<stats::Value>("detailed_instructions",
                         "instructions stepped through the timing model",
                         [this] { return _est.detailedInstructions; });
    g.make<stats::Derived>("est_cycles",
                           "window CPI mean x exact instructions",
                           [this] { return _est.estCycles(); });
    g.make<stats::Derived>("exact_l1_miss_rate",
                           "functionally exact L1 miss rate",
                           [this] { return _est.exactMissRate(); });
}

} // namespace imo::sample
