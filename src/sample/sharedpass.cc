#include "sample/sharedpass.hh"

#include <algorithm>
#include <functional>
#include <optional>

#include "common/checkpoint.hh"
#include "common/error.hh"
#include "func/executor.hh"
#include "memory/multicache.hh"
#include "pipeline/image.hh"
#include "pipeline/inorder/cpu.hh"
#include "pipeline/ooo/cpu.hh"
#include "sweep/engine.hh"

namespace imo::sample
{

namespace
{

/**
 * RefSink that drives the multi-config engine with the executor's raw
 * reference stream; the engine's own capture spans record each demand
 * reference's per-class service level, aligned with the window's
 * data-reference ordinals.
 */
class EngineSink final : public func::RefSink
{
  public:
    explicit EngineSink(memory::MultiCacheSim &engine) : _engine(engine)
    {
    }

    void
    onAccess(Addr addr, bool is_write) override
    {
        _engine.access(addr, is_write);
    }

    void
    onPrefetch(Addr addr) override
    {
        _engine.prefetch(addr);
    }

  private:
    memory::MultiCacheSim &_engine;
};

/**
 * Replays one buffered window span. With @p levels, each demand data
 * reference's level is substituted with one classification config's
 * outcome; without, the records replay unchanged. Either way the
 * stream is exactly what the member's own executor would have
 * produced, so the timing model cannot tell the difference.
 */
class PatchedWindowSource final : public func::TraceSource
{
  public:
    PatchedWindowSource(const std::vector<func::TraceRecord> &records,
                        const std::vector<std::uint8_t> *levels)
        : _records(records), _levels(levels)
    {
    }

    bool
    next(func::TraceRecord &out) override
    {
        if (_pos >= _records.size())
            return false;
        out = _records[_pos++];
        if (_levels && isa::isDataRef(out.inst.op))
            out.level = static_cast<MemLevel>((*_levels)[_ref++]);
        return true;
    }

  private:
    const std::vector<func::TraceRecord> &_records;
    const std::vector<std::uint8_t> *_levels;
    std::size_t _pos = 0;
    std::size_t _ref = 0;
};

/** One window's starting state and records, as the pass buffered
 *  them. */
struct Span
{
    std::vector<std::uint8_t> warm;
    std::vector<func::TraceRecord> records;
};

/** Spans buffered before a pooled round runs: enough to keep every
 *  worker busy, few enough to bound memory on any program length
 *  (16 and 256 both measured slower, docs/PERFORMANCE.md). */
constexpr std::size_t spansPerRound = 64;

template <typename Cpu>
SharedPassResult
runPassImpl(const isa::Program &program,
            const std::vector<pipeline::MachineConfig> &members,
            const CacheClasses &classes, const SampleParams &params,
            const PassRequest &req)
{
    const pipeline::MachineConfig &lead = members[0];
    const char *kind = lead.outOfOrder ? "ooo" : "inorder";
    const std::vector<std::size_t> &classOf = classes.classOf;

    std::optional<memory::MultiCacheSim> engine;
    std::optional<EngineSink> sink;
    if (classes.configs.size() > 1) {
        engine.emplace(classes.configs);
        sink.emplace(*engine);
    }

    // The executor runs under the first member's geometry. With one
    // cache class that is every member's geometry, so its own records
    // are fed to each member unchanged. With several, its hierarchy
    // outcome is never consumed: the engine observes the stream via
    // the RefSink and each member's levels are patched from its class.
    func::Executor exec(program, {.l1 = lead.l1, .l2 = lead.l2,
                                  .maxInstructions = lead.maxInstructions});
    if (sink)
        exec.setRefSink(&*sink);

    // The accumulator machine is never measured: it soaks up warmCond-
    // Branch() for every conditional branch — gaps and window spans
    // alike — so its predictor tables at any window boundary are a
    // pure fold over the whole instruction prefix.
    Cpu accum(lead);
    accum.reset();

    SharedPassResult res;
    res.samples.resize(members.size());
    const pipeline::SimulateOptions &opt = req.options;
    std::vector<std::uint8_t> in_image;
    const std::vector<std::uint8_t> *resume = opt.resumeImage;
    if (!resume && !opt.checkpointIn.empty()) {
        in_image = Deserializer::readFile(opt.checkpointIn);
        resume = &in_image;
    }
    if (resume) {
        res.resumedInstructions = pipeline::restoreImage(
            *resume, kind, exec, accum, lead.faults);
    }

    PredictorWarmer<Cpu> warmer(accum);
    WarmingTraceSource<Cpu> tee(exec, accum);
    const std::uint64_t U = params.fastForward;
    const std::uint64_t W = params.warmup;
    const std::uint64_t M = params.measure;

    // One job, several cache classes (the engine's captured levels
    // only live until the next span), or a fault injector (its random
    // streams are shared by every window, so draws must come in window
    // order): each span's windows run in place as soon as it is
    // buffered. Otherwise the pool runs a round of spans, writing each
    // window's sample into its slot, so the order never depends on
    // scheduling.
    const bool faults = std::any_of(
        members.begin(), members.end(),
        [](const pipeline::MachineConfig &m) { return m.faults; });
    const bool pooled = req.jobs > 1 && !engine && !faults;
    std::vector<Span> round(pooled ? spansPerRound : 1);
    std::size_t pending = 0;
    const auto window = [&](const Span &s, std::size_t m) {
        PatchedWindowSource src(
            s.records,
            engine ? &engine->capturedLevels(classOf[m]) : nullptr);
        return runWindow<Cpu>(members[m], s.warm, src, W, M);
    };
    const auto runRound = [&] {
        if (!pooled) {
            for (std::size_t m = 0; m < members.size(); ++m)
                res.samples[m].push_back(window(round[0], m));
        } else {
            std::vector<std::function<WindowSample()>> tasks;
            for (std::size_t i = 0; i < pending; ++i) {
                for (std::size_t m = 0; m < members.size(); ++m)
                    tasks.push_back([&, i, m] { return window(round[i], m); });
            }
            const std::vector<WindowSample> done =
                sweep::runOrdered(tasks, req.jobs);
            for (std::size_t t = 0; t < done.size(); ++t)
                res.samples[t % members.size()].push_back(done[t]);
        }
        pending = 0;
    };

    // Deterministic phase offset: extension pass p shifts its first
    // gap by p*U/maxPasses so its windows interleave with pass 0's
    // instead of re-measuring the same instructions.
    std::uint64_t gap =
        U + U * req.pass / std::max<std::uint32_t>(params.maxPasses, 1);
    for (;;) {
        if (opt.stopFlag && *opt.stopFlag) [[unlikely]] {
            res.interrupted = true;
            break;
        }
        if (exec.fastForward(gap, &warmer) < gap)
            break; // program halted inside the gap
        gap = U;

        Span &s = round[pending++];
        s.warm = makeWarmImage(accum);
        if (req.capture)
            res.points.push_back({s.warm, makeExecImage(exec)});
        if (engine)
            engine->beginCapture();
        s.records.resize(W + M);
        std::size_t n = 0;
        while (n < W + M && tee.next(s.records[n]))
            ++n;
        s.records.resize(n);
        if (engine)
            engine->endCapture();
        if (n < W + M)
            break; // program halted inside the window span
        if (pending == round.size())
            runRound();
    }
    // The last, partial round; after a stop, the spans already buffered.
    if (pending)
        runRound();
    if (res.interrupted)
        return res;

    const func::ExecStats &es = exec.stats();
    if (engine) {
        exec.setRefSink(nullptr);
        engine->sync(); // settle deferred L2 work before reading counters
    }
    for (std::size_t m = 0; m < members.size(); ++m) {
        res.totals.push_back(CaptureTotals{
            .instructions = es.instructions,
            .dataRefs = es.dataRefs,
            .l1Misses = engine ? engine->l1Misses(classOf[m])
                               : es.l1Misses,
            .traps = es.traps});
    }
    res.configs = classes.configs.size();
    res.streamLength = es.dataRefs;
    res.prefetches = es.prefetches;

    if (req.pass == 0 && !opt.checkpointOut.empty()) {
        // The accumulator is quiesced (it only ever received warming
        // updates), so the image is taken at a valid boundary and its
        // bytes do not depend on the job count.
        writeCheckpointFile(
            opt.checkpointOut,
            pipeline::makeImage(kind, program, exec, accum, lead.faults,
                                es.instructions));
    }
    return res;
}

} // anonymous namespace

CacheClasses
cacheClasses(const std::vector<pipeline::MachineConfig> &members)
{
    CacheClasses classes;
    classes.classOf.reserve(members.size());
    for (const pipeline::MachineConfig &cfg : members) {
        std::size_t k = 0;
        for (; k < classes.configs.size(); ++k) {
            const memory::MultiCacheConfig &cc = classes.configs[k];
            if (cc.l1.sizeBytes == cfg.l1.sizeBytes &&
                cc.l1.lineBytes == cfg.l1.lineBytes &&
                cc.l1.assoc == cfg.l1.assoc &&
                cc.l2.sizeBytes == cfg.l2.sizeBytes &&
                cc.l2.lineBytes == cfg.l2.lineBytes &&
                cc.l2.assoc == cfg.l2.assoc)
                break;
        }
        if (k == classes.configs.size())
            classes.configs.push_back({cfg.l1, cfg.l2});
        classes.classOf.push_back(k);
    }
    return classes;
}

bool
sharedPassEligible(const isa::Program &program)
{
    for (const isa::Instruction &in : program.insts()) {
        switch (in.op) {
          case isa::Op::BRMISS:
          case isa::Op::BRMISS2:
          case isa::Op::SETMHAR:
          case isa::Op::SETMHARR:
          case isa::Op::SETMHARPC:
            return false;
          default:
            break;
        }
    }
    return true;
}

SharedPassResult
runSharedGeometryPass(const isa::Program &program,
                      const std::vector<pipeline::MachineConfig> &members,
                      const SampleParams &params,
                      const PassRequest &request)
{
    sim_throw_if(members.empty(), ErrCode::BadConfig,
                 "shared pass: no member configurations");
    params.validate();
    const pipeline::MachineConfig &lead = members[0];
    for (const pipeline::MachineConfig &cfg : members) {
        cfg.validate();
        // One accumulator trains one predictor for every member.
        sim_throw_if(cfg.outOfOrder != lead.outOfOrder ||
                     cfg.useGshare != lead.useGshare ||
                     cfg.predictorEntries != lead.predictorEntries ||
                     cfg.maxInstructions != lead.maxInstructions,
                     ErrCode::BadConfig,
                     "shared pass: member machine kinds, predictor "
                     "geometries or instruction budgets differ");
    }
    const CacheClasses classes = cacheClasses(members);
    sim_throw_if(classes.configs.size() > 1 && !sharedPassEligible(program),
                 ErrCode::BadConfig,
                 "shared pass: program '%s' contains cache-outcome-"
                 "dependent operations and the members span several "
                 "cache geometries; its reference stream is not "
                 "geometry-invariant",
                 program.name().c_str());

    if (lead.outOfOrder)
        return runPassImpl<pipeline::OooCpu>(program, members, classes,
                                             params, request);
    return runPassImpl<pipeline::InOrderCpu>(program, members, classes,
                                             params, request);
}

} // namespace imo::sample
