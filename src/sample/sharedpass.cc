#include "sample/sharedpass.hh"

#include <optional>

#include "common/error.hh"
#include "func/executor.hh"
#include "memory/multicache.hh"
#include "pipeline/inorder/cpu.hh"
#include "pipeline/ooo/cpu.hh"

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

template <typename Cpu>
SharedPassResult
runSharedPassImpl(const isa::Program &program,
                  const std::vector<pipeline::MachineConfig> &members,
                  const CacheClasses &classes, const SampleParams &params)
{
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
    func::Executor exec(program,
                        func::Executor::Config{
                            .l1 = members[0].l1,
                            .l2 = members[0].l2,
                            .maxInstructions =
                                members[0].maxInstructions});
    if (sink)
        exec.setRefSink(&*sink);

    Cpu accum(members[0]);
    accum.reset();
    PredictorWarmer<Cpu> warmer(accum);

    const std::uint64_t U = params.fastForward;
    const std::uint64_t W = params.warmup;
    const std::uint64_t M = params.measure;

    SharedPassResult res;
    res.samples.resize(members.size());
    res.totals.resize(members.size());

    std::vector<func::TraceRecord> window;
    window.reserve(W + M);
    WarmingTraceSource<Cpu> tee(exec, accum);

    // Mirror of Sampler::runPass interleaved mode, pass 0: the first
    // gap is U (pass-0 phase offset is zero), later gaps are U.
    for (;;) {
        if (exec.fastForward(U, &warmer) < U)
            break; // program halted inside the gap

        const std::vector<std::uint8_t> warm = makeWarmImage(accum);

        // Buffer the window span once through the same tee the
        // dedicated interleaved pass reads its windows from.
        window.clear();
        if (engine)
            engine->beginCapture();
        func::TraceRecord rec;
        while (window.size() < W + M && tee.next(rec))
            window.push_back(rec);
        if (engine)
            engine->endCapture();
        ++res.windows;

        // Replay the span once per member on a fresh machine seeded
        // with the shared warm image.
        for (std::size_t m = 0; m < members.size(); ++m) {
            PatchedWindowSource src(
                window,
                engine ? &engine->capturedLevels(classOf[m]) : nullptr);
            res.samples[m].push_back(
                runWindow<Cpu>(members[m], warm, src, W, M));
        }

        if (window.size() < W + M)
            break; // program halted inside the window span
    }

    const func::ExecStats &es = exec.stats();
    if (engine) {
        exec.setRefSink(nullptr);
        engine->sync(); // settle deferred L2 work before reading counters
    }
    for (std::size_t m = 0; m < members.size(); ++m) {
        res.totals[m] = CaptureTotals{
            .instructions = es.instructions,
            .dataRefs = es.dataRefs,
            .l1Misses = engine ? engine->l1Misses(classOf[m])
                               : es.l1Misses,
            .traps = es.traps};
    }
    res.configs = classes.configs.size();
    res.streamLength = es.dataRefs;
    res.prefetches = es.prefetches;
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
                      const SampleParams &params)
{
    sim_throw_if(members.empty(), ErrCode::BadConfig,
                 "shared pass: no member configurations");
    params.validate();
    for (const pipeline::MachineConfig &cfg : members) {
        cfg.validate();
        sim_throw_if(cfg.outOfOrder != members[0].outOfOrder ||
                     cfg.maxInstructions != members[0].maxInstructions,
                     ErrCode::BadConfig,
                     "shared pass: member machine kinds or instruction "
                     "budgets differ");
    }
    const CacheClasses classes = cacheClasses(members);
    sim_throw_if(classes.configs.size() > 1 && !sharedPassEligible(program),
                 ErrCode::BadConfig,
                 "shared pass: program '%s' contains cache-outcome-"
                 "dependent operations and the members span several "
                 "cache geometries; its reference stream is not "
                 "geometry-invariant",
                 program.name().c_str());

    if (members[0].outOfOrder)
        return runSharedPassImpl<pipeline::OooCpu>(program, members,
                                                   classes, params);
    return runSharedPassImpl<pipeline::InOrderCpu>(program, members,
                                                   classes, params);
}

} // namespace imo::sample
