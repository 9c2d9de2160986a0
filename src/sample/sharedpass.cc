#include "sample/sharedpass.hh"

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
 * Replays one buffered window span, substituting each demand data
 * reference's level with one classification config's outcome. The
 * patched stream is exactly what the member's own executor would have
 * produced, so the timing model cannot tell the difference.
 */
class PatchedWindowSource final : public func::TraceSource
{
  public:
    PatchedWindowSource(const std::vector<func::TraceRecord> &records,
                        const std::vector<std::uint8_t> &levels)
        : _records(records), _levels(levels)
    {
    }

    bool
    next(func::TraceRecord &out) override
    {
        if (_pos >= _records.size())
            return false;
        out = _records[_pos++];
        if (isa::isDataRef(out.inst.op))
            out.level = static_cast<MemLevel>(_levels[_ref++]);
        return true;
    }

  private:
    const std::vector<func::TraceRecord> &_records;
    const std::vector<std::uint8_t> &_levels;
    std::size_t _pos = 0;
    std::size_t _ref = 0;
};


template <typename Cpu>
SharedPassResult
runSharedPassImpl(const isa::Program &program,
                  const std::vector<pipeline::MachineConfig> &members,
                  const SampleParams &params)
{
    // Dedupe classification work: members sharing an (L1, L2) geometry
    // pair share one engine config (they differ in latency/MSHR knobs
    // only, which the per-member window replay applies).
    std::vector<memory::MultiCacheConfig> classCfgs;
    std::vector<std::size_t> classOf(members.size());
    for (std::size_t m = 0; m < members.size(); ++m) {
        const pipeline::MachineConfig &cfg = members[m];
        std::size_t k = 0;
        for (; k < classCfgs.size(); ++k) {
            const memory::MultiCacheConfig &cc = classCfgs[k];
            if (cc.l1.sizeBytes == cfg.l1.sizeBytes &&
                cc.l1.lineBytes == cfg.l1.lineBytes &&
                cc.l1.assoc == cfg.l1.assoc &&
                cc.l2.sizeBytes == cfg.l2.sizeBytes &&
                cc.l2.lineBytes == cfg.l2.lineBytes &&
                cc.l2.assoc == cfg.l2.assoc)
                break;
        }
        if (k == classCfgs.size())
            classCfgs.push_back({cfg.l1, cfg.l2});
        classOf[m] = k;
    }

    memory::MultiCacheSim engine(classCfgs);
    EngineSink sink(engine);

    // The executor runs under the first member's geometry; its own
    // hierarchy outcome is never consumed (levels are patched per
    // member), it merely keeps the execution semantics identical to a
    // dedicated pass. The engine observes the stream via the RefSink.
    func::Executor exec(program,
                        func::Executor::Config{
                            .l1 = members[0].l1,
                            .l2 = members[0].l2,
                            .maxInstructions =
                                members[0].maxInstructions});
    exec.setRefSink(&sink);

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
        engine.beginCapture();
        func::TraceRecord rec;
        while (window.size() < W + M && tee.next(rec))
            window.push_back(rec);
        engine.endCapture();
        ++res.windows;

        // Replay the span once per member on a fresh machine seeded
        // with the shared warm image.
        for (std::size_t m = 0; m < members.size(); ++m) {
            PatchedWindowSource src(
                window, engine.capturedLevels(classOf[m]));
            res.samples[m].push_back(
                runWindow<Cpu>(members[m], warm, src, W, M));
        }

        if (window.size() < W + M)
            break; // program halted inside the window span
    }

    exec.setRefSink(nullptr);
    engine.sync(); // settle deferred L2 work before reading counters

    const func::ExecStats &es = exec.stats();
    for (std::size_t m = 0; m < members.size(); ++m) {
        res.totals[m] = CaptureTotals{
            .instructions = es.instructions,
            .dataRefs = es.dataRefs,
            .l1Misses = engine.l1Misses(classOf[m]),
            .traps = es.traps};
    }
    res.configs = classCfgs.size();
    res.streamLength = engine.accesses();
    res.prefetches = engine.prefetches();
    return res;
}

} // namespace

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
    sim_throw_if(!sharedPassEligible(program), ErrCode::BadConfig,
                 "shared pass: program '%s' contains cache-outcome-"
                 "dependent operations; its reference stream is not "
                 "geometry-invariant",
                 program.name().c_str());
    params.validate();
    for (const pipeline::MachineConfig &cfg : members) {
        cfg.validate();
        sim_throw_if(cfg.outOfOrder != members[0].outOfOrder ||
                     cfg.maxInstructions != members[0].maxInstructions,
                     ErrCode::BadConfig,
                     "shared pass: member machine kinds or instruction "
                     "budgets differ");
    }

    if (members[0].outOfOrder)
        return runSharedPassImpl<pipeline::OooCpu>(program, members,
                                                   params);
    return runSharedPassImpl<pipeline::InOrderCpu>(program, members,
                                                   params);
}

} // namespace imo::sample
