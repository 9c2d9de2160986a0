#include "probes.hh"

#include <filesystem>
#include <set>

#include "common/error.hh"
#include "core/informing.hh"
#include "farm/proto.hh"
#include "farm/store.hh"
#include "func/executor.hh"
#include "memory/multicache.hh"
#include "pipeline/inorder/cpu.hh"
#include "pipeline/ooo/cpu.hh"
#include "sample/livepoint.hh"
#include "sample/sample.hh"
#include "sample/sharedpass.hh"
#include "workloads/suite.hh"

namespace imo::perfbench
{

namespace
{

/** Seconds spent in @p f, recorded as span @p name. */
template <typename F>
double
timed(Tracer &tracer, const char *name, F &&f)
{
    Span s(tracer, name);
    const std::int64_t a = nowNs();
    f();
    return static_cast<double>(nowNs() - a) / 1e9;
}

isa::Program
buildProgram(const sweep::SweepPoint &p)
{
    workloads::WorkloadParams wp;
    wp.scale = p.scale;
    wp.seed = p.seed;
    return core::instrument(workloads::build(p.workload, wp), p.mode,
                            {.length = p.handlerLen});
}

func::Executor::Config
execConfig(const pipeline::MachineConfig &cfg)
{
    return {.l1 = cfg.l1, .l2 = cfg.l2,
            .maxInstructions = cfg.maxInstructions};
}

/** The demand-reference and prefetch stream of one functional run. */
class StreamCapture final : public func::RefSink
{
  public:
    void onAccess(Addr addr, bool is_write) override
    {
        addrs.push_back(addr);
        kinds.push_back(is_write ? 1 : 0);
    }
    void onPrefetch(Addr addr) override
    {
        addrs.push_back(addr);
        kinds.push_back(2);
    }

    std::vector<Addr> addrs;
    std::vector<std::uint8_t> kinds; //!< 0 read, 1 write, 2 prefetch
};

/** Seconds and count of WindowRunner::run over every live point. */
template <typename Cpu>
std::pair<double, std::uint64_t>
replayWindows(Tracer &tracer, const isa::Program &prog,
              const pipeline::MachineConfig &cfg,
              const sample::LivePointLibrary &lib)
{
    sample::WindowRunner<Cpu> runner(prog, cfg);
    const double s = timed(tracer, "sample.WindowRunner.run", [&] {
        for (const sample::LivePoint &lp : lib.points)
            runner.run(lp, lib.warmup, lib.measure);
    });
    return {s, lib.points.size()};
}

void
probeSampled(const Inputs &in, Tracer &tr, Metrics &m)
{
    const std::vector<sweep::SweepPoint> points =
        sweep::expandGrid(in.grid);
    std::vector<std::vector<std::size_t>> plan;
    m["sweep.plan_ms"] = 1e3 * timed(tr, "sweep.planMultiCacheGroups", [&] {
        plan = sweep::planMultiCacheGroups(points);
    });
    const sample::SampleParams params =
        sample::SampleParams::parse(points.front().sample);

    // Functional execution alone: one full pass per distinct program.
    double ff_s = 0.0;
    std::uint64_t ff_insts = 0;
    std::set<std::string> seen;
    for (const sweep::SweepPoint &p : points) {
        const std::string key =
            p.workload + "|" + core::informingModeName(p.mode);
        if (!seen.insert(key).second)
            continue;
        const pipeline::MachineConfig cfg = p.resolveConfig();
        func::Executor ex(buildProgram(p), execConfig(cfg));
        ff_s += timed(tr, "func.Executor.fastForward", [&] {
            ff_insts += ex.fastForward(cfg.maxInstructions);
        });
    }
    m["func.exec_ms"] = 1e3 * ff_s;
    m["func.ff_mips"] = ff_s > 0.0 ? ff_insts / ff_s / 1e6 : 0.0;

    // Multi-cache groups: classification alone over the captured
    // stream, then the whole shared pass the sweep runs.
    double classify_s = 0.0, shared_s = 0.0;
    std::uint64_t refs = 0;
    std::vector<std::uint8_t> grouped(points.size(), 0);
    for (const std::vector<std::size_t> &group : plan) {
        std::vector<pipeline::MachineConfig> cfgs;
        std::vector<memory::MultiCacheConfig> mcs;
        for (const std::size_t i : group) {
            grouped[i] = 1;
            cfgs.push_back(points[i].resolveConfig());
            mcs.push_back({cfgs.back().l1, cfgs.back().l2});
        }
        const isa::Program prog = buildProgram(points[group.front()]);
        StreamCapture cap;
        {
            func::Executor ex(prog, execConfig(cfgs.front()));
            ex.setRefSink(&cap);
            ex.fastForward(cfgs.front().maxInstructions);
        }
        memory::MultiCacheSim sim(mcs);
        classify_s += timed(tr, "memory.MultiCacheSim.classify", [&] {
            for (std::size_t r = 0; r < cap.addrs.size(); ++r) {
                if (cap.kinds[r] == 2)
                    sim.prefetch(cap.addrs[r]);
                else
                    sim.access(cap.addrs[r], cap.kinds[r] == 1);
            }
            sim.sync();
        });
        refs += cap.addrs.size();
        shared_s += timed(tr, "sample.runSharedGeometryPass", [&] {
            sample::runSharedGeometryPass(prog, cfgs, params);
        });
    }
    m["memory.classify_refs"] = static_cast<double>(refs);
    m["memory.classify_ns_per_ref"] = refs ? 1e9 * classify_s / refs : 0.0;
    m["sample.shared_pass_ms"] = 1e3 * shared_s;

    // Live-point libraries: the leaders runSweep's library sharing
    // would pick (capture-relevant inputs equal), captured one by one.
    std::map<std::string, std::vector<std::size_t>> libGroups;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const sweep::SweepPoint &p = points[i];
        if (grouped[i])
            continue;
        libGroups[p.machine + "|" + p.workload + "|" +
                  core::informingModeName(p.mode) + "|" +
                  std::to_string(p.handlerLen) + "|" +
                  std::to_string(sample::captureDigest(
                      p.resolveConfig()))]
            .push_back(i);
    }
    double sampler_s = 0.0, window_s = 0.0, ser_s = 0.0, parse_s = 0.0,
           restore_s = 0.0;
    std::uint64_t windows = 0, replayed = 0, restores = 0, lib_bytes = 0;
    for (const auto &[key, members] : libGroups) {
        (void)key;
        if (members.size() < 2)
            continue;
        const sweep::SweepPoint &p = points[members.front()];
        const pipeline::MachineConfig cfg = p.resolveConfig();
        const isa::Program prog = buildProgram(p);
        sample::Sampler sampler(prog, cfg, params);
        sampler.setRetainCapture(true);
        sample::SampleEstimate est;
        sampler_s += timed(tr, "sample.Sampler.run",
                           [&] { est = sampler.run(); });
        windows += est.windows;
        const std::shared_ptr<const sample::LivePointLibrary> lib =
            sampler.capturedLibrary();
        sim_throw_if(!lib, ErrCode::Internal,
                     "perfbench: sampler retained no library");
        const auto [ws, wn] =
            cfg.outOfOrder
                ? replayWindows<pipeline::OooCpu>(tr, prog, cfg, *lib)
                : replayWindows<pipeline::InOrderCpu>(tr, prog, cfg, *lib);
        window_s += ws;
        replayed += wn;

        sample::LivePointLibrary copy = *lib;
        std::vector<std::uint8_t> image;
        ser_s += timed(tr, "sample.serializeLibrary",
                       [&] { image = sample::serializeLibrary(copy); });
        lib_bytes += image.size();
        parse_s += timed(tr, "sample.parseLibrary", [&] {
            sample::parseLibrary(std::move(image));
        });
        func::Executor ex(prog, execConfig(cfg));
        restore_s += timed(tr, "sample.restoreExecImage", [&] {
            for (const sample::LivePoint &lp : lib->points)
                sample::restoreExecImage(lp.execImage, ex);
        });
        restores += lib->points.size();
    }
    m["sample.sampler_ms"] = 1e3 * sampler_s;
    m["sample.windows"] = static_cast<double>(windows);
    m["sample.window_us"] = replayed ? 1e6 * window_s / replayed : 0.0;
    m["sample.lib_bytes"] = static_cast<double>(lib_bytes);
    m["sample.lib_serialize_ms"] = 1e3 * ser_s;
    m["sample.lib_parse_ms"] = 1e3 * parse_s;
    m["sample.exec_restore_us"] = restores ? 1e6 * restore_s / restores
                                           : 0.0;
}

void
probeFarm(const Inputs &in, const Reference &ref, Tracer &tr,
          const std::string &work_dir, Metrics &m)
{
    namespace fs = std::filesystem;
    const std::vector<sweep::SweepPoint> points =
        sweep::expandGrid(in.grid);

    double fp_s = 0.0;
    for (const sweep::SweepPoint &p : points) {
        const isa::Program prog = buildProgram(p);
        fp_s += timed(tr, "isa.Program.fingerprint",
                      [&] { (void)prog.fingerprint(); });
    }
    m["isa.fingerprint_ms"] = 1e3 * fp_s;

    // The store on the run's own fragments: every put, then every get.
    const std::string dir = work_dir + "/probe-store";
    fs::remove_all(dir);
    std::vector<farm::PointKey> keys;
    for (const sweep::SweepPoint &p : points)
        keys.push_back(farm::keyForPoint(p));
    {
        farm::ResultStore store(dir, false);
        const double put_s = timed(tr, "farm.ResultStore.put", [&] {
            for (std::size_t i = 0; i < points.size(); ++i)
                store.put(keys[i],
                          std::vector<std::uint8_t>(ref.points[i].begin(),
                                                    ref.points[i].end()));
        });
        std::uint64_t misses = 0;
        const double get_s = timed(tr, "farm.ResultStore.get", [&] {
            std::vector<std::uint8_t> frag;
            for (std::size_t i = 0; i < points.size(); ++i) {
                if (store.get(keys[i], &frag) != farm::StoreGet::Hit ||
                    std::string(frag.begin(), frag.end()) != ref.points[i])
                    ++misses;
            }
        });
        sim_throw_if(misses != 0, ErrCode::StoreCorrupt,
                     "perfbench: %llu store records did not read back",
                     static_cast<unsigned long long>(misses));
        m["farm.store_put_us"] = 1e6 * put_s / points.size();
        m["farm.store_get_us"] = 1e6 * get_s / points.size();
    }
    fs::remove_all(dir);

    // Lease and Result frames through encode, framing, incremental
    // parse and decode; repeated because one round trip is short.
    constexpr int passes = 20;
    const double frame_s = timed(tr, "farm.proto.roundTrip", [&] {
        for (int pass = 0; pass < passes; ++pass) {
            for (std::size_t i = 0; i < points.size(); ++i) {
                farm::LeaseMsg lease;
                lease.slot = i;
                lease.point = points[i];
                const std::vector<std::uint8_t> lf = farm::buildFrame(
                    farm::FrameType::Lease, farm::encodeLease(lease));
                farm::ResultMsg result;
                result.slot = i;
                result.fragment.assign(ref.points[i].begin(),
                                       ref.points[i].end());
                const std::vector<std::uint8_t> rf = farm::buildFrame(
                    farm::FrameType::Result, farm::encodeResult(result));
                farm::FrameParser parser;
                parser.feed(lf.data(), lf.size());
                parser.feed(rf.data(), rf.size());
                farm::Frame f;
                sim_throw_if(!parser.next(&f) ||
                                 farm::decodeLease(f.payload).slot != i ||
                                 !parser.next(&f) ||
                                 farm::decodeResult(f.payload).slot != i,
                             ErrCode::Internal,
                             "perfbench: frame round trip failed");
            }
        }
    });
    m["farm.frame_us"] = 1e6 * frame_s / (passes * points.size());
}

} // anonymous namespace

void
runProbes(const Inputs &in, const Reference &ref, Tracer &tracer,
          const std::string &work_dir, Metrics &out)
{
    Span s(tracer, "bench.probes");
    switch (in.workload) {
      case Workload::PaperFigures:
        break; // the decomposed traced repetitions cover its layers
      case Workload::SampledSweep:
        probeSampled(in, tracer, out);
        break;
      case Workload::FarmStore:
        probeFarm(in, ref, tracer, work_dir, out);
        break;
    }
}

} // namespace imo::perfbench
