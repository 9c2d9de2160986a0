#include "workloads.hh"

#include <malloc.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "coherence/machine.hh"
#include "common/error.hh"
#include "core/informing.hh"
#include "farm/store.hh"
#include "pipeline/simulate.hh"
#include "sweep/engine.hh"
#include "sweep/gridcli.hh"
#include "workloads/suite.hh"

namespace imo::perfbench
{

namespace
{

/** splitmix64: spreads a user seed over the generator's seed space, so
 *  nearby benchmark seeds give unrelated inputs. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::vector<std::string>
allBenchmarks()
{
    std::vector<std::string> names;
    for (const workloads::BenchmarkInfo &b : workloads::suite())
        names.push_back(b.name);
    return names;
}

double
secondsBetween(std::int64_t a, std::int64_t b)
{
    return static_cast<double>(b - a) / 1e9;
}

/** ns of a library ms timestamp (same steady clock as nowNs()). */
std::int64_t
msToNs(std::uint64_t ms)
{
    return static_cast<std::int64_t>(ms) * 1'000'000;
}

/** Compare outcomes with the reference; fills attempted/failed. */
void
checkOutcomes(const std::vector<sweep::SweepOutcome> &outs,
              const Reference &ref, RepResult &r)
{
    r.attempted += ref.points.size();
    for (std::size_t i = 0; i < ref.points.size(); ++i) {
        if (i >= outs.size() || !outcomeOk(outs[i]) ||
            pointJson(outs[i]) != ref.points[i])
            ++r.failed;
    }
}

/** Per-task latencies: members of one multi-cache group share the
 *  group's record, which is one measurement, so it counts once. */
void
pointLatencies(const std::vector<sweep::PointTiming> &timings,
               RepResult &r)
{
    std::set<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>> seen;
    for (const sweep::PointTiming &t : timings) {
        if (t.ran && seen.emplace(t.threadId, t.startMs, t.endMs).second)
            r.pointMs.push_back(static_cast<double>(t.endMs - t.startMs));
    }
}

/** In the traced run, the library's own per-point records become
 *  child spans of the call that returned them, one track per pool
 *  thread (tids from 100 up), one span per task. */
void
importTimings(Tracer &tracer,
              const std::vector<sweep::PointTiming> &timings,
              std::uint64_t parent)
{
    if (!tracer.enabled())
        return;
    std::unordered_map<std::uint64_t, std::uint64_t> track;
    // Members of one multi-cache group share the group's record.
    std::set<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>> seen;
    for (const sweep::PointTiming &t : timings) {
        if (!t.ran || !seen.emplace(t.threadId, t.startMs, t.endMs).second)
            continue;
        const auto [it, fresh] =
            track.emplace(t.threadId, 100 + track.size());
        (void)fresh;
        tracer.add("sweep.point", msToNs(t.startMs), msToNs(t.endMs),
                   parent, it->second);
    }
}

/** The Figure 4 cells on the pool, one span per CoherentMachine::run. */
std::vector<coherence::CoherenceResult>
runCells(const std::vector<coherence::ParallelWorkload> &kernels,
         unsigned jobs, Tracer &tracer)
{
    const coherence::CoherenceParams cp;
    const std::uint64_t parent = Tracer::current();
    std::vector<std::function<coherence::CoherenceResult()>> tasks;
    for (const coherence::ParallelWorkload &k : kernels) {
        for (const coherence::AccessMethod m : fig4Methods()) {
            tasks.emplace_back([&k, m, &cp, &tracer, parent] {
                const std::string name =
                    std::string("coherence.run.") + methodName(m);
                Span s(tracer, name.c_str(), parent);
                coherence::CoherentMachine machine(cp, m);
                return machine.run(k);
            });
        }
    }
    return sweep::runOrdered(tasks, jobs);
}

void
checkCells(const std::vector<coherence::CoherenceResult> &cells,
           const Reference &ref, RepResult &r)
{
    r.attempted += ref.cells.size();
    for (std::size_t i = 0; i < ref.cells.size(); ++i) {
        if (i >= cells.size() || fig4Row(cells[i]) != ref.cells[i])
            ++r.failed;
    }
}

/** One grid point as the benchmark's own build -> instrument ->
 *  simulate calls: the work runPoint() does for a full point. */
sweep::SweepOutcome
runPointDecomposed(const sweep::SweepPoint &p, Tracer &tracer,
                   std::uint64_t parent)
{
    Span point(tracer, "sweep.point", parent);
    sweep::SweepOutcome out;
    out.point = p;
    const pipeline::MachineConfig cfg = p.resolveConfig();
    workloads::WorkloadParams wp;
    wp.scale = p.scale;
    wp.seed = p.seed;
    isa::Program base;
    {
        Span s(tracer, "workloads.build");
        base = workloads::build(p.workload, wp);
    }
    isa::Program prog;
    {
        Span s(tracer, "core.instrument");
        prog = core::instrument(base, p.mode, {.length = p.handlerLen});
    }
    {
        Span s(tracer, p.machine == "ooo" ? "pipeline.simulate.ooo"
                                          : "pipeline.simulate.inorder");
        out.result = pipeline::simulate(prog, cfg);
    }
    return out;
}

/** The set-up every repetition shares: grid expansion, validation
 *  and, with @p kernels, the Figure 4 kernels' traces. */
std::vector<sweep::SweepPoint>
sweepSetup(const RepContext &ctx,
           std::vector<coherence::ParallelWorkload> *kernels)
{
    Tracer &tr = ctx.tracer;
    Span s(tr, "setup");
    std::vector<sweep::SweepPoint> points;
    {
        Span e(tr, "sweep.expandGrid");
        points = sweep::expandGrid(ctx.in.grid);
    }
    {
        Span v(tr, "sweep.validatePoints");
        sweep::validatePoints(points);
    }
    if (kernels) {
        Span k(tr, "coherence.makeAllKernels");
        *kernels = coherence::makeAllKernels(ctx.in.kernels);
    }
    return points;
}

RepResult
runPaperFigures(const RepContext &ctx)
{
    RepResult r;
    Tracer &tr = ctx.tracer;
    const std::int64_t t0 = nowNs();
    Span rep(tr, "bench.rep");
    std::vector<coherence::ParallelWorkload> kernels;
    const std::vector<sweep::SweepPoint> points = sweepSetup(ctx, &kernels);
    r.poolStartNs = nowNs();
    if (ctx.decomposed) {
        Span pool(tr, "sweep.pool");
        const std::uint64_t parent = pool.id();
        std::vector<sweep::PointTiming> timings(points.size());
        std::vector<std::function<sweep::SweepOutcome()>> tasks;
        for (std::size_t i = 0; i < points.size(); ++i) {
            tasks.emplace_back([&, i, parent] {
                const std::int64_t a = nowNs();
                sweep::SweepOutcome o =
                    runPointDecomposed(points[i], tr, parent);
                timings[i] = sweep::PointTiming{
                    static_cast<std::uint64_t>(a / 1'000'000),
                    static_cast<std::uint64_t>(nowNs() / 1'000'000),
                    std::hash<std::thread::id>{}(
                        std::this_thread::get_id()),
                    true};
                return o;
            });
        }
        r.outcomes = sweep::runOrdered(tasks, ctx.jobs);
        r.timings = std::move(timings);
    } else {
        Span s(tr, "sweep.runSweep");
        r.outcomes = sweep::runSweep(points, ctx.jobs, nullptr, nullptr,
                                     &r.timings);
    }
    r.poolEndNs = nowNs();
    {
        Span s(tr, "coherence.cells");
        r.cells = runCells(kernels, ctx.jobs, tr);
    }
    {
        Span s(tr, "bench.verify");
        checkOutcomes(r.outcomes, ctx.ref, r);
        checkCells(r.cells, ctx.ref, r);
    }
    r.wallS = secondsBetween(t0, nowNs());
    pointLatencies(r.timings, r);
    return r;
}

RepResult
runSampledSweep(const RepContext &ctx)
{
    RepResult r;
    Tracer &tr = ctx.tracer;
    const std::int64_t t0 = nowNs();
    Span rep(tr, "bench.rep");
    const std::vector<sweep::SweepPoint> points = sweepSetup(ctx, nullptr);
    sweep::LibrarySharing sharing;
    sweep::MultiCache mc;
    r.poolStartNs = nowNs();
    {
        Span s(tr, "sweep.runSweep");
        r.outcomes = sweep::runSweep(points, ctx.jobs, nullptr, nullptr,
                                     &r.timings, &sharing, &mc);
        importTimings(tr, r.timings, s.id());
    }
    r.poolEndNs = nowNs();
    r.libReused = sharing.reused;
    {
        Span s(tr, "bench.verify");
        checkOutcomes(r.outcomes, ctx.ref, r);
    }
    r.wallS = secondsBetween(t0, nowNs());
    pointLatencies(r.timings, r);
    return r;
}

RepResult
runFarmStore(const RepContext &ctx, std::uint32_t rep_index)
{
    namespace fs = std::filesystem;
    RepResult r;
    Tracer &tr = ctx.tracer;
    const std::string store_dir =
        ctx.workDir + "/store-" + std::to_string(rep_index);
    fs::remove_all(store_dir);

    const std::int64_t t0 = nowNs();
    Span rep(tr, "bench.rep");
    const std::vector<sweep::SweepPoint> points = sweepSetup(ctx, nullptr);
    {
        // Seed the store with every other point's reference fragment,
        // so the farm serves half the grid from the store and
        // simulates the other half.
        Span seed(tr, "farm.seedStore");
        farm::ResultStore store(store_dir, false);
        for (std::size_t i = 0; i < points.size(); i += 2) {
            farm::PointKey key;
            {
                Span k(tr, "farm.keyForPoint");
                key = farm::keyForPoint(points[i]);
            }
            Span p(tr, "farm.store.put");
            const std::string &frag = ctx.ref.points[i];
            store.put(key, std::vector<std::uint8_t>(frag.begin(),
                                                     frag.end()));
        }
    }
    farm::FarmOptions opt;
    opt.workers = ctx.jobs;
    opt.storeDir = store_dir;
    opt.resume = true;
    opt.runId = "perfbench-" + std::to_string(rep_index);
    const std::int64_t call = nowNs();
    farm::FarmResult res;
    std::uint64_t farm_span = 0;
    {
        Span s(tr, "farm.runFarm");
        farm_span = s.id();
        res = farm::runFarm(points, opt);
    }
    {
        Span s(tr, "bench.verify");
        r.attempted += points.size();
        for (std::size_t i = 0; i < points.size(); ++i) {
            const bool same =
                res.ok && i < res.fragments.size() &&
                std::string(res.fragments[i].begin(),
                            res.fragments[i].end()) == ctx.ref.points[i];
            if (!same)
                ++r.failed;
        }
    }
    const std::int64_t t1 = nowNs();

    std::int64_t first_grant = INT64_MAX;
    for (const farm::SlotRecord &s : res.slotRecords) {
        if (s.storeHit || !s.done)
            continue;
        first_grant = std::min(first_grant, msToNs(s.startMs));
        r.pointMs.push_back(static_cast<double>(s.endMs - s.startMs));
        r.simulateMsSum += s.simulateMs;
        tr.add("farm.lease", call + msToNs(s.startMs),
               call + msToNs(s.endMs), farm_span, 100);
    }
    r.setupS = secondsBetween(t0, call) +
               (first_grant == INT64_MAX
                    ? 0.0
                    : static_cast<double>(first_grant) / 1e9);
    r.wallS = secondsBetween(t0, t1);
    r.farmStats = res.stats;
    r.slots = std::move(res.slotRecords);
    r.farmElapsedMs = res.elapsedMs;
    fs::remove_all(store_dir);
    return r;
}

} // anonymous namespace

Workload
parseWorkload(const std::string &name)
{
    if (name == "paper-figures")
        return Workload::PaperFigures;
    if (name == "sampled-sweep")
        return Workload::SampledSweep;
    if (name == "farm-store")
        return Workload::FarmStore;
    throwSimError(ErrCode::BadConfig,
                  "perfbench: unknown workload '%s' (paper-figures, "
                  "sampled-sweep, farm-store)",
                  name.c_str());
}

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::PaperFigures: return "paper-figures";
      case Workload::SampledSweep: return "sampled-sweep";
      case Workload::FarmStore: return "farm-store";
    }
    return "?";
}

double
defaultScale(Workload w)
{
    return w == Workload::SampledSweep ? 0.25 : 0.5;
}

Inputs
makeInputs(Workload w, std::uint64_t seed, double scale)
{
    Inputs in;
    in.workload = w;
    sweep::SweepGrid &g = in.grid;
    g.scale = scale;
    g.seed = mix(seed);
    if (w == Workload::SampledSweep) {
        g.machines = {"ooo"};
        g.workloads = {"alvinn", "hydro2d", "tomcatv", "compress"};
        g.modes = {core::InformingMode::None,
                   core::InformingMode::TrapSingle};
        g.handlerLens = {10};
        g.l1SizesBytes = {8 * 1024, 32 * 1024};
        g.l1Assocs = {1, 2};
        g.memLatencies = {50, 100};
        g.samples = {"9973:300:300"};
    } else {
        // The Figure 2/3 grid: every benchmark on both CPU models,
        // without and with informing traps (single and unique
        // handlers), at handler lengths 1 and 10.
        g.machines = {"ooo", "inorder"};
        g.workloads = allBenchmarks();
        g.modes = {core::InformingMode::None,
                   core::InformingMode::TrapSingle,
                   core::InformingMode::TrapUnique};
        g.handlerLens = {1, 10};
    }
    in.fig4 = w == Workload::PaperFigures;
    in.kernels.processors = 16;
    in.kernels.scale = scale;
    in.kernels.seed = mix(seed ^ 0xf164f164f164f164ull);
    return in;
}

std::vector<coherence::AccessMethod>
fig4Methods()
{
    return {coherence::AccessMethod::ReferenceCheck,
            coherence::AccessMethod::EccFault,
            coherence::AccessMethod::Informing,
            coherence::AccessMethod::Hardware};
}

const char *
methodName(coherence::AccessMethod m)
{
    switch (m) {
      case coherence::AccessMethod::ReferenceCheck: return "refcheck";
      case coherence::AccessMethod::EccFault: return "ecc";
      case coherence::AccessMethod::Informing: return "informing";
      case coherence::AccessMethod::Hardware: return "hardware";
    }
    return "?";
}

std::string
fig4Row(const coherence::CoherenceResult &r)
{
    std::ostringstream os;
    os << r.workload << ' ' << methodName(r.method) << " exec="
       << r.execTime << " refs=" << r.refs << " shared=" << r.sharedRefs
       << " l1miss=" << r.l1Misses << " lookups=" << r.lookups
       << " faults=" << r.faults << " events=" << r.protocolEvents
       << " rounds=" << r.networkRounds << " inval=" << r.invalidations
       << " compute=" << r.computeCycles << " memory=" << r.memoryCycles
       << " access=" << r.accessControlCycles
       << " network=" << r.networkCycles
       << " barrier=" << r.barrierWaitCycles;
    return os.str();
}

std::string
pointJson(const sweep::SweepOutcome &o)
{
    std::ostringstream os;
    sweep::writePointJson(os, o);
    return os.str();
}

bool
outcomeOk(const sweep::SweepOutcome &o)
{
    return o.point.sample.empty() ? o.result.ok : o.estimate.ok;
}

Reference
computeReference(const Inputs &in, unsigned jobs)
{
    Reference ref;
    const std::vector<sweep::SweepPoint> points =
        sweep::expandGrid(in.grid);
    sweep::validatePoints(points);
    for (const sweep::SweepOutcome &o : sweep::runSweep(points, jobs)) {
        ref.points.push_back(pointJson(o));
        ref.instructions.push_back(o.point.sample.empty()
                                       ? o.result.instructions
                                       : o.estimate.instructions);
    }
    if (in.fig4) {
        const coherence::CoherenceParams cp;
        for (const coherence::ParallelWorkload &k :
             coherence::makeAllKernels(in.kernels)) {
            for (const coherence::AccessMethod m : fig4Methods()) {
                coherence::CoherentMachine machine(cp, m);
                ref.cells.push_back(fig4Row(machine.run(k)));
            }
        }
    }
    return ref;
}

// Reference file: one record per line pair, "P <instructions> <bytes>"
// or "C <bytes>" followed by exactly that many bytes and a newline.
void
writeReference(const std::string &path, const Reference &ref)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    sim_throw_if(!os, ErrCode::BadConfig,
                 "perfbench: cannot write reference '%s'", path.c_str());
    for (std::size_t i = 0; i < ref.points.size(); ++i)
        os << "P " << ref.instructions[i] << ' ' << ref.points[i].size()
           << '\n'
           << ref.points[i] << '\n';
    for (const std::string &c : ref.cells)
        os << "C " << c.size() << '\n' << c << '\n';
    sim_throw_if(!os.flush(), ErrCode::BadConfig,
                 "perfbench: short write to reference '%s'", path.c_str());
}

Reference
readReference(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    sim_throw_if(!is, ErrCode::BadConfig,
                 "perfbench: cannot read reference '%s'", path.c_str());
    Reference ref;
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream hdr(line);
        char kind = 0;
        std::uint64_t insts = 0;
        std::size_t len = 0;
        hdr >> kind;
        if (kind == 'P')
            hdr >> insts;
        hdr >> len;
        sim_throw_if(!hdr || (kind != 'P' && kind != 'C') ||
                         len > (64u << 20),
                     ErrCode::BadConfig,
                     "perfbench: malformed reference record '%s'",
                     line.c_str());
        std::string body(len, '\0');
        is.read(body.data(), static_cast<std::streamsize>(len));
        sim_throw_if(is.gcount() != static_cast<std::streamsize>(len) ||
                         is.get() != '\n',
                     ErrCode::BadConfig,
                     "perfbench: truncated reference '%s'", path.c_str());
        if (kind == 'P') {
            ref.points.push_back(std::move(body));
            ref.instructions.push_back(insts);
        } else {
            ref.cells.push_back(std::move(body));
        }
    }
    return ref;
}

double
measureSetup(const RepContext &ctx)
{
    sim_throw_if(ctx.in.workload == Workload::FarmStore, ErrCode::Internal,
                 "perfbench: farm-store set-up is timed in each repetition");
    const std::int64_t t0 = nowNs();
    std::vector<coherence::ParallelWorkload> kernels;
    const std::vector<sweep::SweepPoint> points =
        sweepSetup(ctx, ctx.in.fig4 ? &kernels : nullptr);
    const bool sampled = ctx.in.workload == Workload::SampledSweep;
    sweep::LibrarySharing sharing;
    sweep::MultiCache mc;
    volatile std::sig_atomic_t cancel = 1;
    sweep::runSweep(points, ctx.jobs, &cancel, nullptr, nullptr,
                    sampled ? &sharing : nullptr, sampled ? &mc : nullptr);
    return secondsBetween(t0, nowNs());
}

RepResult
runRep(const RepContext &ctx, std::uint32_t rep)
{
    // Hand the previous repetition's freed heap back to the kernel, so
    // every repetition faults its memory in like a fresh process does.
    malloc_trim(0);
    ctx.tracer.setRun(rep);
    switch (ctx.in.workload) {
      case Workload::PaperFigures: return runPaperFigures(ctx);
      case Workload::SampledSweep: return runSampledSweep(ctx);
      case Workload::FarmStore: return runFarmStore(ctx, rep);
    }
    return {};
}

} // namespace imo::perfbench
