#include "farm/task.hh"

#include <chrono>
#include <iterator>
#include <map>
#include <sstream>

#include "common/checkpoint.hh"
#include "pipeline/inorder/cpu.hh"
#include "pipeline/ooo/cpu.hh"
#include "sample/sharedpass.hh"
#include "sweep/engine.hh"

namespace imo::farm
{

namespace
{

/** Wall-clock milliseconds (steady), for worker-side timings. */
std::uint64_t
steadyMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

sweep::SweepPoint
restorePoint(Deserializer &d)
{
    sweep::SweepPoint p;
    p.machine = d.str();
    p.workload = d.str();
    p.mode = static_cast<core::InformingMode>(d.u32());
    p.handlerLen = d.u32();
    p.scale = d.f64();
    p.seed = d.u64();
    p.l1SizeBytes = d.u64();
    p.l1Assoc = d.u32();
    p.l2SizeBytes = d.u64();
    p.l2Assoc = d.u32();
    p.l2Latency = d.u64();
    p.memLatency = d.u64();
    p.mshrs = d.u32();
    p.sample = d.str();
    return p;
}

/** Every field of @p p, as bytes: equal exactly when the points are. */
std::string
pointBytes(const sweep::SweepPoint &p)
{
    const std::vector<std::uint8_t> bytes = encodeSection(
        "point", [&](Serializer &s) { writePointFields(s, p); });
    return std::string(bytes.begin(), bytes.end());
}

Fragment
pointFragment(const sweep::SweepOutcome &outcome)
{
    std::ostringstream os;
    sweep::writePointJson(os, outcome);
    const std::string text = os.str();
    return Fragment(text.begin(), text.end());
}

/** Kind names, indexed by TaskKind - 1; a body's section is named
 *  after its kind. */
constexpr const char *kindNames[] = {"point", "group", "window"};

const char *
kindName(TaskKind kind)
{
    const std::size_t i = static_cast<std::size_t>(kind) - 1;
    sim_throw_if(i >= std::size(kindNames), ErrCode::WorkerLost,
                 "farm protocol: unknown task kind %u",
                 static_cast<unsigned>(kind));
    return kindNames[i];
}

/** A Point lease carries no body; every other kind's body is a
 *  container whose one section is named after the kind, so a
 *  truncated body or one of another kind throws here. */
void
checkBody(const LeaseMsg &lease)
{
    if (lease.kind == TaskKind::Point) {
        sim_throw_if(!lease.body.empty(), ErrCode::WorkerLost,
                     "farm protocol: a point lease carries no body");
        return;
    }
    Deserializer(lease.body).openSection(kindName(lease.kind));
}

} // anonymous namespace

// --- Lease codec ----------------------------------------------------

LeaseMsg
Task::lease(std::uint64_t slot) const
{
    LeaseMsg msg;
    msg.slot = slot;
    msg.point = points.front();
    msg.kind = kind;
    switch (kind) {
      case TaskKind::Point:
        break; // the lead point is the whole task
      case TaskKind::Group:
        msg.body = encodeSection(kindName(kind), [&](Serializer &s) {
            s.u32(static_cast<std::uint32_t>(points.size() - 1));
            for (std::size_t i = 1; i < points.size(); ++i)
                writePointFields(s, points[i]);
        });
        break;
      case TaskKind::Window: {
        const sample::LivePoint &live = library->points[window];
        msg.body = encodeSection(kindName(kind), [&](Serializer &s) {
            s.vecU8(live.warmImage);
            s.vecU8(live.execImage);
        });
        break;
      }
    }
    return msg;
}

std::vector<std::uint8_t>
encodeLease(const LeaseMsg &msg)
{
    return encodeSection("lease", [&](Serializer &s) {
        s.u64(msg.slot);
        s.u8(static_cast<std::uint8_t>(msg.kind));
        writePointFields(s, msg.point);
        s.vecU8(msg.body);
    });
}

LeaseMsg
decodeLease(const std::vector<std::uint8_t> &payload)
{
    return decodeSection("lease", payload, [](Deserializer &d) {
        LeaseMsg msg;
        msg.slot = d.u64();
        msg.kind = static_cast<TaskKind>(d.u8());
        msg.point = restorePoint(d);
        msg.body = d.vecU8();
        checkBody(msg);
        return msg;
    });
}

std::string
describeLease(const LeaseMsg &lease)
{
    return simFormat("%s %s", kindName(lease.kind),
                     sweep::describePoint(lease.point).c_str());
}

// --- Worker-side execution ------------------------------------------

Fragment
TaskRunner::run(const LeaseMsg &lease, StatsMsg &stats)
{
    const std::uint64_t start = steadyMs();
    std::uint64_t simulated = start; // when the simulation proper ended
    Fragment fragment;
    switch (lease.kind) {
      case TaskKind::Point: {
        const sweep::SweepOutcome outcome = sweep::runPoint(lease.point);
        simulated = steadyMs();
        stats.cycles = outcome.result.cycles;
        stats.instructions = outcome.result.instructions;
        fragment = pointFragment(outcome);
        break;
      }
      case TaskKind::Group: {
        // One shared pass classifies every member geometry; the
        // fragment bundles the members' report fragments, which the
        // plan's assembly splits again.
        const std::vector<sweep::SweepPoint> members = decodeSection(
            kindName(lease.kind), lease.body, [&](Deserializer &d) {
                std::vector<sweep::SweepPoint> all = {lease.point};
                const std::uint32_t others = d.u32();
                for (std::uint32_t i = 0; i < others; ++i)
                    all.push_back(restorePoint(d));
                return all;
            });
        const std::vector<sweep::SweepOutcome> outcomes =
            sweep::runPointGroup(members);
        simulated = steadyMs();
        std::vector<Fragment> parts;
        parts.reserve(outcomes.size());
        for (const sweep::SweepOutcome &o : outcomes)
            parts.push_back(pointFragment(o));
        fragment = encodeFragmentBundle(parts);
        break;
      }
      case TaskKind::Window: {
        // The fragment is the fixed-width WindowSample encoding, not
        // report JSON: the plan's assembly folds the windows.
        const sample::LivePoint live = decodeSection(
            kindName(lease.kind), lease.body, [](Deserializer &d) {
                sample::LivePoint lp;
                lp.warmImage = d.vecU8();
                lp.execImage = d.vecU8();
                return lp;
            });
        const sample::WindowSample ws = runWindow(lease.point, live);
        simulated = steadyMs();
        stats.cycles = ws.cycles;
        stats.instructions = ws.measured;
        const std::string text = sample::encodeWindowSample(ws);
        fragment.assign(text.begin(), text.end());
        break;
      }
    }
    stats.simulateMs = simulated - start;
    stats.serializeMs = steadyMs() - simulated;
    return fragment;
}

sample::WindowSample
TaskRunner::runWindow(const sweep::SweepPoint &point,
                      const sample::LivePoint &live)
{
    if (!_windowPoint || !(*_windowPoint == point)) {
        _windowPoint.reset();
        _ooo.reset();
        _inorder.reset();
        _cfg = point.resolveConfig();
        _params = sample::SampleParams::parse(point.sample);
        const isa::Program prog = point.buildProgram();
        if (_cfg.outOfOrder)
            _ooo.emplace(prog, _cfg);
        else
            _inorder.emplace(prog, _cfg);
        _windowPoint = point;
    }
    return _ooo ? _ooo->run(live, _params.warmup, _params.measure)
                : _inorder->run(live, _params.warmup, _params.measure);
}

// --- Planners -------------------------------------------------------

TaskPlan
planPoints(const std::vector<sweep::SweepPoint> &points, bool multiCache,
           unsigned jobs)
{
    TaskPlan plan;
    plan.stats.points = points.size();

    // Multi-cache planning first: every grouped point is served by its
    // group's single shared-pass task and skips per-point content
    // addressing entirely.
    std::vector<std::vector<std::size_t>> groups;
    if (multiCache)
        groups = sweep::planMultiCacheGroups(points);
    plan.stats.multiCacheGroups = groups.size();

    // Where each input point's fragment comes from: the whole fragment
    // of a Point task, or one member of a Group task's bundle.
    constexpr std::size_t whole = ~static_cast<std::size_t>(0);
    struct Source
    {
        std::size_t task = 0;
        std::size_t member = whole;
    };
    std::vector<Source> source(points.size());
    for (const std::vector<std::size_t> &g : groups)
        for (std::size_t m = 0; m < g.size(); ++m)
            source[g[m]].member = m;

    // Identical points share one task (every key digests exactly the
    // point's fields, so equal points are exactly the ones that share a
    // store record).
    std::vector<std::function<PointKey()>> keying;
    std::map<std::string, std::size_t> by_point;
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (source[i].member != whole)
            continue; // served by its group's task
        const auto [it, inserted] =
            by_point.emplace(pointBytes(points[i]), plan.tasks.size());
        if (inserted) {
            Task &t = plan.tasks.emplace_back();
            t.desc = sweep::describePoint(points[i]);
            t.points = {points[i]};
            keying.emplace_back([&p = points[i]] { return keyForPoint(p); });
        }
        source[i].task = it->second;
    }
    std::vector<std::size_t> bundle_size(plan.tasks.size(), 0);
    for (const std::vector<std::size_t> &g : groups) {
        keying.emplace_back([&plan, t = plan.tasks.size()] {
            return keyForGroup(plan.tasks[t].points);
        });
        Task &t = plan.tasks.emplace_back();
        t.kind = TaskKind::Group;
        std::vector<pipeline::MachineConfig> configs;
        for (const std::size_t i : g) {
            t.points.push_back(points[i]);
            configs.push_back(points[i].resolveConfig());
            source[i].task = plan.tasks.size() - 1;
        }
        // Same class count the shared pass derives, so the manifest's
        // "configs" means one thing farm-wide.
        t.groupMembers = g.size();
        t.groupConfigs = sample::cacheClasses(configs).configs.size();
        t.desc = simFormat("multi-cache group of %zu (%llu configs): %s",
                           g.size(),
                           static_cast<unsigned long long>(t.groupConfigs),
                           sweep::describePoint(t.points.front()).c_str());
        bundle_size.push_back(g.size());
        plan.stats.pointsGrouped += g.size();
    }

    // Content addressing builds and instruments each program, which
    // can rival a short simulation in cost, so the keys are computed in
    // parallel. The tasks themselves are built on this thread: a pool
    // thread's heap that still holds a live task cannot be trimmed,
    // and every forked worker would inherit it.
    const std::vector<PointKey> keys =
        sweep::runOrdered(keying, std::max(1u, jobs));
    for (std::size_t t = 0; t < keys.size(); ++t)
        plan.tasks[t].key = keys[t];

    plan.assemble = [source = std::move(source),
                     bundle_size = std::move(bundle_size)](
                        const std::vector<Fragment> &done) {
        // Split every group bundle back into member fragments,
        // validating the member count against the plan (a short bundle
        // is a protocol violation, not a retryable fault).
        std::vector<std::vector<Fragment>> split(done.size());
        for (std::size_t t = 0; t < done.size(); ++t) {
            if (bundle_size[t] == 0)
                continue;
            split[t] = decodeFragmentBundle(done[t]);
            sim_throw_if(split[t].size() != bundle_size[t],
                         ErrCode::WorkerLost,
                         "farm: multi-cache group bundle holds %zu "
                         "fragments for %zu members",
                         split[t].size(), bundle_size[t]);
        }
        std::vector<Fragment> out;
        out.reserve(source.size());
        for (const Source &s : source)
            out.push_back(s.member == whole ? done[s.task]
                                            : split[s.task][s.member]);
        return out;
    };
    return plan;
}

TaskPlan
planWindows(const sweep::SweepPoint &point,
            const std::shared_ptr<const sample::LivePointLibrary> &library)
{
    sim_throw_if(!library, ErrCode::BadConfig,
                 "farm: window sharding needs a live-point library");
    sim_throw_if(point.sample.empty(), ErrCode::BadConfig,
                 "farm: window sharding needs a sampled point "
                 "(--samples U:W:M)");
    sim_throw_if(!sweep::libraryMatchesPoint(*library, point),
                 ErrCode::BadConfig,
                 "farm: live-point library does not match the point "
                 "(machine kind, workload program, U:W:M schedule, and "
                 "capture digest must all agree)");

    TaskPlan plan;
    plan.stats.points = library->points.size();

    // One task per measurement window; the lease ships the window's
    // live point, so workers need neither the library file nor any
    // shared filesystem.
    const std::string desc = sweep::describePoint(point);
    plan.tasks.reserve(library->points.size());
    for (std::size_t w = 0; w < library->points.size(); ++w) {
        Task &t = plan.tasks.emplace_back();
        t.kind = TaskKind::Window;
        t.key = keyForWindow(point, library->contentHash, w);
        t.desc = simFormat("%s window %zu/%zu", desc.c_str(), w,
                           library->points.size());
        t.points = {point};
        t.library = library;
        t.window = w;
    }

    plan.assemble = [point, library](const std::vector<Fragment> &done) {
        // Fold the windows in window order — the exact merge the
        // sequential sampler performs — into the point's estimate,
        // then emit its one report fragment. Byte-identical to
        // imo-sweep over this point.
        std::vector<sample::WindowSample> samples;
        samples.reserve(done.size());
        for (const Fragment &f : done)
            samples.push_back(sample::decodeWindowSample(
                std::string(f.begin(), f.end())));

        sample::Sampler sampler(point.buildProgram(),
                                point.resolveConfig(),
                                sample::SampleParams::parse(point.sample));
        sampler.setLibrary(library);

        sweep::SweepOutcome outcome;
        outcome.point = point;
        outcome.estimate =
            sampler.runFromWindowSamples(library->totals, samples);
        return std::vector<Fragment>{pointFragment(outcome)};
    };
    return plan;
}

} // namespace imo::farm
