#include "farm/task.hh"

#include <algorithm>
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

/** @p fragment, rendered for @p from, re-rendered for its twin @p to
 *  by swapping the report head (sweep::writePointHead()); nullopt when
 *  the fragment does not open with @p from's head. */
std::optional<Fragment>
reheadFragment(const Fragment &fragment, const sweep::SweepPoint &from,
               const sweep::SweepPoint &to)
{
    std::ostringstream head;
    sweep::writePointHead(head, from);
    const std::string old_head = head.str();
    if (fragment.size() < old_head.size() ||
        !std::equal(old_head.begin(), old_head.end(), fragment.begin()))
        return std::nullopt;
    if (from == to)
        return fragment;
    head.str("");
    sweep::writePointHead(head, to);
    const std::string new_head = head.str();
    Fragment out(new_head.begin(), new_head.end());
    out.insert(out.end(), fragment.begin() + old_head.size(),
               fragment.end());
    return out;
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

bool
Task::fromStore(ResultStore &store, Fragment *lead) const
{
    if (kind != TaskKind::Point)
        return store.get(key, lead) == StoreGet::Hit;
    for (std::size_t m = 0; m < points.size(); ++m) {
        Fragment record;
        if (store.get(m == 0 ? key : twinKeys[m - 1], &record) !=
            StoreGet::Hit)
            continue;
        if (std::optional<Fragment> f =
                reheadFragment(record, points[m], points.front())) {
            *lead = std::move(*f);
            return true;
        }
    }
    return false;
}

std::vector<std::pair<PointKey, Fragment>>
Task::records(const Fragment &lead) const
{
    std::vector<std::pair<PointKey, Fragment>> out = {{key, lead}};
    if (kind != TaskKind::Point)
        return out;
    // A lead fragment without its own head (worker garbage) gets no
    // twin records; the plan's assembly then fails the run.
    for (std::size_t m = 1; m < points.size(); ++m) {
        if (std::optional<Fragment> f =
                reheadFragment(lead, points.front(), points[m]))
            out.emplace_back(twinKeys[m - 1], std::move(*f));
    }
    return out;
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

    // Where each input point's fragment comes from: one member of a
    // Point task (the lead's fragment, re-headed for a twin) or of a
    // Group task's bundle.
    struct Source
    {
        std::size_t task = 0;
        std::size_t member = 0;
    };
    std::vector<Source> source(points.size());
    std::vector<std::uint8_t> grouped(points.size(), 0);
    for (const std::vector<std::size_t> &g : groups)
        for (const std::size_t i : g)
            grouped[i] = 1;

    // One Point task per simulation: identical points and twins (equal
    // simulationKey) share it, each distinct point keeping its own
    // store key. A point whose simulation key cannot be derived (an
    // unknown machine) gets a task of its own and fails on its worker.
    std::vector<std::function<PointKey()>> keying;
    std::vector<Source> keyed; //!< the task member each key belongs to
    std::map<std::string, std::size_t> by_sim;
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (grouped[i])
            continue; // served by its group's task
        std::string sim;
        try {
            sim = sweep::simulationKey(points[i]);
        } catch (const SimException &) {
            sim = "point:" + pointBytes(points[i]);
        }
        const auto [it, inserted] = by_sim.emplace(sim, plan.tasks.size());
        if (inserted) {
            Task &t = plan.tasks.emplace_back();
            t.desc = sweep::describePoint(points[i]);
        }
        std::vector<sweep::SweepPoint> &set = plan.tasks[it->second].points;
        const std::size_t m = static_cast<std::size_t>(
            std::find(set.begin(), set.end(), points[i]) - set.begin());
        if (m == set.size()) {
            set.push_back(points[i]);
            keying.emplace_back([&p = points[i]] { return keyForPoint(p); });
            keyed.push_back({it->second, m});
        }
        source[i] = {it->second, m};
    }
    std::vector<std::vector<sweep::SweepPoint>> twin_sets;
    for (Task &t : plan.tasks) {
        t.twinKeys.resize(t.points.size() - 1);
        twin_sets.push_back(t.points.size() > 1
                                ? t.points
                                : std::vector<sweep::SweepPoint>{});
    }
    std::vector<std::size_t> bundle_size(plan.tasks.size(), 0);
    for (const std::vector<std::size_t> &g : groups) {
        keying.emplace_back([&plan, t = plan.tasks.size()] {
            return keyForGroup(plan.tasks[t].points);
        });
        keyed.push_back({plan.tasks.size(), 0});
        Task &t = plan.tasks.emplace_back();
        t.kind = TaskKind::Group;
        std::vector<pipeline::MachineConfig> configs;
        for (std::size_t m = 0; m < g.size(); ++m) {
            t.points.push_back(points[g[m]]);
            configs.push_back(points[g[m]].resolveConfig());
            source[g[m]] = {plan.tasks.size() - 1, m};
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
        twin_sets.emplace_back();
        plan.stats.pointsGrouped += g.size();
    }

    // Content addressing builds and instruments each program, which
    // can rival a short simulation in cost, so the keys are computed in
    // parallel. The tasks themselves are built on this thread: a pool
    // thread's heap that still holds a live task cannot be trimmed,
    // and every forked worker would inherit it.
    const std::vector<PointKey> keys =
        sweep::runOrdered(keying, std::max(1u, jobs));
    for (std::size_t k = 0; k < keys.size(); ++k) {
        Task &t = plan.tasks[keyed[k].task];
        (keyed[k].member == 0 ? t.key : t.twinKeys[keyed[k].member - 1]) =
            keys[k];
    }

    plan.assemble = [source = std::move(source),
                     bundle_size = std::move(bundle_size),
                     twin_sets = std::move(twin_sets)](
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
        for (const Source &s : source) {
            if (bundle_size[s.task] != 0) {
                out.push_back(split[s.task][s.member]);
            } else if (s.member == 0) {
                out.push_back(done[s.task]);
            } else {
                const std::vector<sweep::SweepPoint> &set =
                    twin_sets[s.task];
                std::optional<Fragment> f = reheadFragment(
                    done[s.task], set.front(), set[s.member]);
                sim_throw_if(!f, ErrCode::WorkerLost,
                             "farm: a fragment does not open with its "
                             "point's report head (%s)",
                             sweep::describePoint(set.front()).c_str());
                out.push_back(std::move(*f));
            }
        }
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
