#include "sweep/sweep.hh"

#include <chrono>
#include <functional>
#include <memory>
#include <ostream>
#include <thread>
#include <unordered_map>

#include "common/error.hh"
#include "common/stats.hh"
#include "pipeline/simulate.hh"
#include "sample/sharedpass.hh"
#include "sweep/engine.hh"
#include "workloads/suite.hh"

namespace imo::sweep
{

pipeline::MachineConfig
SweepPoint::resolveConfig() const
{
    pipeline::MachineConfig cfg;
    if (machine == "ooo") {
        cfg = pipeline::makeOutOfOrderConfig();
    } else if (machine == "inorder") {
        cfg = pipeline::makeInOrderConfig();
    } else {
        throwSimError(ErrCode::BadConfig,
                      "sweep: unknown machine '%s' (ooo or inorder)",
                      machine.c_str());
    }
    if (l1SizeBytes)
        cfg.l1.sizeBytes = l1SizeBytes;
    if (l1Assoc)
        cfg.l1.assoc = l1Assoc;
    if (l2SizeBytes)
        cfg.l2.sizeBytes = l2SizeBytes;
    if (l2Assoc)
        cfg.l2.assoc = l2Assoc;
    if (l2Latency)
        cfg.mem.l2Latency = l2Latency;
    if (memLatency)
        cfg.mem.memLatency = memLatency;
    if (mshrs)
        cfg.mem.mshrs = mshrs;
    return cfg;
}

isa::Program
SweepPoint::buildProgram() const
{
    workloads::WorkloadParams wp;
    wp.scale = scale;
    wp.seed = seed;
    return core::instrument(workloads::build(workload, wp), mode,
                            {.length = handlerLen});
}

std::string
simulationKey(const SweepPoint &p)
{
    // Raw field bytes, strings length-prefixed: runSweep keys every
    // point before the first one starts, so formatting text here would
    // show in set-up time.
    const pipeline::MachineConfig cfg = p.resolveConfig();
    std::string key;
    const auto num = [&key](auto v) {
        key.append(reinterpret_cast<const char *>(&v), sizeof v);
    };
    const auto str = [&key, &num](const std::string &v) {
        num(v.size());
        key += v;
    };
    str(p.machine);
    num(cfg.l1.sizeBytes);
    num(cfg.l1.assoc);
    num(cfg.l2.sizeBytes);
    num(cfg.l2.assoc);
    num(cfg.mem.l2Latency);
    num(cfg.mem.memLatency);
    num(cfg.mem.mshrs);
    str(p.workload);
    num(p.scale);
    num(p.seed);
    num(p.mode);
    num(core::handlerLengthShapesProgram(p.mode)
            ? p.handlerLen
            : static_cast<std::uint32_t>(p.handlerLen != 0));
    str(p.sample);
    return key;
}

std::vector<SweepPoint>
expandGrid(const SweepGrid &grid)
{
    auto axis = [](const auto &values, auto fallback) {
        using V = std::decay_t<decltype(fallback)>;
        return values.empty() ? std::vector<V>{fallback}
                              : std::vector<V>(values.begin(),
                                               values.end());
    };
    const auto machines = axis(grid.machines, std::string("ooo"));
    const auto workloads = axis(grid.workloads, std::string("espresso"));
    const auto modes = axis(grid.modes, core::InformingMode::None);
    const auto lens = axis(grid.handlerLens, std::uint32_t{10});
    const auto l1_sizes = axis(grid.l1SizesBytes, std::uint64_t{0});
    const auto l1_assocs = axis(grid.l1Assocs, std::uint32_t{0});
    const auto l2_lats = axis(grid.l2Latencies, std::uint64_t{0});
    const auto mem_lats = axis(grid.memLatencies, std::uint64_t{0});
    const auto mshr_counts = axis(grid.mshrCounts, std::uint32_t{0});
    const auto samples = axis(grid.samples, std::string(""));

    std::vector<SweepPoint> points;
    for (const std::string &machine : machines)
        for (const std::string &workload : workloads)
            for (const core::InformingMode mode : modes)
                for (const std::uint32_t len : lens)
                    for (const std::uint64_t l1s : l1_sizes)
                        for (const std::uint32_t l1a : l1_assocs)
                            for (const std::uint64_t l2l : l2_lats)
                                for (const std::uint64_t ml : mem_lats)
                                    for (const std::uint32_t ms :
                                         mshr_counts)
                                        for (const std::string &smp :
                                             samples) {
                                            SweepPoint p;
                                            p.machine = machine;
                                            p.workload = workload;
                                            p.mode = mode;
                                            p.handlerLen = len;
                                            p.scale = grid.scale;
                                            p.seed = grid.seed;
                                            p.l1SizeBytes = l1s;
                                            p.l1Assoc = l1a;
                                            p.l2Latency = l2l;
                                            p.memLatency = ml;
                                            p.mshrs = ms;
                                            p.sample = smp;
                                            points.push_back(p);
                                        }
    return points;
}

SweepOutcome
runPoint(const SweepPoint &point)
{
    return runPoint(point, nullptr, nullptr);
}

SweepOutcome
runPoint(const SweepPoint &point,
         const std::shared_ptr<const sample::LivePointLibrary> &replay,
         std::shared_ptr<const sample::LivePointLibrary> *capture)
{
    SweepOutcome out;
    out.point = point;

    const pipeline::MachineConfig cfg = point.resolveConfig();
    const isa::Program prog = point.buildProgram();
    if (point.sample.empty()) {
        out.result = pipeline::simulate(prog, cfg);
    } else {
        // parse() throws BadConfig on a malformed spec; runSweep's
        // callers validate up front, so here it indicates a driver bug
        // and is allowed to propagate into the engine's error path.
        sample::Sampler sampler(
            prog, cfg, sample::SampleParams::parse(point.sample));
        if (replay)
            sampler.setLibrary(replay);
        if (capture)
            sampler.setRetainCapture(true);
        out.estimate = sampler.run();
        if (capture)
            *capture = sampler.capturedLibrary();
    }
    return out;
}

namespace
{

/** Grouping key for multi-cache shared passes: every non-geometry
 *  input. Points with equal keys can share one reference stream. */
std::string
multiCacheKey(const SweepPoint &p)
{
    return simFormat("%s|%s|%s|%u|%.17g|%llu|%s", p.machine.c_str(),
                     p.workload.c_str(),
                     core::informingModeName(p.mode), p.handlerLen,
                     p.scale, static_cast<unsigned long long>(p.seed),
                     p.sample.c_str());
}

/** Grouping key for capture sharing: every input the functional pass
 *  depends on, so equal keys mean one program, one schedule and one
 *  cache class — any program can share a pass then. */
std::string
libraryKey(const SweepPoint &p)
{
    return simFormat("%s|%016llx", multiCacheKey(p).c_str(),
                     static_cast<unsigned long long>(
                         sample::captureDigest(p.resolveConfig())));
}

} // anonymous namespace

std::vector<std::vector<std::size_t>>
planMultiCacheGroups(const std::vector<SweepPoint> &points)
{
    std::unordered_map<std::string, std::size_t> slot;
    std::vector<std::vector<std::size_t>> cands;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const SweepPoint &p = points[i];
        if (p.sample.empty())
            continue;
        try {
            // A member whose config cannot validate would poison the
            // whole shared pass; leave it on the dedicated path, where
            // the sampler's envelope turns it into an error estimate.
            p.resolveConfig().validate();
        } catch (const SimException &) {
            continue;
        }
        const auto [it, fresh] = slot.try_emplace(multiCacheKey(p),
                                                  cands.size());
        if (fresh)
            cands.emplace_back();
        cands[it->second].push_back(i);
    }

    std::vector<std::vector<std::size_t>> groups;
    for (std::vector<std::size_t> &members : cands) {
        if (members.size() < 2)
            continue; // nothing to amortize
        // One program build per candidate decides eligibility: an
        // informing-mode program's stream depends on cache outcomes,
        // so it cannot share a pass and stays dedicated.
        try {
            if (!sample::sharedPassEligible(
                    points[members[0]].buildProgram()))
                continue;
        } catch (const SimException &) {
            continue; // workload/instrument errors surface per point
        }
        groups.push_back(std::move(members));
    }
    return groups;
}

std::vector<SweepOutcome>
runPointGroup(const std::vector<SweepPoint> &members,
              MultiCacheGroup *prov)
{
    sim_throw_if(members.empty(), ErrCode::BadConfig,
                 "multi-cache group: no members");
    const SweepPoint &p0 = members[0];
    for (const SweepPoint &p : members) {
        sim_throw_if(p.machine != p0.machine ||
                     p.workload != p0.workload || p.mode != p0.mode ||
                     p.handlerLen != p0.handlerLen ||
                     p.scale != p0.scale || p.seed != p0.seed ||
                     p.sample != p0.sample,
                     ErrCode::BadConfig,
                     "multi-cache group: members differ in a "
                     "non-geometry input (%s vs %s)",
                     describePoint(p).c_str(),
                     describePoint(p0).c_str());
    }

    const isa::Program prog = p0.buildProgram();
    const sample::SampleParams params =
        sample::SampleParams::parse(p0.sample);
    std::vector<pipeline::MachineConfig> cfgs;
    cfgs.reserve(members.size());
    for (const SweepPoint &p : members)
        cfgs.push_back(p.resolveConfig());

    const sample::SharedPassResult shared =
        sample::runSharedGeometryPass(prog, cfgs, params);

    std::vector<SweepOutcome> outs(members.size());
    for (std::size_t m = 0; m < members.size(); ++m) {
        outs[m].point = members[m];
        sample::Sampler sampler(prog, cfgs[m], params);
        outs[m].estimate = sampler.runFromWindowSamples(
            shared.totals[m], shared.samples[m]);
    }
    if (prov) {
        prov->configs = shared.configs;
        prov->streamLength = shared.streamLength;
        prov->prefetches = shared.prefetches;
        prov->windows = shared.samples[0].size();
        prov->shared = true;
    }
    return outs;
}

bool
libraryMatchesPoint(const sample::LivePointLibrary &supplied,
                    const SweepPoint &point)
{
    if (point.sample.empty() || supplied.kind != point.machine)
        return false;
    const sample::SampleParams sp =
        sample::SampleParams::parse(point.sample);
    if (supplied.fastForward != sp.fastForward ||
        supplied.warmup != sp.warmup || supplied.measure != sp.measure)
        return false;
    if (supplied.digest != sample::captureDigest(point.resolveConfig()))
        return false;
    return supplied.programFingerprint == point.buildProgram().fingerprint();
}

std::vector<SweepOutcome>
runSweep(const std::vector<SweepPoint> &points, unsigned jobs,
         const volatile std::sig_atomic_t *cancel,
         std::vector<std::uint8_t> *completed,
         std::vector<PointTiming> *timings,
         LibrarySharing *sharing, MultiCache *multiCache)
{
    if (timings) {
        timings->clear();
        timings->resize(points.size());
    }
    const auto steady_ms = [] {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    };

    // Every task writes its own pre-sized slots (outcome, timing,
    // completion flag) directly — point tasks own one index, a group
    // task owns its members' indices — so results assemble in point
    // order regardless of scheduling and the report stays
    // byte-identical for any job count.
    std::vector<SweepOutcome> outcomes(points.size());
    std::vector<std::uint8_t> ranLocal;
    std::vector<std::uint8_t> &ran = completed ? *completed : ranLocal;
    ran.assign(points.size(), 0);

    // Twin plan: points with one simulationKey share one run, led by
    // the first of them in grid order. A point whose key cannot be
    // derived (an unknown machine) leads itself and fails in its own
    // task, as it would unshared. Only leaders are planned below.
    std::vector<std::size_t> leaderOf(points.size());
    std::vector<std::size_t> leaders;
    {
        std::unordered_map<std::string, std::size_t> first;
        for (std::size_t i = 0; i < points.size(); ++i) {
            leaderOf[i] = i;
            try {
                leaderOf[i] =
                    first.try_emplace(simulationKey(points[i]), i)
                        .first->second;
            } catch (const SimException &) {
            }
            if (leaderOf[i] == i)
                leaders.push_back(i);
        }
    }

    // Group plan: multi-cache groups first (geometry-axis points over a
    // stream-invariant program), then, among the remaining sampled
    // points, capture-matching groups (equal libraryKey: one cache
    // class). Each group becomes one shared-pass task. A supplied
    // library that matches a capture-matching group serves it by
    // per-point replay instead.
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    std::vector<std::vector<std::size_t>> groups;
    if (multiCache) {
        std::vector<SweepPoint> leading;
        for (const std::size_t i : leaders)
            leading.push_back(points[i]);
        groups = planMultiCacheGroups(leading);
        for (std::vector<std::size_t> &g : groups)
            for (std::size_t &m : g)
                m = leaders[m];
    }
    const std::size_t mcCount = groups.size();
    std::vector<std::size_t> groupOf(points.size(), kNone);
    for (std::size_t g = 0; g < groups.size(); ++g) {
        for (const std::size_t i : groups[g])
            groupOf[i] = g;
    }
    std::vector<std::uint8_t> fromSupplied(points.size(), 0);
    if (sharing) {
        std::unordered_map<std::string, std::size_t> slot;
        std::vector<std::vector<std::size_t>> cands;
        for (const std::size_t i : leaders) {
            if (points[i].sample.empty() || groupOf[i] != kNone)
                continue;
            const auto [it, fresh] =
                slot.try_emplace(libraryKey(points[i]), cands.size());
            if (fresh)
                cands.emplace_back();
            cands[it->second].push_back(i);
        }
        for (std::vector<std::size_t> &members : cands) {
            if (sharing->supplied &&
                libraryMatchesPoint(*sharing->supplied,
                                    points[members[0]])) {
                for (const std::size_t i : members)
                    fromSupplied[i] = 1;
            } else if (members.size() > 1) {
                for (const std::size_t i : members)
                    groupOf[i] = groups.size();
                groups.push_back(std::move(members));
            }
        }
    }
    std::vector<MultiCacheGroup> provs(groups.size());
    for (std::size_t g = 0; g < groups.size(); ++g)
        provs[g].members = groups[g];

    const auto makePointTask = [&](std::size_t i) {
        return std::function<int()>([&, i] {
            PointTiming *t = timings ? &(*timings)[i] : nullptr;
            if (t) {
                t->startMs = steady_ms();
                t->threadId = std::hash<std::thread::id>{}(
                    std::this_thread::get_id());
            }
            outcomes[i] = runPoint(
                points[i], fromSupplied[i] ? sharing->supplied : nullptr,
                nullptr);
            if (t) {
                t->endMs = steady_ms();
                t->ran = true;
            }
            ran[i] = 1;
            return 0;
        });
    };

    // One task per group. A group whose shared pass fails for any
    // reason but an internal error falls back to dedicated per-member
    // runs inside the same task, so each member reports exactly what
    // its own run would (a BadConfig member, say, becomes its error
    // estimate); ErrCode::Internal — notably an IMO_PARANOID_XCHECK
    // divergence — stays loud.
    const auto makeGroupTask = [&](std::size_t g) {
        return std::function<int()>([&, g] {
            const std::uint64_t t0 = steady_ms();
            const std::uint64_t tid = std::hash<std::thread::id>{}(
                std::this_thread::get_id());
            std::vector<SweepPoint> mem;
            for (const std::size_t i : groups[g])
                mem.push_back(points[i]);
            std::vector<SweepOutcome> outs;
            try {
                outs = runPointGroup(mem, &provs[g]);
            } catch (const SimException &e) {
                if (e.code() == ErrCode::Internal)
                    throw;
                outs.clear();
                for (const SweepPoint &p : mem)
                    outs.push_back(runPoint(p));
                provs[g].shared = false;
            }
            const std::uint64_t t1 = steady_ms();
            for (std::size_t k = 0; k < groups[g].size(); ++k) {
                const std::size_t i = groups[g][k];
                outcomes[i] = std::move(outs[k]);
                if (timings)
                    (*timings)[i] = PointTiming{t0, t1, tid, true};
                ran[i] = 1;
            }
            return 0;
        });
    };

    // One pool phase: a group task enters the queue where its first
    // member sits in grid order.
    std::vector<std::function<int()>> tasks;
    for (const std::size_t i : leaders) {
        if (groupOf[i] == kNone)
            tasks.emplace_back(makePointTask(i));
        else if (groups[groupOf[i]].front() == i)
            tasks.emplace_back(makeGroupTask(groupOf[i]));
    }
    runOrdered(tasks, jobs, cancel);

    // Each twin of a leader that ran takes its outcome and timing.
    for (std::size_t i = 0; i < points.size(); ++i) {
        const std::size_t lead = leaderOf[i];
        if (lead == i || !ran[lead])
            continue;
        outcomes[i] = outcomes[lead];
        outcomes[i].point = points[i];
        if (timings)
            (*timings)[i] = (*timings)[lead];
        ran[i] = 1;
    }

    // Count what ran: a cancelled or fallen-back pass served nobody.
    if (sharing) {
        for (std::size_t g = mcCount; g < groups.size(); ++g) {
            if (provs[g].shared) {
                ++sharing->captured;
                sharing->reused += groups[g].size() - 1;
            }
        }
        for (std::size_t i = 0; i < points.size(); ++i)
            sharing->reused += fromSupplied[i] && ran[i];
    }
    if (multiCache) {
        multiCache->groups.assign(provs.begin(), provs.begin() + mcCount);
        for (const MultiCacheGroup &g : multiCache->groups) {
            if (g.shared)
                multiCache->pointsShared += g.members.size();
        }
    }
    return outcomes;
}

const char *const reportJsonPrefix = "{\"sweep\":{\"points\":[";
const char *const reportJsonSuffix = "]}}\n";

void
writePointHead(std::ostream &os, const SweepPoint &p)
{
    const pipeline::MachineConfig cfg = p.resolveConfig();
    os << "{\"machine\":\"";
    os << stats::jsonEscape(cfg.name);
    os << "\",\"workload\":\"";
    os << stats::jsonEscape(p.workload);
    os << "\",\"mode\":\"" << core::informingModeName(p.mode)
       << "\",\"handler_len\":" << p.handlerLen
       << ",\"scale\":" << p.scale
       << ",\"seed\":" << p.seed
       << ",\"l1_bytes\":" << cfg.l1.sizeBytes
       << ",\"l1_assoc\":" << cfg.l1.assoc
       << ",\"l2_bytes\":" << cfg.l2.sizeBytes
       << ",\"l2_assoc\":" << cfg.l2.assoc
       << ",\"l2_latency\":" << cfg.mem.l2Latency
       << ",\"mem_latency\":" << cfg.mem.memLatency
       << ",\"mshrs\":" << cfg.mem.mshrs
       << ",\"sample\":\"";
    os << stats::jsonEscape(p.sample);
    os << '"';
}

void
writePointJson(std::ostream &os, const SweepOutcome &o)
{
    writePointHead(os, o.point);
    if (!o.point.sample.empty()) {
        const sample::SampleEstimate &e = o.estimate;
        os << ",\"ok\":" << (e.ok ? "true" : "false");
        if (!e.ok) {
            os << ",\"error\":\"";
            os << stats::jsonEscape(e.error.message);
            os << '"';
        }
        os << ",\"windows\":" << e.windows
           << ",\"passes\":" << e.passes
           << ",\"cpi_mean\":" << e.cpiMean
           << ",\"cpi_ci95\":" << e.cpiCi95
           << ",\"est_cycles\":" << e.estCycles()
           << ",\"instructions\":" << e.instructions
           << ",\"ipc\":" << e.ipcMean()
           << ",\"data_refs\":" << e.dataRefs
           << ",\"l1_misses\":" << e.l1Misses
           << ",\"traps\":" << e.traps
           << ",\"miss_rate_mean\":" << e.missRateMean
           << ",\"miss_rate_ci95\":" << e.missRateCi95
           << ",\"miss_rate_degenerate\":"
           << (e.missRateDegenerate ? "true" : "false")
           << ",\"exact_miss_rate\":" << e.exactMissRate()
           << ",\"detailed_instructions\":"
           << e.detailedInstructions << '}';
        return;
    }
    const pipeline::RunResult &r = o.result;
    os << ",\"ok\":" << (r.ok ? "true" : "false");
    if (!r.ok) {
        os << ",\"error\":\"";
        os << stats::jsonEscape(r.error.message);
        os << '"';
    }
    os << ",\"cycles\":" << r.cycles
       << ",\"instructions\":" << r.instructions
       << ",\"ipc\":" << r.ipc()
       << ",\"data_refs\":" << r.dataRefs
       << ",\"l1_misses\":" << r.l1Misses
       << ",\"traps\":" << r.traps
       << ",\"replay_traps\":" << r.replayTraps
       << ",\"cond_branches\":" << r.condBranches
       << ",\"mispredicts\":" << r.mispredicts
       << ",\"cache_stall_slots\":" << r.cacheStallSlots
       << ",\"other_stall_slots\":" << r.otherStallSlots
       << ",\"handler_instructions\":" << r.handlerInstructions
       << ",\"mshr_full_rejects\":" << r.mshrFullRejects
       << ",\"bank_conflicts\":" << r.bankConflicts
       << '}';
}

void
writeReportJson(std::ostream &os,
                const std::vector<SweepOutcome> &outcomes)
{
    os << reportJsonPrefix;
    bool first_point = true;
    for (const SweepOutcome &o : outcomes) {
        if (!first_point)
            os << ',';
        first_point = false;
        writePointJson(os, o);
    }
    os << reportJsonSuffix;
}

std::string
describePoint(const SweepPoint &point)
{
    const pipeline::MachineConfig cfg = point.resolveConfig();
    std::string desc = simFormat(
        "%s %s mode=%s len=%u scale=%g L1=%lluKB/%u-way "
        "l2lat=%llu memlat=%llu mshrs=%u",
        cfg.name.c_str(), point.workload.c_str(),
        core::informingModeName(point.mode), point.handlerLen,
        point.scale,
        static_cast<unsigned long long>(cfg.l1.sizeBytes / 1024),
        cfg.l1.assoc,
        static_cast<unsigned long long>(cfg.mem.l2Latency),
        static_cast<unsigned long long>(cfg.mem.memLatency),
        cfg.mem.mshrs);
    if (!point.sample.empty())
        desc += simFormat(" sample=%s", point.sample.c_str());
    return desc;
}

} // namespace imo::sweep
