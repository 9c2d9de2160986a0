/**
 * @file
 * imo-perfbench: the repository benchmark's measuring program.
 *
 *   imo-perfbench --workload W --seed N --emit-reference FILE
 *       writes the reference outputs for the seed's inputs;
 *   imo-perfbench --workload W --seed N --seconds S --trace 0|1
 *                 --reference FILE --work-dir DIR [--results FILE]
 *       repeats the workload for S seconds, checks every output
 *       against the reference, and prints the metrics. The last
 *       stdout line is one JSON object: end-to-end metrics with
 *       --trace 0, per-layer metrics with --trace 1.
 *
 * perfbench/run.py builds this program and drives both steps.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hh"
#include "common/stats.hh"
#include "host.hh"
#include "probes.hh"
#include "sample/livepoint.hh"
#include "spans.hh"
#include "workloads.hh"

using namespace imo;
using namespace imo::perfbench;

namespace
{

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    double scale = 0.0; //!< 0 = the workload's default
    std::string workDir;
    std::string reference;
    std::string emitReference;
    std::string results;
    std::string traceOut;
    std::string commit = "unknown";
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "imo-perfbench: %s\n"
                 "usage: imo-perfbench --workload W --seed N "
                 "(--emit-reference FILE | --reference FILE --work-dir "
                 "DIR [--seconds S] [--trace 0|1] [--results FILE] "
                 "[--trace-out FILE] [--commit ID]) [--scale F]\n",
                 msg);
    std::exit(2);
}

double
parseNumber(const std::string &s, const char *flag)
{
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (s.empty() || *end != '\0' || !std::isfinite(v) || v < 0)
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string v = argv[++i];
        if (arg == "--workload")
            a.workload = v;
        else if (arg == "--seed")
            a.seed = static_cast<std::uint64_t>(parseNumber(v, "--seed"));
        else if (arg == "--seconds")
            a.seconds = parseNumber(v, "--seconds");
        else if (arg == "--trace")
            a.trace = parseNumber(v, "--trace") != 0.0;
        else if (arg == "--scale")
            a.scale = parseNumber(v, "--scale");
        else if (arg == "--work-dir")
            a.workDir = v;
        else if (arg == "--reference")
            a.reference = v;
        else if (arg == "--emit-reference")
            a.emitReference = v;
        else if (arg == "--results")
            a.results = v;
        else if (arg == "--trace-out")
            a.traceOut = v;
        else if (arg == "--commit")
            a.commit = v;
        else
            usage(("unknown option " + arg).c_str());
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (a.emitReference.empty() &&
        (a.reference.empty() || a.workDir.empty()))
        usage("--reference and --work-dir are required to measure");
    return a;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Percentile @p q of whole-millisecond latencies, read as grouped
 * data: a value v stands for the 1 ms bin [v - 0.5, v + 0.5), and the
 * percentile is interpolated inside the bin that holds it. The
 * library records times in whole ms, so this keeps sub-bin shifts of
 * the distribution visible instead of snapping to an integer.
 */
double
groupedPercentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double target = q * static_cast<double>(v.size());
    std::size_t lo = 0;
    while (lo < v.size()) {
        std::size_t hi = lo;
        while (hi < v.size() && v[hi] == v[lo])
            ++hi;
        if (static_cast<double>(hi) >= target) {
            const double within =
                (target - static_cast<double>(lo)) / (hi - lo);
            return v[lo] - 0.5 + within;
        }
        lo = hi;
    }
    return v.back() + 0.5;
}

double
peakRssMb()
{
    struct rusage self = {}, children = {};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(self.ru_maxrss + children.ru_maxrss) /
           1024.0;
}

struct Named
{
    std::string name;
    double value;
    const char *unit;
};

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

/** Repetitions of one run, and its set-up time samples. */
struct Repeated
{
    std::vector<RepResult> reps;
    std::vector<double> setups;
};

/** Set-up-only passes per repetition of a runSweep workload: set-up
 *  is short and noisy, so it is sampled up to this many times, or for
 *  up to setupBudgetNs, per repetition. */
constexpr int maxSetupPassesPerRep = 50;
constexpr std::int64_t setupBudgetNs = 100'000'000;

/** Repeat the workload until @p budget seconds have passed and at
 *  least @p min_reps repetitions ran. Untraced runSweep workloads also
 *  time set-up-only passes; farm-store times set-up in every
 *  repetition. */
Repeated
repeat(const RepContext &ctx, double budget, std::size_t min_reps,
       std::uint32_t first_rep)
{
    Repeated out;
    const bool farm = ctx.in.workload == Workload::FarmStore;
    const std::int64_t start = nowNs();
    while (out.reps.size() < min_reps ||
           (static_cast<double>(nowNs() - start) / 1e9 < budget &&
            out.reps.size() < 1000)) {
        if (!farm && !ctx.tracer.enabled()) {
            const std::int64_t t0 = nowNs();
            for (int i = 0; i < maxSetupPassesPerRep &&
                            nowNs() - t0 < setupBudgetNs;
                 ++i)
                out.setups.push_back(measureSetup(ctx));
        }
        out.reps.push_back(runRep(
            ctx, first_rep + static_cast<std::uint32_t>(out.reps.size())));
        if (farm)
            out.setups.push_back(out.reps.back().setupS);
    }
    return out;
}

/** Simulated machine statistics of one repetition's outcomes. */
void
simulatedCounts(const RepResult &r, Metrics &m)
{
    double cycles = 0, slots = 0, stall = 0, handler = 0, refs = 0,
           misses = 0, rejects = 0, branches = 0, mispredicts = 0;
    double mr_err = 0, cpi_ci = 0;
    std::uint64_t sampled = 0, mr_n = 0;
    for (const sweep::SweepOutcome &o : r.outcomes) {
        if (o.point.sample.empty()) {
            const pipeline::RunResult &x = o.result;
            cycles += x.cycles;
            slots += x.totalSlots();
            stall += x.cacheStallSlots;
            handler += x.handlerInstructions;
            refs += x.dataRefs;
            misses += x.l1Misses;
            rejects += x.mshrFullRejects;
            branches += x.condBranches;
            mispredicts += x.mispredicts;
            continue;
        }
        const sample::SampleEstimate &e = o.estimate;
        refs += e.dataRefs;
        misses += e.l1Misses;
        ++sampled;
        if (e.cpiMean > 0.0)
            cpi_ci += e.cpiCi95 / e.cpiMean;
        if (e.exactMissRate() > 0.0) {
            mr_err += std::fabs(e.missRateMean - e.exactMissRate()) /
                      e.exactMissRate();
            ++mr_n;
        }
    }
    m["pipeline.cycles"] = cycles;
    m["pipeline.cache_stall_frac"] = slots ? stall / slots : 0.0;
    m["core.handler_insts"] = handler;
    m["memory.l1_miss_rate"] = refs ? misses / refs : 0.0;
    m["memory.mshr_full_rejects"] = rejects;
    m["branch.mispredict_rate"] = branches ? mispredicts / branches : 0.0;
    m["sampled_mr_err_pct"] = mr_n ? 100.0 * mr_err / mr_n : 0.0;
    m["sampled_cpi_ci_pct"] = sampled ? 100.0 * cpi_ci / sampled : 0.0;
}

/** Pool utilisation and tail of the runSweep repetitions. */
void
poolMetrics(const std::vector<RepResult> &reps, unsigned jobs, Metrics &m)
{
    std::vector<double> busy, tail;
    for (const RepResult &r : reps) {
        if (r.timings.empty())
            continue;
        double point_ms = 0.0;
        for (const double ms : r.pointMs)
            point_ms += ms;
        const double wall_ms =
            static_cast<double>(r.poolEndNs - r.poolStartNs) / 1e6;
        busy.push_back(point_ms / (jobs * wall_ms));
        // The first thread to find the queue empty is the first to
        // finish its last point; the rest of the call is the tail.
        std::map<std::uint64_t, std::uint64_t> last_end; // per thread
        for (const sweep::PointTiming &t : r.timings) {
            if (t.ran)
                last_end[t.threadId] =
                    std::max(last_end[t.threadId], t.endMs);
        }
        std::uint64_t first_idle = UINT64_MAX;
        for (const auto &[tid, end] : last_end) {
            (void)tid;
            first_idle = std::min(first_idle, end);
        }
        tail.push_back(std::max(
            0.0, static_cast<double>(r.poolEndNs) / 1e6 -
                     static_cast<double>(first_idle)));
    }
    m["sweep.busy_frac"] = median(busy);
    m["sweep.tail_ms"] = median(tail);
}

void
farmMetrics(const std::vector<RepResult> &reps, unsigned jobs, Metrics &m)
{
    std::vector<double> lease, overhead;
    double hits = 0, slots = 0, retries = 0, lost = 0;
    for (const RepResult &r : reps) {
        if (r.slots.empty())
            continue;
        for (const farm::SlotRecord &s : r.slots) {
            if (s.storeHit || !s.done)
                continue;
            lease.push_back(std::max(
                0.0, static_cast<double>(s.endMs - s.startMs) -
                         static_cast<double>(s.simulateMs)));
        }
        overhead.push_back(
            r.farmElapsedMs
                ? 1.0 - static_cast<double>(r.simulateMsSum) /
                            (jobs * static_cast<double>(r.farmElapsedMs))
                : 0.0);
        hits += r.farmStats.storeHits;
        slots += r.farmStats.uniqueSlots;
        retries += r.farmStats.retries;
        lost += r.farmStats.workersLost;
    }
    m["farm.lease_ms_p50"] = groupedPercentile(lease, 0.50);
    m["farm.lease_ms_p90"] = groupedPercentile(lease, 0.90);
    m["farm.overhead_frac"] = median(overhead);
    m["farm.store_hit_rate"] = slots ? hits / slots : 0.0;
    m["farm.retries"] = retries;
    m["farm.workers_lost"] = lost;
}

/** Layer times from the traced repetitions' spans. */
void
spanMetrics(const std::map<std::string, SpanTotals> &totals,
            const std::vector<RepResult> &traced, Metrics &m)
{
    const double n = traced.empty() ? 1.0 : traced.size();
    const auto per_rep = [&](const std::string &name) {
        const auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second.totalMs / n;
    };
    m["workloads.build_ms"] = per_rep("workloads.build");
    m["core.instrument_ms"] = per_rep("core.instrument");
    m["pipeline.ooo_ms"] = per_rep("pipeline.simulate.ooo");
    m["pipeline.inorder_ms"] = per_rep("pipeline.simulate.inorder");
    double ooo_insts = 0, inorder_insts = 0;
    if (!traced.empty()) {
        for (const sweep::SweepOutcome &o : traced.front().outcomes) {
            if (!o.point.sample.empty())
                continue;
            (o.point.machine == "ooo" ? ooo_insts : inorder_insts) +=
                o.result.instructions;
        }
    }
    const auto kips = [](double insts, double ms) {
        return ms > 0.0 ? insts / ms : 0.0; // inst/ms = kinst/s
    };
    m["pipeline.ooo_kips"] = kips(ooo_insts, m["pipeline.ooo_ms"]);
    m["pipeline.inorder_kips"] =
        kips(inorder_insts, m["pipeline.inorder_ms"]);

    double run_ms = 0.0;
    for (const coherence::AccessMethod meth : fig4Methods()) {
        const std::string name = std::string("coherence.run.") +
                                 methodName(meth);
        m["coherence.run_ms." + std::string(methodName(meth))] =
            per_rep(name);
        run_ms += per_rep(name);
    }
    double refs = 0.0;
    if (!traced.empty()) {
        for (const coherence::CoherenceResult &c : traced.front().cells)
            refs += c.refs;
    }
    m["coherence.refs_per_s"] = run_ms > 0.0 ? refs / (run_ms / 1e3) : 0.0;
}

/** Per-layer metric units, in output order. */
const std::vector<std::pair<std::string, const char *>> &
layerUnits()
{
    static const std::vector<std::pair<std::string, const char *>> u = {
        {"workloads.build_ms", "ms"},
        {"core.instrument_ms", "ms"},
        {"isa.fingerprint_ms", "ms"},
        {"func.ff_mips", "Minst/s"},
        {"func.exec_ms", "ms"},
        {"memory.classify_ns_per_ref", "ns"},
        {"memory.classify_refs", "count"},
        {"memory.l1_miss_rate", "frac"},
        {"memory.mshr_full_rejects", "count"},
        {"branch.mispredict_rate", "frac"},
        {"pipeline.ooo_ms", "ms"},
        {"pipeline.inorder_ms", "ms"},
        {"pipeline.ooo_kips", "kinst/s"},
        {"pipeline.inorder_kips", "kinst/s"},
        {"pipeline.cycles", "count"},
        {"pipeline.cache_stall_frac", "frac"},
        {"core.handler_insts", "count"},
        {"sample.shared_pass_ms", "ms"},
        {"sample.sampler_ms", "ms"},
        {"sample.windows", "count"},
        {"sample.window_us", "us"},
        {"sample.lib_bytes", "bytes"},
        {"sample.lib_serialize_ms", "ms"},
        {"sample.lib_parse_ms", "ms"},
        {"sample.exec_restore_us", "us"},
        {"sample.lib_reused", "count"},
        {"sampled_mr_err_pct", "%"},
        {"sampled_cpi_ci_pct", "%"},
        {"sweep.busy_frac", "frac"},
        {"sweep.tail_ms", "ms"},
        {"sweep.plan_ms", "ms"},
        {"farm.lease_ms_p50", "ms"},
        {"farm.lease_ms_p90", "ms"},
        {"farm.overhead_frac", "frac"},
        {"farm.store_get_us", "us"},
        {"farm.store_put_us", "us"},
        {"farm.store_hit_rate", "frac"},
        {"farm.frame_us", "us"},
        {"farm.retries", "count"},
        {"farm.workers_lost", "count"},
        {"coherence.run_ms.refcheck", "ms"},
        {"coherence.run_ms.ecc", "ms"},
        {"coherence.run_ms.informing", "ms"},
        {"coherence.run_ms.hardware", "ms"},
        {"coherence.refs_per_s", "1/s"},
        {"bench.point_samples", "count"},
        {"bench.trace_overhead_pct", "%"},
    };
    return u;
}

std::string
metricsJson(const std::vector<Named> &metrics)
{
    std::string s = "{";
    for (const Named &n : metrics) {
        if (s.size() > 1)
            s += ",";
        s += "\"" + n.name + "\":{\"value\":" + number(n.value) +
             ",\"unit\":\"" + n.unit + "\"}";
    }
    return s + "}";
}

std::uint64_t
referenceDigest(const Reference &ref)
{
    std::uint64_t h = sample::fnv1a64(nullptr, 0);
    for (const std::string &p : ref.points)
        h = sample::fnv1a64(p.data(), p.size(), h);
    for (const std::string &c : ref.cells)
        h = sample::fnv1a64(c.data(), c.size(), h);
    return h;
}

int
measure(const Args &a, const Inputs &in, unsigned jobs)
{
    const Reference ref = readReference(a.reference);
    sim_throw_if(ref.points.size() != sweep::expandGrid(in.grid).size(),
                 ErrCode::BadConfig,
                 "perfbench: reference '%s' does not match the grid",
                 a.reference.c_str());
    std::filesystem::create_directories(a.workDir);
    const HostRecord host = recordHost(a.commit);

    Tracer off(false);
    Tracer on(true);
    const double budget = a.trace ? a.seconds / 2 : a.seconds;
    const Repeated untraced =
        repeat(RepContext{in, ref, jobs, off, a.workDir, false}, budget,
               2, 0);
    const std::vector<RepResult> &plain = untraced.reps;
    const double peak_mb = peakRssMb();

    std::vector<RepResult> traced;
    Metrics layer;
    if (a.trace) {
        traced = repeat(RepContext{in, ref, jobs, on, a.workDir,
                                   in.workload == Workload::PaperFigures},
                        budget, 1, static_cast<std::uint32_t>(plain.size()))
                     .reps;
        on.setRun(static_cast<std::uint32_t>(plain.size() + traced.size()));
        runProbes(in, ref, on, a.workDir, layer);
    }

    std::uint64_t attempted = 0, failed = 0;
    std::vector<double> wall, point_ms;
    const std::vector<double> &setup = untraced.setups;
    for (const RepResult &r : plain) {
        wall.push_back(r.wallS);
        point_ms.insert(point_ms.end(), r.pointMs.begin(), r.pointMs.end());
    }
    for (const RepResult &r : plain) {
        attempted += r.attempted;
        failed += r.failed;
    }
    for (const RepResult &r : traced) {
        attempted += r.attempted;
        failed += r.failed;
    }
    double insts = 0.0;
    for (const std::uint64_t n : ref.instructions)
        insts += static_cast<double>(n);
    const double wall_s = median(wall);
    const std::size_t beyond_p90 = point_ms.size() / 10;

    const std::vector<Named> e2e = {
        {"wall_s", wall_s, "s"},
        {"setup_s", median(setup), "s"},
        {"sim_mips", wall_s > 0.0 ? insts / wall_s / 1e6 : 0.0, "Minst/s"},
        {"point_ms_p50", groupedPercentile(point_ms, 0.50), "ms"},
        {"point_ms_p90", groupedPercentile(point_ms, 0.90), "ms"},
        {"peak_rss_mb", peak_mb, "MB"},
    };

    simulatedCounts(plain.front(), layer);
    poolMetrics(plain, jobs, layer);
    farmMetrics(plain, jobs, layer);
    layer["sample.lib_reused"] = static_cast<double>(plain.front().libReused);
    layer["bench.point_samples"] = static_cast<double>(point_ms.size());
    const std::map<std::string, SpanTotals> totals = on.totals();
    if (a.trace) {
        spanMetrics(totals, traced, layer);
        std::vector<double> traced_wall;
        for (const RepResult &r : traced)
            traced_wall.push_back(r.wallS);
        layer["bench.trace_overhead_pct"] =
            100.0 * (median(traced_wall) / wall_s - 1.0);
    }
    std::vector<Named> per_layer;
    for (const auto &[name, unit] : layerUnits())
        per_layer.push_back({name, layer[name], unit});

    // Human-readable report, then the result record.
    std::printf("perfbench %s seed=%llu scale=%g jobs=%u reps=%zu "
                "traced_reps=%zu\n",
                workloadName(in.workload),
                static_cast<unsigned long long>(a.seed), in.grid.scale,
                jobs, plain.size(), traced.size());
    std::printf("host %s\n", host.json().c_str());
    for (const Named &n : e2e)
        std::printf("metric %-28s %14s %s\n", n.name.c_str(),
                    number(n.value).c_str(), n.unit);
    std::printf("metric %-28s %14s %s (%llu of %llu attempted)\n",
                "failed_frac",
                number(attempted ? static_cast<double>(failed) / attempted
                                 : 0.0)
                    .c_str(),
                "frac", static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    std::printf("metric %-28s %14zu count (p90 has %zu beyond it%s)\n",
                "point_samples", point_ms.size(), beyond_p90,
                beyond_p90 < 10 ? ", fewer than 10: p90 not reportable"
                                : "");
    if (in.workload == Workload::SampledSweep) {
        for (const char *name : {"sampled_mr_err_pct", "sampled_cpi_ci_pct"})
            std::printf("metric %-28s %14s %%\n", name,
                        number(layer[name]).c_str());
    } else {
        std::printf("metric %-28s %14s (no sampled points)\n",
                    "sampled_mr_err_pct", "n/a");
        std::printf("metric %-28s %14s (no sampled points)\n",
                    "sampled_cpi_ci_pct", "n/a");
    }
    if (a.trace) {
        for (const Named &n : per_layer)
            std::printf("layer  %-28s %14s %s\n", n.name.c_str(),
                        number(n.value).c_str(), n.unit);
        for (const auto &[name, t] : totals)
            std::printf("span   %-36s n=%-6llu total_ms=%-12s self_ms=%s\n",
                        name.c_str(),
                        static_cast<unsigned long long>(t.count),
                        number(t.totalMs).c_str(), number(t.selfMs).c_str());
        if (!a.traceOut.empty())
            on.writeChrome(a.traceOut,
                           std::string(workloadName(in.workload)) +
                               " seed " + std::to_string(a.seed));
    }

    const bool correct = failed == 0;
    const std::string metrics = metricsJson(a.trace ? per_layer : e2e);
    if (!a.results.empty()) {
        std::ostringstream self;
        const char *sep = "";
        for (const auto &[name, t] : totals) {
            self << sep << '"' << stats::jsonEscape(name)
                 << "\":{\"count\":" << t.count
                 << ",\"total_ms\":" << number(t.totalMs)
                 << ",\"self_ms\":" << number(t.selfMs) << '}';
            sep = ",";
        }
        std::ofstream os(a.results, std::ios::trunc);
        char digest[17];
        std::snprintf(digest, sizeof(digest), "%016llx",
                      static_cast<unsigned long long>(referenceDigest(ref)));
        os << "{\"workload\":\"" << workloadName(in.workload)
           << "\",\"seed\":" << a.seed << ",\"scale\":"
           << number(in.grid.scale) << ",\"jobs\":" << jobs
           << ",\"trace\":" << (a.trace ? 1 : 0)
           << ",\"reps\":" << plain.size()
           << ",\"traced_reps\":" << traced.size()
           << ",\"host\":" << host.json()
           << ",\"report_digest\":\"" << digest
           << "\",\"instructions\":" << number(insts)
           << ",\"correct\":" << (correct ? "true" : "false")
           << ",\"attempted\":" << attempted << ",\"failed\":" << failed
           << ",\"rep_wall_s\":[";
        for (std::size_t i = 0; i < wall.size(); ++i)
            os << (i ? "," : "") << number(wall[i]);
        os << "],\"rep_setup_s\":[";
        for (std::size_t i = 0; i < setup.size(); ++i)
            os << (i ? "," : "") << number(setup[i]);
        os << "],\"end_to_end\":" << metricsJson(e2e)
           << ",\"per_layer\":" << metricsJson(per_layer)
           << ",\"span_self_time\":{" << self.str() << "}}\n";
        sim_throw_if(!os.flush(), ErrCode::BadConfig,
                     "perfbench: cannot write results '%s'",
                     a.results.c_str());
    }
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":%s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), metrics.c_str());
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    try {
        const Workload w = parseWorkload(a.workload);
        // At most 4 pool threads or farm workers, and no more than the
        // host has.
        const unsigned jobs = std::min(
            4u, std::max(1u, std::thread::hardware_concurrency()));
        const Inputs in = makeInputs(
            w, a.seed, a.scale > 0.0 ? a.scale : defaultScale(w));
        if (!a.emitReference.empty()) {
            writeReference(a.emitReference, computeReference(in, jobs));
            return 0;
        }
        return measure(a, in, jobs);
    } catch (const SimException &e) {
        std::fprintf(stderr, "imo-perfbench: %s\n", e.what());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "imo-perfbench: %s\n", e.what());
    }
    return 1;
}
